"""The package namespace: every exported name resolves, nothing else is exported, the
command line reaches no private name of a package module, the README's library example
runs as written and its package map names only what exists, and the benchmark tracer
still finds every name it wraps."""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys
import textwrap

import sparsespectra

LIBRARY_MODULES = ("measures", "families", "degrees", "graphs", "spectrum", "limit_law", "support")


def test_every_module_export_resolves_and_the_package_exports_their_union():
    union = set()
    for layer in (*LIBRARY_MODULES, "tables", "cli"):
        module = importlib.import_module(f"sparsespectra.{layer}")
        for name in module.__all__:
            assert hasattr(module, name), f"{layer}.__all__ names missing {name}"
        if layer in LIBRARY_MODULES:
            union.update(module.__all__)
    assert len(sparsespectra.__all__) == len(set(sparsespectra.__all__))
    assert set(sparsespectra.__all__) == union
    for name in sparsespectra.__all__:
        assert hasattr(sparsespectra, name), name


def test_the_cli_imports_no_private_name_from_a_package_module():
    # a private helper the CLI needs belongs behind a public entry of its module
    cli = pathlib.Path(importlib.import_module("sparsespectra.cli").__file__)
    private = [f"{node.module}.{alias.name}"
               for node in ast.walk(ast.parse(cli.read_text()))
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").startswith("sparsespectra"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_the_readme_library_quick_start_runs_as_written(capsys):
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Quick start (library)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert [line.partition(":")[0] for line in printed] == ["KS distance to the limit", "support"]


def test_the_readme_package_map_names_only_what_exists():
    # a backticked code name (one holding `_` or a capital) in a row must
    # resolve in that row's module or in the package namespace
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Package map", 1)[1].split("\n## ", 1)[0]
    rows = [re.split(r"(?<!\\)\|", line)[1:3] for line in table.splitlines()
            if line.startswith("| `")]
    assert len(rows) == len(LIBRARY_MODULES) + 2
    missing = []
    for module_cell, contents in rows:
        module = importlib.import_module(f"sparsespectra.{module_cell.strip().strip('`')}")
        for code in re.findall(r"`([^`]+)`", contents):
            name = re.fullmatch(r"([A-Za-z_][\w.]*)(\(.*\))?", code)
            if not name or not re.search(r"[_A-Z]", name.group(1)):
                continue
            if not any(_resolves(space, name.group(1)) for space in (module, sparsespectra)):
                missing.append(f"{module.__name__}: {code}")
    assert missing == []


def _resolves(space, dotted: str) -> bool:
    for attr in dotted.split("."):
        if not hasattr(space, attr):
            return False
        space = getattr(space, attr)
    return True


def test_the_benchmark_tracer_wraps_every_function_and_method_it_names():
    # perfbench/tracing.py wraps the package from outside; a name it lists
    # that the package no longer has would crash or silently drop its span
    root = pathlib.Path(__file__).resolve().parents[1]
    script = textwrap.dedent("""
        import importlib, inspect
        import tracing
        tracing.install(tracing.Tracer())
        def wrapped(layer, *path):
            obj = importlib.import_module(f"sparsespectra.{layer}")
            for attr in path[:-1]:
                obj = getattr(obj, attr)
            raw = inspect.getattr_static(obj, path[-1])
            return hasattr(getattr(raw, "__func__", raw), "__wrapped__")
        names = [name.split(".") for name in tracing.COUNTS] + list(tracing.METHODS)
        print([".".join(name) for name in names if not wrapped(*name)])
    """)
    path = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_importing_the_cli_leaves_the_thread_pool_module_unloaded():
    # spectrum imports concurrent.futures inside the pair function: at module
    # level it pulls in logging, about 6 ms of every command's start-up
    root = pathlib.Path(__file__).resolve().parents[1]
    script = "import sys, sparsespectra.cli; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


def test_the_exact_distances_leave_numpy_ma_unloaded():
    # numpy's union1d imports numpy.ma on first use, about 9 ms that
    # `couple` paid for its two distances
    root = pathlib.Path(__file__).resolve().parents[1]
    script = textwrap.dedent("""
        import sys
        from sparsespectra import DiscreteMeasure, kolmogorov_distance, wasserstein1
        a = DiscreteMeasure.from_samples([0.0, 1.0, 1.0, 2.5])
        b = DiscreteMeasure.from_samples([0.5, 1.0, 3.0])
        print(kolmogorov_distance(a, b), wasserstein1(a, b), 'numpy.ma' in sys.modules)
    """)
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split()[-1] == "False"
