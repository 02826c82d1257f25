"""The package namespace: every exported name resolves, nothing else is exported, and
the benchmark tracer still finds every name it wraps."""

import importlib
import os
import pathlib
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
