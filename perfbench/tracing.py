"""Span recording around the package's public functions, from outside it.

`install` replaces every public function of each library module (the names in its
`__all__` that the module defines) with a wrapper that records a span, and
rebinds every module-level name that referred to the original, so calls
between modules (cli -> limit_law) and within one (support_mu ->
support_mp) are both recorded and spans nest. A few methods that do I/O or
build measures are wrapped on their classes. Counts are read from the
objects the wrapped functions return. The package source is not edited.

The scalar kernels `support.xi` and `support.xi_prime` stay unwrapped:
the xi-trace writer calls them once per point, and a span per call would
cost more than the call. Their time shows as `cli.unattributed_s`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("measures", "families", "degrees", "graphs", "spectrum", "limit_law", "support", "cli")
COMMANDS = ("sample", "esd", "density", "support", "phase-diagram", "compare", "couple")
UNWRAPPED = {"support.xi", "support.xi_prime"}
METHODS = (
    ("measures", "DiscreteMeasure", "from_samples"),
    ("graphs", "Multigraph", "save_edges"),
    ("limit_law", "DensityCurve", "to_csv"),
    ("support", "SupportIntervals", "to_csv"),
)


class Tracer:
    """Spans kept in memory as [name, start, end, parent, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int, counts: dict | None = None) -> None:
        self.spans[index][2] = time.perf_counter()
        if counts:
            self.spans[index][4].update(counts)
        self._open.pop()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(index)
                raise
            self.end(index, count(result, args) if count else None)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out


def _lanes(curve) -> int:
    """Points density_curve solves: the positive grid, plus two nodes for 0."""
    positive = int((curve.grid > 0).sum())
    return positive + (2 if curve.grid.size % 2 else 0)


COUNTS = {
    "degrees.build_degree_sequence": lambda seq, args: {"vertices": seq.n},
    "degrees.build_grouped_degrees": lambda seq, args: {"vertices": seq.n},
    "graphs.sample_configuration": lambda g, args: {"edge_instances": g.edge_total},
    "graphs.sample_poissonized": lambda g, args: {"edge_instances": g.edge_total},
    "spectrum.eigenvalues_symmetric": lambda eigs, args: {"n": len(eigs)},
    "limit_law.density_curve": lambda curve, args: {
        "iterations": curve.iterations,
        "grid_points": curve.grid.size,
        "lane_atom_iters": _lanes(curve) * len(args[0]) * curve.iterations,
        "max_residual": float(curve.residuals.max()),
    },
    "support.support_mp": lambda sup, args: {"atoms": len(args[0]), "components": len(sup)},
}


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions and listed methods in spans."""
    modules = {layer: importlib.import_module(f"sparsespectra.{layer}") for layer in LAYERS}
    wrapped: dict[int, object] = {}
    # cli exports only main; the worker records one cli.<command> span per call
    for layer, module in list(modules.items())[:-1]:
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr)
            name = f"{layer}.{getattr(fn, '__name__', attr)}"
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and name not in UNWRAPPED and id(fn) not in wrapped):
                wrapped[id(fn)] = tracer.wrap(name, fn, COUNTS.get(name))
    namespaces = [importlib.import_module("sparsespectra"), *modules.values()]
    for module in namespaces:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and id(value) in wrapped:
                setattr(module, attr, wrapped[id(value)])
    for layer, cls_name, method in METHODS:
        cls = getattr(modules[layer], cls_name)
        raw = inspect.getattr_static(cls, method)
        name = f"{layer}.{cls_name}.{method}"
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(tracer.wrap(name, raw.__func__)))
        else:
            setattr(cls, method, tracer.wrap(name, raw))


def layer_metrics(tracer: Tracer, commands: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    `commands` are the worker's per-command records: kind, bytes and files
    written. Times are inclusive span durations unless named `self`.
    """
    spans = tracer.spans
    self_time = tracer.self_times()

    def total(names) -> float:
        """Inclusive time of the outermost spans named in `names`."""
        inside = [False] * len(spans)  # some ancestor is named in `names`
        out = 0.0
        for k, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                inside[k] = inside[parent] or spans[parent][0] in names
            if name in names and not inside[k]:
                out += end - start
        return out

    def total_self(names) -> float:
        return float(sum(t for (name, *_), t in zip(spans, self_time) if name in names))

    def count(names, field) -> float:
        return float(sum(counts.get(field, 0) for name, *_, counts in spans if name in names))

    def calls(names) -> float:
        return float(sum(name in names for name, *_ in spans))

    build = {"degrees.build_degree_sequence", "degrees.build_grouped_degrees"}
    samplers = {"graphs.sample_configuration", "graphs.sample_poissonized"}
    eig = {"spectrum.eigenvalues_symmetric"}
    curve = {"limit_law.density_curve"}
    mp = {"support.support_mp"}
    m = {
        "degrees.build_s": total(build),
        "degrees.vertices": count(build, "vertices"),
        "graphs.configuration_s": total({"graphs.sample_configuration"}),
        "graphs.poissonized_s": total({"graphs.sample_poissonized"}),
        "graphs.adjacency_s": total({"graphs.scaled_adjacency"}),
        "graphs.save_edges_s": total({"graphs.Multigraph.save_edges"}),
        "graphs.edge_instances": count(samplers, "edge_instances"),
        "spectrum.eig_s": total(eig),
        "spectrum.eig_calls": calls(eig),
        "spectrum.eig_gflop_computed": sum(4.0 / 3.0 * c["n"] ** 3 for name, *_, c in spans
                                           if name in eig) / 1e9,
        "spectrum.write_s": total({"spectrum.write_spectrum_csv", "spectrum.write_histogram_csv"}),
        "measures.distance_s": total({"measures.kolmogorov_distance", "measures.wasserstein1",
                                      "measures.kolmogorov_vs_cdf",
                                      "measures.DiscreteMeasure.from_samples"}),
        "limit_law.density_curve_s": total(curve),
        "limit_law.quantize_s": total({"limit_law.quantize_measure"}),
        "limit_law.iterations": count(curve, "iterations"),
        "limit_law.grid_points": count(curve, "grid_points"),
        "limit_law.lane_atom_iters_computed": count(curve, "lane_atom_iters"),
        "limit_law.max_residual": max((c["max_residual"] for name, *_, c in spans if name in curve),
                                      default=0.0),
        "limit_law.to_csv_s": total({"limit_law.DensityCurve.to_csv"}),
        "support.support_mp_s": total(mp),
        "support.support_mu_s": total_self({"support.support_mu"}),
        "support.support_mp_calls": calls(mp),
        "support.atoms_scanned": count(mp, "atoms"),
        "support.components": count(mp, "components"),
        "support.to_csv_s": total({"support.SupportIntervals.to_csv"}),
    }
    eig_s = m["spectrum.eig_s"]
    m["spectrum.eig_gflops"] = m["spectrum.eig_gflop_computed"] / eig_s if eig_s > 0 else 0.0
    names = [name for name, *_ in spans]
    for layer in LAYERS[:-1]:
        layer_spans = {name for name in names if name.startswith(layer + ".")}
        m[f"{layer}.self_s"] = total_self(layer_spans)
    for kind in COMMANDS:
        m[f"cli.{kind.replace('-', '_')}_s"] = total({f"cli.{kind}"})
    m["cli.unattributed_s"] = total_self({f"cli.{kind}" for kind in COMMANDS})
    m["cli.bytes_written"] = float(sum(c["bytes"] for c in commands))
    m["cli.files_written"] = float(sum(c["files"] for c in commands))
    return m


def command_breakdown(tracer: Tracer) -> list[dict]:
    """Per command: inclusive time and counts of every span name under it.

    Reproduces single-case timings (one density_curve, one eigensolve)
    that the per-layer sums mix together.
    """
    spans = tracer.spans
    root = []
    for name, start, end, parent, counts in spans:
        root.append(root[parent] if parent >= 0 else len(root))
    out: dict[int, dict] = {}
    for k, (name, start, end, parent, counts) in enumerate(spans):
        if parent < 0:
            out[k] = {"command": name, "s": end - start, "spans": {}, "counts": {}}
            continue
        entry = out[root[k]]
        entry["spans"][name] = entry["spans"].get(name, 0.0) + end - start
        for field, value in counts.items():
            key = f"{name}.{field}"
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return list(out.values())
