"""Workload plans: the fixed sequence of `sparsespectra` CLI commands a
workload runs, generated from the workload seed.

Each command is a dict with the CLI argv (without any output directory;
the worker appends `--out`), the command kind, and the output checks
that `checks.py` applies to its files. The seed only picks sampling seeds
and small perturbations of law parameters that keep every command on the
same code path (the same number of atoms, grid points and vertices), so
that different seeds measure the same amount of work.
"""

from __future__ import annotations

import random

WORKLOADS = ("spectra", "limit", "sample")

# gate 7's three-atom law, written as the CLI's atoms spec
_THREE_ATOM = "atoms:" + ",".join(
    f"{loc / 2.12!r}={wt!r}" for loc, wt in ((1.0, 0.5), (3.0, 0.49), (15.0, 0.01))
)
_GROUPS = "groups:sqrt@one-plus-exponential(rate=1)@sqrt;rest@uniform(low=0,high=2)@log"


def _cmd(kind: str, *flags: str, checks=()) -> dict:
    return {"kind": kind, "argv": [kind, *flags], "checks": [list(c) for c in checks]}


def _sampling_seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 2**31 - 2))


def spectra(rng: random.Random, smoke: bool) -> list[dict]:
    """Sampled spectrum against the limit law; dense eigvalsh dominates."""
    n, n_esd = (300, 400) if smoke else (2000, 2000)
    # gate 6 bounds the Kolmogorov distance at n=2000 and gate 8 the
    # coupling distance at n=2000; at smoke sizes only well-formedness and
    # the limit-law checks apply
    ks_compare = [("header_below", "compare_spectrum.csv", "kolmogorov", 0.05)] if not smoke else []
    ks_couple = [("summary_below", "couple_summary.csv", "kolmogorov", 0.08)] if not smoke else []
    return [
        _cmd("compare", "--measure", "two-atom:alpha=3,beta=0.5", "--n", str(n),
             "--seed", _sampling_seed(rng),
             checks=[*ks_compare, ("eigen_count", "compare_spectrum.csv", n),
                     ("unit_mass", "compare_density.csv")]),
        _cmd("compare", "--measure", "delta:1", "--n", str(n), "--seed", _sampling_seed(rng),
             checks=[*ks_compare, ("eigen_count", "compare_spectrum.csv", n),
                     ("unit_mass", "compare_density.csv"),
                     ("semicircle", "compare_density.csv")]),
        _cmd("couple", "--measure", "two-atom:alpha=3,beta=0.5", "--n", str(n),
             "--seed", _sampling_seed(rng),
             checks=[*ks_couple, ("eigen_count", "couple_configuration.csv", n),
                     ("eigen_count", "couple_poissonized.csv", n)]),
        _cmd("esd", "--measure", "one-plus-exponential:rate=1", "--n", str(n_esd),
             "--seed", _sampling_seed(rng),
             checks=[("eigen_count", "spectrum.csv", n_esd), ("histogram_mass", "histogram.csv")]),
    ]


def limit(rng: random.Random, smoke: bool) -> list[dict]:
    """Limit law and support scan only; no graph is sampled."""
    rate = f"{rng.uniform(0.95, 1.05):.4f}"
    low = f"{rng.uniform(0.0, 0.1):.4f}"
    split_alpha = f"{rng.uniform(6.9, 7.5):.4f}"  # above the beta=0.5 threshold 6.771
    joined_alpha = f"{rng.uniform(2.5, 3.5):.4f}"
    pts, fine, quantize, trace_q = ("101", "401", "256", "32") if smoke else ("201", "2401", "2048", "48")
    split = f"two-atom:alpha={split_alpha},beta=0.5"
    # every grid below covers its law's support, so gate 5's unit mass applies
    return [
        _cmd("density", "--measure", f"one-plus-exponential:rate={rate}", "--grid", f"3.5:{pts}",
             "--quantize", quantize, checks=[("unit_mass", "density.csv")]),
        _cmd("density", "--measure", f"uniform:low={low},high=2", "--grid", f"3.0:{pts}",
             "--quantize", quantize, checks=[("unit_mass", "density.csv")]),
        _cmd("density", "--measure", split, "--grid", f"5:{fine}",
             checks=[("unit_mass", "density.csv")]),
        _cmd("density", "--measure", "delta:1", "--grid", f"2.5:{fine}",
             checks=[("unit_mass", "density.csv"), ("semicircle", "density.csv")]),
        _cmd("support", "--measure", split,
             checks=[("two_atom_components", float(split_alpha), 0.5)]),
        _cmd("support", "--measure", f"two-atom:alpha={joined_alpha},beta=0.5",
             checks=[("two_atom_components", float(joined_alpha), 0.5)]),
        _cmd("support", "--measure", _THREE_ATOM, checks=[("min_components", 2)]),
        # stands in for the default --quantize 2048, which runs for minutes
        # in the xi-trace writer; at 48 atoms the writer still dominates
        _cmd("support", "--measure", f"one-plus-exponential:rate={rate}", "--quantize", trace_q,
             checks=[("min_components", 1)]),
        _cmd("support", "--measure", "delta:1", checks=[("semicircle_support",)]),
        _cmd("phase-diagram", *(("--alpha-range", "1.05:20:40", "--beta-range", "0.05:0.95:40")
                                if smoke else ()),
             checks=[("phase_diagram",)]),
    ]


def sample(rng: random.Random, smoke: bool) -> list[dict]:
    """Graph generation and edge-list output; no eigensolve, no limit law."""
    n, n_pois = (2000, 500) if smoke else (10000, 5000)
    return [
        _cmd("sample", "--measure", "one-plus-exponential:rate=1", "--n", str(n),
             "--seed", _sampling_seed(rng), checks=[("degrees_exact",), ("edge_total",)]),
        _cmd("sample", "--measure", "two-atom:alpha=3,beta=0.5", "--n", str(n_pois),
             "--seed", _sampling_seed(rng), "--poissonized", checks=[("edge_total",)]),
        _cmd("sample", "--measure", _GROUPS, "--n", str(2 * n),
             "--seed", _sampling_seed(rng), checks=[("degrees_exact",), ("edge_total",)]),
    ]


def plan(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The workload's command sequence; the same seed gives the same plan."""
    builders = {"spectra": spectra, "limit": limit, "sample": sample}
    return builders[workload](random.Random(f"{workload}:{seed}"), smoke)
