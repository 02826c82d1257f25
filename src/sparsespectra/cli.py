"""Command-line front end: sampling, spectra, limit curves, supports.

Every command is deterministic given its flags, and every output file
carries a '#'-prefixed metadata header echoing the configuration that
produced it. Plotting is left to external tools; this program emits data.

Measure specs accepted by --measure:

    delta:1                                   point mass
    atoms:0.5=0.75,7=0.25                     finite discrete law
    two-atom:alpha=7,beta=0.5                 unit-mean two-atom law
    one-plus-exponential:rate=1               1 + Exp(rate), scaled
    uniform:low=0,high=2
    groups:sqrt@one-plus-exponential(rate=1)@sqrt;rest@uniform(low=0,high=2)@log
    path/to/file                              'location weight' lines

Continuous families are rescaled to unit mean once, then sampled i.i.d. on
the graph side and quantized on the limit-law side. The groups form feeds the
mixed-regime degree builder and is only meaningful for sampling commands.

A config file (--config, key=value lines, '#' comments) may supply any
flag by its long name; explicit flags win.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .degrees import DegreeGroup, _resolve_scale, build_degree_sequence, build_grouped_degrees
from .families import ContinuousLaw, parse_family
from .graphs import sample_configuration, sample_poissonized, scaled_adjacency
from .limit_law import (
    ConvergenceError,
    DensityCurve,
    density_curve,
    quantize_measure,
)
from .measures import DiscreteMeasure, kolmogorov_distance, kolmogorov_vs_cdf, wasserstein1
from .spectrum import eigenvalues_symmetric, trace_distance_bound, write_histogram_csv, write_spectrum_csv
from .support import TwoAtomLaw, _xi_and_slope, phase_diagram, support_mp
from .tables import write_table

__all__ = ["main"]

_MISSING = object()


# -- spec parsing -----------------------------------------------------------


def parse_measure_spec(text: str):
    """Decode a --measure value; see the module docstring for the grammar.

    Returns a DiscreteMeasure, a ContinuousLaw, or a list of DegreeGroup.
    """
    text = text.strip()
    if os.path.exists(text):
        pairs = []
        with open(text) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                loc, wt = line.replace(",", " ").split()
                pairs.append((float(loc), float(wt)))
        return DiscreteMeasure.from_pairs(pairs)
    head, _, tail = text.partition(":")
    head = head.strip().lower()
    if head == "delta":
        return DiscreteMeasure.point_mass(float(tail))
    if head == "atoms":
        pairs = []
        for item in tail.split(","):
            loc, wt = item.split("=")
            pairs.append((float(loc), float(wt)))
        return DiscreteMeasure.from_pairs(pairs)
    if head == "two-atom":
        kw = dict(item.split("=") for item in tail.split(","))
        unknown = sorted(set(kw) - {"alpha", "beta"})
        if unknown:
            raise ValueError(f"unknown parameters {unknown} for two-atom")
        missing = [key for key in ("alpha", "beta") if key not in kw]
        if missing:
            raise ValueError(f"two-atom spec lacks {' and '.join(missing)}")
        return TwoAtomLaw(alpha=float(kw["alpha"]), beta=float(kw["beta"])).measure()
    if head == "groups":
        groups = []
        for block in tail.split(";"):
            count_s, family_s, scale_s = block.split("@")
            count: str | int | float
            if count_s in ("rest", "sqrt"):
                count = count_s
            elif "." in count_s:
                count = float(count_s)
            else:
                count = int(count_s)
            scale: str | float = scale_s if scale_s in ("sqrt", "log") else float(scale_s)
            groups.append(DegreeGroup(count=count, law=parse_family(family_s), scale=scale))
        return groups
    if "(" in text:
        return parse_family(text)
    return parse_family(f"{head}({tail})")


def _read_measure(run: _Run):
    """The --measure spec, a continuous law rescaled to unit mean."""
    spec = parse_measure_spec(run.get("measure"))
    return spec.normalized() if isinstance(spec, ContinuousLaw) else spec


def _limit_weight_law(spec, quantize_m: int) -> DiscreteMeasure:
    """Weight law for the limit-law/support modules (unit-mean, atomic)."""
    if isinstance(spec, list):
        raise ValueError("a groups spec has no single limiting weight law")
    return quantize_measure(spec, quantize_m)


def _build_sequence(run: _Run, spec, n: int, seed: int):
    if isinstance(spec, list):
        return build_grouped_degrees(spec, n, seed=seed)
    omega_target = _resolve_scale(run.get("omega", default="sqrt"), n)
    return build_degree_sequence(spec, n, omega_target, seed=seed)


def _parse_grid(text: str) -> tuple[float, int]:
    x_max_s, _, points_s = text.partition(":")
    x_max = float(x_max_s)
    points = int(points_s) if points_s else 601
    if x_max <= 0 or points < 2:
        raise ValueError(f"bad grid spec {text!r}")
    return x_max, points


def _parse_linspace(text: str) -> np.ndarray:
    lo_s, hi_s, count_s = text.split(":")
    return np.linspace(float(lo_s), float(hi_s), int(count_s))


# -- config-file merging ----------------------------------------------------


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


class _Run:
    """Flag/config merger: explicit flags beat config values beat defaults."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.config = _read_config(args.config) if getattr(args, "config", None) else {}

    def get(self, key: str, cast=str, default=_MISSING):
        flag = getattr(self.args, key, None)
        if flag is not None:
            return flag
        if key in self.config:
            raw = self.config[key]
            if cast is bool:
                return raw.lower() in ("1", "true", "yes", "on")
            return cast(raw)
        if default is _MISSING:
            raise SystemExit(f"missing required parameter --{key.replace('_', '-')}")
        return default

    def flag(self, key: str) -> bool:
        if getattr(self.args, key, False):
            return True
        return bool(self.get(key, cast=bool, default=False))

    def echo(self, **extra) -> dict:
        """Metadata dictionary echoing the effective configuration."""
        meta = dict(extra)
        meta["command"] = self.args.command
        # config/out are bookkeeping, not part of what was computed; echoing
        # them would make reruns in another directory byte-different
        skip = ("command", "func", "config", "out")
        for key, value in sorted(vars(self.args).items()):
            if key in skip or value is None:
                continue
            meta.setdefault(key, value)
        for key, value in self.config.items():
            if key not in skip:
                meta.setdefault(key, value)
        return meta


def _out_dir(run: _Run) -> str:
    out = run.get("out", default=".")
    os.makedirs(out, exist_ok=True)
    return out


# -- commands ---------------------------------------------------------------


def _cmd_sample(run: _Run) -> int:
    n = run.get("n", int)
    seed = run.get("seed", int)
    seq = _build_sequence(run, _read_measure(run), n, seed)
    sampler = sample_poissonized if run.flag("poissonized") else sample_configuration
    graph = sampler(seq, seed=seed + 1)
    out = _out_dir(run)
    meta = run.echo(omega_realized=f"{seq.omega:.17g}", edge_total=graph.edge_total)
    graph.save_edges(os.path.join(out, "sample_edges.txt"), metadata=meta)
    seq.save(os.path.join(out, "sample_degrees.txt"))
    print(
        f"sampled n={n} edges={graph.edge_total} "
        f"omega={seq.omega:.6g} -> {out}/sample_edges.txt"
    )
    return 0


def _sampled_eigenvalues(run: _Run, spec, n: int, seed: int):
    seq = _build_sequence(run, spec, n, seed)
    sampler = sample_poissonized if run.flag("poissonized") else sample_configuration
    graph = sampler(seq, seed=seed + 1)
    adj = scaled_adjacency(graph, seq.omega, single=run.flag("single_adjacency"))
    return seq, graph, eigenvalues_symmetric(adj)


def _cmd_esd(run: _Run) -> int:
    n = run.get("n", int)
    seed = run.get("seed", int)
    spec = _read_measure(run)
    seq, graph, eigs = _sampled_eigenvalues(run, spec, n, seed)
    out = _out_dir(run)
    meta = run.echo(omega_realized=f"{seq.omega:.17g}", edge_total=graph.edge_total)
    write_spectrum_csv(os.path.join(out, "spectrum.csv"), eigs, metadata=meta)
    write_histogram_csv(os.path.join(out, "histogram.csv"), eigs, metadata=meta)
    print(f"eigenvalues: {len(eigs)}  range [{eigs.min():.6g}, {eigs.max():.6g}] -> {out}")
    return 0


def _cmd_density(run: _Run) -> int:
    spec = _read_measure(run)
    nu = _limit_weight_law(spec, run.get("quantize", int, default=2048))
    x_max, points = _parse_grid(run.get("grid", default="3.0:601"))
    eta = run.get("eta", float, default=1e-6)
    tol = run.get("tol", float, default=1e-10)
    out = _out_dir(run)
    curve = density_curve(nu, x_max, points, eta=eta, tol=tol)
    meta = run.echo(mass=f"{curve.mass:.17g}", nu_atoms=len(nu))
    curve.to_csv(os.path.join(out, "density.csv"), metadata=meta)
    print(f"density: {points} points, mass={curve.mass:.6f} -> {out}/density.csv")
    return 0


def _cmd_support(run: _Run) -> int:
    spec = _read_measure(run)
    nu = _limit_weight_law(spec, run.get("quantize", int, default=2048))
    min_gap = run.get("min_gap", float, default=1e-3)
    out = _out_dir(run)
    mp = support_mp(nu, min_gap=min_gap)
    mu = mp.symmetric_image()
    meta = run.echo(nu_atoms=len(nu))
    mp.to_csv(os.path.join(out, "support_square_law.csv"), metadata=meta)
    mu.to_csv(os.path.join(out, "support_symmetric.csv"), metadata=meta)
    _write_xi_trace(os.path.join(out, "xi_trace.csv"), nu, meta)
    pieces = ", ".join(f"[{a:.6g}, {b:.6g}]" for a, b in mu)
    print(f"support ({len(mu)} component{'s' if len(mu) != 1 else ''}): {pieces}")
    return 0


_XI_TRACE_ROWS = 20_000
_XI_TRACE_CELLS = 1 << 17  # point·atom cells evaluated at once


def _write_xi_trace(path, nu: DiscreteMeasure, metadata: dict) -> None:
    """Trace of the inverse transform over each pole-free interval.

    400 points per gap, fewer when there are more than 50 gaps, so the
    trace stays within _XI_TRACE_ROWS rows; every gap keeps at least one
    point (its left end), so past that many gaps the trace has one row
    per gap. Whole gaps are evaluated in blocks of at most
    _XI_TRACE_CELLS point·atom cells (at least one gap per block): all
    gaps at once would take points × atoms² memory.
    """
    locs, _ = nu.as_arrays()
    poles = np.sort(-1.0 / locs[locs > 0])
    span = float(poles[-1] - poles[0]) or 1.0
    lo = np.concatenate([[poles[0] - 1.5 * span], poles])
    hi = np.concatenate([poles, [0.0]])
    points_per_gap = max(1, min(400, _XI_TRACE_ROWS // len(lo)))
    vs = lo[:, None] + (hi - lo)[:, None] * np.linspace(1e-4, 1.0 - 1e-4, points_per_gap)
    step = max(1, _XI_TRACE_CELLS // (points_per_gap * len(poles)))
    blocks = [vs[k:k + step] for k in range(0, len(vs), step)]
    pairs = [_xi_and_slope(block, nu) for block in blocks]
    xis = np.concatenate([vals for vals, _ in pairs])
    slopes = np.concatenate([slopes for _, slopes in pairs])
    gaps = np.repeat(np.arange(len(vs)), points_per_gap)
    write_table(path, ("gap", "v", "xi", "xi_prime"), gaps, vs.ravel(), xis.ravel(),
                slopes.ravel(), metadata=metadata)


def _cmd_phase_diagram(run: _Run) -> int:
    alphas = _parse_linspace(run.get("alpha_range", default="1.05:20:200"))
    betas = _parse_linspace(run.get("beta_range", default="0.05:0.95:200"))
    hole, disc = phase_diagram(alphas, betas)
    out = _out_dir(run)
    path = os.path.join(out, "phase_diagram.csv")
    write_table(path, ("alpha", "beta", "has_hole", "discriminant"),
                np.repeat(alphas, len(betas)), np.tile(betas, len(alphas)), hole.ravel(),
                disc.ravel(), metadata=run.echo())
    print(f"phase diagram {len(alphas)}x{len(betas)} -> {path}")
    return 0


def _auto_curve(nu: DiscreteMeasure, run: _Run, eigs: np.ndarray) -> DensityCurve:
    grid_text = run.get("grid", default=None)
    if grid_text is None:
        top = max(float(np.abs(eigs).max()), math.sqrt(support_mp(nu).intervals[-1][1]))
        x_max, points = 1.05 * top + 0.25, 800
    else:
        x_max, points = _parse_grid(grid_text)
    eta = run.get("eta", float, default=1e-6)
    tol = run.get("tol", float, default=1e-10)
    return density_curve(nu, x_max, points, eta=eta, tol=tol)


def _cmd_compare(run: _Run) -> int:
    n = run.get("n", int)
    seed = run.get("seed", int)
    spec = _read_measure(run)
    nu = _limit_weight_law(spec, run.get("quantize", int, default=2048))
    seq, graph, eigs = _sampled_eigenvalues(run, spec, n, seed)
    curve = _auto_curve(nu, run, eigs)
    dist = kolmogorov_vs_cdf(eigs, lambda x: curve.cdf(x) / curve.mass)
    out = _out_dir(run)
    meta = run.echo(
        omega_realized=f"{seq.omega:.17g}",
        edge_total=graph.edge_total,
        kolmogorov=f"{dist:.17g}",
        mass=f"{curve.mass:.17g}",
    )
    write_spectrum_csv(os.path.join(out, "compare_spectrum.csv"), eigs, metadata=meta)
    curve.to_csv(os.path.join(out, "compare_density.csv"), metadata=meta)
    print(f"kolmogorov distance (ESD vs limit) = {dist:.6f}")
    return 0


def _cmd_couple(run: _Run) -> int:
    n = run.get("n", int)
    seed = run.get("seed", int)
    seq = _build_sequence(run, _read_measure(run), n, seed)
    g_conf = sample_configuration(seq, seed=seed + 1)
    g_pois = sample_poissonized(seq, seed=seed + 2)
    single = run.flag("single_adjacency")
    a = scaled_adjacency(g_conf, seq.omega, single=single)
    b = scaled_adjacency(g_pois, seq.omega, single=single)
    eig_a = eigenvalues_symmetric(a)
    eig_b = eigenvalues_symmetric(b)
    esd_a = DiscreteMeasure.from_samples(eig_a)
    esd_b = DiscreteMeasure.from_samples(eig_b)
    ks = kolmogorov_distance(esd_a, esd_b)
    w1 = wasserstein1(esd_a, esd_b)
    hw = trace_distance_bound(a, b)
    out = _out_dir(run)
    meta = run.echo(omega_realized=f"{seq.omega:.17g}")
    write_spectrum_csv(os.path.join(out, "couple_configuration.csv"), eig_a, metadata=meta)
    write_spectrum_csv(os.path.join(out, "couple_poissonized.csv"), eig_b, metadata=meta)
    write_table(os.path.join(out, "couple_summary.csv"), ("metric", "value"),
                np.array(["kolmogorov", "wasserstein1", "hoffman_wielandt_bound"]),
                np.array([ks, w1, hw]), metadata=meta)
    print(f"kolmogorov={ks:.6f} wasserstein1={w1:.6f} hw_bound={hw:.6f}")
    return 0


# -- parser -----------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, *, sampling: bool, limit: bool) -> None:
    sub.add_argument("--measure", help="weight-law spec (see --help of the program)")
    sub.add_argument("--config", help="key=value file supplying any flag; flags win")
    sub.add_argument("--out", help="output directory (default '.')")
    if sampling:
        sub.add_argument("--n", type=int, help="number of vertices")
        sub.add_argument("--omega", help="mean-degree rule: a number, 'sqrt', or 'log' (default sqrt)")
        sub.add_argument("--seed", type=int, help="RNG seed (required for sampling)")
        sub.add_argument("--poissonized", action="store_true", default=None,
                         help="Poisson edge counts instead of a configuration matching")
        sub.add_argument("--single-adjacency", dest="single_adjacency", action="store_true",
                         default=None, help="clamp every adjacency entry (diagonal too) to 1")
    if limit:
        sub.add_argument("--grid", help="density grid as X_MAX:POINTS (default 3.0:601)")
        sub.add_argument("--eta", type=float, help="final spectral offset (default 1e-6)")
        sub.add_argument("--tol", type=float, help="fixed-point residual tolerance (default 1e-10)")
        sub.add_argument("--quantize", type=int,
                         help="atoms used to quantize a continuous law (default 2048)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsespectra",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("sample", help="sample a multigraph and write its edge list")
    _add_common(p, sampling=True, limit=False)
    p.set_defaults(func=_cmd_sample)

    p = subs.add_parser("esd", help="sample, diagonalize, write spectrum + histogram")
    _add_common(p, sampling=True, limit=False)
    p.set_defaults(func=_cmd_esd)

    p = subs.add_parser("density", help="limit-law density curve for a weight law")
    _add_common(p, sampling=False, limit=True)
    p.set_defaults(func=_cmd_density)

    p = subs.add_parser("support", help="support intervals and inverse-transform trace")
    _add_common(p, sampling=False, limit=True)
    p.add_argument("--min-gap", dest="min_gap", type=float,
                   help="merge support gaps narrower than this (default 1e-3)")
    p.set_defaults(func=_cmd_support)

    p = subs.add_parser("phase-diagram", help="two-atom hole/no-hole sweep")
    _add_common(p, sampling=False, limit=False)
    p.add_argument("--alpha-range", dest="alpha_range", help="lo:hi:count (default 1.05:20:200)")
    p.add_argument("--beta-range", dest="beta_range", help="lo:hi:count (default 0.05:0.95:200)")
    p.set_defaults(func=_cmd_phase_diagram)

    p = subs.add_parser("compare", help="Kolmogorov distance between an ESD and the limit")
    _add_common(p, sampling=True, limit=True)
    p.set_defaults(func=_cmd_compare)

    p = subs.add_parser("couple", help="configuration vs poissonized sample on one degree sequence")
    _add_common(p, sampling=True, limit=False)
    p.set_defaults(func=_cmd_couple)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    run = _Run(args)
    try:
        return args.func(run)
    except ConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
