"""Command-line front end: sampling, spectra, limit curves, supports.

Every command is deterministic given its flags, and every output file
carries a '#'-prefixed metadata header echoing the configuration that
produced it. Plotting is left to external tools; this program emits data.

Measure specs accepted by --measure:

    delta:1                                   point mass
    atoms:0.5=0.75,7=0.25                     finite discrete law
    two-atom:alpha=7,beta=0.5                 unit-mean two-atom law
    one-plus-exponential:rate=1               scale·(1 + Exp(rate)); scale=1
    uniform:low=0,high=2                      Uniform[low, high]; low=0, high=1
    groups:sqrt@one-plus-exponential(rate=1)@sqrt;rest@uniform(low=0,high=2)@log
    path/to/file                              'location weight' lines

A named law is NAME:KEY=VALUE,... or NAME(KEY=VALUE,...) anywhere, its
parameters keywords given at most once, defaulting as shown (two-atom has
no defaults). A groups block takes a continuous law, not two-atom.

Every law but a groups spec is rescaled to unit mean once; a continuous
law is then sampled i.i.d. on the graph side and quantized on the limit-law
side. The groups form feeds the mixed-regime degree builder and is only
meaningful for sampling commands.

Each command takes only the flags it reads (see `sparsespectra COMMAND -h`,
which prints every default). A config file (--config, key=value lines, '#'
comments) may supply any of them by its long name; explicit flags win.
Output headers echo every effective setting, defaults included.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from .degrees import DegreeGroup, _resolve_scale, build_degree_sequence, build_grouped_degrees
from .families import OnePlusExponential, UniformLaw
from .graphs import (sample_configuration, sample_poissonized, scaled_adjacency,
                     scaled_adjacency_distance, scaled_adjacency_pair)
from .limit_law import (DEFAULT_ETA, DEFAULT_QUANTIZE, DEFAULT_TOL, ConvergenceError,
                        density_curve, quantize_measure)
from .measures import DiscreteMeasure, kolmogorov_distance, kolmogorov_vs_cdf, wasserstein1
from .spectrum import (eigenvalues_symmetric, eigenvalues_symmetric_pair, write_histogram_csv,
                       write_spectrum_csv)
from .support import DEFAULT_MIN_GAP, TwoAtomLaw, phase_diagram, support_mp, xi
from .tables import write_table

__all__ = ["main"]


# -- spec parsing -----------------------------------------------------------


_LAWS = {"one-plus-exponential": OnePlusExponential, "uniform": UniformLaw, "two-atom": TwoAtomLaw}


def _split(what: str, text: str, form: str, sep: str, *types) -> list:
    """`text` cut at `sep` into one part per type, each converted by its type;
    any other count of parts, or a part its type rejects, raises a ValueError
    that quotes `text` and names the expected `form`."""
    parts = text.split(sep)
    try:
        if len(parts) == len(types):
            return [convert(part) for convert, part in zip(types, parts)]
    except ValueError:
        pass
    raise ValueError(f"{what} {text!r}: expected {form}")


def _items(what: str, text: str, form: str, key) -> list[tuple]:
    """The comma-separated KEY=VALUE items of `text` as (key(KEY), float(VALUE)) pairs."""
    return [tuple(_split(f"{what} item", item, form, "=", key, float))
            for item in text.split(",")]


def _parse_law(text: str):
    """A law of `_LAWS` from NAME:KEY=VALUE,... or NAME(KEY=VALUE,...).

    The parameters are the law's dataclass fields, each a keyword given at
    most once; one left out takes the field's default.
    """
    name, paren, args = text.partition("(")
    if paren:
        if not args.endswith(")"):
            raise ValueError(f"law {text!r}: expected NAME(KEY=VALUE,...)")
        args = args[:-1]
    else:
        name, _, args = text.partition(":")
    name = name.strip().lower()
    if name not in _LAWS:
        raise ValueError(f"unknown family {name!r}")
    params: dict[str, float] = {}
    for key, value in _items(name, args, "KEY=VALUE", str.strip) if args.strip() else ():
        if key in params:
            raise ValueError(f"{name} parameter {key!r} given twice")
        params[key] = value
    fields = dataclasses.fields(_LAWS[name])
    unknown = sorted(set(params) - {f.name for f in fields})
    if unknown:
        raise ValueError(f"unknown parameters {unknown} for {name}")
    missing = [f.name for f in fields if f.name not in params and f.default is dataclasses.MISSING]
    if missing:
        raise ValueError(f"{name} spec lacks {' and '.join(missing)}")
    return _LAWS[name](**params)


def _group_count(text: str) -> str | int | float:
    return text if text in ("rest", "sqrt") else float(text) if "." in text else int(text)


def _group_scale(text: str) -> str | float:
    return text if text in ("sqrt", "log") else float(text)


def parse_measure_spec(text: str):
    """Decode a --measure value; see the module docstring for the grammar.

    Returns a DiscreteMeasure, a ContinuousLaw, or a list of DegreeGroup.
    """
    text = text.strip()
    if os.path.exists(text):
        pairs = []
        with open(text) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    loc, wt = line.replace(",", " ").split()
                    pairs.append((float(loc), float(wt)))
                except ValueError:
                    raise ValueError(f"{text} line {lineno}: expected 'location weight', "
                                     f"got {line!r}") from None
        return DiscreteMeasure.from_pairs(pairs)
    head, _, tail = text.partition(":")
    head = head.strip().lower()
    if head == "delta":
        return DiscreteMeasure.point_mass(*_split("delta", tail, "LOCATION", ",", float))
    if head == "atoms":
        return DiscreteMeasure.from_pairs(_items("atoms", tail, "LOCATION=WEIGHT", float))
    if head == "groups":
        groups = []
        for block in tail.split(";"):
            count, law, scale = _split("groups block", block, "COUNT@FAMILY@SCALE", "@",
                                       _group_count, str, _group_scale)
            groups.append(DegreeGroup(count=count, law=_parse_law(law), scale=scale))
        return groups
    law = _parse_law(text)
    return law.measure() if isinstance(law, TwoAtomLaw) else law


def _read_measure(args: argparse.Namespace):
    """The --measure spec; every law but a groups spec is rescaled to unit mean."""
    spec = parse_measure_spec(args.measure)
    return spec if isinstance(spec, list) else spec.normalized()


def _limit_weight_law(spec, quantize_m: int) -> DiscreteMeasure:
    """Weight law for the limit-law/support modules (unit-mean, atomic)."""
    if isinstance(spec, list):
        raise ValueError("a groups spec has no single limiting weight law")
    return quantize_measure(spec, quantize_m)


def _sampled_graph(args: argparse.Namespace, spec, poissonized: bool):
    """Degree sequence from the sampling flags and one multigraph on it."""
    if isinstance(spec, list):
        seq = build_grouped_degrees(spec, args.n, seed=args.seed)
    else:
        try:
            scale = _resolve_scale(args.omega, args.n)
        except ValueError:
            raise ValueError(f"omega {args.omega!r}: expected a number, 'sqrt' or 'log'") from None
        seq = build_degree_sequence(spec, args.n, scale, seed=args.seed)
    sampler = sample_poissonized if poissonized else sample_configuration
    return seq, sampler(seq, seed=args.seed + 1)


_GRID_POINTS = 601


def _parse_grid(text: str) -> tuple[float, int]:
    """X_MAX[:POINTS] as (x_max, points); symmetric_grid checks the values."""
    parts = _split("grid", text, "X_MAX[:POINTS]", ":", *(float, int)[:text.count(":") + 1])
    return parts[0], parts[1] if len(parts) > 1 else _GRID_POINTS


def _parse_linspace(what: str, text: str) -> np.ndarray:
    lo, hi, count = _split(what, text, "LO:HI:COUNT", ":", float, float, int)
    if count < 1:
        raise ValueError(f"{what} {text!r}: COUNT must be at least 1")
    return np.linspace(lo, hi, count)


# -- config-file merging ----------------------------------------------------


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise ValueError(f"{path} line {lineno}: expected KEY=VALUE, got {line!r}")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _echo(args: argparse.Namespace, **extra) -> dict:
    """Header metadata: every effective setting, then `extra`.

    The config path and output directory are bookkeeping, not part of what
    was computed; echoing them would make reruns in another directory
    byte-different.
    """
    meta = {key: value for key, value in vars(args).items()
            if key not in ("func", "config", "out") and value is not None}
    return {**meta, **extra}


def _out_dir(args: argparse.Namespace) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


# -- commands ---------------------------------------------------------------


def _cmd_sample(args: argparse.Namespace) -> int:
    seq, graph = _sampled_graph(args, _read_measure(args), args.poissonized)
    out = _out_dir(args)
    meta = _echo(args, omega_realized=f"{seq.omega:.17g}", edge_total=graph.edge_total)
    graph.save_edges(os.path.join(out, "sample_edges.txt"), metadata=meta)
    seq.save(os.path.join(out, "sample_degrees.txt"))
    print(
        f"sampled n={args.n} edges={graph.edge_total} "
        f"omega={seq.omega:.6g} -> {out}/sample_edges.txt"
    )
    return 0


def _sampled_eigenvalues(args: argparse.Namespace, spec):
    seq, graph = _sampled_graph(args, spec, args.poissonized)
    adj = scaled_adjacency(graph, seq.omega, single=args.single_adjacency)
    return seq, graph, eigenvalues_symmetric(adj)


def _cmd_esd(args: argparse.Namespace) -> int:
    seq, graph, eigs = _sampled_eigenvalues(args, _read_measure(args))
    out = _out_dir(args)
    meta = _echo(args, omega_realized=f"{seq.omega:.17g}", edge_total=graph.edge_total)
    write_spectrum_csv(os.path.join(out, "spectrum.csv"), eigs, metadata=meta)
    write_histogram_csv(os.path.join(out, "histogram.csv"), eigs, metadata=meta)
    print(f"eigenvalues: {len(eigs)}  range [{eigs.min():.6g}, {eigs.max():.6g}] -> {out}")
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    nu = _limit_weight_law(_read_measure(args), args.quantize)
    x_max, points = _parse_grid(args.grid)
    out = _out_dir(args)
    curve = density_curve(nu, x_max, points, eta=args.eta, tol=args.tol)
    curve.to_csv(os.path.join(out, "density.csv"), metadata=_echo(args, nu_atoms=len(nu)))
    print(f"density: {points} points, mass={curve.mass:.6f} -> {out}/density.csv")
    return 0


def _cmd_support(args: argparse.Namespace) -> int:
    nu = _limit_weight_law(_read_measure(args), args.quantize)
    out = _out_dir(args)
    mp = support_mp(nu, min_gap=args.min_gap)
    mu = mp.symmetric_image()
    meta = _echo(args, nu_atoms=len(nu))
    mp.to_csv(os.path.join(out, "support_square_law.csv"), metadata=meta)
    mu.to_csv(os.path.join(out, "support_symmetric.csv"), metadata=meta)
    _write_xi_trace(os.path.join(out, "xi_trace.csv"), nu, meta)
    pieces = ", ".join(f"[{a:.6g}, {b:.6g}]" for a, b in mu)
    print(f"support ({len(mu)} component{'s' if len(mu) != 1 else ''}): {pieces}")
    return 0


_XI_TRACE_ROWS = 20_000


def _write_xi_trace(path, nu: DiscreteMeasure, metadata: dict) -> None:
    """Trace of the inverse transform over each pole-free interval.

    400 points per gap, fewer when there are more than 50 gaps, so the
    trace stays within _XI_TRACE_ROWS rows; every gap keeps at least one
    point (its left end), so past that many gaps the trace has one row
    per gap. `nu` has a positive atom: support_mp has checked it.
    """
    locs = nu.as_arrays()[0]
    poles = np.sort(-1.0 / locs[locs > 0])
    span = float(poles[-1] - poles[0]) or 1.0
    lo = np.concatenate([[poles[0] - 1.5 * span], poles])
    hi = np.concatenate([poles, [0.0]])
    points_per_gap = max(1, min(400, _XI_TRACE_ROWS // len(lo)))
    vs = lo[:, None] + (hi - lo)[:, None] * np.linspace(1e-4, 1.0 - 1e-4, points_per_gap)
    xis, slopes = xi(vs, nu)
    gaps = np.repeat(np.arange(len(vs)), points_per_gap)
    write_table(path, ("gap", "v", "xi", "xi_prime"), gaps, vs.ravel(), xis.ravel(),
                slopes.ravel(), metadata=metadata)


def _cmd_phase_diagram(args: argparse.Namespace) -> int:
    alphas = _parse_linspace("alpha-range", args.alpha_range)
    betas = _parse_linspace("beta-range", args.beta_range)
    hole, disc = phase_diagram(alphas, betas)
    out = _out_dir(args)
    path = os.path.join(out, "phase_diagram.csv")
    write_table(path, ("alpha", "beta", "has_hole", "discriminant"),
                np.repeat(alphas, len(betas)), np.tile(betas, len(alphas)), hole.ravel(),
                disc.ravel(), metadata=_echo(args))
    print(f"phase diagram {len(alphas)}x{len(betas)} -> {path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    spec = _read_measure(args)
    nu = _limit_weight_law(spec, args.quantize)
    if (atom := nu.mass_at(0.0)) > 0:
        raise ValueError(f"compare needs nu({{0}}) = 0, got {atom!r}: the limit then has an "
                         "atom at 0, which the density curve does not carry")
    seq, graph, eigs = _sampled_eigenvalues(args, spec)
    if args.grid is None:
        # the curve's CDF is flat past the support, so the grid need not reach the outlier
        x_max, points = 1.05 * math.sqrt(support_mp(nu).intervals[-1][1]) + 0.25, 800
    else:
        x_max, points = _parse_grid(args.grid)
    curve = density_curve(nu, x_max, points, eta=args.eta, tol=args.tol)
    dist = kolmogorov_vs_cdf(eigs, lambda x: curve.cdf(x) / curve.mass)
    out = _out_dir(args)
    meta = _echo(args,
        omega_realized=f"{seq.omega:.17g}",
        edge_total=graph.edge_total,
        kolmogorov=f"{dist:.17g}",
        mass=f"{curve.mass:.17g}",
    )
    write_spectrum_csv(os.path.join(out, "compare_spectrum.csv"), eigs, metadata=meta)
    curve.to_csv(os.path.join(out, "compare_density.csv"), metadata=meta)
    print(f"kolmogorov distance (ESD vs limit) = {dist:.6f}")
    return 0


def _cmd_couple(args: argparse.Namespace) -> int:
    seq, g_conf = _sampled_graph(args, _read_measure(args), poissonized=False)
    g_pois = sample_poissonized(seq, seed=args.seed + 2)
    eig_a, eig_b = eigenvalues_symmetric_pair(
        *scaled_adjacency_pair(g_conf, g_pois, seq.omega, single=args.single_adjacency))
    esd_a = DiscreteMeasure.from_samples(eig_a)
    esd_b = DiscreteMeasure.from_samples(eig_b)
    ks = kolmogorov_distance(esd_a, esd_b)
    w1 = wasserstein1(esd_a, esd_b)
    hw = scaled_adjacency_distance(g_conf, g_pois, seq.omega, single=args.single_adjacency)
    out = _out_dir(args)
    meta = _echo(args, omega_realized=f"{seq.omega:.17g}")
    write_spectrum_csv(os.path.join(out, "couple_configuration.csv"), eig_a, metadata=meta)
    write_spectrum_csv(os.path.join(out, "couple_poissonized.csv"), eig_b, metadata=meta)
    write_table(os.path.join(out, "couple_summary.csv"), ("metric", "value"),
                np.array(["kolmogorov", "wasserstein1", "hoffman_wielandt_bound"]),
                np.array([ks, w1, hw]), metadata=meta)
    print(f"kolmogorov={ks:.6f} wasserstein1={w1:.6f} hw_bound={hw:.6f}")
    return 0


# -- parser -----------------------------------------------------------------

# flags that more than one command takes, each declared once
_FLAGS = {
    "--measure": dict(required=True, help="weight-law spec (see --help of the program)"),
    "--n": dict(type=int, required=True, help="number of vertices"),
    "--omega": dict(default="sqrt",
                    help="mean-degree rule: a number, 'sqrt' or 'log' (default %(default)s)"),
    "--seed": dict(type=int, required=True, help="RNG seed"),
    "--poissonized": dict(action="store_true",
                          help="Poisson edge counts instead of a configuration matching"),
    "--single-adjacency": dict(action="store_true",
                               help="clamp every adjacency entry (diagonal too) to 1"),
    "--eta": dict(type=float, default=DEFAULT_ETA, help="final spectral offset (default %(default)s)"),
    "--tol": dict(type=float, default=DEFAULT_TOL,
                  help="fixed-point residual tolerance (default %(default)s)"),
    "--quantize": dict(type=int, default=DEFAULT_QUANTIZE,
                       help="atoms used to quantize a continuous law (default %(default)s)"),
}
_SAMPLING = ("--measure", "--n", "--omega", "--seed")
_LIMIT = ("--eta", "--tol", "--quantize")
_GRID_HELP = "density grid as X_MAX[:POINTS]"
_SWITCHES = ("poissonized", "single_adjacency")
_TRUE = ("1", "true", "yes", "on")


def _config_defaults(config: dict[str, str]) -> dict:
    """The config file's values as parser defaults; switches read as bools.

    argparse applies a flag's type to a string default and explicit flags
    still win. Keys that are not flags of a command are kept, so its
    headers echo them.
    """
    return {key: value.lower() in _TRUE if key in _SWITCHES else value
            for key, value in config.items() if key not in ("func", "command")}


def build_parser(config: dict[str, str] | None = None) -> argparse.ArgumentParser:
    defaults = _config_defaults(config or {})
    parser = argparse.ArgumentParser(
        prog="sparsespectra",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *flags) -> argparse.ArgumentParser:
        p = subs.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--config", help="key=value file supplying any flag; flags win")
        p.add_argument("--out", default=".", help="output directory (default %(default)s)")
        for flag in flags:
            spec = dict(_FLAGS[flag])
            if flag[2:].replace("-", "_") in defaults:  # the config file supplies it
                spec.pop("required", None)
            p.add_argument(flag, **spec)
        return p

    command("sample", _cmd_sample, "sample a multigraph and write its edge list",
            *_SAMPLING, "--poissonized")
    command("esd", _cmd_esd, "sample, diagonalize, write spectrum + histogram",
            *_SAMPLING, "--poissonized", "--single-adjacency")
    p = command("density", _cmd_density, "limit-law density curve for a weight law",
                "--measure", *_LIMIT)
    p.add_argument("--grid", default=f"3.0:{_GRID_POINTS}", help=_GRID_HELP + " (default %(default)s)")
    p = command("support", _cmd_support, "support intervals and inverse-transform trace",
                "--measure", "--quantize")
    p.add_argument("--min-gap", type=float, default=DEFAULT_MIN_GAP,
                   help="merge support gaps narrower than this (default %(default)s)")
    p = command("phase-diagram", _cmd_phase_diagram, "two-atom hole/no-hole sweep")
    p.add_argument("--alpha-range", default="1.05:20:200", help="lo:hi:count (default %(default)s)")
    p.add_argument("--beta-range", default="0.05:0.95:200", help="lo:hi:count (default %(default)s)")
    p = command("compare", _cmd_compare, "Kolmogorov distance between an ESD and the limit",
                *_SAMPLING, "--poissonized", "--single-adjacency", *_LIMIT)
    p.add_argument("--grid", help=_GRID_HELP + " (default: 800 points just past the"
                   " support edge)")
    command("couple", _cmd_couple, "configuration vs poissonized sample on one degree sequence",
            *_SAMPLING, "--single-adjacency")

    for p in subs.choices.values():
        p.set_defaults(**defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    config_path = pre.parse_known_args(argv)[0].config
    try:
        args = build_parser(_read_config(config_path) if config_path else {}).parse_args(argv)
        return args.func(args)
    except ConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
