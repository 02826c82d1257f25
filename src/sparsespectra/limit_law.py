"""The limiting spectral law of scaled sparse multigraphs.

For a unit-mean degree-weight law nu (finitely many atoms d_a with weights
w_a), the limit of the empirical spectral distribution is characterized by
the upper-half-plane fixed point

    g(z) = -E[ D / (z + g(z)·D) ],   Im z > 0,  Im g > 0,

and the Cauchy transform of the symmetric limit measure is
f(z) = -(1 + g(z)²)/z, so Im f(x + i·eta)/π is the limit density smoothed
by a Poisson kernel of width eta. One routine solves the fixed point for
every entry point, with one failure path: warm-started geometric
continuation in the imaginary offset with factor 1e-3, each stage a damped
iteration with a guarded Newton step from the first iteration.
Intermediate stages only hand over a warm start and stop at a loose
residual; the final stage alone enforces the requested tolerance. The
first stage of a multi-stage solve sums over a binned copy of the law, in
which atoms whose locations lie within one factor-1.1 bin are merged: at
offset 1 the summand d/(z+g·d) is smooth in d, so the warm start is as
good, and a many-atom law sweeps far fewer atoms. Each iteration sweeps
lanes × atoms with `measures._atom_sums`, which `support` shares, in
cache-sized lane blocks whose results do not depend on the block size.
The module evaluates f at a point and the limit density on a symmetric grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import ContinuousLaw
from .measures import DiscreteMeasure, _atom_sums
from .tables import write_table

__all__ = [
    "ConvergenceError",
    "DensityCurve",
    "solve_g",
    "stieltjes_mu",
    "density_curve",
    "quantize_measure",
    "symmetric_grid",
]

DEFAULT_TOL = 1e-10
DEFAULT_ETA = 1e-6
DEFAULT_QUANTIZE = 2048
_MEAN_TOL = 1e-9
# iterations of a whole continuation solve, read at each call
_MAX_ITER = 100_000
# iterations in a row in which no active lane's residual falls below its
# best so far, after which a stage stops: its lanes sit at the rounding
# floor. No converging solve of the test suite or the benchmark plans ran
# more than 2 such iterations in a row
_STALL_ITER = 50
# lane·atom cells per sweep block: 128 kB of complex128 temporaries, in L2
_SWEEP_CELLS = 8192
# eta factor between continuation stages (1 → 1e-6 is three stages) and the
# residual at which an intermediate stage hands its warm start over; the
# pair took the fewest iterations over the bound-suite and 2048-atom laws
_ETA_STEP = 1e-3
_STAGE_TOL = 1e-3
# location ratio of one bin of the first stage's law. 1.05, 1.1 and 1.25
# kept every stage's iterations on 2048-atom 1+Exp and Uniform and a wide
# 1000-atom law, and the 2048-atom curves took the same time at all three;
# |Δρ| against the unbinned solve grew with the ratio (at most 2.4e-14,
# 9.4e-14, 5.0e-13), and the wide law's first stage took 17%, 10% and 4%
# of its cells
_BIN_RATIO = 1.1


class ConvergenceError(RuntimeError):
    """Fixed-point iteration failed to reach the requested residual."""

    def __init__(self, message: str, best_residual: float | None = None):
        super().__init__(message)
        self.best_residual = best_residual


def _check_weight_law(nu: DiscreteMeasure) -> tuple[np.ndarray, np.ndarray]:
    locs, wts = nu.as_arrays()
    if locs[0] < 0:
        raise ValueError("weight law must be supported on [0, inf)")
    mean = float(locs @ wts)
    if abs(mean - 1.0) > _MEAN_TOL:
        raise ValueError(f"weight law must have unit mean (got {mean!r})")
    return locs, wts


def _residual_and_slope(
    z: np.ndarray, g: np.ndarray, locs: np.ndarray, wd: np.ndarray, wdd: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """F(g) = g + E[D/(z+gD)] and F'(g) = 1 − E[D²/(z+gD)²], vectorized over lanes.

    Both come from one reciprocal r = 1/(z + g·d) per lane·atom cell of
    :func:`measures._atom_sums`, with atom weights wd = w·d and wdd = w·d².
    """
    F, S = _atom_sums(z, g, locs, ((wd, 1), (wdd, 2)), _SWEEP_CELLS)
    return g + F, 1.0 - S


def _iterate_many(
    z: np.ndarray,
    locs: np.ndarray,
    wts: np.ndarray,
    g0: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Damped fixed-point iteration with a guarded Newton accelerator.

    The damped map g ← g − θ·F(g) (θ = 1/2) keeps Im g > 0 whenever
    Im z > 0. From the first iteration on, a lane whose residual is below
    1/2 tries the Newton step g ← g − F/F' instead, kept only if it stays
    in the upper half-plane and strictly reduces |F|. F and F' of each
    accepted point come from one sweep and carry into the next step. The
    iteration stops early once _STALL_ITER iterations in a row have
    brought no active lane's residual below its best so far.
    Returns (g, |F(g)|, iterations).
    """
    theta = 0.5
    wd = wts * locs
    wdd = wd * locs

    g = g0.astype(complex).copy()
    R, S = _residual_and_slope(z, g, locs, wd, wdd)
    res = np.abs(R)
    best = res.copy()
    iterations = stale = 0

    for k in range(max_iter):
        active = res > tol
        if not np.any(active) or stale == _STALL_ITER:
            break
        iterations = k + 1
        za = z[active]
        ga = g[active]
        Ra = R[active]
        Sa = S[active]
        resa = res[active]

        damped = ga - theta * Ra
        safe = np.abs(Sa) > 1e-14
        gN = np.where(safe, ga - Ra / np.where(safe, Sa, 1.0), damped)
        tried_newton = safe & (resa < 0.5) & (gN.imag > 0) & np.isfinite(gN)
        cand = np.where(tried_newton, gN, damped)

        Rc, Sc = _residual_and_slope(za, cand, locs, wd, wdd)
        resc = np.abs(Rc)
        worse = tried_newton & ~(resc < resa)
        if np.any(worse):
            cand[worse] = damped[worse]
            Rc[worse], Sc[worse] = _residual_and_slope(za[worse], cand[worse], locs, wd, wdd)
            resc[worse] = np.abs(Rc[worse])

        g[active] = cand
        R[active] = Rc
        S[active] = Sc
        res[active] = resc
        stale = 0 if np.any(res < best) else stale + 1
        np.fmin(best, res, out=best)

    return g, res, iterations


def _eta_schedule(eta_final: float) -> list[float]:
    """Geometric 1 → eta_final with factor _ETA_STEP; final entry exact.

    Newton carries each stage, so the long step costs only a few
    iterations per stage; 1 → 1e-6 takes 3 stages. A last intermediate
    stage within a factor 2 of eta_final would only repeat it, so it
    merges into the final stage (this also absorbs rounding: 1e-3⁴ is just
    above 1e-12).
    """
    etas = []
    e = 1.0
    while e >= 2 * eta_final:
        etas.append(e)
        e *= _ETA_STEP
    etas.append(eta_final)
    return etas


def _binned(locs: np.ndarray, wts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The law with the atoms of each bin floor(log(d)/log(_BIN_RATIO))
    merged: one atom of their summed weight at their weighted mean, so
    Σw·d is kept per bin. An atom at 0 keeps a bin of its own."""
    with np.errstate(divide="ignore"):
        bins = np.floor(np.log(locs) / math.log(_BIN_RATIO))
    starts = np.flatnonzero(np.concatenate(([True], bins[1:] != bins[:-1])))
    if len(starts) == len(locs):
        return locs, wts
    w = np.add.reduceat(wts, starts)
    return np.add.reduceat(wts * locs, starts) / w, w


def _solve(nu: DiscreteMeasure, xs, eta: float, tol: float):
    """Warm-started continuation solve at z = x + i·e for every x in xs.

    e runs down the geometric schedule 1 → eta with factor _ETA_STEP (a
    single stage when eta > 1/2), starting from g = i·min(1, 1/Im z).
    Intermediate stages only hand over a warm start: they stop at residual
    max(tol, _STAGE_TOL) or after 2000 iterations. The first of several
    stages sums over the binned law of :func:`_binned`, which is the law
    itself when no two atoms share a bin; every later stage, and the
    final residual check, sweeps every atom. The final stage enforces
    `tol` (0 < tol < inf), and _MAX_ITER bounds the iterations of the
    whole solve; eta must lie in (0, inf). Returns (z, g, residual,
    iterations); raises :class:`ConvergenceError` naming the failing
    points if any lane misses `tol`.
    """
    if not 0 < eta < math.inf:
        raise ValueError(f"eta must lie in (0, inf) (got {eta!r})")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must lie in (0, inf) (got {tol!r})")
    locs, wts = _check_weight_law(nu)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError(f"x must be a float or a 1-D array (got {xs.ndim} dimensions)")
    if not np.all(np.isfinite(xs)):
        raise ValueError(f"x must be finite (got {float(xs[~np.isfinite(xs)][0])!r})")
    etas = _eta_schedule(eta)
    first = _binned(locs, wts) if len(etas) > 1 else (locs, wts)
    g = np.full(len(xs), 1j * min(1.0, 1.0 / etas[0]))
    total_it = 0
    for k, e in enumerate(etas):
        final = k == len(etas) - 1
        z = xs + 1j * e
        stage_locs, stage_wts = first if k == 0 else (locs, wts)
        budget = _MAX_ITER - total_it if final else min(2000, _MAX_ITER - total_it)
        g, res, it = _iterate_many(z, stage_locs, stage_wts, g,
                                   tol if final else max(tol, _STAGE_TOL), budget)
        total_it += it
    bad = ~(res <= tol)  # a NaN residual fails too
    if np.any(bad):
        worst = int(np.argmax(res))
        raise ConvergenceError(
            f"{int(bad.sum())} of {len(xs)} points failed (worst residual "
            f"{res[worst]:.3e} at x={float(xs[worst])!r}, eta={eta!r})",
            best_residual=float(res[worst]),
        )
    return z, g, res, total_it


def solve_g(x, nu: DiscreteMeasure, eta: float = DEFAULT_ETA, tol: float = DEFAULT_TOL):
    """Fixed point g at z = x + i·eta for a float x or every x of a 1-D array.

    Returns (g, residual, iterations): scalars for a float x, arrays
    (iterations still one count) for an array. eta may be any value in
    (0, inf), and eta ≥ 1 is a single continuation stage. Raises
    :class:`ConvergenceError` naming the failing points if any lane misses
    `tol`.

    `tol` bounds the residual |F(g)| at which a lane stops; g itself is
    accurate to about tol/|F′(g)|, which grows near soft edges (F′ → 0).
    """
    _, g, res, iterations = _solve(nu, np.atleast_1d(x), eta, tol)
    if np.ndim(x) == 0:
        return complex(g[0]), float(res[0]), iterations
    return g, res, iterations


def _cauchy(z, g):
    """The limit measure's Cauchy transform at z from the fixed point g there."""
    return -(1.0 + g * g) / z


def stieltjes_mu(z: complex, nu: DiscreteMeasure, tol: float = DEFAULT_TOL) -> complex:
    """Cauchy transform f(z) = -(1 + g(z)²)/z of the limit measure (Im z > 0)."""
    z = complex(z)
    if not 0 < z.imag < math.inf:
        raise ValueError(f"Im z must lie in (0, inf) (got z={z!r})")
    g, _, _ = solve_g(z.real, nu, z.imag, tol=tol)
    return _cauchy(z, g)


_ZERO_NODES = (0.01, 0.02)


def _clamp_density(rho: np.ndarray) -> np.ndarray:
    if np.any(rho < -1e-10):
        worst = float(rho.min())
        raise ConvergenceError(
            f"density came out negative ({worst:.3e}): wrong solver branch"
        )
    return np.maximum(rho, 0.0)


def symmetric_grid(x_max: float, points: int) -> np.ndarray:
    """Exactly sign-symmetric grid on [−x_max, x_max] with `points` nodes.

    Odd counts include 0; even counts straddle it. Mirrored nodes are
    exact negations, so even functions evaluated once per |x| stay exactly
    symmetric.
    """
    if points < 2:
        raise ValueError("need at least 2 points")
    if not 0 < x_max < math.inf:
        raise ValueError(f"x_max must be positive and finite (got {x_max!r})")
    if points % 2:
        pos = np.linspace(0.0, x_max, points // 2 + 1)[1:]
        return np.concatenate([-pos[::-1], [0.0], pos])
    h = 2.0 * x_max / (points - 1)
    pos = (np.arange(points // 2) + 0.5) * h
    pos[-1] = x_max
    return np.concatenate([-pos[::-1], pos])


@dataclass(frozen=True)
class DensityCurve:
    """Sampled limit density on a symmetric grid, with solver metadata."""

    grid: np.ndarray
    rho: np.ndarray
    eta_final: float
    measure_hash: str
    mass: float
    residuals: np.ndarray
    iterations: int

    def second_moment(self) -> float:
        return float(np.trapezoid(self.grid**2 * self.rho, self.grid))

    def cdf(self, x) -> np.ndarray:
        """Trapezoid CDF of the sampled density, linearly interpolated.

        Total mass is the curve's quadrature mass (≈1, not renormalized).
        """
        cum = np.concatenate(
            ([0.0], np.cumsum(np.diff(self.grid) * 0.5 * (self.rho[1:] + self.rho[:-1])))
        )
        return np.interp(np.asarray(x, dtype=float), self.grid, cum, left=0.0, right=cum[-1])

    def to_csv(self, path, metadata: dict | None = None) -> None:
        meta = {
            "eta_final": f"{self.eta_final:g}",
            "measure_hash": self.measure_hash,
            "mass": f"{self.mass:.17g}",
        }
        if metadata:
            meta.update(metadata)
        write_table(path, ("x", "rho"), self.grid, self.rho, metadata=meta)


def density_curve(
    nu: DiscreteMeasure,
    x_max: float,
    points: int,
    eta: float = DEFAULT_ETA,
    tol: float = DEFAULT_TOL,
) -> DensityCurve:
    """Evaluate the limit density on a symmetric grid.

    The solver gets one lane per distinct |x| > 0 of the grid and, when the
    grid holds 0, the nodes 0.01 and 0.02 as the last two lanes; ρ(0) is
    their even-quadratic extrapolation (4·ρ(0.01) − ρ(0.02))/3 (requires
    nu({0}) = 0), and the negative half mirrors the positive half exactly.
    Solver failures abort with the failing points named. Each ρ carries the
    error of its g, about tol/|F′(g)| (see :func:`solve_g`), which grows
    near soft edges. The smoothing eta must lie in (0, 1].
    """
    grid = symmetric_grid(x_max, points)
    if not 0 < eta <= 1:
        raise ValueError(f"eta must lie in (0, 1] (got {eta!r})")
    x_abs, mirror = np.unique(np.abs(grid), return_inverse=True)
    has_zero = x_abs[0] == 0
    if has_zero:
        if nu.mass_at(0.0) > 0:
            raise ValueError("density at 0 undefined when the weight law has mass at 0")
        x_abs = np.concatenate([x_abs[1:], _ZERO_NODES])
    z, g, residuals, iterations = _solve(nu, x_abs, eta, tol)
    rho = _clamp_density(_cauchy(z, g).imag / math.pi)
    if has_zero:
        rho0 = _clamp_density(np.array([(4.0 * rho[-2] - rho[-1]) / 3.0]))
        rho = np.concatenate([rho0, rho[:-2]])
        residuals = np.concatenate([[residuals[-2:].max()], residuals[:-2]])
    rho, residuals = rho[mirror], residuals[mirror]
    mass = float(np.trapezoid(rho, grid))
    return DensityCurve(
        grid=grid,
        rho=rho,
        eta_final=eta,
        measure_hash=nu.content_hash(),
        mass=mass,
        residuals=residuals,
        iterations=iterations,
    )


def quantize_measure(
    law: ContinuousLaw | DiscreteMeasure, m: int = DEFAULT_QUANTIZE
) -> DiscreteMeasure:
    """Deterministic m-atom quantization of a continuous law.

    Atoms sit at the conditional means of the m equal-probability quantile
    slabs (closed forms per family); a final rescaling of the locations
    pins the mean to the law's mean within 1e−9. Atomic input passes
    through unchanged.
    """
    if isinstance(law, DiscreteMeasure):
        return law
    if m < 2:
        raise ValueError("need m >= 2")
    edges = np.arange(m + 1) / m
    locs = np.array([law.slab_mean(edges[k], edges[k + 1]) for k in range(m)])
    weights = np.full(m, 1.0 / m)
    target = law.mean()
    current = float(locs @ weights)
    locs *= target / current
    return DiscreteMeasure.from_pairs(zip(locs, weights))
