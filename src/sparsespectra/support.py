"""Support of the limit law from its explicit inverse transform.

On each interval of the real line between consecutive poles, the rational
function

    xi(v) = -1/v + Σ_a w_a·d_a²/(1 + v·d_a)

inverts the square-law Stieltjes transform; a real point x lies OUTSIDE
the square-law support exactly when xi(v) = x for some pole-free v with
xi'(v) > 0. Scanning the sign of xi' between poles therefore yields the
support intervals in closed form, up to root isolation of a polynomial.
The symmetric limit support is the ± square-root image.

For two-atom weight laws the hole/no-hole question has a closed form,
exposed here together with the cubic discriminant it came from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .measures import DiscreteMeasure
from .tables import write_table

__all__ = [
    "SupportIntervals",
    "TwoAtomLaw",
    "xi",
    "xi_prime",
    "support_mp",
    "support_mu",
    "two_atom_discriminant",
    "two_atom_has_hole",
    "two_atom_threshold",
    "phase_diagram",
]

_EXACT_ATOM_LIMIT = 8
_SCAN_POINTS_PER_GAP = 10_000
_SCAN_BUDGET = 400_000
_BISECT_TOL = 1e-12


@dataclass(frozen=True)
class SupportIntervals:
    """Sorted, pairwise-disjoint closed intervals [a, b] (a ≤ b)."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        ivals = tuple((float(a), float(b)) for a, b in self.intervals)
        object.__setattr__(self, "intervals", ivals)
        for a, b in ivals:
            if not a <= b:
                raise ValueError(f"decreasing interval [{a}, {b}]")
        for (_, b1), (a2, _) in zip(ivals, ivals[1:]):
            if not b1 < a2:
                raise ValueError("intervals must be disjoint and sorted")

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def __getitem__(self, idx):
        return self.intervals[idx]

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return any(a - slack <= x <= b + slack for a, b in self.intervals)

    def gaps(self) -> tuple[tuple[float, float], ...]:
        """Open gaps between consecutive intervals."""
        return tuple((b1, a2) for (_, b1), (a2, _) in zip(self.intervals, self.intervals[1:]))

    def to_csv(self, path, metadata: dict | None = None) -> None:
        ends = np.array(self.intervals, dtype=float).reshape(-1, 2)
        write_table(path, ("left", "right"), ends[:, 0], ends[:, 1], metadata=metadata)

    def symmetric_image(self) -> "SupportIntervals":
        """The ± square-root image of intervals on [0, ∞), as a symmetric set.

        A first interval starting at 0 maps to one interval around 0.
        """
        pos = [(math.sqrt(a), math.sqrt(b)) for a, b in self.intervals]
        middle = []
        if pos and pos[0][0] == 0.0:
            middle = [(-pos[0][1], pos[0][1])]
            pos = pos[1:]
        return SupportIntervals(tuple([(-b, -a) for a, b in reversed(pos)] + middle + pos))


def _positive_atoms(nu: DiscreteMeasure) -> tuple[np.ndarray, np.ndarray]:
    locs, wts = nu.as_arrays()
    keep = locs > 0
    if not np.any(keep):
        raise ValueError("weight law needs at least one positive atom")
    if locs[0] < 0:
        raise ValueError("weight law must be supported on [0, inf)")
    return locs[keep], wts[keep]


def xi(v, nu: DiscreteMeasure):
    """-1/v + Σ w·d²/(1+v·d); rejects v at a pole (0 or any -1/d)."""
    locs, wts = _positive_atoms(nu)
    v_arr = np.asarray(v, dtype=float)
    if np.any(v_arr == 0) or np.any(1.0 + np.multiply.outer(v_arr, locs) == 0):
        raise ValueError("xi evaluated at a pole")
    vals = -1.0 / v_arr + ((wts * locs**2) / (1.0 + np.multiply.outer(v_arr, locs))).sum(axis=-1)
    return float(vals) if np.isscalar(v) else vals


def xi_prime(v, nu: DiscreteMeasure):
    """Derivative of xi: 1/v² − Σ w·d³/(1+v·d)²."""
    locs, wts = _positive_atoms(nu)
    v_arr = np.asarray(v, dtype=float)
    den = 1.0 + np.multiply.outer(v_arr, locs)
    if np.any(v_arr == 0) or np.any(den == 0):
        raise ValueError("xi_prime evaluated at a pole")
    vals = 1.0 / v_arr**2 - ((wts * locs**3) / den**2).sum(axis=-1)
    return float(vals) if np.isscalar(v) else vals


# -- exact numerator of xi' -----------------------------------------------


def _poly_mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _xi_prime_numerator(locs: np.ndarray, wts: np.ndarray) -> np.ndarray:
    """Exact coefficients (ascending) of N(v) = v²·Π(1+vd)²·xi'(v).

    N(v) = Π_a (1+v·d_a)² − v²·Σ_a w_a·d_a³·Π_{b≠a}(1+v·d_b)², expanded in
    exact rational arithmetic (floats are dyadic rationals, so no rounding
    happens until the final float conversion).
    """
    ds = [Fraction(float(d)) for d in locs]
    ws = [Fraction(float(w)) for w in wts]
    sq_factors = [_poly_mul([Fraction(1), d], [Fraction(1), d]) for d in ds]
    # prefix/suffix products of the squared factors, to get each Π_{b≠a}
    ell = len(ds)
    prefix: list[list[Fraction]] = [[Fraction(1)]]
    for f in sq_factors:
        prefix.append(_poly_mul(prefix[-1], f))
    suffix: list[list[Fraction]] = [[Fraction(1)]]
    for f in reversed(sq_factors):
        suffix.append(_poly_mul(suffix[-1], f))
    suffix.reverse()
    full = prefix[-1]
    total = [Fraction(0)] * (2 * ell + 1)
    for i, c in enumerate(full):
        total[i] += c
    for a in range(ell):
        partial = _poly_mul(prefix[a], suffix[a + 1])
        coeff = ws[a] * ds[a] ** 3
        for i, c in enumerate(partial):
            total[i + 2] -= coeff * c  # the v² factor shifts by two
    while len(total) > 1 and total[-1] == 0:
        total.pop()
    return np.array([float(c) for c in total])


def _horner(coeffs_ascending: np.ndarray, v: float) -> float:
    acc = 0.0
    for c in coeffs_ascending[::-1]:
        acc = acc * v + c
    return acc


def _bisect_root(fun, lo: float, hi: float) -> float:
    flo = fun(lo)
    fhi = fun(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        return 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= _BISECT_TOL * max(1.0, abs(mid)):
            return mid
        fm = fun(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)


def _scan_breakpoints(sign_fun, lo: float, hi: float, samples: np.ndarray) -> list[float]:
    """Roots of a sign function located by scan + bisection inside (lo, hi)."""
    vals = sign_fun(samples)
    roots = []
    for i in range(len(samples) - 1):
        a, b = vals[i], vals[i + 1]
        if np.isfinite(a) and np.isfinite(b) and (a > 0) != (b > 0):
            roots.append(_bisect_root(lambda t: float(sign_fun(np.array([t]))[0]),
                                      float(samples[i]), float(samples[i + 1])))
    return roots


def _gap_samples(lo: float, hi: float, k: int, scale: float) -> np.ndarray:
    """Sample points inside (lo, hi); log-spaced tails for infinite ends."""
    if math.isinf(lo) and math.isinf(hi):
        raise ValueError("fully infinite gap")
    if math.isinf(lo):
        offs = np.geomspace(1e-9 * scale, 1e9 * scale, k)
        return hi - offs[::-1]
    if math.isinf(hi):
        offs = np.geomspace(1e-9 * scale, 1e9 * scale, k)
        return lo + offs
    # dense near both endpoints (xi' diverges there), uniform in between;
    # the exact midpoint is always included so a sign bump the scan misses
    # can never straddle the representative used to classify the piece
    w = hi - lo
    inset = np.geomspace(1e-12, 0.25, k // 4)
    pts = np.concatenate([lo + w * inset, lo + w * np.linspace(0.26, 0.74, k // 2),
                          [0.5 * (lo + hi)], hi - w * inset[::-1]])
    return np.unique(pts)


def support_mp(
    nu: DiscreteMeasure,
    min_gap: float = 1e-3,
    x_cap: float | None = None,
) -> SupportIntervals:
    """Support of the square law on [0, ∞) via the inverse-transform scan.

    Every maximal pole-free interval of the real v-line is scanned for
    sign changes of xi'; on pieces with xi' > 0 the (increasing) image of
    xi is removed from [0, ∞). Complement pieces narrower than `min_gap`
    are absorbed (quantized continuous laws produce spurious micro-gaps).
    For at most 8 distinct atoms the scan is seeded with every real root
    of the exactly expanded numerator polynomial; beyond that a sign scan
    with a global evaluation budget takes over. Root brackets are bisected
    to 1e−12 relative width.

    The unit-mean precondition of the limit-law modules is deliberately
    not enforced here: the scan is a well-defined function of any positive
    atomic measure, which the test suite exploits on scaled families with
    known closed-form edges.
    """
    locs, wts = _positive_atoms(nu)
    ell = len(locs)
    if x_cap is None:
        m2 = float((wts * locs**2).sum())
        x_cap = 4.0 * float(locs.max()) * (m2 + 1.0)

    poles = np.sort(-1.0 / locs)  # ascending: -1/d_min < ... < -1/d_max < 0
    bounds = [(-math.inf, poles[0])]
    bounds += [(poles[i], poles[i + 1]) for i in range(ell - 1)]
    bounds += [(poles[-1], 0.0), (0.0, math.inf)]
    scale = float(np.abs(poles).max())

    exact_coeffs = _xi_prime_numerator(locs, wts) if ell <= _EXACT_ATOM_LIMIT else None
    candidate_roots: np.ndarray = np.empty(0)
    if exact_coeffs is not None and len(exact_coeffs) > 1:
        rr = np.roots(exact_coeffs[::-1])
        candidate_roots = np.sort(rr.real[np.abs(rr.imag) <= 1e-9 * np.maximum(1.0, np.abs(rr))])

    def xi_prime_vals(v: np.ndarray) -> np.ndarray:
        den = 1.0 + np.multiply.outer(v, locs)
        return 1.0 / v**2 - ((wts * locs**3) / den**2).sum(axis=-1)

    if exact_coeffs is not None:
        # np.roots on the expanded numerator can miss breakpoints (a 6-atom
        # law in the tests has its three components merged into one without it)
        per_gap = 2_000
    else:
        per_gap = min(_SCAN_POINTS_PER_GAP, max(64, _SCAN_BUDGET // max(1, len(bounds) * ell)))

    holes: list[tuple[float, float]] = []
    for lo, hi in bounds:
        breakpoints: list[float] = []
        if exact_coeffs is not None:
            inside = candidate_roots[(candidate_roots > lo) & (candidate_roots < hi)]
            margin = 1e-9 * scale
            for r in inside:
                blo = max(r - max(1e-8, 1e-8 * abs(r)), lo + margin if math.isfinite(lo) else r - 1.0)
                bhi = min(r + max(1e-8, 1e-8 * abs(r)), hi - margin if math.isfinite(hi) else r + 1.0)
                f = lambda t: _horner(exact_coeffs, t)
                if (f(blo) > 0) != (f(bhi) > 0):
                    breakpoints.append(_bisect_root(f, blo, bhi))
                else:
                    breakpoints.append(float(r))
        samples = _gap_samples(lo, hi, per_gap, scale)
        breakpoints.extend(_scan_breakpoints(xi_prime_vals, lo, hi, samples))
        breakpoints = sorted(set(breakpoints))
        merged: list[float] = []
        for r in breakpoints:
            if not merged or abs(r - merged[-1]) > 1e-9 * max(1.0, abs(r)):
                merged.append(r)

        # classify each sub-piece by the sign of xi' at a representative
        edges = [lo] + merged + [hi]
        for a, b in zip(edges, edges[1:]):
            if math.isinf(a):
                rep = b - max(1.0, abs(b))
            elif math.isinf(b):
                rep = a + max(1.0, abs(a))
            else:
                rep = 0.5 * (a + b)
            if rep == 0.0 or xi_prime_vals(np.array([rep]))[0] <= 0:
                continue
            # increasing piece: image is (xi(a+), xi(b-)); an inverted image
            # means the xi'-sign at the representative was rounding noise
            # (it happens in the far tails where xi' ~ (mean-1)/v^2), so the
            # piece is a phantom and testifies to nothing
            left = _xi_limit(a, nu, side=+1)
            right = _xi_limit(b, nu, side=-1)
            if right <= left:
                continue
            img_lo, img_hi = max(left, 0.0), right
            if img_hi > img_lo:
                holes.append((img_lo, img_hi))

    holes.sort()
    merged_holes: list[list[float]] = []
    for lo_h, hi_h in holes:
        if merged_holes and lo_h <= merged_holes[-1][1]:
            merged_holes[-1][1] = max(merged_holes[-1][1], hi_h)
        else:
            merged_holes.append([lo_h, hi_h])
    # holes narrower than the bisection resolution cannot be distinguished
    # from endpoint rounding, whatever min_gap asks for
    width_floor = max(min_gap, _BISECT_TOL * max(1.0, x_cap))
    filtered = [
        (a, b) for a, b in merged_holes if math.isinf(b) or (b - a) >= width_floor
    ]

    support: list[tuple[float, float]] = []
    cursor = 0.0
    for a, b in filtered:
        if a >= cursor:
            support.append((cursor, a))
        cursor = b
        if cursor >= x_cap:
            break
    if cursor < x_cap:
        support.append((cursor, x_cap))
    return SupportIntervals(tuple(support))


def _xi_limit(v: float, nu: DiscreteMeasure, side: int) -> float:
    """xi at an endpoint: value at a root, limit at 0/±inf, ±inf at a pole."""
    if math.isinf(v):
        return 0.0  # xi ~ (mean-1)/v
    if v == 0.0:
        return -math.inf if side > 0 else math.inf
    locs, _ = _positive_atoms(nu)
    if np.any(np.abs(1.0 + v * locs) < 1e-300):
        # approaching a pole: the dominating atom term blows up
        return math.inf if side > 0 else -math.inf
    return float(xi(v, nu))


def support_mu(
    nu: DiscreteMeasure,
    min_gap: float = 1e-3,
    x_cap: float | None = None,
) -> SupportIntervals:
    """Support of the symmetric limit law: ±√ image of the square-law support."""
    return support_mp(nu, min_gap=min_gap, x_cap=x_cap).symmetric_image()


# -- two-atom closed forms --------------------------------------------------


@dataclass(frozen=True)
class TwoAtomLaw:
    """Unit-mean law on two atoms alpha > 1 > beta > 0.

    The mean-1 constraint fixes the weight of alpha at
    q_o = (1−beta)/(alpha−beta).
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.alpha > 1.0 > self.beta > 0.0):
            raise ValueError("need alpha > 1 > beta > 0")

    @property
    def q_o(self) -> float:
        return (1.0 - self.beta) / (self.alpha - self.beta)

    @property
    def q(self) -> float:
        """Size-biased weight of the alpha atom: q = alpha·q_o."""
        return self.alpha * self.q_o

    def measure(self) -> DiscreteMeasure:
        return DiscreteMeasure((self.beta, self.alpha), (1.0 - self.q_o, self.q_o))


def _discriminant(a, b):
    """Edge-cubic discriminant for alpha = a, beta = b; scalars or arrays."""
    q = a * ((1.0 - b) / (a - b))  # rounds as TwoAtomLaw.q does
    big_a = (a - b) * (a + b) ** 3
    big_b = (a - 2.0 * b) ** 3
    return 4.0 * q * (1.0 - q) * (a - b) ** 2 * (a * big_b - q * big_a)


def _threshold(b):
    """Critical alpha for beta = b; scalars or arrays."""
    return b * (3.0 / (1.0 - (1.0 - b) ** (1.0 / 3.0)) - 1.0)


def two_atom_discriminant(law: TwoAtomLaw) -> float:
    """Discriminant of the edge cubic: positive iff three distinct
    positive roots, i.e. iff the square-law support is disconnected.

    Equals 4·q(1−q)(α−β)²·(α·B − q·A) with q = α·q_o, A = (α−β)(α+β)³,
    B = (α−2β)³.
    """
    return _discriminant(law.alpha, law.beta)


def two_atom_threshold(beta: float) -> float:
    """Critical alpha above which the support splits, for given beta."""
    if not 0.0 < beta < 1.0:
        raise ValueError("need 0 < beta < 1")
    return _threshold(beta)


def two_atom_has_hole(law: TwoAtomLaw) -> bool:
    """True iff the square-law support is disconnected (two intervals)."""
    return law.alpha > two_atom_threshold(law.beta)


def phase_diagram(alphas, betas):
    """Vectorized (alpha, beta) sweep.

    Returns (has_hole, discriminant) arrays of shape (len(alphas), len(betas)).
    Cells violating alpha > 1 > beta are NaN/False.
    """
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    a = alphas[:, None]
    b = betas[None, :]
    valid = (a > 1.0) & (b > 0.0) & (b < 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        disc = _discriminant(a, b)
        hole = a > _threshold(b)
    disc = np.where(valid, disc, np.nan)
    hole = np.where(valid, hole, False)
    return hole, disc
