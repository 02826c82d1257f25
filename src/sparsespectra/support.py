"""Support of the limit law from its explicit inverse transform.

On each interval of the real line between consecutive poles, the rational
function

    xi(v) = -1/v + Σ_a w_a·d_a²/(1 + v·d_a)

inverts h(z²) = g(z)/z, the Stieltjes transform of the paper's variant of
the Marchenko–Pastur law. On (0, ∞) that law and the square law (of x²,
x drawn from the limit law) share their support: a real point x lies
OUTSIDE it exactly when xi(v) = x for some pole-free v with xi'(v) > 0
(Silverstein & Choi, 1995). In u = 1/v this reads

    X(u) = −u + E[D²] − Σ_a w_a·d_a³/(u + d_a),   X′(u) = φ(u) − 1,
    φ(u) = Σ_a w_a·d_a³/(u + d_a)²,

so the holes are the X-images of the pieces {φ < 1}. φ is strictly convex
between consecutive poles u = −d_a, so each pole-free u-interval holds at
most one piece, found by bisection; a two-pole lower bound on φ rules most
interior gaps out before any bisection runs. The symmetric limit support is
the ± square-root image.

For two-atom weight laws the hole/no-hole question has a closed form,
exposed here together with the cubic discriminant it came from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import DiscreteMeasure
from .tables import write_table

__all__ = [
    "SupportIntervals",
    "TwoAtomLaw",
    "xi",
    "support_mp",
    "two_atom_discriminant",
    "two_atom_has_hole",
    "two_atom_threshold",
    "phase_diagram",
]

_HOLE_TOL = 1e-12
DEFAULT_MIN_GAP = 1e-3
_XI_CELLS = 1 << 17  # point·atom cells one xi block evaluates at once


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


def xi(v, nu: DiscreteMeasure) -> tuple[np.ndarray, np.ndarray]:
    """xi(v) = −1/v + Σ w·d²/(1+v·d) and xi′(v) = 1/v² − Σ w·d³/(1+v·d)².

    Both come from one reciprocal r = 1/(1 + v·d) per point·atom cell, as
    Σ r·(w·d²) and Σ r²·(w·d³), for a float v or an array of any shape;
    rejects v at a pole (0 or any −1/d). The points, flattened, are swept
    in blocks of at most _XI_CELLS point·atom cells (at least one point),
    so memory stays bounded on any number of points; each point sums on
    its own, so the values do not depend on the block size.
    """
    locs, wts = _positive_atoms(nu)
    squares = wts * locs**2
    cubes = wts * locs**3
    v_arr = np.asarray(v, dtype=float)
    flat = v_arr.ravel()
    vals = np.empty(flat.shape)
    slopes = np.empty(flat.shape)
    step = max(1, _XI_CELLS // len(locs))
    for lo in range(0, len(flat), step):
        block = flat[lo:lo + step]
        r = 1.0 + np.multiply.outer(block, locs)
        if np.any(block == 0) or np.any(r == 0):
            raise ValueError("xi evaluated at a pole")
        np.divide(1.0, r, out=r)
        vals[lo:lo + step] = -1.0 / block + (r * squares).sum(axis=-1)
        r *= r
        slopes[lo:lo + step] = 1.0 / block**2 - (r * cubes).sum(axis=-1)
    # [()] turns the 0-d result of a float v into a scalar
    return vals.reshape(v_arr.shape)[()], slopes.reshape(v_arr.shape)[()]


def _bisect(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Zero of f in every bracket [lo, hi] at once; f must rise across each.

    64 halvings take every bracket used here down to about the float
    spacing of its ends.
    """
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = f(mid) < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def support_mp(nu: DiscreteMeasure, min_gap: float = DEFAULT_MIN_GAP) -> SupportIntervals:
    """Support of the square law on [0, ∞) from the convexity of φ.

    In u = 1/v the inverse transform is X(u) = −u + E[D²] − Σ w·d³/(u+d)
    with X′ = φ − 1, φ(u) = Σ w·d³/(u+d)², so xi′ > 0 exactly where φ < 1.
    Between consecutive poles u = −d, φ is strictly convex and blows up at
    both ends, so each pole-free u-interval holds at most one piece
    {φ < 1}, on which X decreases; the X-image of that piece is a hole.

    - (−∞, −d_max) and (−d_min, ∞): φ is monotone there, one bisection of
      φ = 1 each gives the holes (X(u_r), ∞) and (−∞, X(u_l)).
    - An interior gap of width W between atoms with w·d³ = A and B has
      φ ≥ (A^{1/3} + B^{1/3})³ / W² from those two terms alone; the gaps
      where this is ≥ 1 hold no piece. On the rest, bisecting the rising
      φ′ gives the minimiser u*; where φ(u*) < 1, φ = 1 is bracketed on
      each side of u*. All gaps are solved together.

    Holes are clipped to [0, ∞) and merged; complement pieces narrower than
    `min_gap` are absorbed (quantized continuous laws produce spurious
    micro-gaps), and `min_gap` must be ≥ 0 (inf absorbs every finite hole).

    The unit-mean precondition of the limit-law modules is deliberately
    not enforced here: the scan is a well-defined function of any positive
    atomic measure, which the test suite exploits on scaled families with
    known closed-form edges.
    """
    if not min_gap >= 0:
        raise ValueError(f"min_gap must be >= 0, got {min_gap}")
    locs, wts = _positive_atoms(nu)
    cubes = wts * locs**3
    m2 = float((wts * locs**2).sum())

    def phi(u: np.ndarray) -> np.ndarray:
        return (cubes / (u[:, None] + locs) ** 2).sum(axis=1)

    def big_x(u: np.ndarray) -> np.ndarray:
        return -u + m2 - (cubes / (u[:, None] + locs)).sum(axis=1)

    def half_phi_slope(u: np.ndarray) -> np.ndarray:
        t = u[:, None] + locs
        return -(cubes / (t * t * t)).sum(axis=1)  # t**3 is several times slower

    roots3 = np.cbrt(cubes)
    open_gap = (roots3[1:] + roots3[:-1]) ** 3 < np.diff(locs) ** 2
    left, right = -locs[1:][open_gap], -locs[:-1][open_gap]
    u_min = _bisect(half_phi_slope, left, right)
    dipped = phi(u_min) < 1.0
    left, right, u_min = left[dipped], right[dipped], u_min[dipped]

    # φ ≤ Σ w·d³ / (distance to the nearest pole)², so φ ≤ 1 at this reach
    # beyond the outermost poles
    reach = math.sqrt(float(cubes.sum()))
    # piece starts (φ falls through 1): (−d_min, ∞), then each interior gap;
    # piece ends (φ rises through 1): each interior gap, then (−∞, −d_max)
    n = len(u_min)
    lo = np.concatenate([[-locs[0]], left, u_min, [-locs[-1] - reach]])
    hi = np.concatenate([[-locs[0] + reach], u_min, right, [-locs[-1]]])
    rising = np.repeat([-1.0, 1.0], n + 1)
    ends = _bisect(lambda u: rising * (phi(u) - 1.0), lo, hi)
    # X falls across each piece, so its start gives the top of the hole and
    # its end the bottom; X(−∞) = ∞ and X(∞) = −∞ close the outer holes
    tops = big_x(np.append(ends[: n + 1], -math.inf))
    bottoms = big_x(np.insert(ends[n + 1:], 0, math.inf))

    holes: list[tuple[float, float]] = []
    for bottom, top in zip(bottoms, tops):
        img_lo, img_hi = max(float(bottom), 0.0), float(top)
        if img_hi > img_lo:
            holes.append((img_lo, img_hi))

    holes.sort()
    merged_holes: list[list[float]] = []
    for lo_h, hi_h in holes:
        if merged_holes and lo_h <= merged_holes[-1][1]:
            merged_holes[-1][1] = max(merged_holes[-1][1], hi_h)
        else:
            merged_holes.append([lo_h, hi_h])
    # holes narrower than this cannot be told from endpoint rounding,
    # whatever min_gap asks for; 4·max(d)·(E[D²] + 1) sets the scale
    width_floor = max(min_gap, _HOLE_TOL * max(1.0, 4.0 * float(locs.max()) * (m2 + 1.0)))
    filtered = [
        (a, b) for a, b in merged_holes if math.isinf(b) or (b - a) >= width_floor
    ]

    # the last hole is (·, ∞), so the support ends where it begins
    support: list[tuple[float, float]] = []
    cursor = 0.0
    for a, b in filtered:
        if a >= cursor:
            support.append((cursor, a))
        cursor = b
    return SupportIntervals(tuple(support))


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
        if not (math.isfinite(self.alpha) and self.alpha > 1.0 > self.beta > 0.0):
            raise ValueError(f"need finite alpha > 1 > beta > 0 "
                             f"(got alpha={self.alpha!r}, beta={self.beta!r})")

    @property
    def q_o(self) -> float:
        return (1.0 - self.beta) / (self.alpha - self.beta)

    def measure(self) -> DiscreteMeasure:
        return DiscreteMeasure((self.beta, self.alpha), (1.0 - self.q_o, self.q_o))


def _discriminant(a, b):
    """Edge-cubic discriminant for alpha = a, beta = b; scalars or arrays."""
    q = a * ((1.0 - b) / (a - b))  # size-biased weight of alpha: alpha·q_o
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
