"""Degree sequences for sparse multigraph ensembles.

A degree sequence assigns every vertex an integer degree D_i = floor(w·t_i),
where w is the target average-degree scale and t_i are the weights of a
law: a :class:`DiscreteMeasure` hands its atoms to vertex counts in
proportion to their weights, a :class:`ContinuousLaw` is sampled i.i.d.
Either law is taken as given (callers rescale to unit mean). The realized
scale omega follows from the degrees as (total degree)/n = 2|E|/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .families import ContinuousLaw
from .measures import DiscreteMeasure
from .tables import write_rows

__all__ = [
    "DegreeSequence",
    "DegreeGroup",
    "build_degree_sequence",
    "build_grouped_degrees",
]


@dataclass(frozen=True)
class DegreeSequence:
    """Integer degrees; omega = 2|E|/n, the realized scale, follows from them."""

    degrees: tuple[int, ...]
    omega: float = field(init=False)

    def __post_init__(self) -> None:
        # beyond int64 numpy keeps Python ints as objects, or as uint64 up to 2**64
        values = np.asarray(self.degrees)
        if values.size == 0:
            raise ValueError("empty degree sequence")
        if values.dtype.kind not in "iu" or values.max() >= 2**63:
            bad = next((d for d in self.degrees if not isinstance(d, (int, np.integer))
                        or not -2**63 <= d < 2**63), values.dtype)
            raise ValueError(f"degrees must be 64-bit integers (got {bad!r})")
        if values.min() < 0:
            raise ValueError("degrees must be nonnegative")
        degs = tuple(values.tolist())
        object.__setattr__(self, "degrees", degs)
        total = sum(degs)
        if total % 2 != 0:
            raise ValueError("total degree must be even")
        object.__setattr__(self, "omega", total / len(degs))

    @property
    def n(self) -> int:
        return len(self.degrees)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.degrees, dtype=np.int64)

    def save(self, path) -> None:
        """One integer per line."""
        with open(path, "w") as fh:
            write_rows(fh, " ", self.as_array())

    @classmethod
    def load(cls, path) -> "DegreeSequence":
        degs = []
        with open(path) as fh:
            for line in filter(str.strip, fh):
                try:
                    degs.append(int(line))
                except ValueError:
                    raise ValueError(f"{path}: degree line {line.strip()!r} is not an "
                                     "integer") from None
        try:
            return cls(degs)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _largest_remainder_counts(n: int, weights) -> np.ndarray:
    """Apportion n items to categories in proportion to weights.

    Floors the exact quotas, then hands the leftover items to the largest
    fractional remainders (ties broken by category order).
    """
    w = np.asarray(weights, dtype=float)
    quotas = n * w / w.sum()
    counts = np.floor(quotas).astype(np.int64)
    remainder = int(n - counts.sum())
    if remainder:
        order = np.argsort(-(quotas - counts), kind="stable")
        counts[order[:remainder]] += 1
    return counts


def _resolve_scale(rule: str | float, n: int) -> float:
    """Degree scale for n vertices: "sqrt", "log", or a number."""
    if rule == "sqrt":
        return math.sqrt(n)
    if rule == "log":
        return math.log(n)
    try:
        return float(rule)
    except ValueError:
        raise ValueError(f"omega {rule!r}: expected a number, 'sqrt' or 'log'") from None


def _even_sequence(scaled: np.ndarray) -> DegreeSequence:
    """Degrees floor(scale·t) from the products `scaled`, the last vertex
    given one more half-edge if the total is odd. Rejects a degree beyond
    int64 (the cast would wrap it) and an all-zero outcome (no edges to
    match)."""
    worst = scaled.max()
    if worst >= 2.0**63:
        raise ValueError(f"degree {worst:.17g} (scale × weight) does not fit in 64 bits")
    degrees = np.floor(scaled).astype(np.int64)
    if degrees.sum() % 2 != 0:
        degrees[-1] += 1
    if degrees.sum() == 0:
        raise ValueError("all-zero degree sequence: no edges to match")
    return DegreeSequence(degrees)


def build_degree_sequence(
    law: DiscreteMeasure | ContinuousLaw, n: int, omega_target: str | float, seed=None
) -> DegreeSequence:
    """Realize integer degrees floor(omega_target · t_i) for n vertices.

    omega_target is "sqrt", "log" or a number, as a DegreeGroup scale.
    A DiscreteMeasure gives each atom a largest-remainder share of the n
    vertices, t_i its location; a ContinuousLaw draws t_i i.i.d. from
    `seed`. If the total comes out odd the last vertex gains one half-edge,
    so the sum is always even; omega is then recomputed from the realized
    total. Rejects all-zero outcomes (no edges to match).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    omega_target = _resolve_scale(omega_target, n)
    if not 1 <= omega_target < math.inf:
        raise ValueError(f"omega_target must be finite and >= 1 (got {omega_target!r})")
    if isinstance(law, DiscreteMeasure):
        if not law.nonnegative():
            raise ValueError("degree weights must be nonnegative")
        locs, wts = law.as_arrays()
        weights_per_vertex = np.repeat(locs, _largest_remainder_counts(n, wts))
    else:
        weights_per_vertex = law.sample(np.random.default_rng(seed), n)
    return _even_sequence(omega_target * weights_per_vertex)


@dataclass(frozen=True)
class DegreeGroup:
    """One block of a mixed-regime degree recipe.

    count: "rest", "sqrt", an int >= 0, or a float fraction of n in (0, 1).
    law:   weight family for the block (sampled i.i.d., not renormalized).
    scale: "sqrt", "log", or a positive number; degree = floor(scale(n)·t).
    """

    count: str | int | float
    law: ContinuousLaw
    scale: str | float

    def __post_init__(self) -> None:
        count = self.count
        if not (count in ("rest", "sqrt")
                or (isinstance(count, int) and not isinstance(count, bool) and count >= 0)
                or (isinstance(count, float) and 0 < count < 1)):
            raise ValueError("group count must be 'rest', 'sqrt', an integer >= 0 or a fraction"
                             f" in (0, 1) (got {count!r})")
        if not isinstance(self.law, ContinuousLaw):
            raise ValueError(f"group law must be a continuous law (got {self.law!r})")
        if isinstance(self.scale, str):
            if self.scale not in ("sqrt", "log"):
                raise ValueError("group scale must be 'sqrt', 'log' or a positive number"
                                 f" (got {self.scale!r})")
        elif not 0 < self.scale < math.inf:
            raise ValueError(f"group scale must be positive and finite (got {self.scale!r})")

    def resolve_count(self, n: int) -> int | None:
        if self.count == "rest":
            return None
        if self.count == "sqrt":
            return int(round(math.sqrt(n)))
        if isinstance(self.count, float):
            return int(round(self.count * n))
        return self.count


def build_grouped_degrees(groups, n: int, seed=None) -> DegreeSequence:
    """Mixed-regime builder: each group supplies its own count and scale.

    At most one group may use count="rest" (it absorbs the remaining
    vertices). Used for ensembles mixing, say, sqrt(n)-scale hubs into a
    log(n)-scale bulk. Rejects n < 2 and groups that cover no vertex.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rng = np.random.default_rng(seed)
    fixed = [(g, g.resolve_count(n)) for g in groups]
    rest_groups = [g for g, c in fixed if c is None]
    if len(rest_groups) > 1:
        raise ValueError("at most one group may have count='rest'")
    used = sum(c for _, c in fixed if c is not None)
    if used > n:
        raise ValueError(f"group counts sum to {used} > n={n}")
    blocks = []
    for g, c in fixed:
        c = n - used if c is None else c
        if c == 0:
            continue
        blocks.append(_resolve_scale(g.scale, n) * g.law.sample(rng, c))
    if not blocks:
        raise ValueError(f"the groups cover no vertex: every group count resolves to 0 at n={n}")
    return _even_sequence(np.concatenate(blocks))

