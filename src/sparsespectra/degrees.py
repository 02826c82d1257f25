"""Degree sequences for sparse multigraph ensembles.

A degree sequence assigns every vertex an integer degree D_i = floor(w·t_i),
where w is the target average-degree scale and t_i are unit-mean weights,
either assigned deterministically in proportion to an atomic law or drawn
i.i.d. from a continuous family. The realized scale omega is always
recomputed exactly as (total degree)/n = 2|E|/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import ContinuousLaw, parse_family
from .measures import DiscreteMeasure
from .tables import write_rows

__all__ = [
    "DegreeSpec",
    "DegreeSequence",
    "DegreeGroup",
    "build_degree_sequence",
    "build_grouped_degrees",
    "degree_esd",
    "largest_remainder_counts",
]


@dataclass(frozen=True)
class DegreeSpec:
    """How per-vertex weights t_i are produced.

    kind="atoms": deterministic assignment; vertex counts proportional to
    the atom weights (largest-remainder rounding), t_i equal to the atom
    locations.

    kind="iid": t_i sampled i.i.d. from `law`, rescaled to unit mean.
    """

    kind: str
    measure: DiscreteMeasure | None = None
    law: ContinuousLaw | None = None

    def __post_init__(self) -> None:
        if self.kind == "atoms":
            if self.measure is None or self.law is not None:
                raise ValueError("atoms spec needs exactly a measure")
            if not self.measure.nonnegative():
                raise ValueError("degree weights must be nonnegative")
        elif self.kind == "iid":
            if self.law is None or self.measure is not None:
                raise ValueError("iid spec needs exactly a law")
        else:
            raise ValueError(f"unknown kind {self.kind!r}")

    @classmethod
    def atoms(cls, measure: DiscreteMeasure) -> "DegreeSpec":
        return cls("atoms", measure=measure)

    @classmethod
    def iid(cls, law: ContinuousLaw | str) -> "DegreeSpec":
        if isinstance(law, str):
            law = parse_family(law)
        return cls("iid", law=law.normalized())

    def describe(self) -> str:
        if self.kind == "atoms":
            m = self.measure
            inner = ",".join(f"{x:g}:{w:g}" for x, w in zip(m.locations, m.weights))
            return f"atoms({inner})"
        return f"iid({self.law.describe()})"


@dataclass(frozen=True)
class DegreeSequence:
    """Integer degrees plus the realized scale omega = 2|E|/n."""

    degrees: tuple[int, ...]
    omega: float

    def __post_init__(self) -> None:
        degs = tuple(int(d) for d in self.degrees)
        object.__setattr__(self, "degrees", degs)
        if len(degs) == 0:
            raise ValueError("empty degree sequence")
        if any(d < 0 for d in degs):
            raise ValueError("degrees must be nonnegative")
        total = sum(degs)
        if total % 2 != 0:
            raise ValueError("total degree must be even")
        expected = total / len(degs)
        if not math.isclose(self.omega, expected, rel_tol=0, abs_tol=1e-9 * max(1.0, expected)):
            raise ValueError(f"omega={self.omega!r} but 2|E|/n={expected!r}")
        object.__setattr__(self, "omega", float(expected))

    @property
    def n(self) -> int:
        return len(self.degrees)

    @property
    def edge_count(self) -> int:
        return sum(self.degrees) // 2

    def as_array(self) -> np.ndarray:
        return np.asarray(self.degrees, dtype=np.int64)

    @classmethod
    def from_degrees(cls, degrees) -> "DegreeSequence":
        degs = [int(d) for d in degrees]
        n = len(degs)
        if n == 0:
            raise ValueError("empty degree sequence")
        return cls(tuple(degs), sum(degs) / n)

    def save(self, path) -> None:
        """One integer per line."""
        with open(path, "w") as fh:
            write_rows(fh, "{}\n", self.as_array())

    @classmethod
    def load(cls, path) -> "DegreeSequence":
        with open(path) as fh:
            degs = [int(line) for line in fh if line.strip()]
        return cls.from_degrees(degs)


def largest_remainder_counts(n: int, weights) -> np.ndarray:
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


def build_degree_sequence(
    spec: DegreeSpec, n: int, omega_target: float, seed=None
) -> DegreeSequence:
    """Realize integer degrees floor(omega_target · t_i) for n vertices.

    If the total comes out odd the last vertex gains one half-edge, so the
    sum is always even; omega is then recomputed from the realized total.
    Rejects all-zero outcomes (no edges to match).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if omega_target < 1:
        raise ValueError("need omega_target >= 1")
    if spec.kind == "atoms":
        locs, wts = spec.measure.as_arrays()
        counts = largest_remainder_counts(n, wts)
        weights_per_vertex = np.repeat(locs, counts)
    else:
        rng = np.random.default_rng(seed)
        weights_per_vertex = spec.law.sample(rng, n)
    degrees = np.floor(omega_target * weights_per_vertex).astype(np.int64)
    if degrees.sum() % 2 != 0:
        degrees[-1] += 1
    if degrees.sum() == 0:
        raise ValueError("spec produced an all-zero degree sequence")
    return DegreeSequence.from_degrees(degrees.tolist())


@dataclass(frozen=True)
class DegreeGroup:
    """One block of a mixed-regime degree recipe.

    count: "rest", "sqrt", an int, or a float fraction of n.
    law:   weight family for the block (sampled i.i.d., not renormalized).
    scale: "sqrt", "log", or a positive number; degree = floor(scale(n)·t).
    """

    count: str | int | float
    law: ContinuousLaw
    scale: str | float

    def resolve_count(self, n: int) -> int | None:
        if self.count == "rest":
            return None
        if self.count == "sqrt":
            return int(round(math.sqrt(n)))
        if isinstance(self.count, float) and 0 < self.count < 1:
            return int(round(self.count * n))
        return int(self.count)

    def resolve_scale(self, n: int) -> float:
        if self.scale == "sqrt":
            return math.sqrt(n)
        if self.scale == "log":
            return math.log(n)
        return float(self.scale)


def build_grouped_degrees(groups, n: int, seed=None) -> DegreeSequence:
    """Mixed-regime builder: each group supplies its own count and scale.

    At most one group may use count="rest" (it absorbs the remaining
    vertices). Used for ensembles mixing, say, sqrt(n)-scale hubs into a
    log(n)-scale bulk.
    """
    rng = np.random.default_rng(seed)
    fixed = [(g, g.resolve_count(n)) for g in groups]
    rest_groups = [g for g, c in fixed if c is None]
    if len(rest_groups) > 1:
        raise ValueError("at most one group may have count='rest'")
    used = sum(c for _, c in fixed if c is not None)
    if used > n:
        raise ValueError(f"group counts sum to {used} > n={n}")
    degree_blocks = []
    for g, c in fixed:
        c = n - used if c is None else c
        if c == 0:
            continue
        t = g.law.sample(rng, c)
        degree_blocks.append(np.floor(g.resolve_scale(n) * t).astype(np.int64))
    degrees = np.concatenate(degree_blocks)
    if degrees.sum() % 2 != 0:
        degrees[-1] += 1
    if degrees.sum() == 0:
        raise ValueError("groups produced an all-zero degree sequence")
    return DegreeSequence.from_degrees(degrees.tolist())


def degree_esd(seq: DegreeSequence) -> DiscreteMeasure:
    """Empirical law of the normalized degrees D_i/omega (unit mean, exactly)."""
    degs = seq.as_array()
    return DiscreteMeasure.from_samples(degs / seq.omega)
