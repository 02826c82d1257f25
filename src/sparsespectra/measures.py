"""Finite atomic probability measures on the real line, and exact
CDF-based distances between them.

A :class:`DiscreteMeasure` is the common currency of the package: it holds
normalized degree laws, quantized continuous laws, and empirical spectral
distributions alike.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass

import numpy as np

from .tables import write_rows

__all__ = [
    "DiscreteMeasure",
    "kolmogorov_distance",
    "wasserstein1",
    "kolmogorov_vs_cdf",
]

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure with finitely many atoms.

    Parameters
    ----------
    locations:
        Strictly increasing atom positions.
    weights:
        Strictly positive masses summing to 1 (within 1e-12).

    Both are stored as tuples so instances are hashable and safely
    shareable between threads.
    """

    locations: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.locations) != len(self.weights):
            raise ValueError("locations and weights must have equal length")
        if len(self.locations) == 0:
            raise ValueError("measure needs at least one atom")
        object.__setattr__(self, "locations", tuple(float(x) for x in self.locations))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        locs = np.asarray(self.locations)
        wts = np.asarray(self.weights)
        if not np.all(np.isfinite(locs)) or not np.all(np.isfinite(wts)):
            raise ValueError("atoms must be finite")
        if np.any(np.diff(locs) <= 0):
            raise ValueError("locations must be strictly increasing (no duplicates)")
        if np.any(wts <= 0):
            raise ValueError("weights must be strictly positive")
        total = float(wts.sum())
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1 within {_WEIGHT_TOL}")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs) -> "DiscreteMeasure":
        """Build from an iterable of (location, weight), any order.

        Weights at duplicate locations are merged; zero weights dropped.
        """
        acc: dict[float, float] = {}
        for loc, w in pairs:
            acc[float(loc)] = acc.get(float(loc), 0.0) + float(w)
        locs = sorted(k for k, w in acc.items() if w != 0.0)
        return cls(tuple(locs), tuple(acc[k] for k in locs))

    @classmethod
    def from_samples(cls, values) -> "DiscreteMeasure":
        """Empirical measure: weight 1/n per value, exact duplicates merged."""
        vals = np.asarray(values, dtype=float).ravel()
        if vals.size == 0:
            raise ValueError("empty sample")
        locs, counts = np.unique(vals, return_counts=True)
        return cls(tuple(locs.tolist()), tuple((counts / vals.size).tolist()))

    @classmethod
    def point_mass(cls, location: float) -> "DiscreteMeasure":
        return cls((float(location),), (1.0,))

    # -- basic queries ------------------------------------------------

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.locations), np.asarray(self.weights)

    def __len__(self) -> int:
        return len(self.locations)

    def mean(self) -> float:
        locs, wts = self.as_arrays()
        return float(locs @ wts)

    def moment(self, k: int) -> float:
        locs, wts = self.as_arrays()
        return float((locs**k) @ wts)

    def mass_at(self, location: float) -> float:
        try:
            return self.weights[self.locations.index(float(location))]
        except ValueError:
            return 0.0

    def cdf(self, x) -> np.ndarray:
        """Right-continuous CDF evaluated at x (scalar or array)."""
        locs, wts = self.as_arrays()
        cum = np.concatenate(([0.0], np.cumsum(wts)))
        idx = np.searchsorted(locs, np.asarray(x, dtype=float), side="right")
        return cum[idx]

    def nonnegative(self) -> bool:
        return self.locations[0] >= 0.0

    def scaled(self, factor: float) -> "DiscreteMeasure":
        """Push forward under x ↦ factor·x (factor > 0)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return DiscreteMeasure(tuple(factor * x for x in self.locations), self.weights)

    def normalized(self) -> "DiscreteMeasure":
        """Rescale locations so the mean becomes exactly 1."""
        m = self.mean()
        if m <= 0:
            raise ValueError("cannot normalize a measure with nonpositive mean")
        return self.scaled(1.0 / m)

    def content_hash(self) -> str:
        """Stable short identifier of the atom data (used in file metadata):
        the sha256 of `x:w` per atom, in `.17g`, joined by `;`."""
        rows = io.StringIO()
        write_rows(rows, ":", np.asarray(self.locations), np.asarray(self.weights))
        payload = rows.getvalue()[:-1].replace("\n", ";")
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _merged_grid(a: DiscreteMeasure, b: DiscreteMeasure) -> np.ndarray:
    """The sorted union of the two measures' atom locations.

    Built by hand: numpy's `union1d` imports `numpy.ma` on first use,
    about 9 ms of a command's start-up.
    """
    grid = np.sort(np.concatenate([a.locations, b.locations]))
    return grid[np.concatenate(([True], grid[1:] != grid[:-1]))]


def kolmogorov_distance(a: DiscreteMeasure, b: DiscreteMeasure) -> float:
    """sup_x |F_a(x) − F_b(x)|, exact (atoms only move the CDF at atoms)."""
    grid = _merged_grid(a, b)
    return float(np.max(np.abs(a.cdf(grid) - b.cdf(grid))))


def wasserstein1(a: DiscreteMeasure, b: DiscreteMeasure) -> float:
    """∫|F_a − F_b| dx, exact for piecewise-constant CDFs."""
    grid = _merged_grid(a, b)
    if grid.size == 1:
        return 0.0
    diffs = np.abs(a.cdf(grid[:-1]) - b.cdf(grid[:-1]))
    return float(diffs @ np.diff(grid))


def kolmogorov_vs_cdf(values, cdf) -> float:
    """Kolmogorov distance between an empirical sample and a continuous CDF.

    `cdf` is a callable evaluated vectorized at the sorted sample points;
    the sup over each jump is max(|F(x_i) − i/n|, |F(x_i) − (i−1)/n|).
    """
    xs = np.sort(np.asarray(values, dtype=float).ravel())
    n = xs.size
    if n == 0:
        raise ValueError("empty sample")
    f = np.asarray(cdf(xs), dtype=float)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(max(np.max(np.abs(f - hi)), np.max(np.abs(f - lo))))
