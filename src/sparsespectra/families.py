"""Parametric continuous laws used as degree-weight distributions.

Each family exposes sampling and closed-form conditional means over
quantile slabs (the ingredients needed both for i.i.d. degree construction
and for deterministic quantization into a
:class:`~sparsespectra.measures.DiscreteMeasure`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ContinuousLaw", "OnePlusExponential", "UniformLaw"]


class ContinuousLaw:
    """Interface for a continuous law on [0, ∞) with finite mean."""

    def mean(self) -> float:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def slab_mean(self, p0: float, p1: float) -> float:
        """E[X | q(p0) < X ≤ q(p1)] in closed form, q the quantile function."""
        raise NotImplementedError

    def scaled(self, factor: float) -> "ContinuousLaw":
        raise NotImplementedError

    def normalized(self) -> "ContinuousLaw":
        """Copy rescaled to mean exactly 1."""
        return self.scaled(1.0 / self.mean())


@dataclass(frozen=True)
class OnePlusExponential(ContinuousLaw):
    """scale · (1 + Exp(rate)): an offset exponential bounded away from 0.

    Mean is scale·(1 + 1/rate); e.g. rate=1, scale=1/2 has mean exactly 1.
    """

    rate: float = 1.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.rate:
            raise ValueError(f"rate must be positive (got {self.rate!r})")
        if not 0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite (got {self.scale!r})")

    def mean(self) -> float:
        return self.scale * (1.0 + 1.0 / self.rate)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.scale * (1.0 + rng.exponential(1.0 / self.rate, size))

    def slab_mean(self, p0: float, p1: float) -> float:
        # Conditional mean of Exp(rate) between its p0- and p1-quantiles:
        # survival weights are exactly 1-p0 and 1-p1, so the truncated-mean
        # formula needs no exponentials at all.
        lam = self.rate
        e0 = -math.log1p(-p0) / lam
        if p1 >= 1.0:
            cond = e0 + 1.0 / lam
        else:
            e1 = -math.log1p(-p1) / lam
            s0, s1 = 1.0 - p0, 1.0 - p1
            cond = ((e0 + 1 / lam) * s0 - (e1 + 1 / lam) * s1) / (s0 - s1)
        return self.scale * (1.0 + cond)

    def scaled(self, factor: float) -> "OnePlusExponential":
        return OnePlusExponential(self.rate, self.scale * factor)


@dataclass(frozen=True)
class UniformLaw(ContinuousLaw):
    """Uniform on [low, high], low ≥ 0."""

    low: float = 0.0
    high: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.high):
            raise ValueError(f"high must be finite (got {self.high!r})")
        if not (0 <= self.low < self.high):
            raise ValueError(f"need 0 <= low < high (got low={self.low!r}, high={self.high!r})")

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size)

    def slab_mean(self, p0: float, p1: float) -> float:
        w = self.high - self.low
        return 0.5 * ((self.low + p0 * w) + (self.low + p1 * w))

    def scaled(self, factor: float) -> "UniformLaw":
        return UniformLaw(self.low * factor, self.high * factor)
