"""Eigenvalues and empirical spectral distributions of symmetric matrices."""

from __future__ import annotations

import numpy as np

from .graphs import SymmetricMatrix
from .measures import DiscreteMeasure
from .tables import write_table

__all__ = [
    "eigenvalues_symmetric",
    "esd",
    "trace_distance_bound",
    "freedman_diaconis_histogram",
    "write_spectrum_csv",
    "write_histogram_csv",
]


def eigenvalues_symmetric(m: SymmetricMatrix | np.ndarray) -> np.ndarray:
    """All real eigenvalues, sorted descending."""
    a = m.data if isinstance(m, SymmetricMatrix) else np.asarray(m, dtype=float)
    return np.linalg.eigvalsh(a)[::-1]


def esd(eigenvalues_or_matrix) -> DiscreteMeasure:
    """Uniform probability measure on the eigenvalues (weight 1/n each)."""
    if isinstance(eigenvalues_or_matrix, (SymmetricMatrix, np.ndarray)) and getattr(
        eigenvalues_or_matrix, "ndim", 2
    ) == 2:
        eigs = eigenvalues_symmetric(eigenvalues_or_matrix)
    else:
        eigs = np.asarray(eigenvalues_or_matrix, dtype=float)
    return DiscreteMeasure.from_samples(eigs)


def trace_distance_bound(a: SymmetricMatrix, b: SymmetricMatrix) -> float:
    """sqrt(trace((A−B)²)/n): a rearrangement bound on how far two spectra
    can drift apart, hence an upper bound on smooth-test-function distances
    (and on the 1-Wasserstein distance) between the two ESDs.
    """
    if a.n != b.n:
        raise ValueError(f"matrix orders differ: {a.n} vs {b.n}")
    d = a.data - b.data
    return float(np.sqrt(np.vdot(d, d) / a.n))


def freedman_diaconis_histogram(values, bins: int | None = None):
    """Density histogram with Freedman–Diaconis binning by default.

    Returns (bin_left, bin_right, density) arrays.
    """
    vals = np.sort(np.asarray(values, dtype=float).ravel())
    n = vals.size
    if n == 0:
        raise ValueError("empty sample")
    if bins is None:
        q75, q25 = np.percentile(vals, [75, 25])
        iqr = q75 - q25
        width = 2.0 * iqr / n ** (1.0 / 3.0)
        span = vals[-1] - vals[0]
        if width <= 0 or span <= 0:
            bins = 1
        else:
            bins = max(1, int(np.ceil(span / width)))
    counts, edges = np.histogram(vals, bins=bins)
    widths = np.diff(edges)
    density = counts / (n * widths)
    return edges[:-1], edges[1:], density


def write_spectrum_csv(path, eigenvalues, metadata: dict | None = None) -> None:
    """One eigenvalue per line, preceded by '#' metadata lines."""
    eigs = np.asarray(eigenvalues, dtype=float).ravel()
    write_table(path, ("eigenvalue",), eigs, metadata=metadata)


def write_histogram_csv(path, values, bins: int | None = None,
                        metadata: dict | None = None) -> None:
    left, right, density = freedman_diaconis_histogram(values, bins)
    write_table(path, ("bin_left", "bin_right", "density"), left, right, density,
                metadata=metadata)
