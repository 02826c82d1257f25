"""Eigenvalues and empirical spectral distributions of symmetric matrices."""

from __future__ import annotations

import numpy as np

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


def eigenvalues_symmetric(a) -> np.ndarray:
    """All real eigenvalues of a symmetric matrix, sorted descending.

    Reads only the lower triangle (the upper one is taken to mirror it);
    symmetry is not checked.
    """
    return np.linalg.eigvalsh(np.asarray(a, dtype=float))[::-1]


def esd(eigenvalues_or_matrix) -> DiscreteMeasure:
    """Uniform probability measure on the eigenvalues (weight 1/n each).

    A 2-d input is a symmetric matrix and is diagonalized first.
    """
    if np.ndim(eigenvalues_or_matrix) == 2:
        eigs = eigenvalues_symmetric(eigenvalues_or_matrix)
    else:
        eigs = np.asarray(eigenvalues_or_matrix, dtype=float)
    return DiscreteMeasure.from_samples(eigs)


def trace_distance_bound(a, b) -> float:
    """sqrt(trace((A−B)²)/n): a rearrangement bound on how far two spectra
    can drift apart, hence an upper bound on smooth-test-function distances
    (and on the 1-Wasserstein distance) between the two ESDs.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"matrix shapes differ: {a.shape} vs {b.shape}")
    d = a - b
    return float(np.sqrt(np.vdot(d, d) / len(a)))


def freedman_diaconis_histogram(values, bins: int | None = None):
    """Density histogram with Freedman–Diaconis binning by default.

    Returns (bin_left, bin_right, density) arrays.
    """
    vals = np.asarray(values, dtype=float).ravel()
    n = vals.size
    if n == 0:
        raise ValueError("empty sample")
    counts, edges = np.histogram(vals, bins="fd" if bins is None else bins)
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
