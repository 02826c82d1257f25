"""Eigenvalues and histograms of symmetric matrices.

Every solve reads only the lower triangle and diagonal of its matrix, so
a matrix may share its strict upper triangle with another one (see
`graphs.scaled_adjacency_pair`). `eigenvalues_symmetric_pair` solves two
such matrices at once: the first on the calling thread, the second on the
one worker of a `concurrent.futures` thread pool. The dense solver releases
the interpreter lock, so the two solves overlap on two CPUs.
"""

from __future__ import annotations

import numpy as np

from .tables import write_table

__all__ = [
    "eigenvalues_symmetric",
    "eigenvalues_symmetric_pair",
    "freedman_diaconis_histogram",
    "write_spectrum_csv",
    "write_histogram_csv",
]


def eigenvalues_symmetric(a) -> np.ndarray:
    """All real eigenvalues of a symmetric matrix, sorted descending.

    Reads only the lower triangle (the upper one is taken to mirror it);
    symmetry is not checked.
    """
    return _eigenvalues_descending(a)


def eigenvalues_symmetric_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """`eigenvalues_symmetric` of a and of b, the two solved concurrently.

    a is solved on the calling thread and b on one pool worker. An exception
    from either solve is raised here, after both solves have ended; if both
    fail, a's is raised. Only b leaves the calling thread: glibc keeps what
    a thread frees in that thread's own arena, and with both solves on worker
    threads their freed n×n solver buffers were not reused, which raised the
    peak memory of a two-solve run by a quarter.
    """
    # imported here, not at module level: concurrent.futures pulls in logging,
    # which would add about 6 ms to the start-up of every command
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        # the worker calls no public function of the package: a tracer
        # wrapping those is not thread-safe
        eig_b = pool.submit(_eigenvalues_descending, b)
        eig_a = _eigenvalues_descending(a)
    return eig_a, eig_b.result()


def _eigenvalues_descending(a) -> np.ndarray:
    return np.linalg.eigvalsh(np.asarray(a, dtype=float))[::-1]


def freedman_diaconis_histogram(values):
    """Density histogram with Freedman–Diaconis binning.

    Returns (bin_left, bin_right, density) arrays.
    """
    vals = np.asarray(values, dtype=float).ravel()
    if vals.size == 0:
        raise ValueError("empty sample")
    density, edges = np.histogram(vals, bins="fd", density=True)
    return edges[:-1], edges[1:], density


def write_spectrum_csv(path, eigenvalues, metadata: dict | None = None) -> None:
    """One eigenvalue per line, preceded by '#' metadata lines."""
    eigs = np.asarray(eigenvalues, dtype=float).ravel()
    write_table(path, ("eigenvalue",), eigs, metadata=metadata)


def write_histogram_csv(path, values, metadata: dict | None = None) -> None:
    left, right, density = freedman_diaconis_histogram(values)
    write_table(path, ("bin_left", "bin_right", "density"), left, right, density,
                metadata=metadata)
