"""Output checks, read from the files each command writes.

The checks import nothing from the package: they parse the CSV and edge
list files and compare them with the acceptance gates' tolerances
(gate numbers as in tests/test_acceptance.py). A check returns None when
it passes and a one-line reason when it fails.
"""

from __future__ import annotations

import os

import numpy as np

# files every command kind must write
EXPECTED_FILES = {
    "sample": ("sample_edges.txt", "sample_degrees.txt"),
    "esd": ("spectrum.csv", "histogram.csv"),
    "density": ("density.csv",),
    "support": ("support_square_law.csv", "support_symmetric.csv", "xi_trace.csv"),
    "phase-diagram": ("phase_diagram.csv",),
    "compare": ("compare_spectrum.csv", "compare_density.csv"),
    "couple": ("couple_configuration.csv", "couple_poissonized.csv", "couple_summary.csv"),
}

MASS_TOL = 5e-3  # gate 5
SEMICIRCLE_TOL = 1e-4  # gate 1, away from the edges by more than 0.05
EDGE_TOL = 1e-8  # gate 2


def read_table(path: str) -> tuple[dict[str, str], list[str], np.ndarray]:
    """'# key=value' header lines, one column-name line, then CSV rows."""
    meta: dict[str, str] = {}
    with open(path) as fh:
        lines = fh.read().splitlines()
    k = 0
    while k < len(lines) and lines[k].startswith("#"):
        key, _, value = lines[k][1:].strip().partition("=")
        meta[key] = value
        k += 1
    columns = lines[k].split(",")
    rows = lines[k + 1:]
    data = np.loadtxt(rows, delimiter=",", ndmin=2) if rows else np.empty((0, len(columns)))
    return meta, columns, data


def _read_edges(path: str) -> tuple[dict[str, str], np.ndarray]:
    """Edge list as an (m, 3) int array of 'i j mult' rows."""
    meta: dict[str, str] = {}
    with open(path) as fh:
        text = fh.read()
    body_start = 0
    while text.startswith("#", body_start):
        end = text.index("\n", body_start)
        key, _, value = text[body_start + 1:end].strip().partition("=")
        meta.setdefault(key, value)
        body_start = end + 1
    values = np.fromstring(text[body_start:], dtype=np.int64, sep=" ")
    return meta, values.reshape(-1, 3)


def two_atom_threshold(beta: float) -> float:
    """Critical alpha of the two-atom law (the paper's closed form)."""
    return beta * (3.0 / (1.0 - (1.0 - beta) ** (1.0 / 3.0)) - 1.0)


def semicircle_density(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.clip(4.0 - x * x, 0.0, None)) / (2.0 * np.pi)


# -- the checks; each takes the command's output directory first ----------


def header_below(out: str, name: str, key: str, limit: float):
    value = float(read_table(os.path.join(out, name))[0][key])
    return None if value < limit else f"{name}: {key}={value:.6g} not below {limit}"


def summary_below(out: str, name: str, metric: str, limit: float):
    with open(os.path.join(out, name)) as fh:
        rows = dict(line.strip().split(",") for line in fh if not line.startswith("#"))
    value = float(rows[metric])
    return None if value < limit else f"{name}: {metric}={value:.6g} not below {limit}"


def eigen_count(out: str, name: str, n: int):
    eigs = read_table(os.path.join(out, name))[2][:, 0]
    if eigs.size != n or not np.all(np.isfinite(eigs)):
        return f"{name}: {eigs.size} finite eigenvalues, expected {n}"
    if np.any(np.diff(eigs) > 0):
        return f"{name}: eigenvalues not sorted descending"
    return None


def _curve(path: str) -> tuple[np.ndarray, np.ndarray]:
    _, columns, data = read_table(path)
    return data[:, columns.index("x")], data[:, columns.index("rho")]


def unit_mass(out: str, name: str):
    x, rho = _curve(os.path.join(out, name))
    mass = float(np.sum(np.diff(x) * 0.5 * (rho[1:] + rho[:-1])))
    return None if abs(mass - 1.0) <= MASS_TOL else f"{name}: mass {mass:.6g} off 1 by more than {MASS_TOL}"


def semicircle(out: str, name: str):
    x, rho = _curve(os.path.join(out, name))
    away = np.abs(np.abs(x) - 2.0) > 0.05
    worst = float(np.max(np.abs(rho - semicircle_density(x))[away]))
    return None if worst <= SEMICIRCLE_TOL else f"{name}: semicircle error {worst:.3g}"


def histogram_mass(out: str, name: str):
    _, _, data = read_table(os.path.join(out, name))
    mass = float(np.sum((data[:, 1] - data[:, 0]) * data[:, 2]))
    return None if abs(mass - 1.0) <= 1e-9 else f"{name}: histogram mass {mass!r}"


def _support(out: str, name: str) -> np.ndarray:
    _, _, data = read_table(os.path.join(out, name))
    flat = data.ravel()
    if flat.size == 0 or np.any(np.diff(flat) < 0):
        raise ValueError(f"{name}: empty, overlapping or unsorted intervals")
    return data


def two_atom_components(out: str, alpha: float, beta: float):
    """Gate 3: the square-law support splits iff alpha is above threshold."""
    pieces = len(_support(out, "support_square_law.csv"))
    expected = 2 if alpha > two_atom_threshold(beta) else 1
    return None if pieces == expected else f"two-atom {alpha}/{beta}: {pieces} components, expected {expected}"


def min_components(out: str, count: int):
    pieces = len(_support(out, "support_square_law.csv"))
    sym = _support(out, "support_symmetric.csv")
    if not np.allclose(sym[:, 0], -sym[::-1, 1], rtol=0.0, atol=1e-12):
        return "support_symmetric.csv: not symmetric about 0"
    return None if pieces >= count else f"square-law support has {pieces} < {count} components"


def semicircle_support(out: str):
    """Gate 2: the unit point mass has support [-2, 2]."""
    sym = _support(out, "support_symmetric.csv")
    if sym.shape[0] != 1 or np.max(np.abs(sym[0] - (-2.0, 2.0))) > EDGE_TOL:
        return f"delta:1 support {sym.tolist()} is not [-2, 2]"
    return None


def phase_diagram(out: str):
    """Gate 3: hole flag, discriminant sign and threshold all agree."""
    _, _, data = read_table(os.path.join(out, "phase_diagram.csv"))
    alpha, beta, hole, disc = data.T
    hole = hole.astype(bool)
    if np.any(hole != (disc > 0)):
        return "phase diagram: hole flag disagrees with the discriminant sign"
    threshold = np.array([two_atom_threshold(b) for b in beta])
    if np.any(hole != (alpha > threshold)):
        return "phase diagram: hole flag disagrees with the threshold"
    return None


def degrees_exact(out: str):
    """Gate 9: the configuration model reproduces the degrees exactly."""
    meta, edges = _read_edges(os.path.join(out, "sample_edges.txt"))
    n = int(meta["n"])
    i, j, mult = edges.T
    deg = np.bincount(i, weights=mult, minlength=n) + np.bincount(j, weights=mult, minlength=n)
    expected = np.loadtxt(os.path.join(out, "sample_degrees.txt"), dtype=np.int64, ndmin=1)
    if deg.size != expected.size or np.any(deg.astype(np.int64) != expected):
        return "sample: edge-list degrees differ from the degree sequence"
    return None


def edge_total(out: str):
    meta, edges = _read_edges(os.path.join(out, "sample_edges.txt"))
    total = int(edges[:, 2].sum())
    if total != int(meta["edge_total"]):
        return f"sample: edge list holds {total} edges, header says {meta['edge_total']}"
    return None


CHECKS = {
    check.__name__: check
    for check in (header_below, summary_below, eigen_count, unit_mass, semicircle,
                  histogram_mass, two_atom_components, min_components,
                  semicircle_support, phase_diagram, degrees_exact, edge_total)
}


def run_checks(kind: str, checks: list, out: str) -> list[str]:
    """Reasons the command's outputs fail; empty when all checks pass."""
    missing = [f for f in EXPECTED_FILES[kind] if not os.path.isfile(os.path.join(out, f))]
    if missing:
        return [f"missing output {', '.join(missing)}"]
    failures = []
    for name, *params in checks:
        try:
            reason = CHECKS[name](out, *params)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            reason = f"{name}: unreadable output ({exc!r})"
        if reason is not None:
            failures.append(reason)
    return failures
