"""Random multigraph samplers and adjacency matrices.

Two samplers share the :class:`Multigraph` output type:

* :func:`sample_configuration` — uniform half-edge matching for a fixed
  degree sequence (degrees reproduced exactly, loops count 2);
* :func:`sample_poissonized` — independent Poisson edge multiplicities
  with pair rates D_i·D_j/(n·omega), a surrogate whose spectrum tracks the
  configuration model's. As n·omega is the total degree S, this is
  Poisson(S/2) edges whose ends are drawn uniformly, with replacement,
  from the same half-edges: stub matching with replacement.

:func:`scaled_adjacency` turns a sample into the plain dense ndarray
A/sqrt(omega), symmetric by construction, whose spectrum the limit law
describes. :func:`scaled_adjacency_pair` writes two samples' scaled
adjacencies into one (n+1)×n buffer, each in the lower triangle of its own
view, for a solver that reads only that triangle.
:func:`scaled_adjacency_distance` gives sqrt(trace((A−B)²)/n) for two
samples from their edge lists, with no dense matrix. All three take the
entries from one place, so the multigraph convention and the
single-adjacency clamp are stated once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .degrees import DegreeSequence
from .tables import write_header, write_rows

__all__ = [
    "Multigraph",
    "sample_configuration",
    "sample_poissonized",
    "scaled_adjacency",
    "scaled_adjacency_pair",
    "scaled_adjacency_distance",
]


@dataclass(frozen=True)
class Multigraph:
    """Undirected multigraph as counted vertex pairs.

    Row k joins edges_i[k] ≤ edges_j[k] by mult[k] ≥ 1 edges. A row with
    edges_i == edges_j is a loop row: mult loops at that vertex, each
    adding 2 to its degree. No pair has two rows. Samplers store the rows
    sorted by (i, j).
    """

    n: int
    edges_i: np.ndarray
    edges_j: np.ndarray
    mult: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative (got n={self.n})")
        for name in ("edges_i", "edges_j", "mult"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        if not (self.edges_i.shape == self.edges_j.shape == self.mult.shape):
            raise ValueError("edge arrays must have matching shapes")
        if (self.edges_i > self.edges_j).any():
            raise ValueError("edges must be stored with i <= j")
        if (self.mult <= 0).any():
            raise ValueError("multiplicities must be positive")
        _reject_outside(self.n, self.edges_i, self.edges_j)
        # a repeated pair would count twice in the degrees but once in the
        # adjacency; rows sorted with distinct pairs pass in one O(E) check
        keys = self.edges_i * self.n + self.edges_j
        if (keys[1:] <= keys[:-1]).any():
            keys = np.sort(keys)
            repeated = np.flatnonzero(keys[1:] == keys[:-1])
            if repeated.size:
                i, j = divmod(int(keys[repeated[0]]), self.n)
                raise ValueError(f"edge list repeats the pair ({i}, {j})")

    # -- derived quantities -------------------------------------------

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        np.add.at(deg, self.edges_i, self.mult)
        np.add.at(deg, self.edges_j, self.mult)
        return deg

    @property
    def edge_total(self) -> int:
        """Edges counted with multiplicity, loops included."""
        return int(self.mult.sum())

    # -- adjacency ----------------------------------------------------

    def adjacency(self, single: bool = False) -> np.ndarray:
        """Dense symmetric adjacency (see `_lower_entries` for the entries)."""
        rows, cols, vals = self._lower_entries(single)
        a = np.zeros((self.n, self.n))
        a[rows, cols] = vals
        a[cols, rows] = vals
        return a

    def _lower_entries(self, single: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row, column and value of every nonzero adjacency entry on or
        below the diagonal.

        Multigraph convention: entry (i, j) is the multiplicity and the
        diagonal carries 2·loops, so every row sums to the vertex degree.
        With single=True every entry, diagonal included, is clamped to 1.
        """
        if single:
            vals = np.minimum(self.mult, 1)
        else:
            vals = np.where(self.edges_i == self.edges_j, 2 * self.mult, self.mult)
        return self.edges_j, self.edges_i, vals

    # -- text round trip ----------------------------------------------

    def save_edges(self, path, metadata: dict | None = None) -> None:
        """Edge-list text: a sorted '# key=value' header that includes n,
        then one 'i j mult' line per row in stored order (a loop is 'v v count')."""
        with open(path, "w") as fh:
            write_header(fh, {**(metadata or {}), "n": self.n})
            write_rows(fh, " ", self.edges_i, self.edges_j, self.mult)

    @classmethod
    def load_edges(cls, path) -> "Multigraph":
        """Read `save_edges` text back, rows sorted by (i, j).

        A pair listed twice, in either order, is rejected: its rows would
        count in the degrees but not in the adjacency.
        """
        n = None
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    body = line[1:].strip()
                    if body.startswith("n="):
                        try:
                            n = _int64(body[2:])
                        except ValueError:
                            raise ValueError(f"{path}: edge-list header {line!r} does not give "
                                             "n as a 64-bit integer") from None
                    continue
                try:
                    i, j, m = map(_int64, line.split())
                except ValueError:
                    raise ValueError(f"{path}: edge-list line {line!r} is not three 64-bit "
                                     "integers 'i j mult'") from None
                rows.append((min(i, j), max(i, j), m))
        if n is None:
            raise ValueError(f"{path}: edge-list file lacks the '# n=' header")
        ii, jj, mm = np.array(rows, dtype=np.int64).reshape(-1, 3).T
        order = np.lexsort((jj, ii))
        try:
            return cls(n, ii[order], jj[order], mm[order])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    @classmethod
    def from_instances(cls, n: int, ii, jj) -> "Multigraph":
        """Collect edge instances (loops as i == j) into counted rows."""
        ii = np.asarray(ii, dtype=np.int64)
        jj = np.asarray(jj, dtype=np.int64)
        lo, hi = np.minimum(ii, jj), np.maximum(ii, jj)
        _reject_outside(n, lo, hi)  # the pair key below would wrap them
        keys, counts = np.unique(lo * n + hi, return_counts=True)
        lo, hi = np.divmod(keys, n)
        return cls(n, lo, hi, counts)


def _int64(token: str) -> int:
    """int(token), with ValueError also for a value outside int64."""
    value = int(token)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"{value} is outside int64")
    return value


def _reject_outside(n: int, lo: np.ndarray, hi: np.ndarray) -> None:
    """Raise on a vertex id outside [0, n), given lo ≤ hi entrywise."""
    outside = np.concatenate([lo[lo < 0], hi[hi >= n]])
    if outside.size:
        raise ValueError(f"vertex id {outside[0]} outside [0, {n})")


def _half_edges(seq: DegreeSequence) -> np.ndarray:
    return np.repeat(np.arange(seq.n, dtype=np.int64), seq.as_array())


def sample_configuration(seq: DegreeSequence, seed=None) -> Multigraph:
    """Uniform perfect matching on the half-edges of `seq`.

    The half-edge array (vertex v repeated degree(v) times) is shuffled in
    place — a uniform permutation — and consecutive entries are paired, so
    every perfect matching is equally likely. Degrees are reproduced
    exactly on every draw; a self-pair becomes one loop (degree 2).
    """
    rng = np.random.default_rng(seed)
    stubs = _half_edges(seq)
    rng.shuffle(stubs)
    pairs = stubs.reshape(-1, 2)
    return Multigraph.from_instances(seq.n, pairs[:, 0], pairs[:, 1])


def sample_poissonized(seq: DegreeSequence, seed=None) -> Multigraph:
    """Independent Poisson multiplicities with rates D_i·D_j/(n·omega).

    Every unordered vertex pair {i,j} receives an independent Poisson
    count with that rate; each vertex receives Poisson(D_i²/(2·n·omega))
    loops. Degrees then hold only in expectation. As n·omega is the total
    degree S, each rate is S/2 times the chance that two half-edges drawn
    uniformly with replacement land on {i,j} (2·D_i·D_j/S², or D_i²/S² for
    a loop), so by Poisson splitting the graph is Poisson(S/2) such draws:
    stub matching with replacement, in O(n + |E|).
    """
    rng = np.random.default_rng(seed)
    stubs = _half_edges(seq)
    ends = stubs[rng.integers(0, stubs.size, size=(rng.poisson(stubs.size / 2), 2))]
    return Multigraph.from_instances(seq.n, ends[:, 0], ends[:, 1])


def _check_omega(omega: float) -> None:
    if not 0 < omega < math.inf:
        raise ValueError(f"omega must be positive and finite (got {omega!r})")


def scaled_adjacency(g: Multigraph, omega: float, single: bool = False) -> np.ndarray:
    """Adjacency divided by sqrt(omega); the spectral object of interest."""
    _check_omega(omega)
    a = g.adjacency(single=single)
    a /= math.sqrt(omega)
    return a


def scaled_adjacency_pair(g: Multigraph, h: Multigraph, omega: float,
                          single: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The scaled adjacencies of g and h as two views of one (n+1)×n buffer.

    Only the lower triangle and diagonal of each view hold its matrix; its
    strict upper triangle holds the other one. g's matrix is P[1:], whose
    lower triangle is P[r, c] with r > c; h's is P[:n].T, whose lower
    triangle is P[r, c] with r ≤ c. Each view's lower triangle equals that
    of `scaled_adjacency` bit for bit, so a solver that reads only the
    lower triangle (`spectrum.eigenvalues_symmetric`) sees the same matrix,
    in the memory of one n×n matrix instead of two.
    """
    n = _common_order(g, h, omega)
    packed = np.zeros((n + 1, n))
    rows, cols, vals = g._lower_entries(single)
    packed[rows + 1, cols] = vals
    rows, cols, vals = h._lower_entries(single)
    packed[cols, rows] = vals
    packed /= math.sqrt(omega)
    return packed[1:], packed[:n].T


def scaled_adjacency_distance(g: Multigraph, h: Multigraph, omega: float,
                              single: bool = False) -> float:
    """sqrt(trace((A−B)²)/n) for the scaled adjacencies A, B of g and h.

    Taken from the edge lists in O(|E|), with no dense matrix: the squared
    differences of the integer entries are summed exactly (off-diagonal pairs
    twice, loops through the diagonal), then divided once by omega·n.
    """
    n = _common_order(g, h, omega)
    rows_g, cols_g, vals_g = g._lower_entries(single)
    rows_h, cols_h, vals_h = h._lower_entries(single)
    keys, where = np.unique(np.concatenate([rows_g * n + cols_g, rows_h * n + cols_h]),
                            return_inverse=True)
    diff = np.zeros(keys.size, dtype=np.int64)
    np.add.at(diff, where, np.concatenate([vals_g, -vals_h]))
    row, col = np.divmod(keys, n)
    total = int(np.sum(np.where(row == col, 1, 2) * diff * diff))
    return math.sqrt(total / (omega * n))


def _common_order(g: Multigraph, h: Multigraph, omega: float) -> int:
    if g.n != h.n:
        raise ValueError(f"vertex counts differ: {g.n} vs {h.n}")
    _check_omega(omega)
    return g.n
