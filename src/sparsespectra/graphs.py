"""Random multigraph samplers and adjacency matrices.

Two samplers share the :class:`Multigraph` output type:

* :func:`sample_configuration` — uniform half-edge matching for a fixed
  degree sequence (degrees reproduced exactly, loops count 2);
* :func:`sample_poissonized` — independent Poisson edge multiplicities
  with pair rates D_i·D_j/(n·omega), a surrogate whose spectrum tracks the
  configuration model's. Equal degrees give equal rates, so it draws one
  Poisson total per pair of degree classes and spreads it uniformly over
  that class pair's vertex pairs: O(K² + |E|) for K distinct degrees.

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
from .tables import write_rows

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
        then 'i j mult' lines, pairs first and loops ('v v count') after."""
        header = {**(metadata or {}), "n": self.n}
        loop = self.edges_i == self.edges_j
        with open(path, "w") as fh:
            for key in sorted(header):
                fh.write(f"# {key}={header[key]}\n")
            for rows in (~loop, loop):
                write_rows(fh, " ", self.edges_i[rows], self.edges_j[rows], self.mult[rows])

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
                        n = int(body[2:])
                    continue
                try:
                    i, j, m = (int(tok) for tok in line.split())
                except ValueError:
                    raise ValueError(f"edge-list line {line!r} is not three integers "
                                     "'i j mult'") from None
                rows.append((min(i, j), max(i, j), m))
        if n is None:
            raise ValueError("edge-list file lacks the '# n=' header")
        ii, jj, mm = np.array(rows, dtype=np.int64).reshape(-1, 3).T
        order = np.lexsort((jj, ii))
        return cls(n, ii[order], jj[order], mm[order])

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


def _reject_outside(n: int, lo: np.ndarray, hi: np.ndarray) -> None:
    """Raise on a vertex id outside [0, n), given lo ≤ hi entrywise."""
    outside = np.concatenate([lo[lo < 0], hi[hi >= n]])
    if outside.size:
        raise ValueError(f"vertex id {outside[0]} outside [0, {n})")


def sample_configuration(seq: DegreeSequence, seed=None) -> Multigraph:
    """Uniform perfect matching on the half-edges of `seq`.

    The half-edge array (vertex v repeated degree(v) times) is shuffled in
    place — a uniform permutation — and consecutive entries are paired, so
    every perfect matching is equally likely. Degrees are reproduced
    exactly on every draw; a self-pair becomes one loop (degree 2).
    """
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(seq.n, dtype=np.int64), seq.as_array())
    rng.shuffle(stubs)
    pairs = stubs.reshape(-1, 2)
    return Multigraph.from_instances(seq.n, pairs[:, 0], pairs[:, 1])


def sample_poissonized(seq: DegreeSequence, seed=None) -> Multigraph:
    """Independent Poisson multiplicities with rates D_i·D_j/(n·omega).

    Every unordered vertex pair {i,j} receives an independent Poisson
    count with that rate; each vertex receives Poisson(D_i²/(2·n·omega))
    loops. Degrees then hold only in expectation (mean degree of a
    degree-class matches omega times its normalized degree for unit-mean
    laws).

    Rates depend only on the two degree classes, so each class pair a ≤ b
    gets one Poisson total (the pair rate times c_a·c_b vertex pairs, or
    c_a(c_a−1)/2 within a class) spread uniformly over those pairs, and each
    class one loop total: by Poisson splitting the same law, in O(K² + |E|)
    time and memory for K distinct degrees instead of O(n²).
    """
    rng = np.random.default_rng(seed)
    n = seq.n
    if seq.omega == 0:  # no half-edges at all: the empty graph
        empty = np.empty(0, dtype=np.int64)
        return Multigraph(n, empty, empty, empty)
    degs = seq.as_array()
    values, sizes = np.unique(degs, return_counts=True)
    members = np.argsort(degs, kind="stable")  # vertices grouped class by class
    first = np.cumsum(sizes) - sizes  # each class's offset into `members`
    d = values * (1.0 / math.sqrt(n * seq.omega))
    a, b = np.nonzero(np.tri(values.size, dtype=bool).T)  # class pairs a <= b
    same = a == b
    vertex_pairs = np.where(same, sizes[a] * (sizes[a] - 1) // 2, sizes[a] * sizes[b])
    totals = rng.poisson(np.concatenate([d[a] * d[b] * vertex_pairs, 0.5 * d * d * sizes]))
    ea, eb, esame = (np.repeat(x, totals[:a.size]) for x in (a, b, same))
    la = np.repeat(np.arange(values.size), totals[a.size:])
    # offsets into the classes: u in a's, v in b's (skipping u within a
    # class), then one per loop
    offsets = rng.integers(0, np.concatenate([sizes[ea], sizes[eb] - esame, sizes[la]]))
    u, v, w = offsets[:ea.size], offsets[ea.size:2 * ea.size], offsets[2 * ea.size:]
    v += esame & (v >= u)
    loops = members[first[la] + w]
    ii = np.concatenate([members[first[ea] + u], loops])
    jj = np.concatenate([members[first[eb] + v], loops])
    return Multigraph.from_instances(n, ii, jj)


def scaled_adjacency(g: Multigraph, omega: float, single: bool = False) -> np.ndarray:
    """Adjacency divided by sqrt(omega); the spectral object of interest."""
    if omega <= 0:
        raise ValueError("omega must be positive")
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
    if omega <= 0:
        raise ValueError("omega must be positive")
    return g.n
