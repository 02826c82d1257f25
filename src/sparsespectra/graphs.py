"""Random multigraph samplers and adjacency matrices.

Three samplers share the :class:`Multigraph` output type:

* :func:`sample_configuration` — uniform half-edge matching for a fixed
  degree sequence (degrees reproduced exactly, loops count 2);
* :func:`sample_poissonized` — independent Poisson edge multiplicities
  with pair rates D_i·D_j/(n·omega), a surrogate whose spectrum tracks the
  configuration model's;
* :func:`extend_configuration` — grows an existing configuration sample to
  a larger degree sequence so that the result is again a configuration
  sample (the marked-half-edge coupling, run in the extension direction).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .degrees import DegreeSequence

__all__ = [
    "Multigraph",
    "SymmetricMatrix",
    "sample_configuration",
    "sample_poissonized",
    "extend_configuration",
    "single_adjacency",
    "scaled_adjacency",
]


@dataclass(frozen=True)
class Multigraph:
    """Undirected multigraph: parallel edge counts plus per-vertex loops.

    edges_i/edges_j hold the endpoints (i < j) of each distinct vertex
    pair with at least one edge; mult holds the multiplicities. Loops are
    stored separately and count 2 toward their vertex degree.
    """

    n: int
    edges_i: np.ndarray
    edges_j: np.ndarray
    mult: np.ndarray
    loop_vertex: np.ndarray
    loop_count: np.ndarray

    def __post_init__(self) -> None:
        for name in ("edges_i", "edges_j", "mult", "loop_vertex", "loop_count"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        if not (self.edges_i.shape == self.edges_j.shape == self.mult.shape):
            raise ValueError("edge arrays must have matching shapes")
        if self.loop_vertex.shape != self.loop_count.shape:
            raise ValueError("loop arrays must have matching shapes")
        if np.any(self.edges_i >= self.edges_j):
            raise ValueError("edges must be stored with i < j")
        if np.any(self.mult <= 0) or np.any(self.loop_count <= 0):
            raise ValueError("multiplicities and loop counts must be positive")

    # -- derived quantities -------------------------------------------

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        np.add.at(deg, self.edges_i, self.mult)
        np.add.at(deg, self.edges_j, self.mult)
        np.add.at(deg, self.loop_vertex, 2 * self.loop_count)
        return deg

    def degree_sequence(self) -> DegreeSequence:
        return DegreeSequence.from_degrees(self.degrees().tolist())

    @property
    def edge_total(self) -> int:
        """Edges counted with multiplicity, loops included."""
        return int(self.mult.sum() + self.loop_count.sum())

    def edge_instances(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoints of every edge instance (loops appear as (v, v))."""
        ii = np.concatenate([np.repeat(self.edges_i, self.mult),
                             np.repeat(self.loop_vertex, self.loop_count)])
        jj = np.concatenate([np.repeat(self.edges_j, self.mult),
                             np.repeat(self.loop_vertex, self.loop_count)])
        return ii, jj

    # -- adjacency ----------------------------------------------------

    def adjacency(self, single: bool = False) -> np.ndarray:
        """Dense symmetric adjacency.

        Multigraph convention: entry (i,j) is the multiplicity and the
        diagonal carries 2·loops, so every row sums to the vertex degree.
        With single=True all entries (diagonal included) are clamped to 1.
        """
        a = np.zeros((self.n, self.n))
        m = np.minimum(self.mult, 1) if single else self.mult
        a[self.edges_i, self.edges_j] = m
        a[self.edges_j, self.edges_i] = m
        diag = np.minimum(self.loop_count, 1) if single else 2 * self.loop_count
        a[self.loop_vertex, self.loop_vertex] = diag
        return a

    # -- text round trip ----------------------------------------------

    def save_edges(self, path, metadata: dict | None = None) -> None:
        """Edge-list text: 'i j mult' lines, loops as 'i i count'."""
        with open(path, "w") as fh:
            fh.write(f"# n={self.n}\n")
            if metadata:
                for key in sorted(metadata):
                    fh.write(f"# {key}={metadata[key]}\n")
            for i, j, m in zip(self.edges_i, self.edges_j, self.mult):
                fh.write(f"{i} {j} {m}\n")
            for v, c in zip(self.loop_vertex, self.loop_count):
                fh.write(f"{v} {v} {c}\n")

    @classmethod
    def load_edges(cls, path) -> "Multigraph":
        n = None
        ei, ej, mm, lv, lc = [], [], [], [], []
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
                i, j, m = (int(tok) for tok in line.split())
                if i == j:
                    lv.append(i)
                    lc.append(m)
                else:
                    ei.append(min(i, j))
                    ej.append(max(i, j))
                    mm.append(m)
        if n is None:
            raise ValueError("edge-list file lacks the '# n=' header")
        return cls(n, np.array(ei, dtype=np.int64), np.array(ej, dtype=np.int64),
                   np.array(mm, dtype=np.int64), np.array(lv, dtype=np.int64),
                   np.array(lc, dtype=np.int64))

    @classmethod
    def from_instances(cls, n: int, ii, jj) -> "Multigraph":
        """Collect edge instances (loops as i==j) into counted form."""
        ii = np.asarray(ii, dtype=np.int64)
        jj = np.asarray(jj, dtype=np.int64)
        lo = np.minimum(ii, jj)
        hi = np.maximum(ii, jj)
        is_loop = lo == hi
        lv, lc = np.unique(lo[is_loop], return_counts=True)
        if np.any(~is_loop):
            pair_keys = lo[~is_loop] * n + hi[~is_loop]
            uniq, counts = np.unique(pair_keys, return_counts=True)
            ei, ej, mm = uniq // n, uniq % n, counts
        else:
            ei = ej = mm = np.empty(0, dtype=np.int64)
        return cls(n, ei, ej, mm, lv, lc)


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
    laws). Integer sequences always have finitely many degree classes, so
    the per-pair rates and the per-class rates describe the same model.
    """
    rng = np.random.default_rng(seed)
    degs = seq.as_array().astype(float)
    n = seq.n
    if seq.omega == 0:  # no half-edges at all: the empty graph
        empty = np.empty(0, dtype=np.int64)
        return Multigraph(n, empty, empty, empty, empty, empty)
    scale = 1.0 / (n * seq.omega)
    iu, ju = np.triu_indices(n, k=1)
    rates = degs[iu] * degs[ju] * scale
    counts = rng.poisson(rates)
    nz = counts > 0
    loop_counts = rng.poisson(0.5 * degs * degs * scale)
    lnz = loop_counts > 0
    return Multigraph(
        n,
        iu[nz],
        ju[nz],
        counts[nz],
        np.flatnonzero(lnz),
        loop_counts[lnz],
    )


def _log_double_factorial_odd(k: int) -> float:
    """log((k)!!) for odd k ≥ −1, with (−1)!! = 1."""
    if k < 0:
        return 0.0
    # k = 2t−1: (2t−1)!! = (2t)! / (2^t t!)
    t = (k + 1) // 2
    return math.lgamma(2 * t + 1) - t * math.log(2.0) - math.lgamma(t + 1)


def extend_configuration(
    g: Multigraph, new_degrees: DegreeSequence, seed=None
) -> Multigraph:
    """Grow a configuration sample to larger degrees, staying exact.

    Vertex i keeps its degree(g) old half-edges and gains
    new_degrees_i − degree_i fresh ones. The output is distributed exactly
    as a configuration sample of `new_degrees`, and whenever an old edge
    survives it is present with both original endpoints.

    The construction is the conditional law of the big matching given that
    its restriction to the old half-edges reproduces g: first the number j
    of old edges to drop is sampled with weight

        C(m, j) · r!/(r−2j)! · (r−2j−1)!! / (2j−1)!!

    (m old edge instances, r fresh half-edges), then a uniform j-subset of
    old edges is dropped, their 2j freed endpoints are matched to distinct
    uniform fresh half-edges, and the remaining fresh half-edges are
    matched uniformly among themselves.
    """
    rng = np.random.default_rng(seed)
    old_deg = g.degrees()
    new_deg = new_degrees.as_array()
    if new_degrees.n != g.n:
        raise ValueError("vertex counts differ")
    if np.any(new_deg < old_deg):
        bad = int(np.flatnonzero(new_deg < old_deg)[0])
        raise ValueError(f"vertex {bad}: new degree {new_deg[bad]} < current {old_deg[bad]}")
    extra = new_deg - old_deg
    r = int(extra.sum())
    if r == 0:
        return g
    m = g.edge_total
    jmax = min(m, r // 2)
    logw = np.empty(jmax + 1)
    lgr = math.lgamma(r + 1)
    for j in range(jmax + 1):
        logw[j] = (
            math.lgamma(m + 1) - math.lgamma(j + 1) - math.lgamma(m - j + 1)
            + lgr - math.lgamma(r - 2 * j + 1)
            + _log_double_factorial_odd(r - 2 * j - 1)
            - _log_double_factorial_odd(2 * j - 1)
        )
    w = np.exp(logw - logw.max())
    j = int(rng.choice(jmax + 1, p=w / w.sum()))

    ii, jj = g.edge_instances()
    keep = np.ones(m, dtype=bool)
    freed: list[np.ndarray] = []
    if j > 0:
        dropped = rng.choice(m, size=j, replace=False)
        keep[dropped] = False
        freed = [ii[dropped], jj[dropped]]
    red_stubs = np.repeat(np.arange(g.n, dtype=np.int64), extra)
    rng.shuffle(red_stubs)
    out_i = [ii[keep]]
    out_j = [jj[keep]]
    if j > 0:
        blue_ends = np.concatenate(freed)
        out_i.append(blue_ends)
        out_j.append(red_stubs[: 2 * j])
    rest = red_stubs[2 * j:]
    if rest.size:
        pairs = rest.reshape(-1, 2)
        out_i.append(pairs[:, 0])
        out_j.append(pairs[:, 1])
    return Multigraph.from_instances(g.n, np.concatenate(out_i), np.concatenate(out_j))


@dataclass(frozen=True)
class SymmetricMatrix:
    """Dense real symmetric matrix, symmetric by construction."""

    data: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.data, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("need a square matrix")
        if not np.array_equal(a, a.T):
            raise ValueError("matrix is not exactly symmetric")
        object.__setattr__(self, "data", a)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @classmethod
    def from_lower_triangle(cls, n: int, tri: np.ndarray) -> "SymmetricMatrix":
        a = np.zeros((n, n))
        idx = np.tril_indices(n)
        a[idx] = tri
        a = a + a.T - np.diag(np.diag(a))
        return cls(a)

    def save(self, path) -> None:
        """Binary: n as little-endian uint64, then the row-major lower triangle."""
        idx = np.tril_indices(self.n)
        with open(path, "wb") as fh:
            fh.write(struct.pack("<Q", self.n))
            fh.write(self.data[idx].astype("<f8").tobytes())

    @classmethod
    def load(cls, path) -> "SymmetricMatrix":
        with open(path, "rb") as fh:
            (n,) = struct.unpack("<Q", fh.read(8))
            tri = np.frombuffer(fh.read(8 * n * (n + 1) // 2), dtype="<f8")
        return cls.from_lower_triangle(n, tri.astype(float))


def single_adjacency(g: Multigraph) -> SymmetricMatrix:
    """Adjacency with every entry clamped to at most 1 (diagonal included)."""
    return SymmetricMatrix(g.adjacency(single=True))


def scaled_adjacency(g: Multigraph, omega: float, single: bool = False) -> SymmetricMatrix:
    """Adjacency divided by sqrt(omega); the spectral object of interest."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    return SymmetricMatrix(g.adjacency(single=single) / math.sqrt(omega))
