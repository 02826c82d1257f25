"""Reference values computed by routes independent of the package.

Everything here is deliberately naive — closed forms, exhaustive
enumeration, quadrature, finite differences — so that package results can
be pinned against numbers that do not share code with the implementation.
"""

from __future__ import annotations

import math

import numpy as np


# -- semicircle closed forms -------------------------------------------------


def semicircle_g(z: complex) -> complex:
    """Stieltjes transform of the semicircle law, upper-half-plane branch."""
    r = complex(np.sqrt(complex(z * z - 4.0)))
    for cand in (0.5 * (-z + r), 0.5 * (-z - r)):
        if cand.imag > 0:
            return cand
    # real z outside the support: the decaying branch
    return min((0.5 * (-z + r), 0.5 * (-z - r)), key=abs)


def semicircle_density(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.sqrt(np.clip(4.0 - x * x, 0.0, None)) / (2.0 * math.pi)


def semicircle_cdf(x) -> np.ndarray:
    x = np.clip(np.asarray(x, dtype=float), -2.0, 2.0)
    return 0.5 + x * np.sqrt(4.0 - x * x) / (4.0 * math.pi) + np.arcsin(0.5 * x) / math.pi


def point_mass_square_edges(c: float) -> tuple[float, float]:
    """Edges of the continuous part of the square law for a point mass at c."""
    rc = math.sqrt(c)
    return c * (1.0 - rc) ** 2, c * (1.0 + rc) ** 2


# -- exact matching enumeration ----------------------------------------------


def matching_distribution(degrees) -> dict[tuple, float]:
    """Exact outcome law of a uniform perfect matching of labeled stubs.

    Keys are canonical edge multisets: sorted tuples of (min, max) vertex
    pairs with loops as (v, v). All (2m−1)!! matchings are enumerated, so
    keep Σ degrees small.
    """
    stubs = [v for v, d in enumerate(degrees) for _ in range(int(d))]
    if len(stubs) % 2:
        raise ValueError("odd number of stubs")
    counts: dict[tuple, int] = {}

    def rec(avail: list[int], acc: list[tuple[int, int]]) -> None:
        if not avail:
            key = tuple(sorted(acc))
            counts[key] = counts.get(key, 0) + 1
            return
        first, rest = avail[0], avail[1:]
        for k in range(len(rest)):
            a, b = stubs[first], stubs[rest[k]]
            rec(rest[:k] + rest[k + 1:], acc + [(min(a, b), max(a, b))])

    rec(list(range(len(stubs))), [])
    total = sum(counts.values())
    return {k: v / total for k, v in counts.items()}


def poissonized_distribution(degrees, max_edges: int) -> tuple[dict[tuple, float], float]:
    """Exact outcome law of independent Poisson edge counts, up to max_edges.

    Pair {i,j} (i < j) carries Poisson(D_i·D_j/(n·omega)) edges and vertex v
    Poisson(D_v²/(2·n·omega)) loops, with n·omega = Σ D; the pmf is the
    product over all pairs and loops. Keys are those of
    `matching_distribution`. Every multigraph with at most max_edges edges
    is listed; the second value is the mass of the rest, 1 − Σ pmf.
    """
    d = [int(x) for x in degrees]
    n_omega = float(sum(d))
    cells = [(i, j) for i in range(len(d)) for j in range(i, len(d))]
    rates = [d[i] * d[j] / n_omega * (0.5 if i == j else 1.0) for i, j in cells]
    law: dict[tuple, float] = {}

    def rec(k: int, left: int, prob: float, acc: list[tuple[int, int]]) -> None:
        if k == len(cells):
            law[tuple(sorted(acc))] = prob
            return
        for m in range(left + 1):
            pmf = math.exp(-rates[k]) * rates[k] ** m / math.factorial(m)
            rec(k + 1, left - m, prob * pmf, acc + [cells[k]] * m)

    rec(0, max_edges, 1.0, [])
    return law, 1.0 - sum(law.values())


def graph_key(graph) -> tuple:
    """Canonical edge-multiset key of a Multigraph (matches the enumerator)."""
    ii = np.repeat(graph.edges_i, graph.mult)
    jj = np.repeat(graph.edges_j, graph.mult)
    return tuple(sorted((min(a, b), max(a, b)) for a, b in zip(ii.tolist(), jj.tolist())))


def total_variation(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


# -- dense matrix distance -----------------------------------------------------


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


# -- calculus helpers ---------------------------------------------------------


def finite_difference(fun, x: float, delta: float = 1e-5) -> float:
    return (fun(x + delta) - fun(x - delta)) / (2.0 * delta)


def cauchy_transform_quadrature(grid, rho, z: complex) -> complex:
    """∫ rho(t)/(t−z) dt by trapezoid on a tabulated curve."""
    grid = np.asarray(grid, dtype=float)
    rho = np.asarray(rho, dtype=float)
    return complex(np.trapezoid(rho / (grid - z), grid))


# -- quantile-based slab means -------------------------------------------------


def one_plus_exp_quantile(p, rate: float = 1.0, scale: float = 1.0) -> np.ndarray:
    return scale * (1.0 - np.log1p(-np.asarray(p, dtype=float)) / rate)


def uniform_quantile(p, low: float = 0.0, high: float = 1.0) -> np.ndarray:
    return low + (high - low) * np.asarray(p, dtype=float)


def slab_mean_by_quadrature(quantile_fun, p0: float, p1: float,
                            shells: int = 60, nodes: int = 16_384) -> float:
    """Conditional mean over a quantile slab by midpoint quadrature in p.

    Dyadic shells accumulate toward both endpoints so that integrable
    endpoint singularities (e.g. the log tail of an exponential quantile
    at p=1) are resolved to near machine precision.
    """

    def cell(lo: float, hi: float) -> float:
        ps = lo + (hi - lo) * (np.arange(nodes) + 0.5) / nodes
        return float(np.mean(quantile_fun(ps))) * (hi - lo)

    mid = 0.5 * (p0 + p1)
    total = 0.0
    for k in range(shells):
        h = (p1 - mid) * 0.5**k
        lo, hi = p1 - h, p1 - 0.5 * h
        if lo < hi < p1:  # float-degenerate innermost shells contribute ~0
            total += cell(lo, hi)
        h = (mid - p0) * 0.5**k
        lo, hi = p0 + 0.5 * h, p0 + h
        if p0 < lo < hi:
            total += cell(lo, hi)
    return total / (p1 - p0)


# -- plane-tree moments of the limit law ----------------------------------------


def tree_moments(moment, k_max: int) -> list[float]:
    """Even moments m_0, m_2, …, m_2k_max of the limit law ν ⊠ σ_sc.

    m_2k = Σ_T Π_{v ∈ T} moment(deg v) over the rooted plane trees T with
    k edges, where deg v counts the tree edges at v (the moment–cumulant
    calculus of free multiplicative convolution; the closed walks of a
    locally tree-like graph). `moment(j)` is E[D^j]. A memoised recursion
    over planted subtrees takes O(k³) steps and shares nothing with the
    fixed-point solver. δ₁ gives the Catalan numbers.
    """
    mom = [moment(j) for j in range(k_max + 1)]
    # planted[e]: a vertex, its stem to the parent and its subtree, e edges in all
    planted = [0.0] * (k_max + 1)
    # forest[c][e]: ordered sequences of c planted subtrees with e edges in all
    forest = [[0.0] * (k_max + 1) for _ in range(k_max + 1)]
    forest[0][0] = 1.0
    for e in range(1, k_max + 1):
        # the top vertex has c children and the stem: degree c + 1
        planted[e] = sum(mom[c + 1] * forest[c][e - 1] for c in range(e))
        for c in range(1, e + 1):
            forest[c][e] = sum(planted[s] * forest[c - 1][e - s] for s in range(1, e - c + 2))
    return [sum(mom[c] * forest[c][k] for c in range(k + 1)) for k in range(k_max + 1)]


# -- independent solver for h(w) = g(√w)/√w ------------------------------------


def solve_h_reference(w: complex, locations, weights,
                      tol: float = 1e-12, max_iter: int = 500_000) -> complex:
    """Fixed point of h = −(1/w)·E[D̂/(1 + h·D̂)] by plain damped iteration.

    h is the transform that support.xi inverts. This route solves in the
    plane w = z²; the package solves the symmetric plane and maps across,
    so agreement is a genuine cross-check. Raises
    if the residual tolerance is not met.
    """
    locs = np.asarray(locations, dtype=float)
    wts = np.asarray(weights, dtype=float)

    def target(h: complex) -> complex:
        return -(wts @ (locs / (1.0 + h * locs))) / w

    h = 1j
    for _ in range(max_iter):
        h = 0.7 * h + 0.3 * target(h)
        if abs(h - target(h)) < tol:
            return h
    raise RuntimeError(f"reference h solver stalled at w={w}: residual {abs(h - target(h)):.3g}")


# -- soft edges of the support --------------------------------------------------


def edge_density(nu, v_lo: float, v_hi: float) -> tuple[float, float, float]:
    """Soft edge x_e = ξ(v_e) at the critical point v_e of ξ in [v_lo, v_hi].

    ξ(v) = −1/v + Σ w·d²/(1 + v·d) inverts h(z²) = g(z)/z; the bracket
    holds no pole and ξ′ changes sign across it. Bisection on ξ′, from the
    atoms alone, gives v_e. Returns (v_e, x_e, ξ″(v_e)).

    Near the edge h ≈ v_e + i·√(2δ/|ξ″(v_e)|) at w = x_e ∓ δ, δ into the
    support (− where ξ″ > 0, an edge that closes an interval), and the
    limit density is ρ = −2y·Re h·Im h/π at y = √w, so
    ρ(y) ≈ 2|v_e|·y·√(2δ/|ξ″(v_e)|)/π to a relative O(δ).
    """
    d = np.asarray(nu.locations, dtype=float)
    w = np.asarray(nu.weights, dtype=float)

    def slope(v: float) -> float:
        return 1.0 / v**2 - float(w @ (d**3 / (1.0 + v * d) ** 2))

    lo, hi = float(v_lo), float(v_hi)
    rising = slope(lo) < 0.0
    if rising == (slope(hi) < 0.0):
        raise ValueError(f"xi' keeps its sign on [{lo!r}, {hi!r}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if (slope(mid) < 0.0) == rising:
            lo = mid
        else:
            hi = mid
    v = 0.5 * (lo + hi)
    x_e = -1.0 / v + float(w @ (d**2 / (1.0 + v * d)))
    curvature = -2.0 / v**3 + 2.0 * float(w @ (d**4 / (1.0 + v * d) ** 3))
    return v, x_e, curvature


# -- Wigner model of the limit law ---------------------------------------------


def wigner_model_eigenvalues(d, seed: int) -> np.ndarray:
    """Eigenvalues of D^{1/2}·W·D^{1/2}, D = diag(d), W an n×n GOE matrix.

    W is symmetric with N(0, 1/n) entries off the diagonal and N(0, 2/n)
    on it. The diagonal of the resolvent of D^{1/2}·W·D^{1/2} solves
    G_ii ≈ −1/(z + d_i·m), m = (1/n)·Σ_j d_j·G_jj, which is the fixed point
    g = −E[D/(z + g·D)] of the limit law. So when the empirical law of d
    tends to ν, the spectrum tends to the limit law ν ⊠ σ_sc of the scaled
    sparse graphs, with no graph and no solver on the way.
    """
    d = np.asarray(d, dtype=float)
    n = len(d)
    a = np.random.default_rng(seed).normal(0.0, math.sqrt(0.5 / n), (n, n))
    root = np.sqrt(d)
    return np.linalg.eigvalsh(root[:, None] * (a + a.T) * root)
