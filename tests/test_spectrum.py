"""Eigenvalue extraction, empirical spectral measures, matrix-distance bounds."""

import math

import numpy as np
import pytest

from sparsespectra import (
    DegreeSequence,
    DiscreteMeasure,
    Multigraph,
    TwoAtomLaw,
    build_degree_sequence,
    eigenvalues_symmetric,
    eigenvalues_symmetric_pair,
    freedman_diaconis_histogram,
    sample_configuration,
    scaled_adjacency,
    wasserstein1,
    write_histogram_csv,
    write_spectrum_csv,
)

from oracles import trace_distance_bound, tree_moments


def path_graph(n):
    i = np.arange(n - 1)
    return Multigraph(n, i, i + 1, np.ones(n - 1, dtype=np.int64))


def test_path_three_eigenvalues():
    eigs = eigenvalues_symmetric(path_graph(3).adjacency())
    assert np.allclose(eigs, [math.sqrt(2), 0.0, -math.sqrt(2)], atol=1e-12)


def test_single_edge_with_isolated_vertex():
    g = Multigraph(3, np.array([0]), np.array([1]), np.array([1]))
    eigs = eigenvalues_symmetric(g.adjacency())
    assert np.allclose(eigs, [1.0, 0.0, -1.0], atol=1e-12)


def test_zero_matrix():
    eigs = eigenvalues_symmetric(np.zeros((4, 4)))
    assert np.array_equal(eigs, np.zeros(4))


def test_descending_order_and_moment_identities():
    rng = np.random.default_rng(0)
    for _ in range(5):
        raw = rng.normal(size=(40, 40))
        a = 0.5 * (raw + raw.T)
        eigs = eigenvalues_symmetric(a)
        assert np.all(np.diff(eigs) <= 0)
        assert math.isclose(eigs.sum(), np.trace(a), abs_tol=1e-8 * 40)
        assert math.isclose((eigs ** 2).sum(), np.sum(a * a), rel_tol=1e-10)


def test_solver_reads_only_the_lower_triangle():
    # scaled_adjacency_pair stores another matrix in each view's upper triangle
    rng = np.random.default_rng(4)
    raw = rng.normal(size=(30, 30))
    a = 0.5 * (raw + raw.T)
    poisoned = a.copy()
    poisoned[np.triu_indices(30, 1)] = np.nan
    assert np.array_equal(eigenvalues_symmetric(poisoned), eigenvalues_symmetric(a))


def test_pair_raises_the_worker_solve_error():
    with pytest.raises(np.linalg.LinAlgError, match="square"):
        eigenvalues_symmetric_pair(np.eye(3), np.ones((2, 3)))


def test_esd_of_zero_matrix_is_point_mass_at_zero():
    m = DiscreteMeasure.from_samples(eigenvalues_symmetric(np.zeros((6, 6))))
    assert m.locations == (0.0,)
    assert m.weights == (1.0,)


def test_esd_accepts_raw_eigenvalues():
    m = DiscreteMeasure.from_samples([1.0, 1.0, -1.0, 3.0])
    assert m.locations == (-1.0, 1.0, 3.0)
    assert m.weights == (0.25, 0.5, 0.25)


def test_esd_second_moment_exact_on_simple_graph():
    # simple loopless graph: second moment of the scaled ESD equals 1 exactly
    g = path_graph(8)
    seq = DegreeSequence(g.degrees())
    eigs = eigenvalues_symmetric(scaled_adjacency(g, seq.omega))
    second = float((eigs ** 2).sum()) / g.n
    assert math.isclose(second, 1.0, rel_tol=1e-12)


def test_esd_second_moment_near_one_for_sampled_graph():
    # loops and multi-edges perturb the identity; stays within 5% at this size
    seq = DegreeSequence([12] * 400)
    g = sample_configuration(seq, seed=1)
    eigs = eigenvalues_symmetric(scaled_adjacency(g, seq.omega))
    second = float((eigs ** 2).sum()) / g.n
    assert abs(second - 1.0) < 0.05


@pytest.mark.parametrize("nu", [TwoAtomLaw(alpha=3.0, beta=0.5).measure(),
                                DiscreteMeasure.from_pairs([(1.0, 1.0)])],
                         ids=["two-atom", "delta1"])
def test_bulk_moments_of_sampled_spectrum_match_plane_tree_moments(nu):
    # Without the Perron outlier near sqrt(omega)·E[D²], m_2, m_4 and m_6 of
    # the spectrum approach those of nu ⊠ semicircle (1, 4, 23 and 1, 2, 5).
    # Over seeds 101–108 at n = 2000 the worst relative errors were 0.32%,
    # 1.43% and 3.09% (δ₁'s m_6 runs 2–3% low); the bounds are about twice
    # that. A semicircle answer for the two-atom law misses m_4 by 50%.
    n = 2000
    seq = build_degree_sequence(nu, n, math.ceil(math.sqrt(n)))
    eigs = eigenvalues_symmetric(scaled_adjacency(sample_configuration(seq, seed=3), seq.omega))
    bulk = eigs[1:]  # descending order: drop the top eigenvalue
    exact = tree_moments(nu.moment, 3)
    for k, bound in ((1, 0.01), (2, 0.03), (3, 0.06)):
        got = float(np.mean(bulk ** (2 * k)))
        assert abs(got / exact[k] - 1.0) <= bound, (2 * k, got, exact[k])


def test_trace_bound_of_identical_matrices_is_zero():
    a = np.eye(3)
    assert trace_distance_bound(a, a) == 0.0


def test_trace_bound_of_shifted_matrix():
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(10, 10))
    a = 0.5 * (raw + raw.T)
    eps = 0.125
    b = a + eps * np.eye(10)
    assert math.isclose(trace_distance_bound(a, b), eps, rel_tol=1e-12)


def test_trace_bound_rejects_mismatched_orders():
    with pytest.raises(ValueError):
        trace_distance_bound(np.eye(2), np.eye(3))


def test_trace_bound_invariant_under_joint_permutation():
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(12, 12))
    a = 0.5 * (raw + raw.T)
    raw = rng.normal(size=(12, 12))
    b = 0.5 * (raw + raw.T)
    perm = rng.permutation(12)
    val = trace_distance_bound(a, b)
    val_p = trace_distance_bound(a[np.ix_(perm, perm)],
                                 b[np.ix_(perm, perm)])
    assert math.isclose(val, val_p, rel_tol=1e-12)


def test_trace_bound_dominates_wasserstein():
    # over random pairs, sqrt(tr((A-B)^2)/n) >= W1 between the ESDs of A and B
    rng = np.random.default_rng(11)
    n = 50
    for _ in range(100):
        raw = rng.normal(size=(n, n))
        a = 0.5 * (raw + raw.T)
        b = a + 0.3 * rng.normal() * np.eye(n) + 0.1 * np.diag(rng.normal(size=n))
        b = 0.5 * (b + b.T)
        bound = trace_distance_bound(a, b)
        w1 = wasserstein1(DiscreteMeasure.from_samples(eigenvalues_symmetric(a)),
                          DiscreteMeasure.from_samples(eigenvalues_symmetric(b)))
        assert bound >= w1 - 1e-12


def test_histogram_density_integrates_to_one():
    rng = np.random.default_rng(2)
    vals = rng.normal(size=2000)
    left, right, density = freedman_diaconis_histogram(vals)
    assert math.isclose(float(((right - left) * density).sum()), 1.0, rel_tol=1e-12)
    assert len(left) > 10  # FD rule picks a reasonable bin count at this size


def test_histogram_rejects_empty_sample():
    with pytest.raises(ValueError):
        freedman_diaconis_histogram([])


def test_histogram_constant_sample():
    left, right, density = freedman_diaconis_histogram([1.0, 1.0, 1.0])
    assert len(left) == 1


def test_spectrum_csv_round_trip(tmp_path):
    path = tmp_path / "spec.csv"
    eigs = np.array([2.5, 0.0, -1.25])
    write_spectrum_csv(path, eigs, metadata={"n": 3, "seed": 0})
    lines = path.read_text().splitlines()
    assert lines[0] == "# n=3"
    assert lines[1] == "# seed=0"
    assert lines[2] == "eigenvalue"
    assert [float(x) for x in lines[3:]] == [2.5, 0.0, -1.25]


def test_histogram_csv_header(tmp_path):
    path = tmp_path / "hist.csv"
    write_histogram_csv(path, [0.0, 0.5, 1.0, 1.5])  # the FD rule gives 2 bins
    lines = path.read_text().splitlines()
    assert lines[0] == "bin_left,bin_right,density"
    assert len(lines) == 3
