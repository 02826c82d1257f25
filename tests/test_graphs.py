"""Multigraph samplers: exactness, uniformity, matrices."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from sparsespectra import (
    DegreeSequence,
    DiscreteMeasure,
    Multigraph,
    build_degree_sequence,
    eigenvalues_symmetric,
    sample_configuration,
    sample_poissonized,
    scaled_adjacency,
    scaled_adjacency_distance,
    scaled_adjacency_pair,
)

from oracles import graph_key, matching_distribution, poissonized_distribution, total_variation
from sparsespectra import tables
from sparsespectra.tables import _BLOCK_ROWS


def seq_of(*degrees):
    return DegreeSequence(list(degrees))


def empty_graph(n):
    e = np.empty(0, dtype=np.int64)
    return Multigraph(n, e, e, e)


# -- multigraph rows -----------------------------------------------------------


@pytest.mark.parametrize("rows, message", [
    (([1], [0], [1]), "i <= j"),
    (([0], [1], [0]), "positive"),
    (([0], [0], [-2]), "positive"),
    (([0, 1], [1], [1]), "matching shapes"),
    (([-1], [1], [1]), "vertex id -1 outside"),
    (([0], [3], [1]), "vertex id 3 outside"),
    (([0, 0], [1, 1], [2, 1]), r"repeats the pair \(0, 1\)"),
    (([0, 1, 1], [1, 1, 1], [1, 1, 3]), r"repeats the pair \(1, 1\)"),
    (([1, 0, 1], [2, 1, 2], [1, 1, 1]), r"repeats the pair \(1, 2\)"),
    (([2, 0, 1, 0], [2, 2, 1, 2], [1, 1, 1, 4]), r"repeats the pair \(0, 2\)"),
])
def test_multigraph_rejects_bad_rows(rows, message):
    with pytest.raises(ValueError, match=message):
        Multigraph(3, *rows)


def test_multigraph_accepts_distinct_unsorted_rows():
    g = Multigraph(3, [1, 0, 2], [2, 1, 2], [1, 2, 1])
    assert g.degrees().tolist() == [2, 3, 3]
    assert g.adjacency().sum(axis=1).tolist() == [2, 3, 3]


# -- configuration sampler ----------------------------------------------------


def test_unique_matching_single_edge():
    for seed in range(5):
        g = sample_configuration(seq_of(1, 1), seed=seed)
        assert graph_key(g) == ((0, 1),)


def test_unique_matching_single_loop():
    g = sample_configuration(seq_of(2), seed=0)
    assert graph_key(g) == ((0, 0),)
    assert g.degrees().tolist() == [2]


def test_degrees_reproduced_exactly_every_seed():
    seq = seq_of(3, 1, 4, 2, 0, 2)
    for seed in range(30):
        g = sample_configuration(seq, seed=seed)
        assert g.degrees().tolist() == list(seq.degrees)


def test_two_two_outcome_frequencies():
    # exact law: parallel pair 2/3, loop at each vertex 1/3
    target = matching_distribution([2, 2])
    assert target == {((0, 1), (0, 1)): pytest.approx(2 / 3),
                      ((0, 0), (1, 1)): pytest.approx(1 / 3)}
    counts = {}
    trials = 20_000
    for seed in range(trials):
        key = graph_key(sample_configuration(seq_of(2, 2), seed=seed))
        counts[key] = counts.get(key, 0) + 1
    freq = counts[((0, 1), (0, 1))] / trials
    sigma = math.sqrt((2 / 3) * (1 / 3) / trials)
    assert abs(freq - 2 / 3) < 3 * sigma


def test_sampler_matches_enumeration_on_a_bigger_case():
    # degrees [2,1,1]: exact law over the 3 matchings
    target = matching_distribution([2, 1, 1])
    counts = {}
    trials = 30_000
    for seed in range(trials):
        key = graph_key(sample_configuration(seq_of(2, 1, 1), seed=seed))
        counts[key] = counts.get(key, 0) + 1
    empirical = {k: v / trials for k, v in counts.items()}
    assert total_variation(empirical, target) < 0.02


# -- poissonized sampler --------------------------------------------------------


def test_poissonized_pair_rate_two_vertices():
    # degrees [omega, omega] at n=2: rate of the single pair is omega/2
    omega = 10
    seq = seq_of(omega, omega)
    total = 0
    trials = 100_000
    rng_seeds = range(trials)
    for seed in rng_seeds:
        g = sample_poissonized(seq, seed=seed)
        total += int(g.adjacency()[0, 1])
    mean = total / trials
    assert abs(mean - omega / 2) / (omega / 2) < 0.02


def test_poissonized_matches_the_product_poisson_law():
    # degrees (1, 1): one edge at rate 1/2 and a loop at rate 1/4 per vertex,
    # Poisson(1) edges in all; graphs past 8 edges hold 1.1e-6 of the mass
    target, tail = poissonized_distribution([1, 1], max_edges=8)
    assert tail < 2e-6
    trials = 20_000
    counts = {}
    for seed in range(trials):
        key = graph_key(sample_poissonized(seq_of(1, 1), seed=seed))
        counts[key] = counts.get(key, 0) + 1
    empirical = {k: v / trials for k, v in counts.items()}
    # E[TV] ≈ Σ_k sqrt(p_k(1 − p_k)/(2π·trials)) = 0.0112 here; one trial moves
    # TV by at most 1/trials, so by McDiarmid it exceeds its mean by
    # sqrt(ln(1e6)/(2·trials)) = 0.0186 with chance below 1e-6
    expected = sum(math.sqrt(p * (1 - p) / (2 * math.pi * trials)) for p in target.values())
    assert total_variation(empirical, target) < expected + math.sqrt(math.log(1e6) / (2 * trials)) + tail


def test_poissonized_mean_degree_tracks_class_value():
    # two classes at n=2000: empirical mean degree within 2% of omega * d_a
    n = 2000
    degs = [20] * (n // 2) + [60] * (n // 2)
    seq = DegreeSequence(degs)
    acc = np.zeros(n)
    trials = 40
    for seed in range(trials):
        acc += sample_poissonized(seq, seed=seed).degrees()
    mean_low = acc[: n // 2].mean() / trials
    mean_high = acc[n // 2:].mean() / trials
    assert abs(mean_low - 20) / 20 < 0.02
    assert abs(mean_high - 60) / 60 < 0.02


def test_poissonized_all_zero_degrees_gives_empty_graph():
    g = sample_poissonized(DegreeSequence((0, 0, 0)), seed=4)
    assert g.edge_total == 0
    assert g.degrees().tolist() == [0, 0, 0]


@pytest.mark.parametrize("degrees, trials", [
    ((4, 4, 6, 6, 6), 20_000),  # two degree values, each repeated
    ((2, 4, 4, 6), 8_000),  # one repeated degree between two single ones
    ((0, 1, 2, 3, 4, 6), 8_000),  # all degrees distinct, one of them 0
])
def test_poissonized_pair_counts_are_independent_poisson(degrees, trials):
    # every vertex pair count is Poisson(D_i·D_j/(n·omega)) and every loop
    # count Poisson(D_i²/(2·n·omega)), all independent; z-bounds at 5 sigma
    seq = seq_of(*degrees)
    d = np.array(degrees, dtype=float)
    n = len(degrees)
    iu, ju = np.triu_indices(n)
    rate = d[iu] * d[ju] / (n * seq.omega) * np.where(iu == ju, 0.5, 1.0)
    counts = np.empty((trials, iu.size))
    for seed in range(trials):
        a = sample_poissonized(seq, seed=seed).adjacency()
        a[np.diag_indices(n)] /= 2  # the diagonal holds 2·loops
        counts[seed] = a[iu, ju]
    mean = counts.mean(axis=0)
    var = counts.var(axis=0, ddof=1)
    assert np.all(np.abs(mean - rate) <= 5 * np.sqrt(rate / trials))
    # Poisson: var(sample variance) ≈ (rate + 2·rate²)/trials
    assert np.all(np.abs(var - rate) <= 5 * np.sqrt((rate + 2 * rate * rate) / trials))
    live = rate > 0
    corr = np.corrcoef(counts[:, live], rowvar=False)
    off = ~np.eye(int(live.sum()), dtype=bool)
    assert np.all(np.abs(corr[off]) < 5 / math.sqrt(trials))


def test_poissonized_memory_grows_with_edges_not_pairs():
    # an n(n−1)/2-pair sampler would hold about 1.6 GB here
    n = 10_000
    seq = DegreeSequence([20] * (n // 2) + [60] * (n // 2))
    tracemalloc.start()
    try:
        g = sample_poissonized(seq, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_total > 150_000
    assert peak < 200 * g.edge_total


# -- adjacency matrices ----------------------------------------------------------


def test_multigraph_adjacency_row_sums_are_degrees():
    g = sample_configuration(seq_of(4, 4, 2, 2), seed=5)
    a = g.adjacency()
    assert np.array_equal(a.sum(axis=1), g.degrees())


def test_single_adjacency_clamps_including_diagonal():
    # row (0, 0, 2) is two loops: degree 2·2 and 2·2 on the diagonal
    g = Multigraph(2, np.array([0, 0]), np.array([0, 1]), np.array([2, 3]))
    assert g.degrees().tolist() == [7, 3] and g.edge_total == 5
    a = g.adjacency()
    assert a[0, 1] == 3 and a[0, 0] == 4
    s = g.adjacency(single=True)
    assert s[0, 1] == 1.0 and s[0, 0] == 1.0 and s[1, 1] == 0.0


def test_single_never_exceeds_multigraph_entrywise():
    g = sample_configuration(seq_of(6, 6, 6, 2), seed=2)
    assert np.all(g.adjacency(single=True) <= g.adjacency())


def test_scaled_adjacency_single_edge():
    g = Multigraph(2, np.array([0]), np.array([1]), np.array([1]))
    m = scaled_adjacency(g, omega=4.0)
    assert m[0, 1] == 0.5


@pytest.mark.parametrize("pair_function", [scaled_adjacency_pair, scaled_adjacency_distance])
def test_pair_functions_reject_bad_input(pair_function):
    with pytest.raises(ValueError, match="vertex counts differ"):
        pair_function(empty_graph(2), empty_graph(3), omega=1.0)


@pytest.mark.parametrize("build", [
    lambda g, omega: scaled_adjacency(g, omega),
    lambda g, omega: scaled_adjacency_pair(g, g, omega),
    lambda g, omega: scaled_adjacency_distance(g, g, omega),
], ids=["adjacency", "pair", "distance"])
@pytest.mark.parametrize("omega", [0.0, -1.0, math.nan, math.inf])
def test_adjacency_builders_reject_an_omega_outside_zero_to_inf(build, omega):
    # nan gave an all-NaN matrix and inf a zero one, with no error
    g = Multigraph(2, [0], [1], [1])
    with pytest.raises(ValueError, match=re.escape(f"omega must be positive and finite (got {omega!r})")):
        build(g, omega)


@pytest.mark.parametrize("single", [False, True])
def test_sorted_spectra_differ_by_at_most_the_distance(single):
    # Hoffman–Wielandt: the root mean square gap of the two sorted spectra
    # is at most sqrt(tr((A−B)²)/n)
    nu = DiscreteMeasure.from_pairs([(0.5, 0.8), (3.0, 0.2)])
    seq = build_degree_sequence(nu, n=300, omega_target=18.0)
    for seed in (1, 2, 3):
        g = sample_configuration(seq, seed=seed)
        h = sample_poissonized(seq, seed=seed + 100)
        a, b = (eigenvalues_symmetric(scaled_adjacency(x, seq.omega, single=single))
                for x in (g, h))
        rms = math.sqrt(np.mean((a - b) ** 2))
        assert rms <= scaled_adjacency_distance(g, h, seq.omega, single=single)


def test_trace_identity_exact_on_simple_loopless_graph():
    # path on 4 vertices: multiplicities all 1, no loops
    g = Multigraph(4, np.array([0, 1, 2]), np.array([1, 2, 3]), np.array([1, 1, 1]))
    seq = DegreeSequence(g.degrees())
    ahat = scaled_adjacency(g, seq.omega)
    assert math.isclose(np.trace(ahat @ ahat) / g.n, 1.0, rel_tol=1e-12)


def test_trace_identity_near_one_for_sampled_multigraph():
    # multi-edges and loops push (1/n)tr(Ahat^2) slightly above 1
    n = 2000
    seq = DegreeSequence([45] * n)
    g = sample_configuration(seq, seed=8)
    ahat = scaled_adjacency(g, seq.omega)
    val = float(np.einsum("ij,ji->", ahat, ahat)) / n
    assert 1.0 <= val < 1.05


def test_single_adjacency_discrepancy_small_at_scale():
    # (1/n) tr((Ahat - Ahat_single)^2) below 0.05 at n=2000, omega=sqrt(n)
    n = 2000
    seq = DegreeSequence([45] * n)
    g = sample_configuration(seq, seed=3)
    diff = g.adjacency() - g.adjacency(single=True)
    val = float(np.einsum("ij,ji->", diff, diff)) / (n * seq.omega)
    assert val < 0.05


# -- persistence -------------------------------------------------------------------


def test_edge_list_round_trip(tmp_path):
    g = sample_configuration(seq_of(3, 3, 2, 2), seed=11)
    path = tmp_path / "edges.txt"
    g.save_edges(path, metadata={"seed": 11, "mean": 2})
    again = Multigraph.load_edges(path)
    assert again.n == g.n
    assert graph_key(again) == graph_key(g)


def test_edge_list_blocks_match_a_per_row_reference(tmp_path, monkeypatch):
    monkeypatch.setattr(tables, "_INT_BLOCK_ROWS", _BLOCK_ROWS)
    rng = np.random.default_rng(7)
    n = 3000
    ii = np.concatenate([rng.integers(0, n, 30_000), np.arange(0, n, 3)])
    jj = np.concatenate([rng.integers(0, n, 30_000), np.arange(0, n, 3)])
    g = Multigraph.from_instances(n, ii, jj)
    rows = list(zip(g.edges_i, g.edges_j, g.mult))
    loops = sum(i == j for i, j, _ in rows)
    assert len(rows) - loops > 2 * _BLOCK_ROWS and loops > 1000
    path = tmp_path / "edges.txt"
    g.save_edges(path, metadata={"seed": 7, "n": n})
    # n is written once, in sorted order; rows in stored (i, j) order, loops among them
    reference = f"# n={n}\n# seed=7\n" + "".join(f"{i} {j} {m}\n" for i, j, m in rows)
    assert path.read_text() == reference
    again = Multigraph.load_edges(path)
    assert again.n == n
    for name in ("edges_i", "edges_j", "mult"):
        assert np.array_equal(getattr(again, name), getattr(g, name))


def test_edge_list_and_instances_reject_a_vertex_outside_n(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# n=3\n0 5 1\n")
    with pytest.raises(ValueError, match="vertex id 5 outside"):
        Multigraph.load_edges(path)
    with pytest.raises(ValueError, match="vertex id 5 outside"):
        Multigraph.from_instances(3, [0], [5])


@pytest.mark.parametrize("rows, pair", [("0 1 2\n1 0 1\n", "(0, 1)"), ("1 1 1\n1 1 2\n", "(1, 1)")],
                         ids=["pair", "loop"])
def test_edge_list_rejects_a_repeated_pair(tmp_path, rows, pair):
    # kept as two rows, 0 1 2 and 1 0 1 would give vertex 0 degree 3 but an
    # adjacency row sum of 1
    path = tmp_path / "edges.txt"
    path.write_text("# n=2\n" + rows)
    with pytest.raises(ValueError, match=re.escape(f"repeats the pair {pair}")):
        Multigraph.load_edges(path)


@pytest.mark.parametrize("line", ["0 1", "0 1 2 3", "0 x 1", "0 1 1.5",
                                  "0 99999999999999999999 1"])
def test_edge_list_rejects_a_line_that_is_not_three_integers(tmp_path, line):
    path = tmp_path / "edges.txt"
    path.write_text(f"# n=2\n{line}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: edge-list line {line!r}")):
        Multigraph.load_edges(path)


@pytest.mark.parametrize("header", ["# n=abc", "# n=2.5", "# n=", "# n=99999999999999999999"])
def test_edge_list_names_the_file_and_a_malformed_n_header(tmp_path, header):
    # a bare "invalid literal for int()" named neither the file nor the line
    path = tmp_path / "edges.txt"
    path.write_text(f"{header}\n0 1 1\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: edge-list header {header!r}")):
        Multigraph.load_edges(path)


@pytest.mark.parametrize("text, message", [
    ("# n=3\n0 5 1\n", "vertex id 5 outside [0, 3)"),
    ("# n=3\n0 1 0\n", "multiplicities must be positive"),
    ("# n=3\n0 1 2\n1 0 1\n", "edge list repeats the pair (0, 1)"),
], ids=["outside", "zero-mult", "repeated"])
def test_edge_list_names_the_file_on_a_multigraph_error(tmp_path, text, message):
    # the rows parse, and the constructor rejects them
    path = tmp_path / "edges.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        Multigraph.load_edges(path)
    assert str(info.value) == f"{path}: {message}"


def test_edge_list_rejects_a_negative_n(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# n=-3\n")
    with pytest.raises(ValueError, match=re.escape("vertex count must be nonnegative (got n=-3)")):
        Multigraph.load_edges(path)


def test_seed_repetition_is_byte_identical(tmp_path):
    seq = seq_of(4, 4, 4, 4)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    sample_configuration(seq, seed=42).save_edges(p1)
    sample_configuration(seq, seed=42).save_edges(p2)
    assert p1.read_bytes() == p2.read_bytes()
