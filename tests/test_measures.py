"""Discrete measures: construction, moments, distances."""

import hashlib
import math

import numpy as np
import pytest

from sparsespectra import (
    DiscreteMeasure,
    kolmogorov_distance,
    kolmogorov_vs_cdf,
    wasserstein1,
)


def test_point_mass_basics():
    m = DiscreteMeasure.point_mass(1.0)
    assert len(m) == 1
    assert m.mean() == 1.0
    assert m.moment(2) == 1.0
    assert m.mass_at(1.0) == 1.0
    assert m.mass_at(0.5) == 0.0


def test_from_pairs_merges_duplicates_and_drops_zero_weight():
    m = DiscreteMeasure.from_pairs([(1.0, 0.25), (1.0, 0.25), (2.0, 0.5), (3.0, 0.0)])
    assert m.locations == (1.0, 2.0)
    assert m.weights == (0.5, 0.5)


def test_locations_must_increase():
    with pytest.raises(ValueError):
        DiscreteMeasure((2.0, 1.0), (0.5, 0.5))


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        DiscreteMeasure((1.0, 2.0), (0.5, 0.6))


def test_cdf_right_continuous():
    m = DiscreteMeasure((0.0, 2.0), (0.5, 0.5))
    xs = np.array([-0.1, 0.0, 1.0, 2.0, 3.0])
    assert np.allclose(m.cdf(xs), [0.0, 0.5, 0.5, 1.0, 1.0])


def test_from_samples_uniform_weights():
    m = DiscreteMeasure.from_samples([3.0, 1.0, 3.0, 2.0])
    assert m.locations == (1.0, 2.0, 3.0)
    assert m.weights == (0.25, 0.25, 0.5)


def test_scaled_and_normalized():
    m = DiscreteMeasure((1.0, 3.0), (0.5, 0.5))
    assert m.scaled(2.0).locations == (2.0, 6.0)
    assert math.isclose(m.normalized().mean(), 1.0, abs_tol=1e-15)


def test_content_hash_is_stable_and_sensitive():
    a = DiscreteMeasure((1.0, 2.0), (0.5, 0.5))
    b = DiscreteMeasure((1.0, 2.0), (0.5, 0.5))
    c = DiscreteMeasure((1.0, 2.5), (0.5, 0.5))
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()


def test_content_hash_keeps_its_per_atom_payload():
    # the payload used to be built as below, one `.17g` pair per atom; the
    # hash recorded in every file header must not move
    rng = np.random.default_rng(5)
    spread = rng.standard_normal(2044) * 10.0 ** rng.integers(-14, 18, 2044)
    locs = np.unique(np.concatenate([[0.0, 5e-324, -1e-320, 1e300], spread]))
    wts = rng.random(locs.size) + 1e-3
    measure = DiscreteMeasure(tuple(locs), tuple(wts / wts.sum()))
    assert len(measure.locations) == 2048
    payload = ";".join(f"{x:.17g}:{w:.17g}" for x, w in zip(measure.locations, measure.weights))
    assert measure.content_hash() == hashlib.sha256(payload.encode()).hexdigest()[:16]


# -- distances ----------------------------------------------------------------


def test_kolmogorov_examples():
    d0 = DiscreteMeasure.point_mass(0.0)
    d1 = DiscreteMeasure.point_mass(1.0)
    half = DiscreteMeasure((0.0, 1.0), (0.5, 0.5))
    assert kolmogorov_distance(d0, d0) == 0.0
    assert kolmogorov_distance(d0, d1) == 1.0
    assert kolmogorov_distance(d0, half) == 0.5


def test_wasserstein_examples():
    d0 = DiscreteMeasure.point_mass(0.0)
    dc = DiscreteMeasure.point_mass(-2.5)
    assert wasserstein1(d0, d0) == 0.0
    assert wasserstein1(d0, dc) == 2.5
    spread = DiscreteMeasure((0.0, 2.0), (0.5, 0.5))
    assert math.isclose(wasserstein1(spread, DiscreteMeasure.point_mass(1.0)), 1.0)


@pytest.mark.parametrize("metric", [kolmogorov_distance, wasserstein1])
def test_metric_axioms_on_random_instances(metric):
    rng = np.random.default_rng(11)
    ms = []
    for _ in range(4):
        k = rng.integers(1, 5)
        locs = np.sort(rng.normal(size=k))
        while len(set(locs.tolist())) < k:
            locs = np.sort(rng.normal(size=k))
        ms.append(DiscreteMeasure(tuple(locs), tuple(rng.dirichlet(np.ones(k)))))
    for a in ms:
        assert metric(a, a) == 0.0
        for b in ms:
            assert math.isclose(metric(a, b), metric(b, a), abs_tol=1e-12)
            for c in ms:
                assert metric(a, c) <= metric(a, b) + metric(b, c) + 1e-12


def test_kolmogorov_vs_cdf_matches_discrete_version_in_the_limit():
    # against a point mass CDF the empirical distance is max(F_n jumps off 0/1)
    values = np.array([0.2, 0.4, 0.6])
    dist = kolmogorov_vs_cdf(values, lambda x: np.where(np.asarray(x) >= 0.5, 1.0, 0.0))
    # F(0.2)=F(0.4)=0 vs i/n up to 2/3; F(0.6)=1 vs 2/3 -> sup is 2/3
    assert math.isclose(dist, 2.0 / 3.0)


def test_kolmogorov_vs_cdf_zero_for_perfect_quantiles():
    # samples at the (i-0.5)/n quantiles of U[0,1] give distance 1/(2n)
    n = 10
    values = (np.arange(n) + 0.5) / n
    dist = kolmogorov_vs_cdf(values, lambda x: np.clip(np.asarray(x, dtype=float), 0, 1))
    assert math.isclose(dist, 0.05)
