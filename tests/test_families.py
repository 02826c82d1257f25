"""Continuous weight families: slab means, sampling, parsing."""

import math

import numpy as np
import pytest

from sparsespectra import OnePlusExponential, UniformLaw
from sparsespectra.cli import parse_measure_spec

from oracles import one_plus_exp_quantile, slab_mean_by_quadrature, uniform_quantile


def test_one_plus_exp_mean():
    law = OnePlusExponential(rate=1.0)
    assert math.isclose(law.mean(), 2.0, rel_tol=1e-15)
    assert math.isclose(OnePlusExponential(rate=2.0).mean(), 1.5, rel_tol=1e-15)


def test_one_plus_exp_normalized_has_unit_mean():
    law = OnePlusExponential(rate=1.0).normalized()
    assert math.isclose(law.mean(), 1.0, rel_tol=1e-14)
    # scale halves, and with it the left endpoint scale*1
    assert math.isclose(law.scale, 0.5, rel_tol=1e-14)


@pytest.mark.parametrize("p0,p1", [(0.0, 0.5), (0.5, 1.0), (0.25, 0.75), (0.9, 1.0)])
def test_one_plus_exp_slab_mean_vs_quadrature(p0, p1):
    law = OnePlusExponential(rate=1.0, scale=0.5)
    ref = slab_mean_by_quadrature(lambda p: one_plus_exp_quantile(p, 1.0, 0.5), p0, p1)
    assert math.isclose(law.slab_mean(p0, p1), ref, rel_tol=1e-9, abs_tol=1e-9)


@pytest.mark.parametrize("p0,p1", [(0.0, 0.5), (0.5, 1.0), (0.1, 0.2)])
def test_uniform_slab_mean_vs_quadrature(p0, p1):
    law = UniformLaw(0.0, 2.0)
    ref = slab_mean_by_quadrature(lambda p: uniform_quantile(p, 0.0, 2.0), p0, p1)
    assert math.isclose(law.slab_mean(p0, p1), ref, rel_tol=1e-9, abs_tol=1e-12)


def test_slab_means_average_to_mean():
    law = OnePlusExponential(rate=1.0)
    m = 64
    edges = np.arange(m + 1) / m
    means = [law.slab_mean(edges[k], edges[k + 1]) for k in range(m)]
    assert math.isclose(float(np.mean(means)), law.mean(), rel_tol=1e-10)


def test_sampling_matches_mean_and_quantiles():
    law = OnePlusExponential(rate=1.0)
    rng = np.random.default_rng(5)
    x = law.sample(rng, 200_000)
    assert abs(x.mean() - 2.0) < 0.01
    assert abs(np.quantile(x, 0.5) - float(one_plus_exp_quantile(0.5))) < 0.01


def test_uniform_sample_range():
    law = UniformLaw(0.5, 2.5)
    x = law.sample(np.random.default_rng(0), 1000)
    assert x.min() >= 0.5 and x.max() <= 2.5
    assert abs(x.mean() - 1.5) < 0.05


def test_parse_family_rejects_unknown():
    with pytest.raises(ValueError, match=r"^unknown family 'zeta'$"):
        parse_measure_spec("zeta(3)")
