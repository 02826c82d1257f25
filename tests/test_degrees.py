"""Degree sequences: builders, the odd-sum fix, normalized-degree law."""

import math
import re

import numpy as np
import pytest

from sparsespectra import (
    DegreeGroup,
    DegreeSequence,
    DiscreteMeasure,
    OnePlusExponential,
    UniformLaw,
    build_degree_sequence,
    build_grouped_degrees,
)


def delta(c=1.0):
    return DiscreteMeasure.point_mass(c)


def degree_esd(seq):
    """Empirical law of the normalized degrees D_i/omega."""
    return DiscreteMeasure.from_samples(seq.as_array() / seq.omega)


def test_regular_case_even_sum():
    seq = build_degree_sequence(delta(), n=4, omega_target=3.0)
    assert seq.degrees == (3, 3, 3, 3)
    assert seq.omega == 3.0


def test_odd_sum_fix_increments_last_vertex():
    seq = build_degree_sequence(delta(), n=3, omega_target=3.0)
    assert seq.degrees == (3, 3, 4)
    assert math.isclose(seq.omega, 10.0 / 3.0, rel_tol=1e-15)


def test_floor_not_round():
    # omega_target 2.9 on unit weights floors to 2, never rounds to 3
    seq = build_degree_sequence(delta(), n=4, omega_target=2.9)
    assert seq.degrees == (2, 2, 2, 2)


def test_sum_always_even_and_omega_exact():
    rng = np.random.default_rng(0)
    for k in range(20):
        n = int(rng.integers(2, 40))
        target = float(rng.uniform(1.0, 12.0))
        seq = build_degree_sequence(
            OnePlusExponential(rate=1.0).normalized(), n, target, seed=k
        )
        total = sum(seq.degrees)
        assert total % 2 == 0
        assert math.isclose(seq.omega, total / n, rel_tol=0, abs_tol=1e-12)


def test_all_zero_rejected():
    with pytest.raises(ValueError):
        build_degree_sequence(delta(0.2), n=4, omega_target=1.0)


def test_precondition_checks():
    with pytest.raises(ValueError):
        build_degree_sequence(delta(), n=1, omega_target=3.0)
    with pytest.raises(ValueError):
        build_degree_sequence(delta(), n=4, omega_target=0.5)


@pytest.mark.parametrize("omega_target", [math.nan, math.inf])
def test_non_finite_omega_target_rejected_by_name(omega_target):
    with pytest.raises(ValueError, match="omega_target"):
        build_degree_sequence(delta(), n=4, omega_target=omega_target)


def test_negative_atoms_rejected():
    law = DiscreteMeasure((-1.0, 3.0), (0.5, 0.5))
    with pytest.raises(ValueError, match="nonnegative"):
        build_degree_sequence(law, n=4, omega_target=2.0)


def test_realized_omega_near_target_for_iid_law():
    # the sampled weights have unit mean, so realized omega tracks the target
    hits = 0
    trials = 200
    for seed in range(trials):
        seq = build_degree_sequence(
            OnePlusExponential(rate=1.0).normalized(), 1000,
            math.sqrt(1000), seed=seed,
        )
        if abs(seq.omega - math.sqrt(1000)) / math.sqrt(1000) < 0.10:
            hits += 1
    assert hits >= trials * 0.99


def test_degree_esd_examples():
    m = degree_esd(DegreeSequence([3, 3, 3, 3]))
    assert m.locations == (1.0,)
    assert m.weights == (1.0,)
    m2 = degree_esd(DegreeSequence([2, 4]))
    assert np.allclose(m2.locations, (2.0 / 3.0, 4.0 / 3.0))
    assert m2.weights == (0.5, 0.5)


def test_degree_esd_mean_is_one_exactly():
    rng = np.random.default_rng(3)
    for k in range(10):
        degs = rng.integers(0, 9, size=30)
        if degs.sum() % 2:
            degs[-1] += 1
        if degs.sum() == 0:
            degs[:2] = 1
        m = degree_esd(DegreeSequence(degs.tolist()))
        assert math.isclose(m.mean(), 1.0, rel_tol=0, abs_tol=1e-12)


def test_three_atom_quantization_of_figure_spec():
    # atoms {1,3,15}/2.12 with frequencies {0.5,0.49,0.01}: n=1000 keeps them
    atoms = DiscreteMeasure(
        tuple(np.array([1.0, 3.0, 15.0]) / 2.12), (0.5, 0.49, 0.01)
    )
    seq = build_degree_sequence(atoms, n=1000, omega_target=31.0)
    m = degree_esd(seq)
    assert len(m) == 3
    # counts 500/490/10; locations shift by the floor loss (~1/omega each)
    # times the realized-omega renormalization, a few percent relative
    assert np.allclose(m.weights, (0.5, 0.49, 0.01))
    assert np.allclose(m.locations, atoms.locations, rtol=0.05, atol=0.04)


def test_sequence_round_trip(tmp_path):
    seq = build_degree_sequence(delta(), n=5, omega_target=4.0)
    path = tmp_path / "degrees.txt"
    seq.save(path)
    again = DegreeSequence.load(path)
    assert again == seq


@pytest.mark.parametrize("line", ["x", "2.5", "1 2"])
def test_sequence_load_names_the_file_and_a_malformed_line(tmp_path, line):
    # a bare "invalid literal for int()" named neither the file nor the line
    path = tmp_path / "degrees.txt"
    path.write_text(f"2\n{line}\n2\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: degree line {line!r} is not an integer")):
        DegreeSequence.load(path)


@pytest.mark.parametrize("text, message", [
    ("1\n2\n", "total degree must be even"),
    ("-1\n1\n", "degrees must be nonnegative"),
    ("\n", "empty degree sequence"),
    ("99999999999999999999\n1\n", "degrees must be 64-bit integers (got 99999999999999999999)"),
], ids=["odd", "negative", "empty", "beyond-int64"])
def test_sequence_load_names_the_file_on_a_sequence_error(tmp_path, text, message):
    # every line parses, and the sequence rejects the degrees
    path = tmp_path / "degrees.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        DegreeSequence.load(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("degrees, bad", [
    ([3.9, 1.1], "3.9"),
    ([1, 2**63 + 1], str(2**63 + 1)),
    ([2**70, -1], str(2**70)),
], ids=["floats", "uint64", "object"])
def test_sequence_rejects_degrees_that_are_not_int64(degrees, bad):
    # [3.9, 1.1] was truncated to (3, 1), and 2**70 reached the sampler's
    # int64 cast as an OverflowError
    with pytest.raises(ValueError, match=re.escape(f"degrees must be 64-bit integers (got {bad})")):
        DegreeSequence(degrees)


def test_sequence_rejects_a_total_degree_beyond_int64():
    # each degree fits in int64 but the sum wrapped, and the half-edge
    # array then reported "negative dimensions are not allowed"
    DegreeSequence([2**62 - 1, 2**62 - 1])
    with pytest.raises(ValueError, match=re.escape(f"total degree {2**63} does not fit in 64 bits")):
        DegreeSequence([2**62, 2**62])


def test_grouped_degrees_mixed_scales():
    groups = [
        DegreeGroup(count="sqrt", law=OnePlusExponential(rate=1.0), scale="sqrt"),
        DegreeGroup(count="rest", law=OnePlusExponential(rate=1.0), scale="log"),
    ]
    seq = build_grouped_degrees(groups, n=400, seed=1)
    assert seq.n == 400
    assert sum(seq.degrees) % 2 == 0
    degs = np.array(seq.degrees)
    # the 20 sqrt-scale vertices dominate the right tail
    assert np.sort(degs)[-20:].min() >= math.sqrt(400)


def test_grouped_degrees_counts_validated():
    groups = [
        DegreeGroup(count=300, law=OnePlusExponential(1.0), scale="log"),
        DegreeGroup(count=300, law=OnePlusExponential(1.0), scale="log"),
    ]
    with pytest.raises(ValueError):
        build_grouped_degrees(groups, n=400, seed=0)
    with pytest.raises(ValueError):
        build_grouped_degrees(
            [DegreeGroup("rest", OnePlusExponential(1.0), "log"),
             DegreeGroup("rest", OnePlusExponential(1.0), "log")],
            n=100, seed=0,
        )


@pytest.mark.parametrize("counts,n,message", [
    (["rest"], 1, "need n >= 2"),
    ([0], 100, "the groups cover no vertex"),
    ([0, 0.001], 100, "the groups cover no vertex"),
])
def test_grouped_degrees_reject_specs_covering_no_vertex(counts, n, message):
    groups = [DegreeGroup(c, UniformLaw(0.0, 2.0), "log") for c in counts]
    with pytest.raises(ValueError, match=message):
        build_grouped_degrees(groups, n=n, seed=0)


@pytest.mark.parametrize("scale", ["foo", "SQRT", ""])
def test_degree_group_rejects_an_unknown_scale_rule_when_built(scale):
    expected = f"group scale must be 'sqrt', 'log' or a positive number (got {scale!r})"
    with pytest.raises(ValueError, match=re.escape(expected)):
        DegreeGroup(count="rest", law=UniformLaw(0.0, 2.0), scale=scale)
