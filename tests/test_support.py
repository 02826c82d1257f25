"""Support scans, the inverse-transform criterion, and two-atom closed forms."""

import math
import tracemalloc

import numpy as np
import pytest

from sparsespectra import (
    DiscreteMeasure,
    OnePlusExponential,
    SupportIntervals,
    TwoAtomLaw,
    UniformLaw,
    phase_diagram,
    quantize_measure,
    solve_g,
    stieltjes_mu,
    support_mp,
    two_atom_discriminant,
    two_atom_has_hole,
    two_atom_threshold,
    xi,
)
from sparsespectra import support

from oracles import finite_difference, point_mass_square_edges

DELTA_ONE = DiscreteMeasure.from_pairs([(1.0, 1.0)])
THREE_ATOM = DiscreteMeasure.from_pairs(
    [(0.4717, 0.5), (1.4151, 0.49), (7.0755, 0.01)]).normalized()
HOLED = TwoAtomLaw(alpha=7.0, beta=0.5)
FILLED = TwoAtomLaw(alpha=3.0, beta=0.5)


def density_at_root(x, nu, eta=1e-6, tol=1e-10):
    """Limit density at z = √(x + i·eta): positive exactly where x > 0 is in support_mp."""
    return stieltjes_mu(np.sqrt(complex(x, eta)), nu, tol=tol).imag / math.pi


# -- the criterion function -----------------------------------------------------


def test_xi_values_for_unit_weights():
    assert xi(-0.5, DELTA_ONE)[0] == pytest.approx(4.0, abs=1e-12)
    assert xi(1.0, DELTA_ONE)[0] == pytest.approx(-0.5, abs=1e-12)


def test_xi_prime_values_for_unit_weights():
    assert xi(-0.5, DELTA_ONE)[1] == pytest.approx(0.0, abs=1e-12)
    assert xi(-0.25, DELTA_ONE)[1] == pytest.approx(16.0 - 16.0 / 9.0, abs=1e-12)


def test_xi_rejects_poles():
    with pytest.raises(ValueError):
        xi(-1.0, DELTA_ONE)
    with pytest.raises(ValueError):
        xi(0.0, DELTA_ONE)
    half = DiscreteMeasure.from_pairs([(0.5, 0.5), (1.5, 0.5)])
    with pytest.raises(ValueError):
        xi(-2.0, half)  # exactly at -1/0.5


def test_xi_prime_matches_finite_differences():
    rng = np.random.default_rng(5)
    poles = [-1.0 / d for d in THREE_ATOM.locations] + [0.0]
    checked = 0
    while checked < 100:
        v = rng.uniform(-6.0, 6.0)
        if min(abs(v - p) for p in poles) < 1e-2:
            continue
        fd = finite_difference(lambda t: xi(t, THREE_ATOM)[0], v, 1e-5)
        assert abs(fd - xi(v, THREE_ATOM)[1]) <= 1e-6 * max(1.0, abs(fd))
        checked += 1


def test_xi_memory_stays_bounded_on_many_points_of_a_wide_law():
    # all 4096 × 2048 point·atom cells at once peaked at 201 MB
    nu = quantize_measure(OnePlusExponential(1.0).normalized(), 2048)
    vs = np.linspace(0.05, 20.0, 4096).reshape(64, 64)
    tracemalloc.start()
    try:
        vals, slopes = xi(vs, nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert vals.shape == slopes.shape == vs.shape
    scalar = [xi(float(v), nu) for v in vs.ravel()]
    assert vals.ravel().tolist() == [value for value, _ in scalar]
    assert slopes.ravel().tolist() == [slope for _, slope in scalar]


def trace_grid(nu):
    """The points of the `support` command's xi trace: 400 per pole-free gap."""
    poles = np.sort(-1.0 / nu.as_arrays()[0])
    span = float(poles[-1] - poles[0])
    lo = np.concatenate([[poles[0] - 1.5 * span], poles])
    hi = np.concatenate([poles, [0.0]])
    per_gap = max(1, min(400, 20_000 // len(lo)))
    return lo[:, None] + (hi - lo)[:, None] * np.linspace(1e-4, 1.0 - 1e-4, per_gap)


@pytest.mark.parametrize("cells", [2048, 3 * 2048 + 1, 2**20],
                         ids=["one-point-per-block", "three-points-per-block", "512-point-blocks"])
def test_xi_bits_do_not_depend_on_the_block_size(monkeypatch, cells):
    nu = quantize_measure(OnePlusExponential(1.0).normalized(), 2048)
    vs = trace_grid(nu)
    vals, slopes = xi(vs, nu)
    monkeypatch.setattr(support, "_XI_CELLS", cells)
    vals_b, slopes_b = xi(vs, nu)
    assert np.array_equal(vals, vals_b) and np.array_equal(slopes, slopes_b)


def test_xi_matches_exactly_rounded_sums_away_from_the_poles():
    nu = quantize_measure(OnePlusExponential(1.0).normalized(), 2048)
    locs, wts = (a.tolist() for a in nu.as_arrays())
    # the poles -1/d lie closer than 1e-2 apart from -2.0 to -0.2, so the
    # points clear of them sit in the outer gaps and past 0
    vs = np.concatenate([trace_grid(nu).ravel(), np.linspace(-6.0, 3.0, 451)])
    poles = np.append(-1.0 / nu.as_arrays()[0], 0.0)
    vs = vs[np.min(np.abs(vs[:, None] - poles), axis=1) >= 1e-2]
    assert vs.size > 200
    vals, slopes = xi(vs, nu)
    for v, val, slope in zip(vs.tolist(), vals, slopes):
        terms = [w * d * d / (1.0 + v * d) for d, w in zip(locs, wts)] + [-1.0 / v]
        assert abs(val - math.fsum(terms)) <= 1e-12 * math.fsum(map(abs, terms)), v
        terms = [-w * d**3 / (1.0 + v * d) ** 2 for d, w in zip(locs, wts)] + [1.0 / v**2]
        assert abs(slope - math.fsum(terms)) <= 1e-12 * math.fsum(map(abs, terms)), v


def test_xi_vectorized_matches_scalar():
    vs = np.array([-0.5, -0.25, 0.3, 2.0])
    vals, slopes = xi(vs, DELTA_ONE)
    assert np.allclose(vals, [xi(float(v), DELTA_ONE)[0] for v in vs], atol=1e-15)
    assert np.allclose(slopes, [xi(float(v), DELTA_ONE)[1] for v in vs], atol=1e-15)


# -- square-law support ------------------------------------------------------------


def test_unit_weights_support():
    s = support_mp(DELTA_ONE)
    assert len(s) == 1
    (a, b), = s
    assert abs(a - 0.0) < 1e-8 and abs(b - 4.0) < 1e-8


def test_scaled_point_mass_family():
    # c*delta_c: edges c(1 ∓ sqrt(c))² plus an isolated atom at 0 when c != 1
    for c in (0.25, 0.5, 1.0, 2.0, 4.0):
        nu = DiscreteMeasure.from_pairs([(c, 1.0)])
        s = support_mp(nu)
        lo, hi = point_mass_square_edges(c)
        if c == 1.0:
            assert len(s) == 1
            (a, b), = s
            assert abs(a) < 1e-8 and abs(b - 4.0) < 1e-8
        else:
            assert len(s) == 2
            atom, bulk = s
            assert atom == (0.0, 0.0)
            assert abs(bulk[0] - lo) < 1e-7 * max(1.0, lo)
            assert abs(bulk[1] - hi) < 1e-7 * hi


def test_two_atom_support_above_threshold():
    s = support_mp(HOLED.measure())
    assert len(s) == 2
    assert s[0] == pytest.approx((0.0, 0.8151983075374337), abs=1e-9)
    assert s[1] == pytest.approx((0.81885532072214, 21.283106135054034), abs=1e-8)


def test_two_atom_support_below_threshold():
    s = support_mp(FILLED.measure())
    assert len(s) == 1
    assert s[0] == pytest.approx((0.0, 9.66829987235089), abs=1e-8)


def test_min_gap_absorbs_the_narrow_hole():
    # the (7, 0.5) hole is ~0.0037 wide: kept at the default, absorbed at 0.01
    assert len(support_mp(HOLED.measure(), min_gap=1e-3)) == 2
    assert len(support_mp(HOLED.measure(), min_gap=0.01)) == 1


def test_three_atom_support():
    s = support_mp(THREE_ATOM)
    assert len(s) == 2
    assert s[0] == pytest.approx((0.0, 4.587180554545322), abs=1e-7)
    assert s[1] == pytest.approx((5.288271888385728, 12.62266137006506), abs=1e-7)


def test_scan_net_finds_gaps_the_exact_roots_miss():
    # kept for its law: np.roots on the expanded polynomial numerator of xi'
    # missed breakpoints here, and without a sampled scan net on top the
    # support came out as the single piece [0, 430.3]
    nu = DiscreteMeasure.from_pairs(zip(
        (0.18643164314841465, 0.28786449152328564, 0.6423354357283977,
         4.771208976813408, 12.004744348250156, 30.5929982195561),
        (0.05730863827843481, 0.0034400699127553665, 0.846722117833012,
         0.09216345488348303, 0.0003482621302303739, 1.745696208448824e-05),
    ))
    s = support_mp(nu)
    assert len(s) == 3
    for x in (14.0, 25.0):
        assert not any(a <= x <= b for a, b in s)
        assert density_at_root(x, nu, eta=1e-8, tol=1e-12) < 1e-10
    # at 33.5, near the top edge, the density reads 9.18e-5: its bound
    # leaves a factor 2.4
    for x, low in ((6.0, 1e-4), (16.0, 1e-4), (33.5, 3.8e-5)):
        assert any(a <= x <= b for a, b in s)
        assert density_at_root(x, nu, eta=1e-8, tol=1e-12) > low


def test_unit_mean_law_keeps_its_support():
    # the expanded numerator's leading coefficient, Π d² · (1 − mean), kept a
    # 2.8e-20 float residue here and the support collapsed to {0}
    nu = TwoAtomLaw(alpha=1.8358301196911324, beta=0.01881255041667277).measure()
    s = support_mp(nu)
    assert len(s) == 1
    (a, edge), = s
    assert a == 0.0
    assert edge == pytest.approx(7.3117, rel=1e-4)
    assert density_at_root(0.99 * edge, nu, eta=1e-8, tol=1e-12) > 1e-3
    assert density_at_root(1.01 * edge, nu, eta=1e-8, tol=1e-12) < 1e-8


def test_density_confirms_the_support_of_random_laws():
    rng = np.random.default_rng(20261018)
    for _ in range(40):
        k = int(rng.integers(1, 13))
        d = np.exp(rng.uniform(-3.0, 3.0, k))
        w = rng.dirichlet(np.ones(k))
        nu = DiscreteMeasure.from_pairs(zip(d / float(w @ d), w)).normalized()
        s = support_mp(nu)
        for a, b in s:
            if b - a > 1e-3:
                assert density_at_root(0.5 * (a + b), nu) > 1e-6, (nu, s)
        for a, b in s.gaps():
            assert density_at_root(0.5 * (a + b), nu) < 1e-4, (nu, s)


@pytest.mark.parametrize("law, edge", [
    (OnePlusExponential(rate=1.0), 7.223597282256755),
    (UniformLaw(low=0.0, high=2.0), 5.823106535220926),
])
def test_default_quantized_laws_keep_their_support(law, edge):
    # 2048 atoms: the two-pole bound leaves 1 (1+Exp) and 63 (Uniform) of
    # the 2047 interior gaps to solve
    (a, b), = support_mp(quantize_measure(law.normalized(), 2048)).intervals
    assert a == 0.0
    assert b == pytest.approx(edge, abs=1e-10)


@pytest.mark.parametrize("min_gap", [math.nan, -1e-3, -math.inf])
def test_support_rejects_bad_min_gap(min_gap):
    with pytest.raises(ValueError, match="min_gap"):
        support_mp(HOLED.measure(), min_gap=min_gap)


def test_infinite_min_gap_absorbs_every_finite_hole():
    (a, b), = support_mp(HOLED.measure(), min_gap=math.inf)
    assert a == 0.0
    assert b == pytest.approx(21.283106135054034, abs=1e-8)


def test_component_count_agrees_with_closed_form_on_a_sweep():
    rng = np.random.default_rng(9)
    for _ in range(50):
        alpha = float(rng.uniform(1.5, 15.0))
        beta = float(rng.uniform(0.05, 0.95))
        law = TwoAtomLaw(alpha=alpha, beta=beta)
        if abs(alpha - two_atom_threshold(beta)) < 0.3:
            continue  # stay clear of the degenerate pinch
        n_comp = len(support_mp(law.measure(), min_gap=0.0))
        assert n_comp == (2 if two_atom_has_hole(law) else 1)


def test_gap_midpoints_round_trip_through_the_criterion():
    # at a spectral gap point x, v = Re h(x + i*1e-8) satisfies xi(v) = x, xi' > 0
    for nu in (THREE_ATOM, HOLED.measure()):
        gaps = support_mp(nu).gaps()
        assert gaps
        for a, b in gaps:
            x = 0.5 * (a + b)
            z = np.sqrt(complex(x, 1e-8))
            h = solve_g(z.real, nu, z.imag)[0] / z
            value, slope = xi(h.real, nu)
            assert abs(value - x) < 1e-5 * max(1.0, abs(x))
            assert slope > 0


def test_density_vanishes_in_gaps_and_not_inside_components():
    for nu in (THREE_ATOM, HOLED.measure()):
        s = support_mp(nu)
        for a, b in s:
            if b > a:  # skip the degenerate origin atom
                assert density_at_root(0.5 * (a + b), nu) > 1e-6
        for a, b in s.gaps():
            assert density_at_root(0.5 * (a + b), nu) < 1e-4


# -- symmetric support ------------------------------------------------------------


def test_symmetric_support_of_unit_weights():
    s = support_mp(DELTA_ONE).symmetric_image()
    assert len(s) == 1
    (a, b), = s
    assert abs(a + 2.0) < 1e-8 and abs(b - 2.0) < 1e-8


def test_symmetric_support_mirrors_and_merges():
    s = support_mp(HOLED.measure()).symmetric_image()
    assert len(s) == 3
    inner = s[1]
    assert inner[0] == -inner[1]
    assert inner[1] == pytest.approx(math.sqrt(0.8151983075374337), abs=1e-9)
    assert s[2] == pytest.approx(
        (math.sqrt(0.81885532072214), math.sqrt(21.283106135054034)), abs=1e-8)
    assert s[0] == (-s[2][1], -s[2][0])


# -- interval container ------------------------------------------------------------


def test_intervals_validate_ordering():
    with pytest.raises(ValueError):
        SupportIntervals(((1.0, 0.5),))
    with pytest.raises(ValueError):
        SupportIntervals(((0.0, 2.0), (1.0, 3.0)))


def test_intervals_contains_and_gaps():
    s = SupportIntervals(((0.0, 1.0), (2.0, 3.0)))
    assert any(a <= 0.5 <= b for a, b in s)
    assert not any(a <= 1.5 <= b for a, b in s)
    assert s.gaps() == ((1.0, 2.0),)


def test_intervals_csv(tmp_path):
    s = SupportIntervals(((0.0, 1.0), (2.0, 3.0)))
    path = tmp_path / "support.csv"
    s.to_csv(path, metadata={"kind": "demo"})
    lines = path.read_text().splitlines()
    assert lines[0] == "# kind=demo"
    assert lines[1] == "left,right"
    assert lines[2:] == ["0,1", "2,3"]


# -- two-atom closed forms ------------------------------------------------------------


def test_two_atom_law_validation_and_weights():
    with pytest.raises(ValueError):
        TwoAtomLaw(alpha=0.9, beta=0.5)
    with pytest.raises(ValueError):
        TwoAtomLaw(alpha=2.0, beta=1.0)
    for alpha, beta in ((math.inf, 0.5), (math.nan, 0.5), (4.0, math.nan)):
        with pytest.raises(ValueError) as info:
            TwoAtomLaw(alpha=alpha, beta=beta)
        assert f"(got alpha={alpha!r}, beta={beta!r})" in str(info.value)
    law = TwoAtomLaw(alpha=4.0, beta=0.5)
    m = law.measure()
    assert m.mean() == pytest.approx(1.0, abs=1e-12)
    assert m.locations == (0.5, 4.0)


def test_discriminant_sign_matches_the_hole():
    assert two_atom_discriminant(HOLED) == pytest.approx(1488.375, rel=1e-9)
    assert two_atom_discriminant(FILLED) == pytest.approx(-241.875, rel=1e-9)
    assert two_atom_discriminant(TwoAtomLaw(alpha=6.0, beta=0.5)) < 0


def test_threshold_closed_form():
    assert two_atom_threshold(0.5) == pytest.approx(6.770983152794611, abs=1e-12)
    # discriminant changes sign across the threshold
    thr = two_atom_threshold(0.5)
    assert two_atom_discriminant(TwoAtomLaw(alpha=thr + 1e-3, beta=0.5)) > 0
    assert two_atom_discriminant(TwoAtomLaw(alpha=thr - 1e-3, beta=0.5)) < 0


def test_threshold_limit_toward_degenearte_weights():
    assert two_atom_threshold(1 - 1e-9) == pytest.approx(2.0, abs=1e-2)


def test_threshold_monotone_decreasing():
    betas = np.linspace(0.02, 0.98, 60)
    vals = [two_atom_threshold(float(b)) for b in betas]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        two_atom_threshold(0.0)


def test_phase_diagram_grid():
    alphas = np.linspace(1.05, 20.0, 40)
    betas = np.linspace(0.05, 0.95, 30)
    hole, disc = phase_diagram(alphas, betas)
    assert hole.shape == disc.shape == (40, 30)
    # each beta column flips from no-hole to hole exactly once as alpha grows
    for j in range(30):
        col = hole[:, j].astype(int)
        assert np.all(np.diff(col) >= 0)
    # sign of the discriminant matches the flag away from the boundary
    mask = np.abs(disc) > 1e-6
    assert np.array_equal(disc[mask] > 0, hole[mask])


def test_phase_diagram_masks_invalid_cells():
    hole, disc = phase_diagram([0.5, 2.0], [0.5])
    assert not hole[0, 0] and np.isnan(disc[0, 0])
    assert np.isfinite(disc[1, 0])
