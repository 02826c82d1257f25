"""Fixed-point solver, limit densities, quantization, and origin mass."""

import itertools
import math
import re

import numpy as np
import pytest

from sparsespectra import (
    ConvergenceError,
    DiscreteMeasure,
    OnePlusExponential,
    TwoAtomLaw,
    UniformLaw,
    density_curve,
    kolmogorov_vs_cdf,
    quantize_measure,
    solve_g,
    stieltjes_mu,
    support_mp,
    symmetric_grid,
    xi,
)
from sparsespectra import limit_law

from oracles import (
    cauchy_transform_quadrature,
    edge_density,
    semicircle_g,
    solve_h_reference,
    tree_moments,
    wigner_model_eigenvalues,
)

DELTA_ONE = DiscreteMeasure.from_pairs([(1.0, 1.0)])
TWO_ATOM = TwoAtomLaw(alpha=4.0, beta=0.5).measure()
THREE_ATOM = DiscreteMeasure.from_pairs([(0.5, 0.5), (1.4, 0.45), (2.4, 0.05)])


# -- fixed point at a point ----------------------------------------------------


def test_value_at_i_for_unit_weights():
    g, residual, _ = solve_g(0.0, DELTA_ONE, 1.0)
    assert abs(g - 1j * (math.sqrt(5) - 1) / 2) < 1e-10
    assert residual <= 1e-10


def test_value_near_real_axis_for_unit_weights():
    g, _, _ = solve_g(3.0, DELTA_ONE, 0.001)
    assert abs(g - semicircle_g(3 + 0.001j)) < 1e-9


def test_agreement_with_semicircle_transform_on_a_grid():
    for x in np.linspace(-4.0, 4.0, 20):
        g, _, _ = solve_g(float(x), DELTA_ONE, 0.7)
        assert abs(g - semicircle_g(complex(x, 0.7))) < 1e-10
        assert g.imag > 0


def test_large_argument_asymptotics():
    for x in (0.0, 5.0, -3.0):
        z = complex(x, 1e6)
        for nu in (DELTA_ONE, TWO_ATOM, THREE_ATOM):
            g, _, _ = solve_g(z.real, nu, z.imag)
            f = stieltjes_mu(z, nu)
            assert abs(g + 1 / z) <= 10 / abs(z) ** 2
            assert abs(f + 1 / z) <= 10 / abs(z) ** 3


def test_rejects_lower_half_plane_and_real_axis():
    with pytest.raises(ValueError):
        solve_g(1.0, DELTA_ONE, 0.0)
    with pytest.raises(ValueError):
        solve_g(0.0, DELTA_ONE, -1.0)
    with pytest.raises(ValueError):
        stieltjes_mu(1.0 + 0j, DELTA_ONE)


@pytest.mark.parametrize("z", [1 - 1j, 1 + 0j, complex(1, math.nan), complex(1, math.inf)])
def test_transform_names_z_when_it_leaves_the_upper_half_plane(z):
    # stieltjes_mu(1-1j) used to complain about an `eta` it does not take
    with pytest.raises(ValueError, match=re.escape(f"Im z must lie in (0, inf) (got z={z!r})")):
        stieltjes_mu(z, DELTA_ONE)


def test_rejects_weight_law_with_wrong_mean():
    with pytest.raises(ValueError):
        solve_g(0.0, DiscreteMeasure.from_pairs([(2.0, 1.0)]), 1.0)


def test_convergence_error_carries_best_residual(monkeypatch):
    monkeypatch.setattr(limit_law, "_MAX_ITER", 3)
    with pytest.raises(ConvergenceError) as info:
        solve_g(0.5, THREE_ATOM, 1e-9)
    assert info.value.best_residual is not None
    assert info.value.best_residual > 0


CURVE_NODES = [*symmetric_grid(2.0, 21)[11:], 0.01, 0.02]


@pytest.mark.parametrize("call, xs", [
    (lambda: solve_g(0.5, THREE_ATOM, 1e-6), [0.5]),
    (lambda: solve_g(np.array([0.25, 0.5]), THREE_ATOM, 1e-6), [0.25, 0.5]),
    (lambda: stieltjes_mu(0.5 + 1e-6j, THREE_ATOM), [0.5]),
    (lambda: density_curve(THREE_ATOM, x_max=2.0, points=21, eta=1e-6), CURVE_NODES),
], ids=["solve_g", "solve_g_array", "stieltjes_mu", "density_curve"])
def test_every_entry_point_fails_through_the_one_continuation(monkeypatch, call, xs):
    # _MAX_ITER bounds the whole continuation, so 3 iterations cannot reach eta
    monkeypatch.setattr(limit_law, "_MAX_ITER", 3)
    with pytest.raises(ConvergenceError) as info:
        call()
    assert info.value.best_residual > 0
    message = str(info.value)
    assert f"residual {info.value.best_residual:.3e} " in message
    assert "eta=1e-06" in message
    assert any(f"x={float(x)!r}," in message for x in xs)


# -- the continuation's schedule and sweep -------------------------------------------

BOUND_SUITE_ATOMIC = {
    "point mass": DELTA_ONE,
    "two-atom split": TwoAtomLaw(alpha=7.0, beta=0.5).measure(),
    "two-atom connected": TwoAtomLaw(alpha=3.0, beta=0.5).measure(),
    "three-atom": DiscreteMeasure.from_pairs(
        [(1.0 / 2.12, 0.5), (3.0 / 2.12, 0.49), (15.0 / 2.12, 0.01)]
    ),
}


def top_edge(nu):
    return math.sqrt(support_mp(nu).intervals[-1][1])


def halving_schedule(eta_final):
    """The factor-1/2 continuation schedule, as the reference for the long-step one."""
    etas = []
    e = 1.0
    while e > eta_final:
        etas.append(e)
        e *= 0.5
    etas.append(eta_final)
    return etas


def test_schedule_takes_one_stage_per_power_of_the_step():
    # 1e-3 multiplied four times is 1.0000000000000002e-12, just above 1e-12;
    # that product must not become a stage of its own before the final one
    assert limit_law._eta_schedule(1e-12) == [1.0, 1e-3, 1e-6, 1e-9, 1e-12]
    assert limit_law._eta_schedule(1e-9) == [1.0, 1e-3, 1e-6, 1e-9]
    assert limit_law._eta_schedule(1e-6) == [1.0, 1e-3, 1e-6]
    assert limit_law._eta_schedule(1e-3) == [1.0, 1e-3]
    # a last stage within a factor 2 of eta merges into the final one
    assert limit_law._eta_schedule(9.9e-4) == [1.0, 9.9e-4]
    assert limit_law._eta_schedule(0.5) == [1.0, 0.5]
    assert limit_law._eta_schedule(2.0) == [2.0]


def test_loose_long_stages_match_halving(monkeypatch):
    # The reference solves every stage of the halving schedule to tol. Both
    # sides solve to 1e-12 (worst gap measured 2.2e-11): at the default
    # 1e-10 the reference itself sits up to 9.7e-10 from a 1e-14 solve
    # (three-atom, eta = 1e-2), and the long-step curve 3.1e-11.
    laws = {**BOUND_SUITE_ATOMIC,
            "quantized 1+Exp": quantize_measure(OnePlusExponential(1.0).normalized(), 256),
            "quantized Uniform(0, 2)": quantize_measure(UniformLaw(0.0, 2.0).normalized(), 2048)}
    for name, nu in laws.items():
        x_max = top_edge(nu) + 0.25
        for eta in (1e-6, 1e-4, 1e-2):
            assert limit_law._eta_schedule(eta)[-1] == eta
            long_steps = density_curve(nu, x_max=x_max, points=401, eta=eta, tol=1e-12)
            with monkeypatch.context() as m:
                m.setattr(limit_law, "_eta_schedule", halving_schedule)
                m.setattr(limit_law, "_STAGE_TOL", 0.0)
                halving = density_curve(nu, x_max=x_max, points=401, eta=eta, tol=1e-12)
            assert long_steps.iterations < halving.iterations, (name, eta)
            assert np.max(np.abs(long_steps.rho - halving.rho)) < 1e-9, (name, eta)


def test_curve_iteration_ceilings():
    # measured 10 and 22 iterations (28 and 31 with the old schedule of
    # eight fully solved stages); the ceilings allow about a quarter more
    exp = quantize_measure(OnePlusExponential(1.0).normalized(), 2048)
    assert density_curve(exp, x_max=3.5, points=201).iterations <= 13
    split = BOUND_SUITE_ATOMIC["two-atom split"]
    assert density_curve(split, x_max=top_edge(split) + 0.25, points=2401).iterations <= 27


def test_an_unreachable_tol_stops_once_no_lane_improves(monkeypatch):
    # tol = 1e-300 lies below every lane's rounding floor (about 3e-16).
    # Measured 136 sweeps; spending the whole budget of 5000 iterations
    # takes about 10 000
    monkeypatch.setattr(limit_law, "_MAX_ITER", 5000)
    sweep = limit_law._residual_and_slope
    calls = []

    def counted(*args):
        calls.append(1)
        return sweep(*args)

    monkeypatch.setattr(limit_law, "_residual_and_slope", counted)
    with pytest.raises(ConvergenceError) as info:
        density_curve(DELTA_ONE, x_max=3.0, points=601, tol=1e-300)
    assert len(calls) < 1000
    assert "of 302 points failed (worst residual" in str(info.value)
    assert 0 < info.value.best_residual < 1e-15


def test_slope_matches_central_difference_of_residual():
    locs, wts = THREE_ATOM.as_arrays()
    z = np.array([0.3 + 1e-3j, -1.2 + 0.1j, 2.5 + 1.0j, 0.01 + 1e-6j])
    g = np.array([0.2 + 0.9j, -0.5 + 0.3j, 1.0 + 0.05j, 0.1 + 2.0j])

    def sweep(at):
        return limit_law._residual_and_slope(z, at, locs, wts * locs, wts * locs**2)

    step = 1e-6
    fd = (sweep(g + step)[0] - sweep(g - step)[0]) / (2 * step)
    slope = sweep(g)[1]
    assert np.all(np.abs(fd - slope) <= 1e-6 * np.maximum(1.0, np.abs(fd)))


@pytest.mark.parametrize("cells", [1, 10**12], ids=["one-lane-per-block", "one-block"])
def test_sweep_bits_do_not_depend_on_the_block_size(monkeypatch, cells):
    exp = quantize_measure(OnePlusExponential(1.0).normalized(), 2048)
    split = BOUND_SUITE_ATOMIC["two-atom split"]
    locs, wts = exp.as_arrays()
    rng = np.random.default_rng(7)
    # 37 lanes: not a multiple of the default block of 4 lanes at 2048 atoms
    z = rng.uniform(-3.5, 3.5, 37) + 1j * rng.uniform(1e-6, 1.0, 37)
    g = rng.uniform(-1.0, 1.0, 37) + 1j * rng.uniform(1e-3, 2.0, 37)

    def run():
        sweep = limit_law._residual_and_slope(z, g, locs, wts * locs, wts * locs**2)
        curves = (density_curve(exp, x_max=3.5, points=201),
                  density_curve(split, x_max=top_edge(split) + 0.25, points=2401))
        return sweep, curves

    (F, S), curves = run()
    monkeypatch.setattr(limit_law, "_SWEEP_CELLS", cells)
    (F_b, S_b), curves_b = run()
    assert np.array_equal(F, F_b) and np.array_equal(S, S_b)
    for curve, curve_b in zip(curves, curves_b):
        assert np.array_equal(curve.rho, curve_b.rho)
        assert np.array_equal(curve.residuals, curve_b.residuals)
        assert curve.iterations == curve_b.iterations


def unbinned(locs, wts):
    return locs, wts


def wide_law():
    """1000 atoms on a geometric grid from 1e-3 to 1e3, weights ∝ 1/d."""
    d = np.geomspace(1e-3, 1e3, 1000)
    return DiscreteMeasure(tuple(d), tuple((1.0 / d) / (1.0 / d).sum())).normalized()


def test_laws_without_shared_bins_solve_as_unbinned(monkeypatch):
    laws = {**BOUND_SUITE_ATOMIC, "three-atom (0.5, 1.4, 2.4)": THREE_ATOM}
    for name, nu in laws.items():
        locs, wts = nu.as_arrays()
        binned_locs, binned_wts = limit_law._binned(locs, wts)
        assert binned_locs is locs and binned_wts is wts, name
        x_max = top_edge(nu) + 0.25
        curve = density_curve(nu, x_max=x_max, points=401)
        with monkeypatch.context() as m:
            m.setattr(limit_law, "_binned", unbinned)
            reference = density_curve(nu, x_max=x_max, points=401)
        assert np.array_equal(curve.rho, reference.rho), name
        assert np.array_equal(curve.residuals, reference.residuals), name
        assert curve.iterations == reference.iterations, name


@pytest.mark.parametrize("law, x_max, points", [
    pytest.param(quantize_measure(OnePlusExponential(1.0).normalized(), 2048), 3.5, 201,
                 id="2048-atom-1+Exp"),
    pytest.param(quantize_measure(UniformLaw(0.0, 2.0).normalized(), 2048), 3.0, 201,
                 id="2048-atom-Uniform(0,2)"),
    pytest.param(wide_law(), 8.0, 401, id="1000-atom-geometric"),
])
def test_binned_first_stage_sweeps_fewer_cells_to_the_same_curve(monkeypatch, law, x_max,
                                                                  points):
    # measured: 0.64, 0.65 and 0.64 of the unbinned cells, the same
    # iterations in every stage, and |Δρ| at most 9.4e-14
    sweep = limit_law._residual_and_slope
    cells = []

    def counted(z, g, locs, *sums):
        cells[-1] += len(z) * len(locs)
        return sweep(z, g, locs, *sums)

    monkeypatch.setattr(limit_law, "_residual_and_slope", counted)
    cells.append(0)
    curve = density_curve(law, x_max=x_max, points=points)
    monkeypatch.setattr(limit_law, "_binned", unbinned)
    cells.append(0)
    reference = density_curve(law, x_max=x_max, points=points)
    assert np.max(np.abs(curve.rho - reference.rho)) <= 1e-11
    assert curve.iterations <= reference.iterations
    assert cells[0] <= 0.7 * cells[1]


def test_an_atom_at_zero_keeps_a_bin_of_its_own(monkeypatch):
    nu = DiscreteMeasure.from_pairs([(0.0, 0.2), (1.2, 0.3), (1.21, 0.3), (2.0, 0.2)]).normalized()
    locs, wts = nu.as_arrays()
    binned_locs, binned_wts = limit_law._binned(locs, wts)
    merged = wts[1] + wts[2]
    assert binned_locs.tolist() == [0.0, (wts[1] * locs[1] + wts[2] * locs[2]) / merged, locs[3]]
    assert binned_wts.tolist() == [wts[0], merged, wts[3]]
    xs = np.linspace(-2.5, 2.5, 11)
    g, res, iterations = solve_g(xs, nu)
    monkeypatch.setattr(limit_law, "_binned", unbinned)
    g_ref, _, iterations_ref = solve_g(xs, nu)
    assert np.all(res <= 1e-10)
    assert np.max(np.abs(g - g_ref)) <= 1e-8
    assert iterations <= iterations_ref


# -- transform of the symmetric law ---------------------------------------------


def test_transform_equals_g_for_unit_weights():
    # with a single unit atom the two transforms coincide identically
    for x in np.linspace(-3.0, 3.0, 20):
        z = complex(x, 1.0)
        assert abs(stieltjes_mu(z, DELTA_ONE) - solve_g(float(x), DELTA_ONE, 1.0)[0]) < 1e-9


def test_transform_odd_reflection_symmetry():
    for z in (0.7 + 0.4j, -1.3 + 0.2j, 2.5 + 1.1j):
        for nu in (TWO_ATOM, THREE_ATOM):
            f = stieltjes_mu(z, nu)
            f_ref = stieltjes_mu(complex(-z.real, z.imag), nu)
            assert abs(f_ref + f.conjugate()) < 1e-9


def test_transform_matches_quadrature_of_density_curve():
    curve = density_curve(DELTA_ONE, x_max=2.5, points=4001)
    for x in np.linspace(-2.0, 2.0, 10):
        z = complex(x, 0.5)
        direct = stieltjes_mu(z, DELTA_ONE)
        from_curve = cauchy_transform_quadrature(curve.grid, curve.rho, z)
        assert abs(direct - from_curve) < 5e-3


# -- independent route through the variant's transform h ----------------------------


def test_square_law_transform_cross_check():
    # h(w), the transform that support.xi inverts, from the one-variable fixed
    # point in w must agree with g(sqrt(w))/sqrt(w)
    for w in (2.0 + 0.5j, -1.0 + 0.3j, 0.5 + 1.0j, 4.0 + 0.01j):
        for nu in (DELTA_ONE, TWO_ATOM, THREE_ATOM):
            locs = np.array(nu.locations)
            wts = np.array(nu.weights)
            h_ref = solve_h_reference(w, locs, wts)
            z = np.sqrt(complex(w))
            h_via_g = solve_g(z.real, nu, z.imag)[0] / z
            assert abs(h_ref - h_via_g) < 1e-8


# -- vectorized real-line solves ---------------------------------------------------


def test_real_line_matches_pointwise_solves():
    xs = np.linspace(-2.0, 2.0, 9)
    g, res, _ = solve_g(xs, THREE_ATOM, eta=0.5)
    for k, x in enumerate(xs):
        g_k, res_k, _ = solve_g(float(x), THREE_ATOM, eta=0.5)
        assert abs(g[k] - g_k) < 1e-9
        assert res_k <= 1e-10
    assert np.all(res <= 1e-10)
    assert np.all(g.imag > 0)


def test_real_line_solution_invariants():
    xs = np.linspace(0.05, 3.5, 400)
    for nu in (DELTA_ONE, TWO_ATOM, THREE_ATOM):
        g, res, _ = solve_g(xs, nu)
        h = g / (xs + 1j * limit_law.DEFAULT_ETA)
        assert np.all(res <= 1e-10)
        assert np.all(g.imag > 0)
        # h = g/z has negative real part at positive arguments
        assert np.all(h.real < 0)


def test_real_line_rejects_bad_eta():
    for eta in (0.0, -1e-6, math.nan, math.inf):
        with pytest.raises(ValueError, match="eta"):
            solve_g(np.array([1.0]), DELTA_ONE, eta=eta)


@pytest.mark.parametrize("eta", [math.nan, 0.0, -1e-3])
def test_solve_rejects_bad_eta(eta):
    # the one routine every entry point reaches: nan failed as a
    # ConvergenceError, and 0 or a negative eta never left the schedule
    with pytest.raises(ValueError, match=re.escape(f"eta must lie in (0, inf) (got {eta!r})")):
        limit_law._solve(DELTA_ONE, np.array([1.0]), eta, limit_law.DEFAULT_TOL)


@pytest.mark.parametrize("eta", [0.0, -1e-6, 2.0, math.nan, math.inf])
def test_densities_reject_bad_eta(eta):
    with pytest.raises(ValueError, match=re.escape(f"eta must lie in (0, 1] (got {eta!r})")):
        density_curve(DELTA_ONE, x_max=2.0, points=21, eta=eta)


TOL_ENTRY_POINTS = {
    "solve_g": lambda tol: solve_g(0.0, DELTA_ONE, 1.0, tol=tol),
    "solve_g_array": lambda tol: solve_g(np.array([1.0]), DELTA_ONE, tol=tol),
    "stieltjes_mu": lambda tol: stieltjes_mu(0.5 + 1e-6j, DELTA_ONE, tol=tol),
    "density_curve": lambda tol: density_curve(DELTA_ONE, x_max=2.0, points=21, tol=tol),
}


@pytest.mark.parametrize("entry", sorted(TOL_ENTRY_POINTS))
@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_entry_points_reject_bad_tol(entry, tol):
    # tol=nan stopped at once with garbage and tol=0 iterated to max_iter
    with pytest.raises(ValueError, match="tol"):
        TOL_ENTRY_POINTS[entry](tol)


NON_FINITE_ENTRY_POINTS = {
    "solve_g": lambda x: solve_g(x, DELTA_ONE),
    "solve_g_array": lambda x: solve_g(np.array([0.5, x]), DELTA_ONE),
    "stieltjes_mu": lambda x: stieltjes_mu(complex(x, 1.0), DELTA_ONE),
    "density_curve": lambda x: density_curve(DELTA_ONE, x_max=x, points=21),
}


@pytest.mark.parametrize("entry", sorted(NON_FINITE_ENTRY_POINTS))
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_entry_points_reject_non_finite_x(entry, x):
    with pytest.raises(ValueError, match="finite") as info:
        NON_FINITE_ENTRY_POINTS[entry](x)
    assert f"(got {x!r})" in str(info.value) or f"(got {abs(x)!r})" in str(info.value)


def test_nan_residual_fails_and_names_the_point(monkeypatch):
    iterate = limit_law._iterate_many

    def poisoned(z, *args):
        g, res, iterations = iterate(z, *args)
        res[z.real == 0.5] = math.nan
        return g, res, iterations

    monkeypatch.setattr(limit_law, "_iterate_many", poisoned)
    with pytest.raises(ConvergenceError) as info:
        solve_g(np.array([0.25, 0.5, 0.75]), THREE_ATOM)
    assert math.isnan(info.value.best_residual)
    assert "1 of 3 points failed (worst residual nan at x=0.5," in str(info.value)


# -- densities ------------------------------------------------------------------


def test_symmetric_density_values_for_unit_weights():
    # rho(0) = 1/pi, rho(+-1) = sqrt(3)/(2*pi), tail at 2.5 vanishes
    curve = density_curve(DELTA_ONE, x_max=2.5, points=11)
    rho = dict(zip(curve.grid.tolist(), curve.rho.tolist()))
    assert abs(rho[0.0] - 1 / math.pi) < 1e-4
    assert rho[1.0] == rho[-1.0]  # evaluated through |x|: even exactly
    assert abs(rho[1.0] - math.sqrt(3) / (2 * math.pi)) < 1e-5
    assert rho[2.5] < 1e-4


# -- soft edges: the support scan against the fixed point --------------------------


def critical_brackets(nu, top_only=False):
    """Grid cells of each pole-free v < 0 interval across which xi' changes sign."""
    locs = np.array([d for d in nu.locations if d > 0])
    poles = np.append(np.sort(-1.0 / locs), 0.0)
    pairs = list(zip(poles[:-1], poles[1:]))
    for lo, hi in pairs[-1:] if top_only else pairs:
        v = np.linspace(lo, hi, 4001)[1:-1]
        below = xi(v, nu)[1] < 0
        for k in np.flatnonzero(below[:-1] != below[1:]):
            yield v[k], v[k + 1]


def test_soft_edges_match_the_support_scan_and_the_fixed_point():
    # Every critical point of xi is an edge of support_mp, and near it the
    # density from stieltjes_mu follows oracles.edge_density's square root.
    # delta is c × the width W of the narrower neighbouring interval or gap
    # (the split law's inner edges are 3.7e-3 apart), eta = 1e-3 × delta in
    # y-units. The worst relative error measured is 0.75·c (two-atom split
    # top edge at c = 1e-4, quantized 1+Exp at c = 1e-3); the bound 2·c
    # leaves a factor 2.7. A 1% error in ρ, or an edge moved by 1e-6
    # relative, fails it. The quantized law is scanned only above its top
    # pole: its 2047 interior pole gaps take seconds, and hold no edge.
    exp = quantize_measure(OnePlusExponential(1.0).normalized(), 2048)
    for name, nu in {**BOUND_SUITE_ATOMIC, "quantized 1+Exp": exp}.items():
        support = support_mp(nu)
        ends = sorted({end for piece in support for end in piece})
        soft = [end for end in ends if end > 0]
        found = [edge_density(nu, lo, hi) for lo, hi in critical_brackets(nu, top_only=nu is exp)]
        assert len(found) == len(soft), (name, found, soft)
        for (v_e, x_e, curvature), edge in zip(sorted(found, key=lambda c: c[1]), soft):
            assert abs(x_e - edge) <= 1e-12 * edge, (name, x_e, edge)
            k = ends.index(edge)
            width = min(np.diff(ends)[k - 1:k + 1])
            for c in (1e-3, 1e-4):
                delta = c * width
                # into the support: below an edge that closes an interval (xi'' > 0)
                y = math.sqrt(x_e - math.copysign(delta, curvature))
                predicted = 2 * abs(v_e) * y * math.sqrt(2 * delta / abs(curvature)) / math.pi
                eta = 1e-3 * delta / (2 * y)
                rho = stieltjes_mu(complex(y, eta), nu, tol=1e-13).imag / math.pi
                assert abs(rho / predicted - 1) <= 2 * c, (name, edge, c, rho, predicted)


# -- sampled curves ----------------------------------------------------------------


def test_symmetric_grid_odd_and_even():
    assert symmetric_grid(2.0, 5).tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]
    even = symmetric_grid(2.0, 4)
    assert even[-1] == 2.0 and 0.0 not in even
    for pts in (4, 5, 8, 11):
        grid = symmetric_grid(3.0, pts)
        assert np.array_equal(grid, -grid[::-1])
    with pytest.raises(ValueError):
        symmetric_grid(2.0, 1)
    with pytest.raises(ValueError):
        symmetric_grid(0.0, 4)


@pytest.mark.parametrize("x_max", [math.nan, math.inf, -math.inf])
def test_symmetric_grid_rejects_non_finite_x_max(x_max):
    with pytest.raises(ValueError, match="x_max"):
        symmetric_grid(x_max, 11)


def test_curve_is_exactly_symmetric_with_unit_mass():
    curve = density_curve(DELTA_ONE, x_max=2.5, points=401)
    assert np.array_equal(curve.rho, curve.rho[::-1])
    assert 0.995 <= curve.mass <= 1.005
    assert np.all(curve.residuals <= 1e-10)


def test_curve_second_moment_matches_weight_mean():
    curve = density_curve(THREE_ATOM, x_max=3.6, points=2401)
    assert abs(curve.second_moment() - 1.0) < 5e-3


def test_curve_moments_match_plane_tree_moments():
    # m_2k of nu ⊠ semicircle depends on nu from m_4 = 2E[D²] on, which the
    # unit second moment cannot see. On gate 5's grid the worst relative
    # error over 2k ≤ 8 is 8.1e-5 (two-atom split, m_8); the bound leaves
    # a factor of about 12, while a semicircle answer misses m_4 by 100%.
    laws = {**BOUND_SUITE_ATOMIC,
            "quantized 1+Exp": quantize_measure(OnePlusExponential(1.0).normalized(), 2048)}
    for name, nu in laws.items():
        curve = density_curve(nu, x_max=top_edge(nu) + 0.25, points=2401, eta=1e-6)
        exact = tree_moments(nu.moment, 4)
        for k in range(1, 5):
            got = float(np.trapezoid(curve.grid ** (2 * k) * curve.rho, curve.grid))
            assert abs(got / exact[k] - 1.0) <= 1e-3, (name, 2 * k, got, exact[k])


def test_curve_matches_the_spectrum_of_the_wigner_model():
    # D^{1/2}·W·D^{1/2} at n = 2000, d at the n quantile midpoints of nu,
    # against the curve's CDF: no graph and no solver on the reference side.
    # Over seeds 0–11 on each law the distance read 0.00155–0.00215; a top
    # atom 5% too large read 0.0167 on the point mass and 0.0046 on the
    # connected two-atom law, and the curve stretched in x by 1.01 read at
    # least 0.0030 on every law and seed. The test runs seed k on the k-th law.
    laws = {**BOUND_SUITE_ATOMIC,
            "quantized 1+Exp": quantize_measure(OnePlusExponential(1.0).normalized(), 2048)}
    n = 2000
    for seed, (name, nu) in enumerate(laws.items()):
        locs, wts = nu.as_arrays()
        d = locs[np.searchsorted(np.cumsum(wts), (np.arange(n) + 0.5) / n)]
        curve = density_curve(nu, x_max=top_edge(nu) + 0.25, points=2001)
        distance = kolmogorov_vs_cdf(wigner_model_eigenvalues(d, seed), curve.cdf)
        assert distance < 0.003, (name, distance)


def test_curve_cdf_endpoints_and_monotonicity():
    curve = density_curve(DELTA_ONE, x_max=2.5, points=401)
    xs = np.linspace(-2.5, 2.5, 50)
    cdf = curve.cdf(xs)
    assert cdf[0] == 0.0
    assert math.isclose(cdf[-1], curve.mass, rel_tol=1e-12)
    assert np.all(np.diff(cdf) >= 0)


def test_point_density_equals_curve_at_every_node():
    # each |x| is solved on its own lane, so a grid holding only ±x (or 0,
    # whose value comes from the nodes 0.01 and 0.02) gives the same bits;
    # the 201-point grid holds 0.01 and 0.02 themselves, solved twice
    for nu, (x_max, points) in itertools.product((DELTA_ONE, THREE_ATOM), ((3.0, 21), (1.0, 201))):
        curve = density_curve(nu, x_max=x_max, points=points)
        assert 0.0 in curve.grid
        alone = [density_curve(nu, x_max=abs(x), points=2).rho[1] if x
                 else density_curve(nu, x_max=0.02, points=3).rho[1] for x in curve.grid]
        assert alone == curve.rho.tolist()


def test_curve_rejects_zero_node_with_zero_mass():
    nu = DiscreteMeasure.from_pairs([(0.0, 0.5), (2.0, 0.5)])
    with pytest.raises(ValueError):
        density_curve(nu, x_max=3.0, points=101)


def test_curve_csv_format(tmp_path):
    curve = density_curve(DELTA_ONE, x_max=2.0, points=21)
    path = tmp_path / "curve.csv"
    curve.to_csv(path, metadata={"label": "demo"})
    lines = path.read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert any(l.startswith("# eta_final=") for l in meta)
    assert any(l.startswith("# measure_hash=") for l in meta)
    assert any(l.startswith("# mass=") for l in meta)
    assert "# label=demo" in meta
    assert meta == sorted(meta)
    body = lines[len(meta):]
    assert body[0] == "x,rho"
    assert len(body) == 22


# -- quantization -------------------------------------------------------------------


def test_quantize_passes_atoms_through():
    assert quantize_measure(DELTA_ONE) is DELTA_ONE


def test_quantize_uniform_two_atoms():
    q = quantize_measure(UniformLaw(0.0, 2.0), m=2)
    assert np.allclose(q.locations, [0.5, 1.5], atol=1e-12)
    assert np.allclose(q.weights, [0.5, 0.5], atol=1e-15)


def test_quantize_pins_the_mean():
    law = OnePlusExponential(rate=1.0).normalized()
    for m in (2, 16, 512):
        q = quantize_measure(law, m=m)
        assert abs(q.mean() - law.mean()) < 1e-9


def test_quantize_rejects_single_atom_budget():
    with pytest.raises(ValueError):
        quantize_measure(UniformLaw(0.0, 2.0), m=1)


# -- mass at the origin ---------------------------------------------------------------


def origin_mass(nu, eta=1e-4):
    """−Re(iη·f(iη)): tends to the limit law's mass at 0 as η → 0."""
    return float(-(1j * eta * stieltjes_mu(1j * eta, nu)).real)


def test_origin_mass_detects_zero_atoms():
    nu = DiscreteMeasure.from_pairs([(0.0, 0.5), (2.0, 0.5)])
    assert abs(origin_mass(nu) - 0.5) < 1e-3
    assert origin_mass(DELTA_ONE) < 1e-3
