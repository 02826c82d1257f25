"""End-to-end acceptance gates, one test per numbered criterion.

Every test is independently runnable and prints a single summary line when
it passes (surfaced on green runs via the -rP report option).  Tolerances
and sample budgets are the contract these gates enforce; none of them are
tuned to implementation internals.
"""

import math
import time

import numpy as np
import pytest

from sparsespectra import (
    DegreeSequence,
    DiscreteMeasure,
    OnePlusExponential,
    TwoAtomLaw,
    build_degree_sequence,
    density_curve,
    eigenvalues_symmetric,
    kolmogorov_distance,
    kolmogorov_vs_cdf,
    quantize_measure,
    sample_configuration,
    sample_poissonized,
    scaled_adjacency,
    solve_g,
    stieltjes_mu,
    support_mp,
    two_atom_discriminant,
    two_atom_has_hole,
    two_atom_threshold,
    xi,
)

from oracles import cauchy_transform_quadrature, semicircle_density

DELTA_ONE = DiscreteMeasure.from_pairs([(1.0, 1.0)])
TWO_ATOM_SPLIT = TwoAtomLaw(alpha=7.0, beta=0.5).measure()
TWO_ATOM_CONNECTED = TwoAtomLaw(alpha=3.0, beta=0.5).measure()
THREE_ATOM = DiscreteMeasure.from_pairs(
    [(1.0 / 2.12, 0.5), (3.0 / 2.12, 0.49), (15.0 / 2.12, 0.01)]
)


def bound_suite_measures():
    """The five weight laws the transform bounds are audited on."""
    return [
        ("point mass", DELTA_ONE),
        ("two-atom split", TWO_ATOM_SPLIT),
        ("two-atom connected", TWO_ATOM_CONNECTED),
        ("three-atom", THREE_ATOM),
        ("quantized 1+Exp", quantize_measure(OnePlusExponential(1.0).normalized(), 2048)),
    ]


def top_edge(nu):
    return support_mp(nu).symmetric_image().intervals[-1][1]


def sampled_eigenvalues(nu, n, seed):
    """Configuration-model draw at omega = ceil(sqrt(n)), spectrum of A-hat."""
    seq = build_degree_sequence(
        nu, n, math.ceil(math.sqrt(n))
    )
    graph = sample_configuration(seq, seed=seed)
    return eigenvalues_symmetric(scaled_adjacency(graph, seq.omega))


def test_criterion_01_semicircle_density_recovery():
    t0 = time.perf_counter()
    curve = density_curve(DELTA_ONE, x_max=3.0, points=601, eta=1e-6)
    elapsed = time.perf_counter() - t0
    xs = np.asarray(curve.grid)
    err = np.abs(np.asarray(curve.rho) - semicircle_density(xs))
    away_from_edges = np.abs(np.abs(xs) - 2.0) > 0.05
    worst = float(err[away_from_edges].max())
    assert worst <= 1e-4
    assert elapsed < 10.0
    print(
        f"PASS criterion 1: unit point mass gives the semicircle on 601 points, "
        f"max error {worst:.2e} away from the edges ({elapsed:.2f}s)"
    )


def test_criterion_02_unit_mass_support_endpoints():
    sup = support_mp(DELTA_ONE).symmetric_image()
    assert len(sup.intervals) == 1
    lo, hi = sup.intervals[0]
    assert abs(lo + 2.0) <= 1e-8
    assert abs(hi - 2.0) <= 1e-8
    # the stationary point that produces those endpoints, in closed form
    value, slope = xi(-0.5, DELTA_ONE)
    assert value == pytest.approx(4.0, abs=1e-12)
    assert slope == pytest.approx(0.0, abs=1e-12)
    print(
        f"PASS criterion 2: scanned support [{lo:.10f}, {hi:.10f}] hits "
        f"[-2, 2] within 1e-8, with xi(-1/2) = 4 and xi'(-1/2) = 0"
    )


def test_criterion_03_two_atom_split_equivalence():
    betas = np.linspace(0.05, 0.95, 50)
    alphas = np.linspace(1.0, 20.0, 51)[1:]  # the law needs alpha > 1
    disagreements = 0
    for beta in betas:
        for alpha in alphas:
            law = TwoAtomLaw(float(alpha), float(beta))
            if two_atom_has_hole(law) != (two_atom_discriminant(law) > 0):
                disagreements += 1
    assert disagreements == 0

    # bisection on the discriminant sign at beta = 1/2
    lo, hi = 2.0, 15.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if two_atom_discriminant(TwoAtomLaw(mid, 0.5)) > 0:
            hi = mid
        else:
            lo = mid
    crossing = 0.5 * (lo + hi)
    assert abs(crossing - 6.771) <= 1e-3

    # phase boundary: strictly decreasing, from near 9 down toward 2
    thresholds = np.array([two_atom_threshold(float(b)) for b in betas])
    assert np.all(np.diff(thresholds) < 0.0)
    assert 8.0 < thresholds[0] < 10.0
    assert 2.0 < two_atom_threshold(1.0 - 1e-9) < 2.01
    print(
        f"PASS criterion 3: hole flag matches discriminant sign on all 2500 "
        f"grid cells; beta=0.5 crossing at alpha={crossing:.6f}; boundary "
        f"falls {thresholds[0]:.2f} -> {thresholds[-1]:.2f} over beta"
    )


def test_criterion_04_transform_bound_suite():
    worst = {"|g|": -math.inf, "sym": -math.inf, "cube": -math.inf, "re_h": -math.inf}
    points = 0
    for name, nu in bound_suite_measures():
        x_max = 1.1 * top_edge(nu) + 0.5
        curve = density_curve(nu, x_max=x_max, points=400, eta=1e-6, tol=1e-10)
        xs = np.asarray(curve.grid)  # even count: 0 is never a grid point
        rho = np.asarray(curve.rho)
        g, _, _ = solve_g(xs, nu, eta=1e-6, tol=1e-10)
        h = g / (xs + 1e-6j)
        cap = np.minimum(1.0, 2.0 / np.abs(xs))
        margins = {
            "|g|": np.abs(g) - cap,
            "sym": np.abs(xs) * h.imag - cap,  # pi times the symmetrized density
            "cube": np.pi * rho - 4.0 / np.abs(xs) ** 3,
            "re_h": h.real,
        }
        assert np.all(margins["|g|"] <= 0.0), name
        assert np.all(margins["sym"] <= 0.0), name
        assert np.all(margins["cube"] <= 0.0), name
        assert np.all(margins["re_h"] < 0.0), name
        for key, values in margins.items():
            worst[key] = max(worst[key], float(values.max()))
        points += xs.size
    report = ", ".join(f"{k} {v:+.1e}" for k, v in worst.items())
    print(
        f"PASS criterion 4: zero violations over {points} solved points on 5 "
        f"measures (worst margins: {report})"
    )


def test_criterion_05_mass_and_second_moment():
    report = []
    for name, nu in bound_suite_measures():
        assert nu.mass_at(0.0) == 0.0
        curve = density_curve(nu, x_max=top_edge(nu) + 0.25, points=2401, eta=1e-6)
        mass_err = abs(curve.mass - 1.0)
        moment_err = abs(curve.second_moment() - 1.0)
        assert mass_err <= 5e-3, name
        assert moment_err <= 5e-3, name
        report.append(f"{name} {mass_err:.0e}/{moment_err:.0e}")
    print(
        "PASS criterion 5: density mass and second moment both within 5e-3 "
        "on all 5 measures (" + ", ".join(report) + ")"
    )


def test_criterion_06_sampled_esd_converges_to_limit():
    sizes = (500, 2000, 4000)
    report = []
    for name, nu in (("point mass", DELTA_ONE), ("two-atom", TWO_ATOM_CONNECTED)):
        curve = density_curve(nu, x_max=top_edge(nu) + 1.0, points=1601, eta=1e-6)
        distances = {n: [] for n in sizes}
        slowest = 0.0
        for seed in range(10):
            for n in sizes:
                t0 = time.perf_counter()
                eigs = sampled_eigenvalues(nu, n, seed)
                distances[n].append(kolmogorov_vs_cdf(eigs, curve.cdf))
                if n == 2000:
                    slowest = max(slowest, time.perf_counter() - t0)
        hits = sum(d < 0.05 for d in distances[2000])
        improved = sum(
            late < early for early, late in zip(distances[500], distances[4000])
        )
        chain = sum(
            a > b > c
            for a, b, c in zip(distances[500], distances[2000], distances[4000])
        )
        assert hits >= 8, name
        assert improved >= 8, name
        assert slowest < 300.0, name
        report.append(
            f"{name}: {hits}/10 seeds below 0.05 at n=2000 "
            f"(median {np.median(distances[2000]):.4f}), {improved}/10 improved "
            f"500->4000, full chain {chain}/10, slowest n=2000 leg {slowest:.1f}s"
        )
    print("PASS criterion 6: " + "; ".join(report))


def test_criterion_07_disconnected_support_gap_mass():
    square = support_mp(THREE_ATOM, min_gap=1e-3)
    assert len(square.intervals) >= 2
    gaps = square.symmetric_image().gaps()
    assert gaps
    eigs = sampled_eigenvalues(THREE_ATOM, 1000, seed=0)
    in_gap = np.zeros(eigs.shape, dtype=bool)
    for lo, hi in gaps:
        in_gap |= (eigs > lo) & (eigs < hi)
    fraction = float(in_gap.mean())
    assert fraction < 0.02
    print(
        f"PASS criterion 7: square-law support has {len(square.intervals)} "
        f"components and {int(in_gap.sum())}/1000 sampled eigenvalues "
        f"({fraction:.2%}) fall inside the spectral gaps"
    )


def test_criterion_08_poissonized_coupling_distance():
    distances = {}
    for n in (500, 2000):
        seq = build_degree_sequence(
            TWO_ATOM_CONNECTED, n, math.ceil(math.sqrt(n))
        )
        pairs = []
        for s in range(5):
            matched = sample_configuration(seq, seed=10 * s + 1)
            poisson = sample_poissonized(seq, seed=10 * s + 2)
            law_m = DiscreteMeasure.from_samples(
                eigenvalues_symmetric(scaled_adjacency(matched, seq.omega)))
            law_p = DiscreteMeasure.from_samples(
                eigenvalues_symmetric(scaled_adjacency(poisson, seq.omega)))
            pairs.append(kolmogorov_distance(law_m, law_p))
        distances[n] = pairs
    assert all(d < 0.08 for d in distances[2000])
    assert np.median(distances[2000]) < np.median(distances[500])
    print(
        f"PASS criterion 8: matched-vs-poissonized spectra stay within "
        f"{max(distances[2000]):.4f} at n=2000 on all 5 paired seeds "
        f"(median {np.median(distances[2000]):.4f}, down from "
        f"{np.median(distances[500]):.4f} at n=500)"
    )


def test_criterion_09_sampler_degree_exactness():
    checked = 0
    for nu in (DELTA_ONE, TWO_ATOM_CONNECTED, THREE_ATOM):
        for n, seed in ((50, 0), (500, 1)):
            seq = build_degree_sequence(nu, n, 11)
            graph = sample_configuration(seq, seed=seed)
            assert tuple(graph.degrees().tolist()) == seq.degrees
            checked += 1
    seq = build_degree_sequence(
        OnePlusExponential(1.0), 200, 9, seed=3
    )
    graph = sample_configuration(seq, seed=4)
    assert tuple(graph.degrees().tolist()) == seq.degrees
    checked += 1

    # two degree-2 vertices: a doubled edge (2/3) or one loop at each (1/3)
    pair = DegreeSequence((2, 2))
    rng = np.random.default_rng(314159)
    draws = 100_000
    doubled = sum(
        (g.edges_i < g.edges_j).any()
        for g in (sample_configuration(pair, seed=rng) for _ in range(draws))
    )
    frequency = doubled / draws
    sigma = math.sqrt((2 / 3) * (1 / 3) / draws)
    assert abs(frequency - 2 / 3) <= 3 * sigma
    print(
        f"PASS criterion 9: degrees reproduced exactly on {checked}/{checked} "
        f"samples; doubled-edge frequency {frequency:.4f} vs 2/3 "
        f"({abs(frequency - 2 / 3) / sigma:.2f} sigma over {draws} draws)"
    )


def test_criterion_10_cauchy_kernel_inversion():
    zs = np.linspace(-3.0, 3.0, 10) + 0.5j
    worst = 0.0
    for name, nu in (("point mass", DELTA_ONE), ("two-atom", TWO_ATOM_CONNECTED)):
        curve = density_curve(nu, x_max=top_edge(nu) + 1.0, points=4001, eta=1e-6)
        for z in zs:
            quad = cauchy_transform_quadrature(curve.grid, curve.rho, complex(z))
            worst = max(worst, abs(quad - stieltjes_mu(complex(z), nu)))
    assert worst < 5e-3
    print(
        f"PASS criterion 10: Cauchy-kernel quadrature of the density matches "
        f"the transform at 10 half-plane points x 2 measures "
        f"(worst error {worst:.1e})"
    )
