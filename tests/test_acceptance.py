"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured numbers (run with ``pytest -s`` to see them inline).

Criterion 3 is the slowest (it refines every broadband catalog entry to
solver precision and locates six tolerance bands); the whole module is
budgeted well inside the per-criterion time limits asserted below.
"""

import time
import numpy as np
from math import acos, cos, pi, sqrt

from cpgates import catalog
from cpgates.abserr import AbsoluteComposite, wrap_sequence_absolute
from cpgates.analysis import infidelity_order, scan, sequence_fidelity, tolerance_band
from cpgates.derivatives import derivative_sequence
from cpgates.gates import (
    CompositeSequence,
    PhasedGate,
    convert_phase_conventions,
    ideal_cphase,
    phase_gate,
    phased_cphase,
    sequence_propagator,
)
from cpgates.iontrap import (
    TrapConfig,
    analytic_propagator,
    composite_physical_gate,
    evolve_numerical,
    two_pulse_gate,
)
from cpgates.linalg import frobenius_norm, is_unitary, sigma_axis
from cpgates.solver import SolverConfig, solve
from oracles import (
    BROADBAND_TOLERANCE_BANDS, BROADBAND_TOTAL_ANGLES, absolute_composite_propagator,
    broadband_problem, extract_qubit_gate, fock_population, pauli_string_matrix,
    pauli_string_product, propagator_distance, reduced_narrowband_conditions,
)

TH = pi / 4
PASS = "ACCEPTANCE %d PASS: %s"


def _phases_match(candidate, reference, tol=1e-6):
    c, r = np.asarray(candidate), np.asarray(reference)
    return any(
        np.max(np.abs(np.mod(s * c - r + pi, 2 * pi) - pi)) < tol for s in (1.0, -1.0)
    )


def test_criterion_1_single_gate_band():
    t0 = time.time()
    band = tolerance_band(catalog.single(TH))
    width = band.symmetric_width()
    elapsed = time.time() - t0
    assert abs(width - 0.018) <= 1e-3
    assert elapsed < 1.0
    print(PASS % (1, f"single-gate band |eps| < {width:.4f} (expect 0.018), {elapsed:.2f}s"))


def test_criterion_2_analytic_solver_solutions():
    details = []
    for theta in (pi / 8, TH, pi / 2):
        t0 = time.time()
        p1 = broadband_problem(1, theta, 2, free_terminal=True)
        r1 = solve(p1, SolverConfig(rng_seed=7, max_restarts=500))
        t1 = time.time() - t0
        assert r1.converged and r1.residual_D <= 1e-10
        assert t1 < 10.0
        phi = acos(-theta / pi)
        got = [g.phi for g in r1.sequence.gates[1:]] + [r1.sequence.terminal_phase]
        assert _phases_match(got, [phi, 3 * phi, -2 * phi])

        t0 = time.time()
        p2 = broadband_problem(2, theta, 4)
        r2 = solve(p2, SolverConfig(rng_seed=7, max_restarts=500))
        t2 = time.time() - t0
        assert r2.converged and r2.residual_D <= 1e-10
        assert t2 < 10.0
        phi2 = acos(-theta / (2 * pi))
        got2 = [g.phi for g in r2.sequence.gates[1:]]
        assert _phases_match(got2, [phi2, 3 * phi2, 3 * phi2, phi2])
        details.append(f"theta={theta/pi:.3g}pi ({t1:.2f}s, {t2:.2f}s)")
    print(PASS % (2, "first/second-order phases recovered at " + "; ".join(details)))


def test_criterion_3_tolerance_ladder():
    t0 = time.time()
    widths = {}
    for n in catalog.BROADBAND_ORDERS:
        seq = catalog.broadband(n, TH)
        expected_total = BROADBAND_TOTAL_ANGLES[n] * pi
        assert abs(seq.total_angle() - expected_total) < 1e-12
        widths[n] = tolerance_band(seq).symmetric_width()
        assert abs(widths[n] - BROADBAND_TOLERANCE_BANDS[n]) <= 0.02
    assert all(widths[n + 1] > widths[n] for n in range(1, 6))
    elapsed = time.time() - t0
    assert elapsed < 600.0
    summary = " ".join(f"n={n}:{widths[n]:.3f}" for n in catalog.BROADBAND_ORDERS)
    print(PASS % (3, f"bands {summary} ({elapsed:.1f}s)"))


def test_criterion_4_order_scaling():
    t0 = time.time()
    windows = {1: (1e-3, 1e-2), 2: (5e-3, 3e-2), 3: (2e-2, 7e-2), 4: (4e-2, 1e-1)}
    slopes = {}
    for n in (1, 2, 3, 4):
        slopes[n] = infidelity_order(catalog.broadband(n, TH), windows[n])
        assert abs(slopes[n] - (2 * n + 2)) <= 0.3
    elapsed = time.time() - t0
    assert elapsed < 60.0
    summary = " ".join(f"n={n}:{slopes[n]:.2f}" for n in (1, 2, 3, 4))
    print(PASS % (4, f"fitted infidelity orders {summary} ({elapsed:.1f}s)"))


def test_criterion_5_passband():
    t0 = time.time()
    c1, _ = reduced_narrowband_conditions(catalog.passband(1, 1, TH))
    assert abs(c1) <= 1e-9
    c1b, c2b = reduced_narrowband_conditions(catalog.passband(2, 2, TH))
    assert abs(c1b) <= 1e-9 and abs(c2b) <= 1e-9

    identity = np.eye(4, dtype=complex)
    for n1, n2 in catalog.PASSBAND_ORDERS:
        seq = catalog.passband(n1, n2, TH)
        u = sequence_propagator(seq, epsilon=-1.0)
        assert abs(abs(np.trace(u)) / 4 - 1.0) <= 1e-8

    # shape of the combined curve: a plateau around eps=0 against the
    # target and a flat suppression region around eps=-1 against identity
    seq33 = catalog.passband(3, 3, TH)
    grid = np.linspace(-0.3, 0.3, 121)
    plateau = [e for e in grid if 1 - sequence_fidelity(seq33, e) <= 1e-4]
    width0 = max(abs(min(plateau)), 1e-9) if plateau else 0.0
    gridn = np.linspace(-1.3, -0.7, 121)
    flat = [
        e
        for e in gridn
        if 1 - abs(np.trace(sequence_propagator(seq33, e))) / 4 <= 1e-4
    ]
    width1 = (max(flat) - min(flat)) / 2 if flat else 0.0
    assert width0 > 0.02 and width1 > 0.02
    assert 1 - sequence_fidelity(seq33, 0.0) <= 1e-8
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(
        PASS
        % (5, f"reduced conditions ok; eps=0 plateau half-width {width0:.3f}, "
               f"eps=-1 suppression half-width {width1:.3f} ({elapsed:.1f}s)")
    )


def test_criterion_6_absolute_errors():
    t0 = time.time()
    worst = 0.0
    for theta in np.linspace(0.05, pi, 20):
        for phi in np.linspace(0, 2 * pi, 20, endpoint=False):
            c = AbsoluteComposite(theta, phi)
            clean = absolute_composite_propagator(c, 0.0)
            for xi in np.linspace(-1.5, 1.5, 20):
                worst = max(worst, frobenius_norm(absolute_composite_propagator(c, xi) - clean))
    assert worst <= 1e-12

    wrapped = wrap_sequence_absolute(catalog.broadband(1, TH))
    assert len(wrapped.gates) == 6
    slope = infidelity_order(wrapped, xi=0.3)
    assert abs(slope - 4.0) <= 0.3
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(PASS % (6, f"offset cancels to {worst:.2e}; wrapped slope {slope:.2f} ({elapsed:.1f}s)"))


def test_criterion_7_ion_trap():
    t0 = time.time()
    # (a) closed form against the integrator on a 10-point grid, gT up to 5
    grid = [
        TrapConfig(g=1 / sqrt(32), delta=1.0, duration=2 * pi, n_max=25),
        TrapConfig(g=0.05, delta=1.0, duration=3.0, n_max=20),
        TrapConfig(g=0.1, delta=1.0, duration=1.5 * pi, zeta_plus=(0.0, 0.7), n_max=22),
        TrapConfig(g=0.1, delta=-1.0, duration=4.0, zeta_plus=(0.4, 1.2), n_max=22),
        TrapConfig(g=0.12, delta=1.0, duration=7.0, zeta_minus=(0.3, 0.3), n_max=24),
        TrapConfig(g=0.15, delta=1.3, duration=5.0, zeta_plus=(0.2, 2.1), n_max=22),
        TrapConfig(g=0.08, delta=1.0, duration=10.0, n_max=20),
        TrapConfig(g=0.2, delta=1.0, duration=25.0, n_max=25),  # gT = 5
        TrapConfig(g=0.18, delta=1.0, duration=2 * pi, zeta_minus=(0.5, 1.7), n_max=25),
        TrapConfig(g=0.1, delta=1.0, duration=12.0, zeta_plus=(1.0, 0.3),
                   zeta_minus=(0.2, 0.2), n_max=22),
    ]
    worst = 0.0
    for cfg in grid:
        d = propagator_distance(evolve_numerical(cfg), analytic_propagator(cfg), cfg)
        worst = max(worst, d)
    assert worst <= 1e-6

    # (b) vibrational restoration for ground and excited initial levels
    cfg = TrapConfig(g=1 / sqrt(32), delta=1.0, duration=2 * pi, n_max=25)
    u2 = two_pulse_gate(cfg)
    for level in (0, 3):
        for q in range(4):
            state = np.zeros(4)
            state[q] = 1.0
            assert fock_population(u2, cfg, state, level) >= 1 - 1e-6

    # (c) composite beats the single gate at eps_g = 0.05
    eps_g = 0.05
    eps_eff = (1 + eps_g) ** 2 - 1
    seq = catalog.broadband(2, TH)
    u = composite_physical_gate(seq, cfg, eps_g)
    q = extract_qubit_gate(u, cfg)
    infid_composite = 1 - abs(np.trace(ideal_cphase(TH).conj().T @ q)) / 4
    assert infid_composite <= 1e-4

    u1 = composite_physical_gate(catalog.single(TH), cfg, eps_g)
    q1 = extract_qubit_gate(u1, cfg)
    infid_single = 1 - abs(np.trace(ideal_cphase(TH).conj().T @ q1)) / 4
    assert infid_single > 1e-4
    assert abs(infid_single - (1 - cos(TH * eps_eff))) < 1e-4
    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(
        PASS
        % (7, f"closed form vs integrator {worst:.2e}; composite infidelity "
               f"{infid_composite:.2e} vs single {infid_single:.2e} ({elapsed:.1f}s)")
    )


def test_criterion_8_property_suites():
    t0 = time.time()
    rng = np.random.default_rng(2024)

    # unitarity of phased gates and error-distorted sequences
    for _ in range(200):
        u = phased_cphase(rng.uniform(-2 * pi, 2 * pi), rng.uniform(0, 2 * pi))
        assert is_unitary(u)

    # analytic derivative against finite differences
    for _ in range(200):
        gates = tuple(
            PhasedGate(rng.uniform(0.3, pi / 2), rng.uniform(0, 2 * pi))
            for _ in range(int(rng.integers(1, 4)))
        )
        seq = CompositeSequence(gates=gates, terminal_phase=rng.uniform(-pi, pi))
        l = int(rng.integers(1, 3))
        h = 1e-3
        f = lambda e: sequence_propagator(seq, e)
        if l == 1:
            fd = (-f(2 * h) + 8 * f(h) - 8 * f(-h) + f(-2 * h)) / (12 * h)
        else:
            fd = (-f(2 * h) + 16 * f(h) - 30 * f(0) + 16 * f(-h) - f(-2 * h)) / (12 * h**2)
        an = derivative_sequence(seq, l)
        assert frobenius_norm(an - fd) / frobenius_norm(an) < 1e-5

    # pauli-string closed form against explicit products
    for _ in range(200):
        phis = rng.uniform(0, 2 * pi, int(rng.integers(1, 7)))
        explicit = np.eye(2, dtype=complex)
        for p in phis:
            explicit = explicit @ sigma_axis(p)
        assert frobenius_norm(explicit - pauli_string_matrix(*pauli_string_product(phis))) < 1e-12

    # phase-convention conversion: propagator equality and round trip
    from cpgates.gates import interleaved_from_phases

    for _ in range(200):
        n = int(rng.integers(1, 6))
        thetas = rng.uniform(0.1, pi, n + 1)
        varphis = rng.uniform(-pi, pi, n)
        phis, term = convert_phase_conventions(varphis)
        lhs = phased_cphase(thetas[0], 0.0)
        for th, w in zip(thetas[1:], varphis):
            lhs = phased_cphase(th, 0.0) @ phase_gate(w, 2) @ lhs
        rhs = phased_cphase(thetas[0], 0.0)
        for th, p in zip(thetas[1:], phis):
            rhs = phased_cphase(th, p) @ rhs
        rhs = phase_gate(term, 2) @ rhs
        assert frobenius_norm(lhs - rhs) < 1e-11
        assert np.allclose(interleaved_from_phases(phis, term), varphis, atol=1e-12)

    # determinism of the seeded solver
    problem = broadband_problem(1, TH, 2, free_terminal=True)
    for seed in range(200):
        cfg = SolverConfig(rng_seed=seed, max_restarts=1, max_newton_iters=12)
        a = solve(problem, cfg)
        b = solve(problem, cfg)
        assert a.residual_D == b.residual_D
        assert a.converged == b.converged
        if a.converged:
            pa = [g.phi for g in a.sequence.gates] + [a.sequence.terminal_phase]
            pb = [g.phi for g in b.sequence.gates] + [b.sequence.terminal_phase]
            assert pa == pb

    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(PASS % (8, f"5 property suites x 200 randomized cases ({elapsed:.1f}s)"))


def test_figure_shape_checks():
    """Scan-curve shape checks: fidelity 1 at eps=0 and plateaus widening
    monotonically with the order."""
    half_widths = []
    for n in catalog.BROADBAND_ORDERS:
        result = scan(catalog.broadband(n, TH), -0.6, 0.6, 241)
        fids = np.asarray(result.fidelities)
        mid = len(fids) // 2
        assert fids[mid] >= 1 - 1e-12
        inside = np.where(1 - fids <= 1e-4)[0]
        half_widths.append((inside[-1] - inside[0]) / 2 * (1.2 / 240))
    assert all(b > a for a, b in zip(half_widths, half_widths[1:]))
    print(PASS % (0, "figure shape: plateau half-widths widen monotonically "
                     + " ".join(f"{w:.3f}" for w in half_widths)))
