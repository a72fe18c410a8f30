import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from math import pi, sin, sqrt, ulp

from cpgates import catalog, iontrap
from cpgates.errors import TruncationError, ValidationError
from cpgates.gates import (
    CompositeSequence, PhasedGate, ideal_cphase, phase_gate, sequence_propagator,
)
from cpgates.iontrap import (
    TrapConfig,
    analytic_propagator,
    composite_physical_gate,
    destroy,
    displacement_amplitudes,
    duration_for_angle,
    evolve_numerical,
    ideal_two_pulse_gate,
    parse_config,
    rotation_angle,
    single_pulse_spin_angle,
    two_pulse_gate,
)
from cpgates.linalg import frobenius_norm, is_hermitian, sigma_axis
from oracles import (
    analytic_full_space,
    composite_per_pulse,
    evolve_full_space,
    extract_qubit_gate,
    fock_population,
    hamiltonian_at,
    leakage,
    loop_angle_bracketed,
    phonon_identity_defect,
    propagator_distance,
    sine_gap_exact,
    spin_phonon,
)

G_QUARTER = 1.0 / sqrt(32.0)  # g/Delta giving a pi/4 two-pulse gate at Delta*T = 2*pi
phases = st.floats(0.0, 2 * pi)


def quarter_cfg(n_max=25, **kw):
    return TrapConfig(g=G_QUARTER, delta=1.0, duration=2 * pi, n_max=n_max, **kw)


def qubit_gate_angle(q):
    """Angle of a gate proportional to cos(t) I + i sin(t) XX, phase-free."""
    sxsx = np.kron(sigma_axis(0.0), sigma_axis(0.0))
    z1 = np.trace(q) / 4.0
    z2 = np.trace(sxsx @ q) / 4.0
    return float(np.arctan2((z2 / z1).imag, 1.0))


# --- Hamiltonian ------------------------------------------------------------

def test_zero_coupling_gives_zero_hamiltonian():
    cfg = TrapConfig(g=0.0, delta=1.0, duration=1.0, n_max=22)
    assert frobenius_norm(hamiltonian_at(cfg, 0.5)) == 0.0


def test_hamiltonian_at_time_zero_with_zero_motional_phases():
    cfg = TrapConfig(g=0.2, delta=1.0, duration=1.0, n_max=22)
    h = hamiltonian_at(cfg, 0.0)
    levels = cfg.n_max + 1
    a = destroy(levels)
    x = a + a.conj().T
    s1 = np.kron(np.kron(sigma_axis(0.0), np.eye(2)), np.eye(levels))
    s2 = np.kron(np.kron(np.eye(2), sigma_axis(0.0)), np.eye(levels))
    expected = cfg.g * (s1 + s2) @ np.kron(np.eye(4), x)
    assert frobenius_norm(h - expected) < 1e-12


def test_hamiltonian_is_hermitian_and_linear_in_g():
    cfg = TrapConfig(
        g=0.11, delta=1.3, duration=2.0, zeta_plus=(0.2, 1.1),
        zeta_minus=(0.4, 2.2), n_max=22,
    )
    h = hamiltonian_at(cfg, 0.7)
    assert is_hermitian(h)
    cfg2 = TrapConfig(
        g=0.22, delta=1.3, duration=2.0, zeta_plus=(0.2, 1.1),
        zeta_minus=(0.4, 2.2), n_max=22,
    )
    assert frobenius_norm(hamiltonian_at(cfg2, 0.7) - 2 * h) < 1e-12


def test_ladder_matrix_elements():
    a = destroy(6)
    adag = a.conj().T
    for n in range(5):
        assert abs(adag[n + 1, n] - sqrt(n + 1)) < 1e-15


def test_hamiltonian_time_validation():
    cfg = TrapConfig(g=0.1, delta=1.0, duration=1.0, n_max=22)
    with pytest.raises(ValidationError):
        hamiltonian_at(cfg, 2.0)


@settings(max_examples=20)
@given(
    zeta_plus=st.tuples(phases, phases),
    zeta_minus=st.tuples(phases, phases),
    t_fraction=st.floats(0.0, 1.0),
)
def test_hamiltonian_matches_kron_operators(zeta_plus, zeta_minus, t_fraction):
    cfg = TrapConfig(g=0.07, delta=-1.3, duration=2.5, zeta_plus=zeta_plus,
                     zeta_minus=zeta_minus, n_max=20)
    t = t_fraction * cfg.duration
    b, _, _ = spin_phonon(cfg)
    expected = cfg.g * (np.exp(1j * cfg.delta * t) * b + np.exp(-1j * cfg.delta * t) * b.conj().T)
    assert np.max(np.abs(hamiltonian_at(cfg, t) - expected)) < 1e-14


# --- numerical propagator ----------------------------------------------------

def test_zero_coupling_evolves_to_identity():
    cfg = TrapConfig(g=0.0, delta=1.0, duration=1.0, n_max=22)
    u = evolve_numerical(cfg)
    assert frobenius_norm(u - np.eye(cfg.dim)) < 1e-10


def test_unitarity_drift_within_tolerance():
    cfg = quarter_cfg()
    u = evolve_numerical(cfg)
    assert frobenius_norm(u.conj().T @ u - np.eye(cfg.dim)) <= 1e-12


def test_small_coupling_matches_first_order_dyson():
    # with g/Delta = 2e-5 the second-order term sits below 1e-6
    cfg = TrapConfig(g=2e-5, delta=1.0, duration=2.0, n_max=22)
    u = evolve_numerical(cfg)
    h = 1j * np.zeros((cfg.dim, cfg.dim))
    # first Magnus/Dyson integral, computed independently by quadrature
    from scipy.integrate import quad

    b, _, _ = spin_phonon(cfg)
    re_w = quad(lambda t: np.cos(cfg.delta * t), 0, cfg.duration)[0]
    im_w = quad(lambda t: np.sin(cfg.delta * t), 0, cfg.duration)[0]
    w = re_w + 1j * im_w
    omega1 = -1j * cfg.g * (w * b + np.conj(w) * b.conj().T)
    assert frobenius_norm(u - (np.eye(cfg.dim) + omega1)) < 1e-6


# --- closed form -------------------------------------------------------------

def test_analytic_matches_numerical():
    cfgs = [
        quarter_cfg(),
        TrapConfig(g=0.1, delta=1.0, duration=1.5 * pi, zeta_plus=(0.0, 0.7), n_max=22),
        TrapConfig(
            g=0.15, delta=-1.2, duration=4.0, zeta_plus=(0.3, 1.9),
            zeta_minus=(0.8, 0.8), n_max=22,
        ),
    ]
    for cfg in cfgs:
        u_num = evolve_numerical(cfg)
        u_an = analytic_propagator(cfg)
        assert propagator_distance(u_num, u_an, cfg) < 1e-6


def test_closed_loop_has_no_displacement():
    # Delta*T = 2*pi*k closes the phase-space loop exactly
    cfg = quarter_cfg()
    assert np.max(np.abs(displacement_amplitudes(cfg))) < 1e-14


def test_displacement_amplitude_matches_formula():
    rng = np.random.default_rng(41)
    for _ in range(10):
        cfg = TrapConfig(
            g=rng.uniform(0.02, 0.15),
            delta=1.0,
            duration=rng.uniform(0.5, 6.0),
            zeta_minus=(rng.uniform(0, 2 * pi), rng.uniform(0, 2 * pi)),
            n_max=22,
        )
        amps = displacement_amplitudes(cfg)
        # independent read-off: apply the propagator to |00>|0> and use the
        # coherent-state ratio <1|D|0>/<0|D|0> = alpha on the (+1,+1) branch
        u = analytic_propagator(cfg)
        plus = np.array([1, 1], dtype=complex) / sqrt(2)  # sigma(zp)=+1 eigenvector at zp=0
        spin = np.kron(plus, plus)
        phonon0 = np.zeros(cfg.n_max + 1, dtype=complex)
        phonon0[0] = 1.0
        psi = (u @ np.kron(spin, phonon0)).reshape(4, cfg.n_max + 1)
        branch = np.einsum("q,qn->n", np.kron(plus, plus).conj(), psi)
        alpha_measured = branch[1] / branch[0]
        assert abs(alpha_measured - amps[0]) < 1e-10


def test_displacement_prefactor_is_not_scaled_by_duration():
    # the duration-scaled variant of the displacement amplitude disagrees
    # with the integrated dynamics whenever T != 1
    cfg = TrapConfig(g=0.1, delta=1.0, duration=3.0, n_max=22)
    amps = displacement_amplitudes(cfg)
    u = evolve_numerical(cfg)
    plus = np.array([1, 1], dtype=complex) / sqrt(2)
    spin = np.kron(plus, plus)
    phonon0 = np.zeros(cfg.n_max + 1, dtype=complex)
    phonon0[0] = 1.0
    psi = (u @ np.kron(spin, phonon0)).reshape(4, cfg.n_max + 1)
    branch = np.einsum("q,qn->n", spin.conj(), psi)
    alpha_measured = branch[1] / branch[0]
    assert abs(alpha_measured - amps[0]) < 1e-6
    scaled_by_duration = amps[0] * cfg.duration
    assert abs(alpha_measured - scaled_by_duration) > 1e-2


@settings(max_examples=20)
@given(
    zeta_plus=st.tuples(phases, phases),
    zeta_minus=st.tuples(phases, phases),
    g=st.floats(0.0, 0.1),
    delta=st.sampled_from([1.0, -1.0]),
    duration=st.floats(0.1, 2.0),
)
def test_closed_form_matches_dense_oracle(zeta_plus, zeta_minus, g, delta, duration):
    cfg = TrapConfig(g=g, delta=delta, duration=duration, zeta_plus=zeta_plus,
                     zeta_minus=zeta_minus, n_max=20)
    u = analytic_propagator(cfg)
    assert np.max(np.abs(u - analytic_full_space(cfg))) < 1e-12


@settings(max_examples=20)
@given(
    zeta_plus=st.tuples(phases, phases),
    zeta_minus=st.tuples(phases, phases),
    g=st.floats(0.0, 0.1),
    delta=st.sampled_from([1.0, -1.0]),
    durations=st.lists(st.floats(0.1, 2.0), min_size=1, max_size=4),
)
def test_batched_closed_form_matches_dense_oracle(zeta_plus, zeta_minus, g, delta, durations):
    # one batch of durations, as a composite builds it: each pulse must
    # land at its own index of the batch, and the guard passes it through
    cfgs = [TrapConfig(g=g, delta=delta, duration=t, zeta_plus=zeta_plus,
                       zeta_minus=zeta_minus, n_max=20) for t in durations]
    pairs = iontrap._closed_form_pairs(cfgs)
    assert iontrap._guard(cfgs, pairs) is pairs
    assert len(pairs) == len(cfgs)
    for cfg, pair in zip(cfgs, pairs):
        u = iontrap._operator(cfg, pair)
        assert np.max(np.abs(u - analytic_full_space(cfg))) < 1e-12


# --- two-pulse scheme ---------------------------------------------------------

def test_rotation_angle_examples():
    assert abs(rotation_angle(quarter_cfg()) - pi / 4) < 1e-12
    cfg = TrapConfig(g=0.1, delta=1.0, duration=1.5 * pi, n_max=22)
    assert abs(rotation_angle(cfg) - 0.04 * (1.5 * pi + 1.0)) < 1e-12
    assert rotation_angle(TrapConfig(g=0.0, delta=1.0, duration=1.0, n_max=22)) == 0.0
    tiny = TrapConfig(g=0.01, delta=1.0, duration=1e-4, n_max=22)
    assert rotation_angle(tiny) < 1e-11


def test_single_pulse_angle_is_half():
    cfg = quarter_cfg()
    assert abs(single_pulse_spin_angle(cfg) - pi / 8) < 1e-12


def test_two_pulse_gate_restores_phonons_and_matches_ideal():
    cfg = TrapConfig(g=0.12, delta=1.0, duration=5.0, zeta_plus=(0.0, 0.6), n_max=22)
    u = two_pulse_gate(cfg)
    assert phonon_identity_defect(u, cfg) < 1e-6
    ideal = np.kron(ideal_two_pulse_gate(cfg), np.eye(cfg.n_max + 1))
    assert propagator_distance(u, ideal, cfg) < 1e-6
    for level in (0, 3):
        for q in range(4):
            state = np.zeros(4)
            state[q] = 1.0
            assert fock_population(u, cfg, state, level) >= 1 - 1e-6


def test_two_pulse_gate_independent_of_initial_level():
    cfg0 = TrapConfig(g=G_QUARTER, delta=1.0, duration=2 * pi, n_max=25, initial_fock=0)
    cfg3 = TrapConfig(g=G_QUARTER, delta=1.0, duration=2 * pi, n_max=25, initial_fock=3)
    u = two_pulse_gate(cfg0)
    q0 = extract_qubit_gate(u, cfg0)
    q3 = extract_qubit_gate(u, cfg3)
    assert frobenius_norm(q0 - q3) < 1e-6


def test_phonon_disentangles_for_superpositions():
    cfg = TrapConfig(g=0.1, delta=1.0, duration=4.0, n_max=20)
    u = two_pulse_gate(cfg, analytic=True)
    rng = np.random.default_rng(5)
    for n in range(6):
        for _ in range(4):
            q = rng.normal(size=4) + 1j * rng.normal(size=4)
            q /= np.linalg.norm(q)
            assert fock_population(u, cfg, q, n) >= 1 - 1e-6


def test_modulated_spin_phase_gives_phased_gate():
    phi = 0.9
    cfg = TrapConfig(
        g=G_QUARTER, delta=1.0, duration=2 * pi, zeta_plus=(0.0, phi), n_max=25
    )
    u = two_pulse_gate(cfg, analytic=True)
    q = extract_qubit_gate(u, cfg)
    from cpgates.gates import phased_cphase

    target = phased_cphase(pi / 4, phi)
    overlap = abs(np.trace(target.conj().T @ q)) / 4
    assert overlap >= 1 - 1e-9


def test_systematic_coupling_error_maps_to_angle_error():
    base = TrapConfig(g=0.1, delta=1.0, duration=5.0, n_max=20)
    for err in (0.0, 0.05, -0.08):
        cfg = TrapConfig(g=base.g * (1 + err), delta=1.0, duration=5.0, n_max=20)
        u = two_pulse_gate(cfg, analytic=True)
        angle = qubit_gate_angle(extract_qubit_gate(u, cfg))
        predicted = rotation_angle(base) * (1 + err) ** 2
        assert abs(angle - predicted) < 1e-6


def test_detuning_error_leaves_pure_angle_error():
    # a shifted detuning changes both the displacement and the angle, but
    # the motional-phase flip cancels the displacement for any common
    # detuning, leaving a rotation-angle error the sequences can absorb
    base = TrapConfig(g=0.1, delta=1.0, duration=5.0, n_max=20)
    for derr in (0.04, -0.06):
        cfg = TrapConfig(g=0.1, delta=1.0 * (1 + derr), duration=5.0, n_max=20)
        u = two_pulse_gate(cfg)
        assert phonon_identity_defect(u, cfg) < 1e-6
        angle = qubit_gate_angle(extract_qubit_gate(u, cfg))
        assert abs(angle - rotation_angle(cfg)) < 1e-6
        assert abs(angle - rotation_angle(base)) > 1e-3


def test_duration_for_angle_round_trip():
    # the duration is positive for either sign of delta, and the two-pulse
    # angle is sign(delta) * theta
    for delta in (1.0, -1.0):
        for theta in (pi / 4, pi / 2, pi):
            t = duration_for_angle(0.15, delta, theta)
            cfg = TrapConfig(g=0.15, delta=delta, duration=t, n_max=22)
            assert abs(rotation_angle(cfg) - delta * theta) < 1e-10


def _trap_loop_target(theta):
    """y = theta Delta^2 / (4 g^2) at the tests' trap, g = G_QUARTER and Delta = 1."""
    return theta / (4.0 * G_QUARTER**2)


@given(y=st.one_of(
    # whole turns to a few ulp, where x - sin x is flat to third order
    st.builds(lambda k, j: 2 * pi * k * (1 + j * 2.0**-52), st.integers(1, 8), st.integers(-8, 8)),
    st.floats(-6.0, 4.0).map(lambda e: 10.0**e),
))
@example(y=_trap_loop_target(pi / 4))
@example(y=_trap_loop_target(pi / 2))
@example(y=_trap_loop_target(pi))
@settings(max_examples=200, deadline=None)
def test_duration_root_leaves_a_few_ulp_of_residual(y):
    # at g = 1/2 and Delta = 1, 4 g^2 = 1: the target is y and the duration
    # the loop angle x itself
    x = duration_for_angle(0.5, 1.0, y)
    residual = sine_gap_exact(x, y)
    assert abs(residual) <= 4 * ulp(y)
    # both roots meet y to their residuals, so they differ by no more than
    # x - sin x lets them: a cube root where it is flat, else linear in the slope
    reference = loop_angle_bracketed(y)
    spread = abs(residual) + abs(sine_gap_exact(reference, y))
    slope = 2 * sin(reference / 2) ** 2  # 1 - cos x without its cancellation
    assert abs(x - reference) <= min((24 * spread) ** (1 / 3), 4 * spread / slope) + 2 * ulp(x)


def test_duration_root_at_whole_turns_leaves_far_below_an_ulp():
    # x - sin x is flat there, so rounding x costs nothing and the residual
    # is the error of the reduction by whole turns: small only when 2 pi is
    # carried to more than double precision
    for k in range(1, 9):
        for j in range(-8, 9):
            y = 2 * pi * k * (1 + j * 2.0**-52)
            assert abs(sine_gap_exact(duration_for_angle(0.5, 1.0, y), y)) <= ulp(y) / 64


@pytest.mark.parametrize("y", [1e15, 1e17, 1e300, 1.7e308])
def test_duration_root_reaches_the_largest_targets(y):
    # k * 2 pi is no longer exact there, and its rounding must not throw the
    # reduced target out of [-pi, pi]: |x - y| = |sin x| <= 1, up to rounding
    assert abs(duration_for_angle(0.5, 1.0, y) - y) <= 1 + 4 * ulp(y)


@pytest.mark.parametrize("theta", [1e-30, 1e-20, 1e-12])
def test_duration_for_angle_follows_the_series_root_at_tiny_angles(theta):
    # x - sin x cancels to 0 in double precision long before x does, so a
    # root of the cancelled difference is set by rounding, not by theta
    s = (6 * _trap_loop_target(theta)) ** (1 / 3)
    series = s + s**3 / 60 + s**5 / 1400
    assert duration_for_angle(G_QUARTER, 1.0, theta) == pytest.approx(series, rel=1e-12)


@pytest.mark.parametrize("theta", [1e-30, 1e-20, 1e-12, pi / 4])
def test_rotation_angle_inverts_duration_for_angle(theta):
    # Delta T - sin Delta T cancels at small Delta T; the angle keeps its
    # relative accuracy only through the series of the sine gap
    cfg = TrapConfig(g=G_QUARTER, delta=1.0, duration=duration_for_angle(G_QUARTER, 1.0, theta))
    assert abs(rotation_angle(cfg) - theta) <= 4 * ulp(theta)


def test_composite_single_gate_plumbing():
    seq = catalog.single(pi / 4)
    cfg = TrapConfig(g=G_QUARTER, delta=1.0, duration=1.0, n_max=25)
    u = composite_physical_gate(seq, cfg, eps_g=0.0, analytic=True)
    q = extract_qubit_gate(u, cfg)
    overlap = abs(np.trace(ideal_cphase(pi / 4).conj().T @ q)) / 4
    assert overlap >= 1 - 1e-9


LEAKING_CFG = TrapConfig(g=0.15, delta=1.0, duration=4.0, n_max=22, initial_fock=20)


def test_truncation_guard_raises():
    with pytest.raises(TruncationError):
        evolve_numerical(LEAKING_CFG)


@pytest.mark.parametrize("analytic", [False, True])
def test_truncation_guard_raises_on_every_route(analytic):
    with pytest.raises(TruncationError):
        two_pulse_gate(LEAKING_CFG, analytic=analytic)
    with pytest.raises(TruncationError):
        composite_physical_gate(catalog.single(pi / 4), LEAKING_CFG, analytic=analytic)
    if analytic:
        with pytest.raises(TruncationError):
            analytic_propagator(LEAKING_CFG)


def test_config_space_validation():
    with pytest.raises(ValidationError):
        TrapConfig(g=0.1, delta=0.0, duration=1.0, n_max=20)
    with pytest.raises(ValidationError):
        TrapConfig(g=0.1, delta=1.0, duration=1.0, n_max=5)  # below (amax+4)^2
    with pytest.raises(ValidationError):
        TrapConfig(g=0.1, delta=1.0, duration=1.0, n_max=20, initial_fock=30)


def test_parse_config_forms():
    cfg, eps_g = parse_config(
        """
        # comment
        g = 0.1
        delta = 2.0
        delta_t = 2.0   # Delta*T in units of pi
        nmax = 20
        fock0 = 1
        zeta2p = 0.5
        eps_g = 0.05
        """
    )
    assert abs(cfg.duration - pi) < 1e-15
    assert cfg.zeta_plus == (0.0, 0.5 * pi)
    assert cfg.initial_fock == 1
    assert eps_g == 0.05


def test_parse_config_rejects_unknown_keys_and_missing_required():
    with pytest.raises(ValidationError):
        parse_config("g=1\ndelta=1\nt=1\nbogus=3\n")
    with pytest.raises(ValidationError):
        parse_config("g=1\ndelta=1\n")


def test_leakage_reports_zero_for_closed_loop():
    cfg = quarter_cfg()
    u = two_pulse_gate(cfg, analytic=True)
    assert leakage(u, cfg) < 1e-12


# --- spin-branch integrator ----------------------------------------------------


@settings(max_examples=20)
@given(
    zeta_plus=st.tuples(phases, phases),
    zeta_minus=st.tuples(phases, phases),
    g=st.floats(0.0, 0.1),
    delta=st.sampled_from([1.0, -1.0]),
    duration=st.floats(0.1, 2.0),
)
def test_branch_integration_matches_full_space(zeta_plus, zeta_minus, g, delta, duration):
    # g/|delta| <= 0.1 keeps the peak displacement small enough for n_max=20
    cfg = TrapConfig(g=g, delta=delta, duration=duration, zeta_plus=zeta_plus,
                     zeta_minus=zeta_minus, n_max=20)
    u = evolve_numerical(cfg)
    assert np.max(np.abs(u - evolve_full_space(cfg))) < 1e-8


def test_branch_propagator_commutes_with_each_spin_axis():
    cfg = TrapConfig(g=0.12, delta=-1.1, duration=3.0, zeta_plus=(0.4, 2.3),
                     zeta_minus=(1.3, 0.2), n_max=22)
    u = evolve_numerical(cfg)
    phonon = np.eye(cfg.n_max + 1)
    for spin in (np.kron(sigma_axis(cfg.zeta_plus[0]), np.eye(2)),
                 np.kron(np.eye(2), sigma_axis(cfg.zeta_plus[1]))):
        s = np.kron(spin, phonon)
        assert frobenius_norm(u @ s - s @ u) < 1e-12


def test_one_eigendecomposition_per_composite(monkeypatch):
    calls = []  # shape of the matrix stack passed to each eigh call
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    cfg = TrapConfig(g=0.1, delta=1.0, duration=2.0, n_max=20)
    base = quarter_cfg()
    # one eigh serves both pulses of a gate and every distinct duration of
    # a composite: BB1 has pi/4 and pi/2, BB2(pi/3) three angles, and a
    # negative angle is a spin-phase shift of the positive one.  The
    # numerical route decomposes K_b + Delta N of the branches (+,+) and
    # (+,-) in one batch per composite (fact (f)); the closed form
    # decomposes i (a - a^dag) once per level count (fact (g)), so after
    # the cache is cleared its first run makes one eigh and a repeat none
    for analytic in (False, True):
        runs = [
            (cfg, lambda: two_pulse_gate(cfg, analytic)),
            (base, lambda: composite_physical_gate(catalog.broadband(1), base, analytic=analytic)),
            (base, lambda: composite_physical_gate(
                catalog.broadband(2, pi / 3), base, analytic=analytic)),
            (base, lambda: composite_physical_gate(
                CompositeSequence((PhasedGate(pi / 4, 0.3), PhasedGate(-pi / 4, 1.2))), base,
                analytic=analytic)),
        ] + [(cfg, lambda: analytic_propagator(cfg))] * analytic
        for c, run in runs:
            levels = c.n_max + 1
            iontrap._displacement_basis.cache_clear()
            for expected in ([(levels, levels)], []) if analytic else ([(2, levels, levels)],) * 2:
                calls.clear()
                run()
                assert calls == expected, analytic


@settings(max_examples=10)
@given(
    g=st.floats(0.0, 0.1),
    delta=st.one_of(st.floats(1.0, 2.0), st.floats(-2.0, -1.0)),
    zeta_plus=st.tuples(phases, phases),
    zeta_minus=st.one_of(st.tuples(phases, phases), phases.map(lambda z: (z, z))),
    duration=st.floats(0.1, 2 * pi),
    n_max=st.integers(20, 25),
    initial_fock=st.integers(0, 3),
)
@example(g=0.1, delta=-1.0, zeta_plus=(0.3, 1.2), zeta_minus=(0.7, 0.7), duration=3.0,
         n_max=20, initial_fock=0)
def test_rotating_frame_propagator_matches_tight_full_space_integration(
    g, delta, zeta_plus, zeta_minus, duration, n_max, initial_fock
):
    # g/|delta| <= 0.1 keeps the peak displacement small enough for
    # n_max=20; equal zeta_minus makes beta of the (+,-) branch zero; the
    # oracle integrates the full space with DOP853 at tolerances near rounding
    cfg = TrapConfig(g=g, delta=delta, duration=duration, zeta_plus=zeta_plus,
                     zeta_minus=zeta_minus, n_max=n_max, initial_fock=initial_fock)
    u = evolve_numerical(cfg)
    assert np.max(np.abs(u - evolve_full_space(cfg, rtol=1e-13, atol=1e-15))) < 1e-11


# At g/Delta = 1/sqrt(32) the pi/4 and pi/2 pulses close their phase-space
# loops (Delta T = 2 pi, 4 pi) and return Fock level 13 clear of the top
# levels; the pi/8, 3 pi/8 and 5 pi/8 pulses end displaced and reach them.
GUARD_CFG = TrapConfig(g=G_QUARTER, delta=1.0, duration=2 * pi, n_max=25, initial_fock=13)
CLEAN_GATES = (PhasedGate(pi / 4, 0.3), PhasedGate(pi / 2, 1.1))


@pytest.mark.parametrize("analytic", [False, True])
@pytest.mark.parametrize("leaking", [pi / 8, 3 * pi / 8, 5 * pi / 8])
def test_guard_checks_every_distinct_pulse_of_a_composite(analytic, leaking):
    # the leaking pulse is the shortest, a middle or the longest segment
    composite_physical_gate(CompositeSequence(CLEAN_GATES), GUARD_CFG, analytic=analytic)
    for gates in ((PhasedGate(leaking, 0.7),) + CLEAN_GATES,
                  CLEAN_GATES + (PhasedGate(-leaking, 0.7),)):
        with pytest.raises(TruncationError):
            composite_physical_gate(CompositeSequence(gates), GUARD_CFG, analytic=analytic)


@settings(max_examples=20)
@given(
    zeta_plus=st.tuples(phases, phases),
    zeta_minus=st.tuples(phases, phases),
    g=st.floats(0.0, 0.1),
    delta=st.sampled_from([1.0, -1.0]),
    duration=st.floats(0.1, 2.0),
)
def test_two_pulse_gate_equals_two_full_space_integrations(
    zeta_plus, zeta_minus, g, delta, duration
):
    # the second pulse's blocks come from the first by branch reversal and
    # phonon parity; the oracle integrates both pulses on the full space
    cfg = TrapConfig(g=g, delta=delta, duration=duration, zeta_plus=zeta_plus,
                     zeta_minus=zeta_minus, n_max=20)
    expected = evolve_full_space(cfg.shifted_motional_phases()) @ evolve_full_space(cfg)
    assert np.max(np.abs(two_pulse_gate(cfg) - expected)) < 1e-8


gate_angles = st.sampled_from([pi / 8, pi / 4, 3 * pi / 8, -pi / 8, -pi / 4])


@pytest.mark.parametrize("analytic,tol", [(True, 1e-12), (False, 1e-9)])
@settings(max_examples=10)
@given(
    gates=st.lists(st.tuples(gate_angles, phases), min_size=1, max_size=4),
    terminal=st.floats(-pi, pi),
    zeta_minus=st.tuples(phases, phases),
    zeta1p=phases,
    eps_g=st.floats(-0.05, 0.05),
)
def test_composite_gate_equals_per_pulse_loop(analytic, tol, gates, terminal, zeta_minus,
                                              zeta1p, eps_g):
    # repeated and negative angles share blocks; the oracle shares nothing
    seq = CompositeSequence(tuple(PhasedGate(t, p) for t, p in gates), terminal)
    base = quarter_cfg(zeta_plus=(zeta1p, 0.0), zeta_minus=zeta_minus)
    u = composite_physical_gate(seq, base, eps_g, analytic=analytic)
    expected = composite_per_pulse(seq, base, eps_g, analytic=analytic)
    assert np.max(np.abs(u - expected)) < tol


@pytest.mark.parametrize("analytic", [True, False])
@settings(max_examples=10)
@given(
    gates=st.lists(st.tuples(gate_angles, phases), min_size=1, max_size=4),
    terminal=st.floats(-pi, pi),
    zeta_minus=st.tuples(phases, phases),
    zeta1p=phases,
    eps_g=st.floats(-0.05, 0.05),
)
def test_composite_commutes_with_ion_one_spin_axis(analytic, gates, terminal, zeta_minus,
                                                   zeta1p, eps_g):
    # every gate shares ion 1's axis, so the composite is block-diagonal in its basis
    seq = CompositeSequence(tuple(PhasedGate(t, p) for t, p in gates), terminal)
    base = quarter_cfg(zeta_plus=(zeta1p, 0.0), zeta_minus=zeta_minus)
    u = composite_physical_gate(seq, base, eps_g, analytic=analytic)
    s = np.kron(np.kron(sigma_axis(zeta1p), np.eye(2)), np.eye(base.n_max + 1))
    assert np.max(np.abs(u @ s - s @ u)) < 1e-12


def test_zero_angle_gate_is_skipped():
    base = quarter_cfg(zeta_plus=(0.4, 0.0))
    seq = catalog.broadband(1)
    padded = CompositeSequence(
        (PhasedGate(0.0, 1.3),) + seq.gates[:2] + (PhasedGate(-0.0, 0.2),) + seq.gates[2:],
        seq.terminal_phase + 0.3)
    seq = CompositeSequence(seq.gates, seq.terminal_phase + 0.3)
    for analytic, tol in ((True, 1e-12), (False, 1e-9)):
        u = composite_physical_gate(seq, base, 0.02, analytic=analytic)
        assert np.array_equal(composite_physical_gate(padded, base, 0.02, analytic=analytic), u)
        expected = composite_per_pulse(padded, base, 0.02, analytic=analytic)
        assert np.max(np.abs(u - expected)) < tol
    # nothing but zero angles leaves the terminal frame rotation alone
    idle = CompositeSequence((PhasedGate(0.0, 1.3),), 0.3)
    frame = np.kron(phase_gate(0.3, 2), np.eye(base.n_max + 1))
    assert np.max(np.abs(composite_physical_gate(idle, base) - frame)) < 1e-15


@pytest.mark.parametrize("analytic,tol", [(True, 1e-12), (False, 1e-10)])
@pytest.mark.parametrize("delta", [1.0, -1.0])
def test_composite_matches_gate_model_for_either_detuning_sign(analytic, tol, delta):
    # positive and negative angles each need the pi shift for one sign of delta
    eps_g = 0.03
    seq = CompositeSequence(
        (PhasedGate(pi / 4, 0.3), PhasedGate(-pi / 2, 1.2), PhasedGate(pi / 2, 2.0)), 0.4)
    cfg = TrapConfig(g=G_QUARTER, delta=delta, duration=2 * pi, n_max=25)
    q = extract_qubit_gate(composite_physical_gate(seq, cfg, eps_g, analytic=analytic), cfg)
    model = sequence_propagator(seq, (1 + eps_g) ** 2 - 1)
    overlap = np.trace(model.conj().T @ q) / 4
    assert np.max(np.abs(q - overlap / abs(overlap) * model)) < tol


def test_leakage_of_any_ion_one_block_equals_that_of_the_assembled_operator():
    # C_+ need not come from a pulse: every block with its parity image
    # C_- has one leakage, whatever ion 2's phase and the order of its pair
    rng = np.random.default_rng(8)
    for fock in (0, 3, 20):
        cfg = TrapConfig(g=0.1, delta=1.0, duration=1.0, zeta_plus=tuple(rng.uniform(0, 2 * pi, 2)),
                         n_max=20, initial_fock=fock)
        pair = rng.normal(size=(2, 21, 21)) + 1j * rng.normal(size=(2, 21, 21))
        plus = iontrap._from_branches(cfg.zeta_plus[1], pair)
        expected = leakage(iontrap._assemble(cfg, plus), cfg)
        for zp, order in ((cfg.zeta_plus[1], pair), (0.0, pair[::-1])):
            got = iontrap._leakage(cfg, iontrap._from_branches(zp, order))
            assert abs(got - expected) <= 1e-14 * expected


IDLE = [(0.0, 0.3)]


@pytest.mark.parametrize("analytic", [False, True])
@settings(max_examples=25, deadline=None)
@given(
    gates=st.lists(st.tuples(st.sampled_from([0.0, pi / 8, pi / 4, -pi / 4, pi / 2]), phases),
                   min_size=1, max_size=4),
    terminal=st.floats(-pi, pi),
    zeta_plus=st.tuples(phases, phases),
    zeta_minus=st.tuples(phases, phases),
    eps_g=st.floats(-0.05, 0.05),
    n_max=st.integers(23, 30),
    fock=st.integers(0, 30),
)
@example(gates=IDLE, terminal=0.2, zeta_plus=(0.4, 0.0), zeta_minus=(0.0, 0.0), eps_g=0.0,
         n_max=25, fock=24)
@example(gates=IDLE, terminal=0.2, zeta_plus=(0.4, 0.0), zeta_minus=(0.0, 0.0), eps_g=0.0,
         n_max=25, fock=25)
def test_ion_one_block_readers_equal_the_full_space_readers(analytic, gates, terminal, zeta_plus,
                                                            zeta_minus, eps_g, n_max, fock):
    # the qubit gate and the leakage read from C_+ are those of the assembled
    # operator: the gate entry for entry (kron's products with 1 may turn a
    # -0.0 to 0.0), the leakage to rounding.  An idle composite is a block of
    # one level per branch; at fock0 >= n_max - 1 (the examples) it leaks wholly
    seq = CompositeSequence(tuple(PhasedGate(t, p) for t, p in gates), terminal)
    cfg = quarter_cfg(n_max=n_max, zeta_plus=zeta_plus, zeta_minus=zeta_minus,
                      initial_fock=min(fock, n_max))
    try:
        plus = iontrap._composite_block(seq, cfg, eps_g, analytic)
    except TruncationError:  # an input near the top level, or the pi/8 pulse's displacement
        reject()
    full = iontrap._assemble(cfg, plus)
    assert np.array_equal(iontrap._qubit_gate(cfg, plus), extract_qubit_gate(full, cfg))
    expected = leakage(full, cfg)
    assert abs(iontrap._leakage(cfg, plus) - expected) <= 1e-14 * expected
    if all(theta == 0.0 for theta, _ in gates):
        assert plus.shape == (2, 2)
        assert expected == pytest.approx(float(cfg.initial_fock >= n_max - 1), abs=1e-14)


def closed_form_batch(ratio, delta, zeta_minus, durations, n_max, initial_fock=0):
    """Configs of one composite batch: equal g = ratio |delta|, one per duration."""
    return [TrapConfig(g=ratio * abs(delta), delta=delta, duration=t, zeta_minus=zeta_minus,
                       n_max=n_max, initial_fock=min(initial_fock, n_max)) for t in durations]


@settings(max_examples=30)
@given(
    ratio=st.floats(0.0, G_QUARTER),
    delta=st.sampled_from([1.0, -1.0, 1.7]),
    zeta_minus=st.tuples(phases, phases),
    durations=st.lists(st.floats(0.1, 12.0), min_size=1, max_size=4),
    n_max=st.integers(23, 30),
)
def test_closed_form_gate_is_one_phase_per_branch(ratio, delta, zeta_minus, durations, n_max):
    # fact (h): (Pi P Pi) P of the full displacement pairs is the phonon
    # identity times e^{2i (phi0 + theta_c s1 s2)}, the phase blocks
    cfgs = closed_form_batch(ratio, delta, zeta_minus, durations, n_max)
    full = iontrap._gate(iontrap._closed_form_pairs(cfgs))
    blocks = iontrap._gate_pairs(cfgs, analytic=True)
    assert blocks.shape == (len(cfgs), 2, 1, 1)
    assert np.max(np.abs(full - blocks * np.eye(n_max + 1))) < 1e-14


@settings(max_examples=30)
@given(
    ratio=st.floats(0.0, G_QUARTER),
    delta=st.sampled_from([1.0, -1.0, 1.7]),
    zeta_minus=st.tuples(phases, phases),
    durations=st.lists(st.floats(0.1, 12.0), min_size=1, max_size=4),
    n_max=st.integers(16, 30),
    initial_fock=st.integers(0, 20),
)
@example(ratio=G_QUARTER, delta=1.0, zeta_minus=(0.0, 0.0), n_max=25, initial_fock=13,
         durations=[duration_for_angle(G_QUARTER, 1.0, pi / 8)])
def test_displacement_guard_equals_leakage_of_the_full_pair(ratio, delta, zeta_minus, durations,
                                                           n_max, initial_fock):
    # the guard reads the top two rows and first fock0+1 columns of
    # |D(alpha_b)| only; GUARD_CFG's pi/8 pulse (the example) leaks past
    # LEAKAGE_LIMIT
    try:
        cfgs = closed_form_batch(ratio, delta, zeta_minus, durations, n_max, initial_fock)
    except ValidationError:  # n_max below the peak displacement's bound
        reject()
    corners = iontrap._displacement_corners(cfgs)
    assert corners.shape == (len(cfgs), 2, 2, cfgs[0].initial_fock + 1)
    guard, full = (np.array([iontrap._leakage(cfg, iontrap._from_branches(0.0, pair))
                             for cfg, pair in zip(cfgs, pairs)])
                   for pairs in (corners, iontrap._closed_form_pairs(cfgs)))
    assert np.max(np.abs(np.sqrt(guard) - np.sqrt(full))) <= 1e-14
    assert np.array_equal(guard > iontrap.LEAKAGE_LIMIT, full > iontrap.LEAKAGE_LIMIT)


@pytest.mark.parametrize("seq", [
    catalog.broadband(2, 0.37 * pi),
    CompositeSequence((PhasedGate(pi / 4, 0.3), PhasedGate(-pi / 2, 1.2)), 0.4),
])
def test_closed_form_chain_carries_no_phonon_blocks(monkeypatch, seq):
    # fact (h): the closed-form chain multiplies one phase per branch, and
    # no displacement pair is built; the guard reads the top two rows of
    # each distinct pulse, and only the assembly sees 2x2 blocks
    shapes = []
    from_branches = iontrap._from_branches

    def recording(zp, blocks):
        shapes.append(np.shape(blocks[0]))
        return from_branches(zp, blocks)

    def no_pairs(cfgs):
        raise AssertionError("the closed-form gate built a displacement pair")

    base = quarter_cfg(zeta_plus=(0.4, 0.0))
    expected = composite_per_pulse(seq, base, 0.02, analytic=True)
    monkeypatch.setattr(iontrap, "_from_branches", recording)
    monkeypatch.setattr(iontrap, "_closed_form_pairs", no_pairs)
    u = composite_physical_gate(seq, base, 0.02, analytic=True)
    corners = [(2, base.initial_fock + 1)] * len({abs(gate.theta) for gate in seq.gates})
    assert shapes == corners + [(1, 1)] * len(seq.gates) + [(2, 2)]
    assert u.shape == (base.dim, base.dim)
    assert np.max(np.abs(u - expected)) < 1e-12
    shapes.clear()
    assert two_pulse_gate(base, analytic=True).shape == (base.dim, base.dim)
    assert shapes == [(2, 1), (1, 1), (2, 2)]


def test_eps_g_is_checked_up_front():
    base = quarter_cfg()
    idle = CompositeSequence((PhasedGate(0.0, 0.3),))
    for seq in (idle, catalog.broadband(1)):
        for eps_g in (float("nan"), float("inf"), -3.0, -1.0 - 1e-12):
            for analytic in (False, True):
                with pytest.raises(ValidationError, match="eps_g=.* must be finite and >= -1"):
                    composite_physical_gate(seq, base, eps_g, analytic=analytic)
    # eps_g = -1 switches the coupling off: every gate is idle
    u = composite_physical_gate(catalog.broadband(1), base, -1.0, analytic=True)
    assert np.max(np.abs(u - np.kron(phase_gate(catalog.broadband(1).terminal_phase, 2),
                                     np.eye(base.n_max + 1)))) < 1e-15


@pytest.mark.parametrize("field", ["g", "delta", "duration", "zeta_plus", "zeta_minus"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_trap_parameters_raise(field, bad):
    params = dict(g=0.1, delta=1.0, duration=1.0, n_max=20)
    params[field] = (0.0, bad) if field.startswith("zeta") else bad
    with pytest.raises(ValidationError):
        TrapConfig(**params)


@pytest.mark.parametrize("field, bad", [
    ("n_max", 25.5), ("n_max", 25.0), ("initial_fock", 1.5), ("initial_fock", 1.0),
    ("n_max", "25"),
])
def test_non_integer_fock_sizes_raise(field, bad):
    params = dict(g=0.1, delta=1.0, duration=1.0, n_max=25, initial_fock=1)
    params[field] = bad
    with pytest.raises(ValidationError, match="must be an integer"):
        TrapConfig(**params)
    # numpy integers are integers, as for the Fock levels of the readers
    params[field] = np.int64(int(float(bad)))
    assert TrapConfig(**params).dim == 4 * (int(params["n_max"]) + 1)


def test_overflowing_displacement_raises():
    with pytest.raises(ValidationError):
        TrapConfig(g=1e200, delta=1e-200, duration=1.0, n_max=20)


@pytest.mark.parametrize("text,lineno", [
    ("g=abc\ndelta=1\nt=1\n", 1),
    ("g=0.1\ndelta=1\nt=1\nnmax=25.7\n", 4),
    ("g=0.1\ndelta=1\nt=1\nnmax=25\nfock0=1.5\n", 5),
    ("g=0.1\ndelta=nan\nt=1\n", 2),
])
def test_parse_config_names_the_bad_line(text, lineno):
    with pytest.raises(ValidationError, match=f"line {lineno}:"):
        parse_config(text)


def test_parse_config_accepts_integral_float_levels():
    cfg, _ = parse_config("g=0.1\ndelta=1\nt=1\nnmax=2.5e1\nfock0=2.0\n")
    assert (cfg.n_max, cfg.initial_fock) == (25, 2)


def test_parse_config_rejects_a_repeated_key():
    with pytest.raises(ValidationError, match="line 4: g repeats line 1"):
        parse_config("g=0.17677669529663687\ndelta=1\ndelta_t=2\ng=5\n")
    # keys are case-insensitive, so G repeats g
    with pytest.raises(ValidationError, match="line 3: g repeats line 1"):
        parse_config("g=0.1\ndelta=1\nG=0.1\nt=1\n")


def test_parse_config_rejects_t_with_delta_t():
    with pytest.raises(ValidationError, match="line 3 gives t and line 4 delta_t"):
        parse_config("g=0.1\ndelta=1\nt=1\ndelta_t=2\n")
    with pytest.raises(ValidationError, match="line 4 gives t and line 3 delta_t"):
        parse_config("g=0.1\ndelta=1\ndelta_t=2\nt=1\n")


def test_parse_config_delta_t_needs_nonzero_delta():
    with pytest.raises(ValidationError):
        parse_config("g=0.1\ndelta=0\ndelta_t=2\n")


def test_duration_for_angle_needs_positive_coupling():
    with pytest.raises(ValidationError, match="g > 0"):
        duration_for_angle(0.0, 1.0, pi / 4)
    with pytest.raises(ValidationError):
        duration_for_angle(0.1, 1.0, float("nan"))
    # no detuning, no loop: the closed form has no duration to offer
    with pytest.raises(ValidationError, match="out of reach"):
        duration_for_angle(0.1, 0.0, pi / 4)


def test_unknown_module_names_raise_attribute_error():
    # the duration root needs no scipy name; only the benchmark's solve_ivp resolves
    for name in ("brentq", "no_such_name"):
        with pytest.raises(AttributeError):
            getattr(iontrap, name)


LEVEL_READERS = {
    "propagator_distance": lambda u, cfg, p: propagator_distance(u, u, cfg, source_levels=p),
    "phonon_identity_defect": lambda u, cfg, p: phonon_identity_defect(u, cfg, source_levels=p),
    "fock_population": lambda u, cfg, p: fock_population(u, cfg, np.eye(4)[0], p),
}


@pytest.mark.parametrize("reader", sorted(LEVEL_READERS))
def test_phonon_levels_outside_the_truncation_raise(reader):
    cfg = TrapConfig(g=0.1, delta=1.0, duration=1.0, n_max=20)
    u = np.eye(cfg.dim, dtype=complex)
    for level in (-1, cfg.n_max + 1, 2.0):
        with pytest.raises(ValidationError, match="n_max=20"):
            LEVEL_READERS[reader](u, cfg, level)
    for level in (0, cfg.n_max, np.int64(3)):
        LEVEL_READERS[reader](u, cfg, level)
