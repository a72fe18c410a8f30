import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from math import nextafter, pi

from cpgates.catalog import broadband
from cpgates.errors import ValidationError
from cpgates.gates import (
    CompositeSequence,
    PhasedGate,
    TWO_PI,
    canonical_angle,
    convert_phase_conventions,
    ideal_cphase,
    interleaved_from_phases,
    phase_gate,
    phased_cphase,
    sequence_propagator,
)
from cpgates.linalg import SIGMA_X, frobenius_norm, is_unitary, sigma_axis
from oracles import merge_adjacent


def test_zero_angle_is_identity():
    for phi in (0.0, 1.0, 4.0):
        assert frobenius_norm(phased_cphase(0.0, phi) - np.eye(4)) < 1e-15


def test_half_pi_gate_is_i_sigma_sigma():
    for phi in (0.0, 0.7, 2.0):
        expected = 1j * np.kron(SIGMA_X, sigma_axis(phi))
        assert frobenius_norm(phased_cphase(pi / 2, phi) - expected) < 1e-15


def test_pi_gate_is_identity_up_to_global_phase():
    m = phased_cphase(pi, 1.3)
    assert frobenius_norm(m + np.eye(4)) < 1e-12


def test_phase_pi_flips_angle_sign():
    for theta in (0.3, -1.1, pi / 4):
        assert frobenius_norm(phased_cphase(theta, pi) - phased_cphase(-theta, 0.0)) < 1e-12


def test_unitarity_randomized():
    rng = np.random.default_rng(7)
    for _ in range(200):
        theta = rng.uniform(-2 * pi, 2 * pi)
        phi = rng.uniform(0, 2 * pi)
        u = phased_cphase(theta, phi)
        assert is_unitary(u)


def test_phase_gate_identity_and_explicit_form():
    assert frobenius_norm(phase_gate(0.0, 2) - np.eye(4)) < 1e-15
    m = phase_gate(pi / 2, 2)
    expected = np.kron(np.eye(2), np.diag([-1j, 1j]))
    assert frobenius_norm(m - expected) < 1e-12


def test_phase_gate_conjugation_shifts_gate_phase():
    # F(phi/2) U(theta, 0) F(-phi/2) = U(theta, phi), frame rotation on qubit 2
    rng = np.random.default_rng(8)
    for _ in range(50):
        theta = rng.uniform(-pi, pi)
        phi = rng.uniform(0, 2 * pi)
        lhs = phase_gate(phi / 2, 2) @ phased_cphase(theta, 0.0) @ phase_gate(-phi / 2, 2)
        assert frobenius_norm(lhs - phased_cphase(theta, phi)) < 1e-12


def test_phase_gate_qubit_validation():
    with pytest.raises(ValidationError):
        phase_gate(0.1, 3)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("call", [
    lambda bad: phase_gate(bad),
    lambda bad: phase_gate(bad, 1),
    lambda bad: convert_phase_conventions([0.3, bad]),
    lambda bad: interleaved_from_phases([bad], 0.0),
    lambda bad: interleaved_from_phases([-0.6], bad),
    lambda bad: interleaved_from_phases([], bad),
], ids=["phase_gate", "phase_gate_q1", "convert", "interleaved_phase",
        "interleaved_terminal", "interleaved_empty"])
def test_non_finite_phases_are_rejected(call, bad):
    with pytest.raises(ValidationError, match="finite"):
        call(bad)


def test_interleaved_tolerance_is_fixed():
    # the 1e-9 tolerance is a constant: a NaN tolerance cannot pass an
    # inconsistent terminal phase
    phis, term = convert_phase_conventions([0.3, -0.2, 0.7])
    assert np.allclose(interleaved_from_phases(phis, term + 1e-10), [0.3, -0.2, 0.7])
    with pytest.raises(ValidationError, match="not representable"):
        interleaved_from_phases(phis, term + 1.0)
    with pytest.raises(TypeError):
        interleaved_from_phases(phis, term + 1.0, tol=float("nan"))


def test_single_gate_propagator():
    seq = CompositeSequence(gates=(PhasedGate(pi / 4, 0.0),), target_theta=pi / 4)
    assert frobenius_norm(sequence_propagator(seq) - ideal_cphase(pi / 4)) < 1e-15


def test_catalog_bb1_is_exact_up_to_global_phase():
    seq = broadband(1, pi / 4)
    c0 = sequence_propagator(seq)
    target = ideal_cphase(pi / 4)
    assert frobenius_norm(c0 + target) < 1e-12  # global phase pi branch


def test_catalog_bb2_inside_published_error_band():
    seq = broadband(2, pi / 4)
    c = sequence_propagator(seq, epsilon=0.2)
    fid = abs(np.trace(ideal_cphase(pi / 4).conj().T @ c)) / 4
    assert fid >= 1 - 1e-4


def test_propagator_is_unitary_under_errors():
    rng = np.random.default_rng(9)
    seq = broadband(2, pi / 4)
    for _ in range(50):
        u = sequence_propagator(seq, rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert is_unitary(u)


# --- phase-convention conversion -------------------------------------------

def test_convert_all_zero():
    phis, term = convert_phase_conventions([0.0, 0.0, 0.0])
    assert phis == [0.0, 0.0, 0.0]
    assert term == 0.0


def test_convert_single_value():
    phis, term = convert_phase_conventions([0.4])
    assert abs(phis[0] + 0.8) < 1e-15
    assert abs(term - 0.4) < 1e-15


def _interleaved_propagator(thetas, varphis):
    """Frame rotations applied between unphased gates."""
    m = phased_cphase(thetas[0], 0.0)
    for th, w in zip(thetas[1:], varphis):
        m = phased_cphase(th, 0.0) @ phase_gate(w, 2) @ m
    return m


def test_convert_matches_matrix_products():
    rng = np.random.default_rng(10)
    for _ in range(200):
        n = rng.integers(1, 6)
        thetas = rng.uniform(0.1, pi, n + 1)
        varphis = rng.uniform(-pi, pi, n)
        phis, term = convert_phase_conventions(varphis)
        lhs = _interleaved_propagator(thetas, varphis)
        rhs = phased_cphase(thetas[0], 0.0)
        for th, p in zip(thetas[1:], phis):
            rhs = phased_cphase(th, p) @ rhs
        rhs = phase_gate(term, 2) @ rhs
        assert frobenius_norm(lhs - rhs) < 1e-11


def test_convert_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = rng.integers(1, 6)
        varphis = rng.uniform(-pi, pi, n)
        phis, term = convert_phase_conventions(varphis)
        back = interleaved_from_phases(phis, term)
        assert np.allclose(back, varphis, atol=1e-12)


def test_interleaved_rejects_inconsistent_terminal():
    phis, term = convert_phase_conventions([0.3, 0.5])
    with pytest.raises(ValidationError):
        interleaved_from_phases(phis, term + 0.2)


# --- merging ----------------------------------------------------------------

def test_merge_equal_phase_neighbours():
    seq = CompositeSequence(
        gates=(PhasedGate(pi / 2, 0.7), PhasedGate(pi / 2, 0.7)),
        target_theta=pi / 4,
    )
    merged = merge_adjacent(seq)
    assert len(merged.gates) == 1
    assert abs(merged.gates[0].theta - pi) < 1e-15
    assert frobenius_norm(sequence_propagator(merged) - sequence_propagator(seq)) < 1e-12


def test_merge_leaves_distinct_neighbours():
    seq = broadband(1, pi / 4)
    assert merge_adjacent(seq) == seq


def test_merged_bb2_shape():
    # the published second-order row is stored merged: 4 gates, 2.25 pi
    seq = broadband(2, pi / 4)
    assert len(seq.gates) == 4
    assert abs(seq.total_angle() - 2.25 * pi) < 1e-12
    assert abs(seq.gates[2].theta - pi) < 1e-15


def test_bb1_zero_order_phase_condition():
    # alternating sum of phases plus terminal cancels: 0 - phi + 3 phi - 2 phi = 0
    phi = broadband(1, pi / 4).gates[1].phi
    seq = broadband(1, pi / 4)
    phases = [g.phi for g in seq.gates]
    n = len(phases) - 1
    alternating = sum((-1) ** (k - n) * p for k, p in enumerate(phases))
    assert abs((alternating + seq.terminal_phase + pi) % (2 * pi) - pi) < 1e-12
    assert abs(phases[1] - phi) < 1e-12


def test_sequence_validation():
    with pytest.raises(ValidationError):
        CompositeSequence(gates=())
    with pytest.raises(ValidationError):
        PhasedGate(float("nan"), 0.0)


@pytest.mark.parametrize("target", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_target_angle_raises(target):
    with pytest.raises(ValidationError, match="target angle must be finite"):
        CompositeSequence(gates=(PhasedGate(pi / 4, 0.0),), target_theta=target)


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(-5e-324)
@example(TWO_PI)
@example(nextafter(TWO_PI, 0.0))
@example(-1e300)
def test_canonical_angle_is_np_mod_bit_for_bit(phi):
    # np.mod, with a tiny negative angle's 2*pi taken as 0
    expected = float(np.mod(phi, TWO_PI))
    expected = 0.0 if expected == TWO_PI else expected
    angle = canonical_angle(phi)
    assert type(angle) is float and angle.hex() == expected.hex()
    assert 0.0 <= angle < TWO_PI
    assert canonical_angle(np.float64(phi)).hex() == expected.hex()


@pytest.mark.parametrize("phi", [float("nan"), float("inf"), float("-inf")])
def test_canonical_angle_rejects_non_finite(phi):
    with pytest.raises(ValidationError, match="angle must be finite"):
        canonical_angle(phi)
    with pytest.raises(ValidationError, match="angle must be finite"):
        PhasedGate(pi / 4, phi)
