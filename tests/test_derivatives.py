import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from math import pi

from cpgates import catalog
from cpgates.derivatives import (
    broadband_residuals,
    derivative_sequence,
    narrowband_residuals,
    product_derivative_stack,
)
from cpgates.errors import ValidationError
from cpgates.gates import (
    CompositeSequence,
    _embed_blocks,
    PhasedGate,
    phased_cphase,
    sequence_propagator,
)
from cpgates.linalg import frobenius_norm
from oracles import (
    ErrorModel,
    derivative_sequence_multinomial,
    derivative_single_gate,
    gate_product_propagator,
    leibniz_derivative_stack,
    reduced_narrowband_conditions,
)


def _fd(fun, order, at=0.0, h=1e-3):
    """Central 5-point finite differences, orders 1..4."""
    f2, f1 = fun(at + 2 * h), fun(at + h)
    f0 = fun(at)
    fm1, fm2 = fun(at - h), fun(at - 2 * h)
    if order == 1:
        return (-f2 + 8 * f1 - 8 * fm1 + fm2) / (12 * h)
    if order == 2:
        return (-f2 + 16 * f1 - 30 * f0 + 16 * fm1 - fm2) / (12 * h**2)
    if order == 3:
        return (f2 - 2 * f1 + 2 * fm1 - fm2) / (2 * h**3)
    if order == 4:
        return (f2 - 4 * f1 + 6 * f0 - 4 * fm1 + fm2) / h**4
    raise ValueError(order)


def test_error_model_validation():
    ErrorModel(-1.0, 0.0)  # the narrowband point is legal
    with pytest.raises(ValidationError):
        ErrorModel(float("inf"), 0.0)


def test_error_model_distortion():
    err = ErrorModel(epsilon=0.1, xi=0.05)
    assert abs(err.distort(1.0) - 1.15) < 1e-15
    seq = catalog.broadband(1, pi / 4)
    assert (
        frobenius_norm(err.propagator(seq) - sequence_propagator(seq, 0.1, 0.05))
        < 1e-15
    )


def test_order_zero_is_the_gate():
    g = derivative_single_gate(0.6, 1.1, 0)
    assert frobenius_norm(g - phased_cphase(0.6, 1.1)) < 1e-15


def test_first_derivative_of_half_pi_gate():
    d = derivative_single_gate(pi / 2, 0.0, 1)
    assert frobenius_norm(d - (-(pi / 2) * np.eye(4))) < 1e-12


def test_single_gate_derivatives_match_finite_differences():
    # l = 1, 2 resolve cleanly at step 1e-3; the higher stencils divide by
    # h^l, so they need a larger step to stay above the rounding floor.
    rng = np.random.default_rng(21)
    for _ in range(200):
        theta = rng.uniform(0.3, pi / 2)
        phi = rng.uniform(0, 2 * pi)
        l = int(rng.integers(1, 5))
        h, tol = (1e-3, 1e-6) if l <= 2 else (1e-2, 5e-4)
        fd = _fd(lambda e: phased_cphase(theta * (1 + e), phi), l, h=h)
        an = derivative_single_gate(theta, phi, l)
        assert frobenius_norm(an - fd) / frobenius_norm(an) < tol


def test_derivative_order_validation():
    with pytest.raises(ValidationError):
        derivative_single_gate(0.5, 0.0, -1)


def _random_sequence(rng, n_gates, theta_cap=pi / 2):
    gates = tuple(
        PhasedGate(rng.uniform(0.1, theta_cap), rng.uniform(0, 2 * pi))
        for _ in range(n_gates)
    )
    return CompositeSequence(gates=gates, terminal_phase=rng.uniform(-pi, pi))


def test_sequence_derivative_order_zero():
    rng = np.random.default_rng(22)
    seq = _random_sequence(rng, 4)
    assert frobenius_norm(derivative_sequence(seq, 0) - sequence_propagator(seq)) < 1e-14


def test_sequence_derivatives_match_finite_differences():
    rng = np.random.default_rng(23)
    for _ in range(200):
        seq = _random_sequence(rng, int(rng.integers(2, 4)))
        l = int(rng.integers(1, 4))
        fd = _fd(lambda e: sequence_propagator(seq, e), l)
        an = derivative_sequence(seq, l)
        assert frobenius_norm(an - fd) / max(frobenius_norm(an), 1e-12) < 1e-5


def test_fourth_derivative_on_catalog_sequences():
    # for sequences that cancel low orders the 4th derivative is small
    # against the 6th-order truncation term of the stencil, which caps
    # the achievable finite-difference accuracy near 1e-4 relative
    for seq in (catalog.broadband(2, pi / 4), catalog.broadband(3, pi / 4)):
        fd = _fd(lambda e: sequence_propagator(seq, e), 4)
        an = derivative_sequence(seq, 4)
        assert frobenius_norm(an - fd) / frobenius_norm(an) < 1e-3


def test_second_derivative_of_three_gate_sequence():
    rng = np.random.default_rng(24)
    seq = _random_sequence(rng, 3)
    fd = _fd(lambda e: sequence_propagator(seq, e), 2)
    an = derivative_sequence(seq, 2)
    assert frobenius_norm(an - fd) / frobenius_norm(an) < 1e-5


def test_leibniz_recursion_equals_multinomial_sum():
    rng = np.random.default_rng(25)
    for _ in range(20):
        seq = _random_sequence(rng, int(rng.integers(2, 5)))
        for l in range(5):
            a = derivative_sequence(seq, l)
            b = derivative_sequence_multinomial(seq, l)
            assert frobenius_norm(a - b) < 1e-10


def test_derivatives_at_narrowband_point_match_finite_differences():
    rng = np.random.default_rng(26)
    for _ in range(50):
        seq = _random_sequence(rng, 3)
        l = int(rng.integers(1, 4))
        fd = _fd(lambda e: gate_product_propagator(seq, e), l, at=-1.0)
        an = derivative_sequence(
            seq.with_phis([g.phi for g in seq.gates], terminal_phase=0.0), l, at_epsilon=-1.0
        )
        assert frobenius_norm(an - fd) / max(frobenius_norm(an), 1e-12) < 1e-5


# --- residual conditions ----------------------------------------------------

def test_bb1_first_order_cancels():
    rv = broadband_residuals(catalog.broadband(1, pi / 4), 1)
    assert rv.norms[1] <= 1e-10


def test_single_gate_first_order_norm():
    theta = pi / 4
    rv = broadband_residuals(catalog.single(theta), 1)
    assert abs(rv.norms[1] - 2 * theta) < 1e-12


def test_bb2_analytic_residuals_vanish():
    rv = broadband_residuals(catalog.broadband(2, pi / 4), 2)
    assert max(rv.norms) <= 1e-10


def test_bb3_decimal_residuals_within_rounding():
    rv = broadband_residuals(catalog.broadband(3, pi / 4), 3)
    assert max(rv.scaled_norms) <= 5e-2
    assert max(rv.norms) <= 1e-1  # raw norms, quantisation-limited


def test_zero_order_sign_alignment():
    # BB1 realises -U(target); the residual must align to that branch
    rv = broadband_residuals(catalog.broadband(1, pi / 4), 0)
    assert rv.norms[0] < 1e-12


def test_narrowband_order_zero_is_automatic():
    rng = np.random.default_rng(27)
    for _ in range(50):
        seq = _random_sequence(rng, int(rng.integers(1, 6)))
        rv = narrowband_residuals(seq, 0)
        assert rv.norms[0] <= 1e-12


def test_gate_product_is_identity_at_minus_one():
    rng = np.random.default_rng(28)
    for _ in range(50):
        seq = _random_sequence(rng, int(rng.integers(1, 6)))
        c = gate_product_propagator(seq, epsilon=-1.0)
        assert abs(abs(np.trace(c)) / 4 - 1.0) < 1e-12


def test_passband_11_reduced_condition():
    seq = catalog.passband(1, 1, pi / 4)
    c1, _ = reduced_narrowband_conditions(seq)
    assert abs(c1) <= 1e-9


def test_passband_22_reduced_conditions():
    seq = catalog.passband(2, 2, pi / 4)
    c1, c2 = reduced_narrowband_conditions(seq)
    assert abs(c1) <= 1e-9
    assert abs(c2) <= 1e-9


@pytest.mark.parametrize("orders", catalog.PASSBAND_ORDERS)
def test_passband_residuals_cancel_their_orders(orders):
    n1, n2 = orders
    seq = catalog.passband(n1, n2, pi / 4)
    bb, nb = broadband_residuals(seq, n1), narrowband_residuals(seq, n2)
    assert max(bb.scaled_norms) <= 1e-9
    assert max(nb.scaled_norms) <= 1e-9


def test_passband_chi_sign_branch_matters():
    # flipping the second closed-form root breaks the conditions
    from cpgates.gates import PhasedGate, CompositeSequence
    from cpgates.catalog import passband_chi1

    theta = pi / 4
    c1 = passband_chi1(theta)
    c2_wrong = pi - catalog.passband_chi2(theta)  # arccos of the negated root
    phis = (c1, c1 + c2_wrong, -c1 + c2_wrong, -c1 - c2_wrong, c1 - c2_wrong, pi + c1)
    gates = (PhasedGate(theta, 0.0),) + tuple(PhasedGate(pi / 2, p) for p in phis)
    seq = CompositeSequence(gates=gates, target_theta=theta)
    assert max(narrowband_residuals(seq, 2).scaled_norms) > 1e-2


# --- 2x2 Cayley-Klein kernel against the 4x4 Leibniz recursion ---------------

@settings(max_examples=80)
@given(
    gates=st.integers(1, 12),
    order=st.integers(0, 6),
    at_epsilon=st.sampled_from([0.0, -1.0]),
    batch=st.integers(1, 4),
    data=st.data(),
)
def test_blocks_equal_leibniz_oracle(gates, order, at_epsilon, batch, data):
    thetas = data.draw(st.lists(st.floats(-2 * pi, 2 * pi), min_size=gates, max_size=gates))
    flat = data.draw(st.lists(st.floats(0.0, 2 * pi), min_size=batch * gates,
                              max_size=batch * gates))
    phis = np.array(flat).reshape(batch, gates)
    blocks = product_derivative_stack(thetas, phis, order, at_epsilon)
    assert blocks.shape == (batch, order + 1, 2, 2)
    oracle = leibniz_derivative_stack(thetas, phis, order, at_epsilon)
    # order l of the stack is bounded by (total angle)^l
    scale = max(1.0, float(np.sum(np.abs(thetas)))) ** np.arange(order + 1)
    err = np.max(np.abs(_embed_blocks(blocks) - oracle), axis=(2, 3)) / scale
    assert np.max(err) < 1e-14


def test_stack_of_flat_phases_is_one_batch_row():
    rng = np.random.default_rng(29)
    thetas, phis = rng.uniform(0.1, 2.0, 5), rng.uniform(0, 2 * pi, 5)
    flat = product_derivative_stack(thetas, phis, 3)
    assert flat.shape == (1, 4, 2, 2)
    assert np.array_equal(flat, product_derivative_stack(thetas, phis[None, :], 3))


def test_stack_rejects_negative_order():
    with pytest.raises(ValidationError):
        product_derivative_stack([0.5], [0.0], -1)
