import numpy as np
import pytest
from math import pi

from cpgates import catalog
from cpgates.abserr import AbsoluteComposite, wrap_sequence_absolute
from cpgates.analysis import infidelity_order, sequence_fidelity
from cpgates.gates import FAMILY_COMBINED, phased_cphase, sequence_propagator
from cpgates.linalg import frobenius_norm
from oracles import absolute_composite_propagator

TH = pi / 4


def test_clean_composite_equals_plain_gate():
    for theta, phi in ((TH, 0.0), (1.1, 0.4), (2.0, 3.0)):
        c = AbsoluteComposite(theta, phi)
        got = absolute_composite_propagator(c, xi=0.0)
        assert frobenius_norm(got - phased_cphase(theta, phi)) < 1e-13


@pytest.mark.parametrize("xi", [0.3, -1.2, 0.05])
def test_offset_cancels_exactly(xi):
    c = AbsoluteComposite(TH, 0.0)
    clean = absolute_composite_propagator(c, xi=0.0)
    distorted = absolute_composite_propagator(c, xi=xi)
    assert frobenius_norm(distorted - clean) < 1e-13


def test_offset_cancellation_on_grid():
    thetas = np.linspace(0.05, pi, 20)
    phis = np.linspace(0.0, 2 * pi, 20, endpoint=False)
    xis = np.linspace(-1.5, 1.5, 20)
    worst = 0.0
    for theta in thetas:
        clean = absolute_composite_propagator(AbsoluteComposite(theta, 0.0), 0.0)
        for phi in phis[::4]:
            c = AbsoluteComposite(theta, phi)
            ref = absolute_composite_propagator(c, 0.0)
            for xi in xis[::4]:
                worst = max(worst, frobenius_norm(absolute_composite_propagator(c, xi) - ref))
    assert worst <= 1e-12


def test_wrapped_bb1_shape():
    seq = wrap_sequence_absolute(catalog.broadband(1, TH))
    assert seq.family == FAMILY_COMBINED
    assert len(seq.gates) == 6
    # each pair: (theta/2, phi), (-theta/2, pi + phi)
    original = catalog.broadband(1, TH)
    for k, g in enumerate(original.gates):
        first, second = seq.gates[2 * k], seq.gates[2 * k + 1]
        assert abs(first.theta - g.theta / 2) < 1e-15
        assert abs(second.theta + g.theta / 2) < 1e-15
        d = (second.phi - first.phi - pi + pi) % (2 * pi) - pi
        assert abs(d) < 1e-12
    assert abs(seq.terminal_phase - original.terminal_phase) < 1e-15


def test_wrapped_single_gate_immune_to_offset():
    seq = wrap_sequence_absolute(catalog.single(TH))
    assert sequence_fidelity(seq, epsilon=0.0, xi=0.5) >= 1 - 1e-12


def test_wrapped_bb2_suppresses_both_errors():
    seq = wrap_sequence_absolute(catalog.broadband(2, TH))
    assert sequence_fidelity(seq, epsilon=0.2, xi=0.4) >= 1 - 1e-4


def test_wrapped_equals_unwrapped_at_same_relative_error():
    # the offset cancellation is an operator identity, so wrapping changes
    # nothing about the relative-error response
    rng = np.random.default_rng(31)
    seq = catalog.broadband(2, TH)
    wrapped = wrap_sequence_absolute(seq)
    for _ in range(25):
        eps = rng.uniform(-0.5, 0.5)
        xi = rng.uniform(-1.0, 1.0)
        a = sequence_propagator(seq, eps, 0.0)
        b = sequence_propagator(wrapped, eps, xi)
        assert frobenius_norm(a - b) < 1e-12


def test_wrapped_order_preserved():
    seq = catalog.broadband(1, TH)
    plain = infidelity_order(seq)
    wrapped = infidelity_order(wrap_sequence_absolute(seq), xi=0.3)
    assert abs(plain - wrapped) <= 0.3
    assert abs(wrapped - 4.0) <= 0.3
