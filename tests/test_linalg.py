import numpy as np
import pytest
from math import pi

from cpgates.errors import ValidationError
from cpgates.linalg import (
    SIGMA_X,
    frobenius_norm,
    is_unitary,
    mat_exp_hermitian_generator,
    sigma_axis,
)
from oracles import SIGMA, Z_EXPONENTIAL, pauli_string_matrix, pauli_string_product

SXSX = np.kron(SIGMA_X, SIGMA_X)


def test_exp_zero_scale_is_identity():
    assert frobenius_norm(mat_exp_hermitian_generator(SXSX, 0.0) - np.eye(4)) < 1e-15


def test_exp_pi_gives_minus_identity():
    # sigma_x (x) sigma_x has eigenvalues +-1, so exp(i pi H) = -1
    m = mat_exp_hermitian_generator(SXSX, pi)
    assert frobenius_norm(m + np.eye(4)) < 1e-12


def test_exp_half_pi_gives_i_H():
    m = mat_exp_hermitian_generator(SXSX, pi / 2)
    assert frobenius_norm(m - 1j * SXSX) < 1e-12


def test_exp_closed_form_for_involutory_generators():
    rng = np.random.default_rng(1)
    for _ in range(50):
        theta = rng.uniform(-2 * pi, 2 * pi)
        phi = rng.uniform(0, 2 * pi)
        h = np.kron(SIGMA_X, sigma_axis(phi))
        m = mat_exp_hermitian_generator(h, theta)
        expected = np.cos(theta) * np.eye(4) + 1j * np.sin(theta) * h
        assert frobenius_norm(m - expected) < 1e-12
        assert is_unitary(m)


def test_exp_rejects_a_generator_that_is_not_involutory():
    # the closed form needs h @ h = I; a general Hermitian h, or a Pauli
    # string off by a scale, is an error rather than a silent eigh
    rng = np.random.default_rng(2)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    for h in (a + a.conj().T, 1.001 * SXSX, np.diag([1.0, -1.0, 0.0, 1.0])):
        with pytest.raises(ValidationError, match="not involutory"):
            mat_exp_hermitian_generator(h, 0.37)


def test_exp_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        mat_exp_hermitian_generator(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


def test_commuting_exponentials_compose():
    h = SXSX
    a = mat_exp_hermitian_generator(h, 0.3)
    b = mat_exp_hermitian_generator(h, 1.1)
    c = mat_exp_hermitian_generator(h, 1.4)
    assert frobenius_norm(a @ b - c) < 1e-12


def test_frobenius_norm_examples():
    assert frobenius_norm(np.zeros((4, 4))) == 0.0
    assert abs(frobenius_norm(np.eye(4)) - 2.0) < 1e-15
    assert abs(frobenius_norm(1j * SXSX) - 2.0) < 1e-15


def test_pauli_string_two_factors():
    kind, arg = pauli_string_product([0.7, 0.2])
    assert kind == Z_EXPONENTIAL
    assert abs(arg - (-(0.7 - 0.2))) < 1e-15


def test_pauli_string_three_factors():
    kind, arg = pauli_string_product([0.7, 0.2, 1.1])
    assert kind == SIGMA
    assert abs(arg - (0.7 - 0.2 + 1.1)) < 1e-15


def test_pauli_string_single_factor():
    kind, arg = pauli_string_product([0.3])
    assert kind == SIGMA
    assert abs(arg - 0.3) < 1e-15


def test_pauli_string_empty_rejected():
    with pytest.raises(ValidationError):
        pauli_string_product([])


def test_pauli_string_matches_explicit_products():
    # the closed form against brute-force 2x2 multiplication, lengths 1..6
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = rng.integers(1, 7)
        phis = rng.uniform(0, 2 * pi, n)
        explicit = np.eye(2, dtype=complex)
        for p in phis:
            explicit = explicit @ sigma_axis(p)
        kind, arg = pauli_string_product(phis)
        assert frobenius_norm(explicit - pauli_string_matrix(kind, arg)) < 1e-12


def test_sigma_axis_basics():
    assert frobenius_norm(sigma_axis(0.0) - SIGMA_X) < 1e-15
    assert frobenius_norm(sigma_axis(pi / 2) - np.array([[0, -1j], [1j, 0]])) < 1e-15
    assert frobenius_norm(sigma_axis(pi) + SIGMA_X) < 1e-15
