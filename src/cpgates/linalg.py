"""Dense complex linear algebra for small two-qubit operators and
moderate-dimension spin/phonon operators, and the phased Pauli axes
sigma(phi) = sigma_x cos(phi) + sigma_y sin(phi).

All matrices are plain ``numpy`` arrays of dtype complex128.  Values are
never mutated in place by the functions here, so everything is safe to
share between concurrent workers.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
IDENTITY_4 = np.eye(4, dtype=complex)

HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-12


def sigma_axis(phi: float) -> np.ndarray:
    """Equatorial Pauli axis sigma(phi) = sigma_x cos(phi) + sigma_y sin(phi)."""
    return np.array(
        [[0.0, np.exp(-1j * phi)], [np.exp(1j * phi), 0.0]], dtype=complex
    )


def frobenius_norm(m: np.ndarray) -> float:
    """Frobenius norm sqrt(sum |m_ij|^2); zero exactly when m is zero."""
    return float(np.linalg.norm(np.asarray(m)))


def is_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    m = np.asarray(m)
    return frobenius_norm(m - m.conj().T) <= tol


def is_unitary(m: np.ndarray, tol: float = UNITARITY_TOL) -> bool:
    m = np.asarray(m)
    return frobenius_norm(m.conj().T @ m - np.eye(m.shape[0])) <= tol


def mat_exp_hermitian_generator(h: np.ndarray, scale: float) -> np.ndarray:
    """exp(i * scale * h) = cos(scale) I + i sin(scale) h for a Hermitian h
    with h @ h = I, such as the Pauli string sigma(phi_1) (x) sigma(phi_2).

    Raises
    ------
    ValidationError
        If h is not square, not Hermitian within 1e-12, or h @ h is not I.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {h.shape}")
    if not is_hermitian(h):
        raise ValidationError("generator is not Hermitian within 1e-12")
    eye = np.eye(h.shape[0], dtype=complex)
    if frobenius_norm(h @ h - eye) > HERMITICITY_TOL * h.shape[0]:
        raise ValidationError("generator is not involutory: h @ h is not I")
    return np.cos(scale) * eye + 1j * np.sin(scale) * h
