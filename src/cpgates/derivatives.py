"""Error model and analytic propagator derivatives with respect to the
relative rotation-angle error, plus the broadband/passband residual
conditions built from them.

The l-th derivative of a single distorted gate has the closed form

    d^l/d eps^l U(theta*(1+eps), phi) |_(eps=eps0)
        = theta^l * U(theta*(1+eps0) + l*pi/2, phi),

and derivatives of a gate product follow by the (multinomial) Leibniz
rule.  It is evaluated as a left-to-right recursion over the gates,
which is algebraically identical to the explicit sum over derivative-order
compositions but costs O(N l^2) small matrix products instead of
enumerating all tuples; the tests cross-check it against that sum and
against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, pi

import numpy as np

from .errors import ValidationError
from .gates import CompositeSequence, ideal_cphase, phase_gate, phased_cphase
from .linalg import frobenius_norm


# ---------------------------------------------------------------------------
# batched derivative engine
# ---------------------------------------------------------------------------

def _gate_derivative_stack(thetas, phis, l_max: int, at_epsilon: float):
    """Derivative stacks for every gate of every batch member.

    Parameters
    ----------
    thetas : (G,) array of gate angles
    phis : (B, G) array of gate phases
    l_max : highest derivative order
    at_epsilon : expansion point of the relative error

    Returns
    -------
    (B, G, l_max+1, 4, 4) array; entry [b, k, l] is
    theta_k^l * U(theta_k*(1+at_epsilon) + l*pi/2, phis[b, k]).
    """
    thetas = np.asarray(thetas, dtype=float)
    phis = np.atleast_2d(np.asarray(phis, dtype=float))
    b, g = phis.shape
    orders = np.arange(l_max + 1)
    ang = thetas[None, :, None] * (1.0 + at_epsilon) + orders[None, None, :] * (pi / 2)
    c = np.broadcast_to(np.cos(ang), (b, g, l_max + 1)).copy()
    s = 1j * np.broadcast_to(np.sin(ang), (b, g, l_max + 1))
    eminus = np.exp(-1j * phis)[:, :, None]
    eplus = np.exp(1j * phis)[:, :, None]
    out = np.zeros((b, g, l_max + 1, 4, 4), dtype=complex)
    for d in range(4):
        out[..., d, d] = c
    # i sin(ang) * kron(sigma_x, sigma_phi)
    out[..., 0, 3] = s * eminus
    out[..., 1, 2] = s * eplus
    out[..., 2, 1] = s * eminus
    out[..., 3, 0] = s * eplus
    powers = thetas[None, :, None] ** orders[None, None, :]
    out *= powers[..., None, None]
    return out


def product_derivative_stack(thetas, phis, l_max: int, at_epsilon: float = 0.0):
    """Derivatives 0..l_max of the ordered gate product (gate 0 first).

    ``phis`` may be (G,) or (B, G); the result is (B, l_max+1, 4, 4) with
    B = 1 for a flat input.  The terminal frame rotation is not included
    (it does not depend on the error).
    """
    stacks = _gate_derivative_stack(thetas, phis, l_max, at_epsilon)
    b = stacks.shape[0]
    g = stacks.shape[1]
    p = stacks[:, 0].copy()
    for k in range(1, g):
        gk = stacks[:, k]
        new = np.empty_like(p)
        for m in range(l_max + 1):
            acc = gk[:, 0] @ p[:, m]
            for j in range(1, m + 1):
                acc = acc + comb(m, j) * (gk[:, j] @ p[:, m - j])
            new[:, m] = acc
        p = new
    return p


# ---------------------------------------------------------------------------
# public single-sequence API
# ---------------------------------------------------------------------------

def derivative_single_gate(
    theta: float, phi: float, l: int, at_epsilon: float = 0.0
) -> np.ndarray:
    """l-th derivative of U(theta*(1+eps), phi) at eps = at_epsilon."""
    if l < 0 or int(l) != l:
        raise ValidationError(f"derivative order must be a non-negative integer, got {l}")
    return theta**l * phased_cphase(theta * (1.0 + at_epsilon) + l * pi / 2, phi)


def derivative_sequence(
    seq: CompositeSequence, l: int, at_epsilon: float = 0.0
) -> np.ndarray:
    """l-th derivative of the full composite propagator (with terminal
    frame rotation) with respect to the relative error."""
    if l < 0 or int(l) != l:
        raise ValidationError(f"derivative order must be a non-negative integer, got {l}")
    p = product_derivative_stack(seq.thetas(), seq.phis(), l, at_epsilon)[0, l]
    if seq.terminal_phase != 0.0:
        p = phase_gate(seq.terminal_phase, 2) @ p
    return p


# ---------------------------------------------------------------------------
# residual conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualVector:
    """Matrix residuals per derivative order, with raw and scaled norms.

    ``entries[l]`` is the order-l residual matrix.  ``norms`` are plain
    Frobenius norms.  ``scaled_norms`` divide order l by scale**l where
    scale = max(1, total rotation angle); the l-th derivative of the
    propagator grows like (total angle)^l, so the scaled norms are the
    ones comparable across orders and against convergence thresholds.
    """

    entries: tuple
    scale: float

    @property
    def norms(self) -> tuple[float, ...]:
        return tuple(frobenius_norm(e) for e in self.entries)

    @property
    def scaled_norms(self) -> tuple[float, ...]:
        return tuple(
            frobenius_norm(e) / self.scale**l for l, e in enumerate(self.entries)
        )

    def max_scaled(self) -> float:
        return max(self.scaled_norms)


def residual_scale(seq: CompositeSequence) -> float:
    return max(1.0, seq.total_angle())


def aligned_target(seq: CompositeSequence, zero_order: np.ndarray) -> np.ndarray:
    """Return +-U(target) with the sign that best matches the zero-error
    propagator.

    Several catalog sequences reproduce the target only up to a global
    phase of pi (e.g. a merged gate contributes a factor -1); both signs
    are physically the same gate, so the comparison target must follow
    the branch the phases actually realize.
    """
    target = ideal_cphase(seq.target_theta)
    if frobenius_norm(zero_order - target) <= frobenius_norm(zero_order + target):
        return target
    return -target


def broadband_residuals(seq: CompositeSequence, n: int) -> ResidualVector:
    """Residuals of the broadband conditions for orders 0..n.

    Order 0 is the difference between the zero-error propagator and the
    sign-aligned target; orders l >= 1 are the raw propagator derivatives
    at eps = 0 (the constant target drops out of them).
    """
    if n < 0:
        raise ValidationError("order must be non-negative")
    p = product_derivative_stack(seq.thetas(), seq.phis(), n)[0]
    if seq.terminal_phase != 0.0:
        f = phase_gate(seq.terminal_phase, 2)
        p = np.einsum("ij,ljk->lik", f, p)
    entries = list(p)
    entries[0] = entries[0] - aligned_target(seq, entries[0])
    return ResidualVector(tuple(entries), residual_scale(seq))


def narrowband_residuals(seq: CompositeSequence, n2: int) -> ResidualVector:
    """Residuals of the narrowband conditions for orders 0..n2.

    These are derivatives of the bare gate product at eps = -1, where all
    rotation angles vanish; the terminal frame rotation is excluded
    because neighbour qubits are not exposed to it.  Order 0 is the
    difference from the identity and vanishes identically.
    """
    if n2 < 0:
        raise ValidationError("order must be non-negative")
    p = product_derivative_stack(seq.thetas(), seq.phis(), n2, at_epsilon=-1.0)[0]
    entries = list(p)
    entries[0] = entries[0] - np.eye(4, dtype=complex)
    return ResidualVector(tuple(entries), residual_scale(seq))


def passband_residuals(
    seq: CompositeSequence, n1: int, n2: int
) -> tuple[ResidualVector, ResidualVector]:
    """Broadband residuals at eps = 0 and narrowband residuals at eps = -1."""
    return broadband_residuals(seq, n1), narrowband_residuals(seq, n2)


def reduced_narrowband_conditions(seq: CompositeSequence) -> tuple[complex, complex]:
    """Closed-form first and second narrowband conditions.

    Writing theta_k, phi_k for the gate angles and phases, the first two
    derivatives of the gate product at eps = -1 vanish exactly when

        c1 = sum_k theta_k exp(i phi_k) = 0
        c2 = sum_k theta_k^2
             + 2 sum_{s<t} theta_s theta_t exp(i (phi_t - phi_s)) = 0

    (s < t in application order).  Both are returned; the passband catalog
    entries drive them to rounding level.
    """
    thetas = seq.thetas()
    phis = seq.phis()
    e = np.exp(1j * phis)
    c1 = complex(np.sum(thetas * e))
    weighted = thetas * e
    cross = 0.0 + 0.0j
    for s in range(len(thetas)):
        cross += np.conj(weighted[s]) * np.sum(weighted[s + 1 :])
    c2 = complex(np.sum(thetas**2) + 2.0 * cross)
    return c1, c2
