"""Error model and analytic propagator derivatives with respect to the
relative rotation-angle error, plus the broadband/passband residual
conditions built from them.

The l-th derivative of a single distorted gate has the closed form

    d^l/d eps^l U(theta*(1+eps), phi) |_(eps=eps0)
        = theta^l * U(theta*(1+eps0) + l*pi/2, phi),

and derivatives of a gate product follow by the Leibniz rule.  All of
them embed 2x2 Cayley-Klein blocks [[a, b], [-conj(b), conj(a)]] (see
:mod:`cpgates.gates`), so the kernel carries the Taylor coefficients of
(a, b) in eps - eps0.  Gate k has c_l = theta^l/l! cos(alpha + l pi/2)
and s_l = i theta^l/l! sin(alpha + l pi/2) e^{-i phi}, alpha =
theta (1+eps0); multiplying by it is a Cauchy product, i.e. one
triangular Toeplitz matrix per gate applied to a whole batch of phase
vectors, and derivative l is l! times coefficient l.  Phase phi_k enters
gate k only through e^{-i phi_k}, so the same kernel also gives the exact
partial derivatives with respect to the phases (the solver's Jacobian).

The residual conditions have one implementation, :func:`residual_rows`,
which the solver and :func:`broadband_residuals` /
:func:`narrowband_residuals` share: it fixes the frame rotation, the
order layout and the sign of the target, and keeps every order as the
first row of its block.  4x4 matrices appear only at the public
boundary (:func:`derivative_sequence`).
The tests check the kernel and the residuals against the 4x4 Leibniz
recursion, the multinomial sum and finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, pi

import numpy as np

from .errors import ValidationError
from .gates import CompositeSequence, _blocks, _embed_blocks


# ---------------------------------------------------------------------------
# batched derivative engine
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _taylor_factors(thetas: tuple, l_max: int, at_epsilon: float):
    """Per-gate Toeplitz factors [C_k | S_k] of shape (G, L, 2L) for the
    cos and i sin parts (row i, column m holds coefficient m - i), and l!
    for l < L."""
    thetas = np.array(thetas)
    orders = np.arange(l_max + 1)
    factorials = np.array([float(factorial(l)) for l in orders])
    taylor = thetas[:, None] ** orders / factorials
    ang = thetas[:, None] * (1.0 + at_epsilon) + orders * (pi / 2)
    lag = orders[None, :] - orders[:, None]
    below, lag = lag < 0, np.maximum(lag, 0)
    factors = np.concatenate([
        np.where(below, 0j, (taylor * np.cos(ang))[:, lag]),
        np.where(below, 0j, (1j * taylor * np.sin(ang))[:, lag]),
    ], axis=2)
    factors.flags.writeable = factorials.flags.writeable = False
    return factors, factorials


def _kernel(thetas, e, l_max: int, at_epsilon: float, keep=None):
    """Taylor rows (a, b), each (B, l_max+1), of the ordered gate product
    for per-gate phase factors ``e`` (B, G), scaled to derivatives.

    ``keep`` (B, G), when given, weights each gate's C_k part.  Gate k
    enters the product linearly, as C_k + e_k S_k, so zeroing its C_k part
    and multiplying e_k by -i turns a row into the product's partial
    derivative with respect to phi_k.
    """
    if l_max < 0:
        raise ValidationError(f"derivative order must be non-negative, got {l_max}")
    factors, factorials = _taylor_factors(
        tuple(map(float, thetas)), int(l_max), float(at_epsilon))
    batch, n = len(e), l_max + 1
    # With S_k purely imaginary, conj(b) S = -conj(b S), so gate k maps
    #   a -> a C + e conj(b S),   b -> b C - e conj(a S),   e = e^{-i phi_k}.
    # The rows of a and b form one (2B, L) matrix, so that each batch row
    # goes through the same matrix products whatever B is.
    signed = (np.array([1.0, -1.0])[:, None, None] * e)[..., None]
    first = factors[0, :1]  # gate 0 applied to the identity
    a = np.repeat(first[:, :n], batch, axis=0)
    ab = np.concatenate([a if keep is None else keep[:, :1] * a, e[:, :1] * first[:, n:]])
    for k in range(1, len(factors)):
        y = (ab @ factors[k]).reshape(2, batch, 2 * n)
        c = y[..., :n] if keep is None else keep[:, k, None] * y[..., :n]
        ab = (c + signed[:, :, k] * y[::-1, :, n:].conj()).reshape(2 * batch, n)
    return ab.reshape(2, batch, n) * factorials


def product_derivative_stack(thetas, phis, l_max: int, at_epsilon: float = 0.0):
    """Blocks V_l of the derivatives 0..l_max of the ordered gate product
    (gate 0 first) at eps = at_epsilon.

    ``phis`` may be (G,) or (B, G); the result is (B, l_max+1, 2, 2) with
    B = 1 for a flat input.  The terminal frame rotation is not included
    (it does not depend on the error).
    """
    phis = np.atleast_2d(np.asarray(phis, dtype=float))
    return _blocks(*_kernel(thetas, np.exp(-1j * phis), l_max, at_epsilon))


def phase_partials_stack(thetas, phis, l_max: int, at_epsilon: float = 0.0):
    """Derivative blocks of the gate product and of its exact partials
    with respect to the phases of gates 1..G-1.

    ``phis`` may be (G,) or (B, G); the result is (B, G, l_max+1, 2, 2)
    with B = 1 for a flat input.  Entry [b, 0] is
    ``product_derivative_stack(thetas, phis[b], ...)[0]`` and entry
    [b, k] its derivative with respect to phis[b, k]: gate k's block
    C_k + e_k S_k is replaced by its phase derivative -i e_k S_k, all
    entries of all B phase vectors in one batched kernel pass.
    """
    phis = np.atleast_2d(np.asarray(phis, dtype=float))
    batch, g = phis.shape
    e = np.repeat(np.exp(-1j * phis)[:, None, :], g, axis=1)
    keep = np.ones(e.shape)
    # entries (k, k), k >= 1, of each phase vector's (G, G) block
    partials = (slice(None), slice(g + 1, None, g + 1))
    e.reshape(batch, g * g)[partials] *= -1j
    keep.reshape(batch, g * g)[partials] = 0.0
    ab = _kernel(thetas, e.reshape(-1, g), l_max, at_epsilon, keep.reshape(-1, g))
    return _blocks(*ab).reshape(batch, g, l_max + 1, 2, 2)


# ---------------------------------------------------------------------------
# public single-sequence API
# ---------------------------------------------------------------------------

def derivative_sequence(
    seq: CompositeSequence, l: int, at_epsilon: float = 0.0
) -> np.ndarray:
    """l-th derivative of the full composite propagator (with terminal
    frame rotation) with respect to the relative error."""
    if l < 0 or int(l) != l:
        raise ValidationError(f"derivative order must be a non-negative integer, got {l}")
    v = product_derivative_stack(seq.thetas(), seq.phis(), l, at_epsilon)[0, l]
    return _embed_blocks(_blocks(*(np.exp(-1j * seq.terminal_phase) * v[0])))


# ---------------------------------------------------------------------------
# residual conditions
# ---------------------------------------------------------------------------

def residual_rows(thetas, phis, terminal, target_theta: float, orders, partials: bool = False):
    """Residual conditions of a batch of phase vectors ``phis`` (B, G)
    and terminal phases ``terminal`` (B,), or None for a frame rotation
    fixed at zero, as the first rows (a, b) of their 2x2 blocks.

    For ``orders = (n1, n2)`` the result is (B, n1 + n2 + 1, 2): orders
    0..n1 of the framed gate product at eps = 0, then orders 1..n2 of the
    bare product at eps = -1 (neighbour qubits do not see the frame
    rotation; order 0 there is exactly the identity).  Order 0 is taken
    less the first row of +-U(target), whichever is closer, + on a tie:
    a sequence may realize the target only up to a global phase of pi,
    which is the same gate.  A block [[a, b], [-conj(b), conj(a)]] is
    fixed by its first row, and its 4x4 Frobenius norm is
    2 sqrt(|a|^2 + |b|^2).

    With ``partials`` the result is (B, G, n1 + n2 + 1, 2): [b, 0] the
    residual rows and [b, k] their exact partials with respect to
    phis[b, k] (k = 1..G-1, from :func:`phase_partials_stack`).  Given
    terminal phases, [b, G] follows, the partials with respect to them:
    -i times the framed eps = 0 rows, 0 for the eps = -1 rows.
    """
    n1, n2 = orders
    stack = phase_partials_stack if partials else product_derivative_stack
    # the frame rotation diag(e^{-it}, e^{it}) acts on the first row as e^{-it}
    rows = stack(thetas, phis, n1)[..., 0, :]
    frame = np.exp(-1j * np.asarray(0.0 if terminal is None else terminal))
    rows = frame.reshape(frame.shape + (1,) * (rows.ndim - frame.ndim)) * rows
    if n2 > 0:
        narrow = stack(thetas, phis, n2, at_epsilon=-1.0)
        rows = np.concatenate([rows, narrow[..., 1:, 0, :]], axis=-2)
    if partials and terminal is not None:
        dt = np.zeros_like(rows[:, :1])
        dt[:, :, : n1 + 1] = -1j * rows[:, :1, : n1 + 1]
        rows = np.concatenate([rows, dt], axis=1)
    value = rows[:, 0] if partials else rows
    target = np.array([np.cos(target_theta), 1j * np.sin(target_theta)])
    zero = value[:, :1] - np.array([target, -target])
    sq = np.sum(zero.view(float) ** 2, axis=2)
    value[:, 0] = zero[np.arange(len(value)), (sq[:, 1] < sq[:, 0]).astype(int)]
    return rows


@dataclass(frozen=True)
class ResidualVector:
    """Residual conditions per derivative order, with raw and scaled norms.

    ``rows[l]`` is the first row (a, b) of the order-l residual block
    (see :func:`residual_rows`).  ``norms`` are the 4x4 Frobenius norms
    2 |rows[l]|.
    ``scaled_norms`` divide order l by scale**l where scale = max(1,
    total rotation angle); the l-th derivative of the propagator grows
    like (total angle)^l, so the scaled norms are the ones comparable
    across orders and against convergence thresholds.
    """

    rows: np.ndarray
    scale: float

    @property
    def norms(self) -> tuple[float, ...]:
        return tuple(2.0 * float(np.linalg.norm(row)) for row in self.rows)

    @property
    def scaled_norms(self) -> tuple[float, ...]:
        return tuple(norm / self.scale**l for l, norm in enumerate(self.norms))

    def max_scaled(self) -> float:
        return max(self.scaled_norms)


def _residual_vector(seq: CompositeSequence, n1: int, n2: int) -> ResidualVector:
    if min(n1, n2) < 0:
        raise ValidationError("order must be non-negative")
    rows = residual_rows(seq.thetas(), seq.phis(), seq.terminal_phase, seq.target_theta, (n1, n2))
    return ResidualVector(rows[0], max(1.0, seq.total_angle()))


def broadband_residuals(seq: CompositeSequence, n: int) -> ResidualVector:
    """Residuals of the broadband conditions for orders 0..n.

    Order 0 is the difference between the zero-error propagator and the
    sign-aligned target; orders l >= 1 are the raw propagator derivatives
    at eps = 0 (the constant target drops out of them).
    """
    return _residual_vector(seq, n, 0)


def narrowband_residuals(seq: CompositeSequence, n2: int) -> ResidualVector:
    """Residuals of the narrowband conditions for orders 0..n2.

    These are derivatives of the bare gate product at eps = -1, where all
    rotation angles vanish; the terminal frame rotation is excluded
    because neighbour qubits are not exposed to it.  Order 0 is the
    difference from the identity and vanishes identically.
    """
    rv = _residual_vector(seq, 0, n2)
    rv.rows[0] = 0.0  # in place of the broadband order 0
    return rv
