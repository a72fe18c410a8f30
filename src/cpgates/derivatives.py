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

Several expansion points share one gate loop as column blocks: gate k's
factor is block-diagonal, point j's C_k in row and column block j of
the C half and its S_k in the same blocks of the S half, zero
elsewhere, so the points never mix and the loop is that of one point
with P times the columns.  Points of different orders are expanded to
the larger one; a Toeplitz factor is upper-triangular, so coefficient m
reads only coefficients <= m, and the zero blocks and the padding add
exact zero terms only: the low orders keep their values (only the sign
of a zero may differ).  Every residual evaluation, values or Jacobian,
is one such gate loop over its expansion points: eps = 0, and eps = -1
for a passband problem.

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
from math import factorial, isfinite, pi

import numpy as np

from .errors import ValidationError, check_count
from .gates import CompositeSequence, _blocks, _embed_blocks


# ---------------------------------------------------------------------------
# batched derivative engine
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _taylor_factors(thetas: tuple, l_max: int, points: tuple):
    """Per-gate Toeplitz factors [C_k | S_k] of shape (G, P L, 2 P L),
    L = l_max + 1, for the cos and i sin parts at the P expansion points:
    point j's C_k sits in row block j and column block j of the C half,
    its S_k in row block j and column block j of the S half (row i,
    column m of a block holds coefficient m - i), and every other entry
    is zero.  Also gate 0 applied to each point's identity row, (1, 2 P L),
    and l! for the L coefficients of every point."""
    thetas = np.array(thetas)
    g, n, p = len(thetas), l_max + 1, len(points)
    orders = np.arange(n)
    factorials = np.array([float(factorial(l)) for l in orders])
    taylor = thetas[:, None] ** orders / factorials
    lag = orders[None, :] - orders[:, None]
    below, lag = lag < 0, np.maximum(lag, 0)
    factors = np.zeros((g, p, n, 2, p, n), dtype=complex)
    first = np.zeros((2, p, n), dtype=complex)
    for j, at_epsilon in enumerate(points):
        ang = thetas[:, None] * (1.0 + at_epsilon) + orders * (pi / 2)
        factors[:, j, :, 0, j] = np.where(below, 0j, (taylor * np.cos(ang))[:, lag])
        factors[:, j, :, 1, j] = np.where(below, 0j, (1j * taylor * np.sin(ang))[:, lag])
        first[:, j] = factors[0, j, 0, :, j]
    factors = factors.reshape(g, p * n, 2 * p * n)
    first, factorials = first.reshape(1, 2 * p * n), np.tile(factorials, p)
    for array in (factors, first, factorials):
        array.flags.writeable = False
    return factors, first, factorials


def _kernel(thetas, e, l_max: int, points: tuple, keep=None):
    """Taylor rows (a, b), each (B, P, l_max+1), of the ordered gate
    product at each of the P expansion points ``points``, for per-gate
    phase factors ``e`` (B, G), scaled to derivatives.

    ``keep`` (B, G), when given, weights each gate's C_k part.  Gate k
    enters the product linearly, as C_k + e_k S_k, so zeroing its C_k part
    and multiplying e_k by -i turns a row into the product's partial
    derivative with respect to phi_k.
    """
    if l_max < 0:
        raise ValidationError(f"derivative order must be non-negative, got {l_max}")
    factors, first, factorials = _taylor_factors(
        tuple(map(float, thetas)), int(l_max), tuple(map(float, points)))
    batch, n = len(e), len(factorials)
    # With S_k purely imaginary, conj(b) S = -conj(b S), so gate k maps
    #   a -> a C + e conj(b S),   b -> b C - e conj(a S),   e = e^{-i phi_k}.
    # The rows of a and b form one (2B, P L) matrix, so that each batch row
    # goes through the same matrix products whatever B is; the points'
    # column blocks do not mix, since the factors are block-diagonal.
    signed = (np.array([1.0, -1.0])[:, None, None] * e)[..., None]
    a = np.repeat(first[:, :n], batch, axis=0)
    ab = np.concatenate([a if keep is None else keep[:, :1] * a, e[:, :1] * first[:, n:]])
    for k in range(1, len(factors)):
        y = (ab @ factors[k]).reshape(2, batch, 2 * n)
        c = y[..., :n] if keep is None else keep[:, k, None] * y[..., :n]
        ab = (c + signed[:, :, k] * y[::-1, :, n:].conj()).reshape(2 * batch, n)
    return (ab.reshape(2, batch, n) * factorials).reshape(2, batch, len(points), l_max + 1)


def product_derivative_stack(thetas, phis, l_max: int, at_epsilon: float = 0.0):
    """Blocks V_l of the derivatives 0..l_max of the ordered gate product
    (gate 0 first) at eps = at_epsilon.

    ``phis`` may be (G,) or (B, G); the result is (B, l_max+1, 2, 2) with
    B = 1 for a flat input.  The terminal frame rotation is not included
    (it does not depend on the error).
    """
    if not isfinite(at_epsilon):
        raise ValidationError(f"at_epsilon must be finite, got {at_epsilon}")
    phis = np.atleast_2d(np.asarray(phis, dtype=float))
    a, b = _kernel(thetas, np.exp(-1j * phis), l_max, (at_epsilon,))
    return _blocks(a[:, 0], b[:, 0])


@lru_cache(maxsize=128)
def _partial_patterns(g: int, batch: int):
    """Where the phase partials sit in each phase vector's (G, G) block
    of kernel rows, entries (k, k) for k >= 1, and the C-part weights of
    all B blocks' rows, (B G, G): 0 at those entries, 1 elsewhere."""
    diagonal = np.eye(g, dtype=bool)
    diagonal[0, 0] = False
    keep = np.tile(np.where(diagonal, 0.0, 1.0), (batch, 1))
    diagonal.flags.writeable = keep.flags.writeable = False
    return diagonal, keep


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

#: the frame factor e^{-it} of a frame rotation fixed at t = 0
_NO_FRAME = np.exp(-1j * np.asarray(0.0))


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
    phis[b, k] (k = 1..G-1): gate k's block C_k + e_k S_k is replaced by
    its phase derivative -i e_k S_k.  Given terminal phases, [b, G]
    follows, the partials with respect to them: -i times the framed
    eps = 0 rows, 0 for the eps = -1 rows.  Either way all rows of all B
    phase vectors at every expansion point take one kernel pass.
    """
    n1, n2 = orders
    batch, g = phis.shape
    e, keep = np.exp(-1j * phis), None
    if partials:
        diagonal, keep = _partial_patterns(g, batch)
        e = np.where(diagonal, e[:, None] * -1j, e[:, None]).reshape(-1, g)
    ab = _kernel(thetas, e, max(n1, n2), (0.0, -1.0) if n2 > 0 else (0.0,), keep)
    # first rows (a, b) per point, (B, G or 1, P, max(n1, n2) + 1, 2)
    width = g if partials else 1
    first = ab.transpose(1, 2, 3, 0).reshape(batch, width, *ab.shape[2:], 2)
    framed = partials and terminal is not None
    rows = np.empty((batch, width + framed, n1 + n2 + 1, 2), dtype=complex)
    # the frame rotation diag(e^{-it}, e^{it}) acts on the first row as e^{-it}
    frame = _NO_FRAME if terminal is None else np.exp(-1j * np.asarray(terminal))
    rows[:, :width, : n1 + 1] = frame.reshape(-1, 1, 1, 1) * first[:, :, 0, : n1 + 1]
    rows[:, :width, n1 + 1 :] = first[:, :, -1, 1 : n2 + 1]
    if framed:
        rows[:, g, : n1 + 1] = -1j * rows[:, 0, : n1 + 1]
        rows[:, g, n1 + 1 :] = 0.0
    zero = rows[:, 0, :1] - _signed_targets(float(target_theta).hex())
    sq = np.add.reduce(zero.view(float) ** 2, axis=2)
    rows[:, 0, 0] = np.where(sq[:, 1:] < sq[:, :1], zero[:, 1], zero[:, 0])
    return rows if partials else rows[:, 0]


@lru_cache(maxsize=64)
def _signed_targets(bits: str):
    """First rows of +U(target) and -U(target), (2, 2), for the target
    angle float.fromhex(bits); keyed by the bits, because 0.0 and -0.0
    are one key and their sines differ in sign."""
    theta = float.fromhex(bits)
    target = np.array([np.cos(theta), 1j * np.sin(theta)])
    signed = np.array([target, -target])
    signed.flags.writeable = False
    return signed


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
    check_count("order", n1, 0)
    check_count("order", n2, 0)
    rows = residual_rows(seq.thetas(), seq.phis()[None], seq.terminal_phase, seq.target_theta, (n1, n2))
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
