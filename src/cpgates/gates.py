"""Phased controlled-phase gates and composite sequences.

Conventions
-----------
* The elementary two-qubit gate is ``U(theta, phi) = exp(i theta sigma_x (x) sigma_phi)``
  with ``sigma_phi = sigma_x cos(phi) + sigma_y sin(phi)`` acting on qubit 2.
* Gates in a :class:`CompositeSequence` are stored first-applied-first, i.e.
  ``gates[0]`` acts first; the matrix product therefore runs right-to-left.
* ``terminal_phase`` is the angle of a single-qubit frame rotation
  F(phi) = exp(-i phi sigma_z) on qubit 2 applied after all gates.
* Equality of propagators is generally meant up to a global phase; the
  fidelity used in :mod:`cpgates.analysis` takes the trace modulus, and
  residual comparisons align the sign of the zero-error target.
* Block identity: every gate acts as ``sigma_x`` on qubit 1, and in its
  eigenbasis ``U(theta, phi) = diag(W, sigma_z W sigma_z)`` with
  ``W = e^{i theta sigma_phi}``; F commutes with ``sigma_z``.  So every
  sequence propagator is ``diag(V, sigma_z V sigma_z)`` for one 2x2 SU(2)
  block V, i.e. ``I (x) d + sigma_x (x) o`` in the computational basis with
  d, o the diagonal and off-diagonal parts of V (Jones, PRA 67, 012317
  (2003)).  :func:`_sequence_blocks` computes V over a whole error grid;
  :func:`_from_branches` is the one implementation of the identity, used
  for the public 4x4 propagators (:func:`_embed_blocks`) and for the ion
  trap's full space (fact (e) of :mod:`cpgates.iontrap`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isfinite, pi

import numpy as np

from .errors import ValidationError
from .linalg import IDENTITY_2, IDENTITY_4, SIGMA_X, sigma_axis

TWO_PI = 2.0 * pi

FAMILY_SINGLE = "single"
FAMILY_BROADBAND = "broadband"
FAMILY_PASSBAND = "passband"
FAMILY_COMBINED = "combined"


def _check_angles(*angles) -> None:
    """Raise ValidationError unless every angle is finite."""
    for phi in angles:
        if not isfinite(phi):
            raise ValidationError(f"angle must be finite, got {phi}")


def canonical_angle(phi: float) -> float:
    """Map an angle to the canonical representative in [0, 2*pi).

    Python's float ``%`` is ``np.mod`` bit for bit, without a numpy scalar."""
    _check_angles(phi)
    angle = float(phi) % TWO_PI
    # a tiny negative angle rounds up to 2*pi itself
    return 0.0 if angle == TWO_PI else angle


@dataclass(frozen=True)
class PhasedGate:
    """One rotation: angle ``theta`` and phase ``phi`` of a phased CPHASE.

    ``theta`` may be negative (the absolute-error composites use -Theta/2);
    ``phi`` is stored canonically in [0, 2*pi).
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not isfinite(self.theta):
            raise ValidationError(f"theta must be finite, got {self.theta}")
        object.__setattr__(self, "phi", canonical_angle(self.phi))


@dataclass(frozen=True)
class CompositeSequence:
    """Ordered gate list, terminal frame rotation, target angle and family tag."""

    gates: tuple[PhasedGate, ...]
    terminal_phase: float = 0.0
    target_theta: float = pi / 4
    family: str = FAMILY_SINGLE
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if not self.gates:
            raise ValidationError("a composite sequence needs at least one gate")
        if not (isfinite(self.terminal_phase) and isfinite(self.target_theta)):
            raise ValidationError("terminal phase and target angle must be finite")

    def total_angle(self) -> float:
        """Sum of |theta_k| over all gates (duration proxy)."""
        return float(sum(abs(g.theta) for g in self.gates))

    def thetas(self) -> np.ndarray:
        return np.array([g.theta for g in self.gates])

    def phis(self) -> np.ndarray:
        return np.array([g.phi for g in self.gates])

    def with_phis(self, phis, terminal_phase=None) -> "CompositeSequence":
        """Copy with replaced gate phases (and optionally terminal phase)."""
        phis = list(phis)
        if len(phis) != len(self.gates):
            raise ValidationError(
                f"expected {len(self.gates)} phases, got {len(phis)}"
            )
        gates = tuple(PhasedGate(g.theta, p) for g, p in zip(self.gates, phis))
        term = self.terminal_phase if terminal_phase is None else terminal_phase
        return replace(self, gates=gates, terminal_phase=term)


def phased_cphase(theta: float, phi: float) -> np.ndarray:
    """4x4 propagator exp(i theta sigma_x (x) sigma_phi).

    Closed form cos(theta) I + i sin(theta) sigma_x (x) sigma_phi; exact
    because the generator squares to the identity.
    """
    if not (np.isfinite(theta) and np.isfinite(phi)):
        raise ValidationError("theta and phi must be finite")
    return np.cos(theta) * IDENTITY_4 + 1j * np.sin(theta) * np.kron(
        SIGMA_X, sigma_axis(phi)
    )


def ideal_cphase(theta: float) -> np.ndarray:
    """Target gate exp(i theta sigma_x (x) sigma_x)."""
    return phased_cphase(theta, 0.0)


def phase_gate(phi: float, qubit: int = 2) -> np.ndarray:
    """Single-qubit frame rotation exp(-i phi sigma_z) on the selected qubit."""
    if qubit not in (1, 2):
        raise ValidationError(f"qubit must be 1 or 2, got {qubit}")
    _check_angles(phi)
    f = np.array([[np.exp(-1j * phi), 0.0], [0.0, np.exp(1j * phi)]], dtype=complex)
    if qubit == 1:
        return np.kron(f, IDENTITY_2)
    return np.kron(IDENTITY_2, f)


def distorted_theta(theta, epsilon: float = 0.0, xi: float = 0.0):
    """Systematic rotation-angle error model: theta -> theta*(1+eps) + xi.

    The relative error scales the angle, the absolute offset is added
    afterwards; both are applied identically to every gate of a sequence.
    """
    return theta * (1.0 + epsilon) + xi


def _blocks(a, b):
    """Cayley-Klein blocks [[a, b], [-conj(b), conj(a)]] from (a, b)."""
    out = np.empty(np.shape(a) + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1] = a, b
    out[..., 1, 0], out[..., 1, 1] = -np.conj(b), np.conj(a)
    return out


def _sequence_blocks(seq: CompositeSequence, epsilons, xi: float = 0.0) -> np.ndarray:
    """(E, 2, 2) blocks V of the distorted propagators, one per entry of
    ``epsilons``, frame rotation included.  Each gate cos(t) I + i sin(t)
    sigma_phi is kept in Cayley-Klein form [[a, b], [-conj(b), conj(a)]],
    with b's factor (i sin t) e^{-i phi}.  The grids cos t and i sin t
    are computed once per distinct gate angle (the same double, -0.0
    apart from 0.0): BB6 has 12 gates but 2 angles."""
    eps = np.atleast_1d(np.asarray(epsilons, dtype=float))
    if not (np.all(np.isfinite(eps)) and np.isfinite(xi)):
        raise ValidationError("epsilon and xi must be finite")
    a, b = np.ones(eps.shape, dtype=complex), np.zeros(eps.shape, dtype=complex)
    trig = {}
    for g in seq.gates:
        key = float(g.theta).hex()
        if key not in trig:
            t = distorted_theta(g.theta, eps, xi)
            trig[key] = np.cos(t), 1j * np.sin(t)
        c, i_sin = trig[key]
        s = i_sin * np.exp(-1j * g.phi)
        a, b = c * a - s * b.conj(), c * b + s * a.conj()
    f = np.exp(-1j * seq.terminal_phase)
    return _blocks(f * a, f * b)


def _from_branches(zp: float, blocks) -> np.ndarray:
    """sum_s P_s (x) blocks[s] for the eigenprojectors P_+- = (1 +- sigma(zp))/2
    of one qubit's axis, each (batched, maybe rectangular) block acting on all
    after that qubit: 1 (x) M + sigma(zp) (x) D, M and D the half sum and difference."""
    mean, diff = (blocks[0] + blocks[1]) / 2, (blocks[0] - blocks[1]) / 2
    phase = np.exp(1j * zp)
    m, n = mean.shape[-2:]
    out = np.empty(mean.shape[:-2] + (2 * m, 2 * n), dtype=complex)
    out[..., :m, :n] = out[..., m:, n:] = mean
    out[..., :m, n:], out[..., m:, :n] = np.conj(phase) * diff, phase * diff
    return out


def _embed_blocks(v: np.ndarray) -> np.ndarray:
    """4x4 matrices I (x) d + sigma_x (x) o of blocks V = d + o (d diagonal,
    o off-diagonal), batched over the leading axes of ``v``."""
    return _from_branches(0.0, (v, v * np.array([[1.0, -1.0], [-1.0, 1.0]])))


def sequence_propagator(
    seq: CompositeSequence, epsilon: float = 0.0, xi: float = 0.0
) -> np.ndarray:
    """Propagator of a composite sequence under the systematic error model.

    Every gate angle is distorted as theta -> theta*(1+epsilon) + xi; the
    terminal frame rotation is error-free (it is a software phase shift,
    not a physical rotation).  Embeds the block V as I (x) d + sigma_x (x) o.
    """
    return _embed_blocks(_sequence_blocks(seq, epsilon, xi)[0])


def convert_phase_conventions(varphis) -> tuple[list[float], float]:
    """Convert interleaved frame-rotation angles to absorbed gate phases.

    Input: ``varphis[k]`` is the angle of the frame rotation F applied
    between gate k and gate k+1 of an (M+1)-gate sequence whose gates are
    all unphased.  Output ``(phis, terminal)``: the equivalent sequence of
    phased gates has gate 0 with phase 0, gate l (l = 1..M) with phase
    ``phis[l-1] = -2 * (varphis[0] + ... + varphis[l-1])``, and a single
    leading frame rotation ``terminal = sum(varphis)``.

    The inverse is :func:`interleaved_from_phases`; the round trip is the
    identity, and both realizations produce identical propagators.
    """
    varphis = [float(v) for v in varphis]
    _check_angles(*varphis)
    cumulative = np.cumsum(varphis) if varphis else np.array([])
    phis = [-2.0 * c for c in cumulative]
    terminal = float(sum(varphis))
    return phis, terminal


def interleaved_from_phases(phis, terminal: float, tol: float = 1e-9) -> list[float]:
    """Inverse of :func:`convert_phase_conventions`.

    Raises
    ------
    ValidationError
        If the terminal phase is inconsistent with the gate phases
        (the interleaved realization fixes terminal = -phis[-1]/2).
    """
    phis = [float(p) for p in phis]
    _check_angles(*phis, terminal)
    if not phis:
        if abs(terminal) > tol:
            raise ValidationError("empty phase list requires zero terminal phase")
        return []
    varphis = [-phis[0] / 2.0]
    varphis += [-(phis[k] - phis[k - 1]) / 2.0 for k in range(1, len(phis))]
    if abs(sum(varphis) - terminal) > tol:
        raise ValidationError(
            "terminal phase %.6g is not representable by interleaved frame "
            "rotations (expected %.6g)" % (terminal, sum(varphis))
        )
    return varphis
