"""Composites cancelling absolute (additive) rotation-angle offsets.

A single phased gate is replaced by the two-gate composite

    U_A(theta, phi) = U(-theta/2, pi + phi) U(theta/2, phi).

Because U(t, pi + phi) = U(-t, phi), a systematic offset xi entering both
halves cancels identically:

    U(-theta/2 + xi, pi + phi) U(theta/2 + xi, phi)
        = U(theta/2 - xi, phi) U(theta/2 + xi, phi) = U(theta, phi).

The cancellation is an operator identity, so it survives any relative
error as well: the wrapped sequence at (epsilon, xi) equals the original
sequence at (epsilon, 0) exactly, which preserves the broadband order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import pi

from .gates import FAMILY_COMBINED, CompositeSequence, PhasedGate


@dataclass(frozen=True)
class AbsoluteComposite:
    """Target angle and phase realised as U(-theta/2, pi+phi) U(theta/2, phi)."""

    target_theta: float
    phi: float = 0.0

    def gates(self) -> tuple[PhasedGate, PhasedGate]:
        half = self.target_theta / 2.0
        return (PhasedGate(half, self.phi), PhasedGate(-half, pi + self.phi))


def wrap_sequence_absolute(seq: CompositeSequence) -> CompositeSequence:
    """Replace every gate of a sequence by its absolute-error composite.

    The offset must be systematic (one xi for the whole sequence); the
    wrapped propagator at xi = 0 is unchanged, and at any fixed xi the
    relative-error response equals that of the original sequence.
    """
    gates: list[PhasedGate] = []
    for g in seq.gates:
        gates.extend(AbsoluteComposite(g.theta, g.phi).gates())
    return replace(
        seq,
        gates=tuple(gates),
        family=FAMILY_COMBINED,
        label=(seq.label + "+abs") if seq.label else "combined",
    )
