"""Catalog of published composite CPHASE sequences.

Broadband entries BB(n) cancel the relative rotation-angle error to order
n around epsilon = 0.  Passband entries PB(n1, n2) additionally suppress
the rotation to order n2 around epsilon = -1, which is what weakly coupled
neighbour qubits experience.

Entries for n <= 2 (and the passband families with closed-form phases) are
parametric in the target angle; the higher-order entries are fixed-point
solutions for a pi/4 target and store their phases exactly as published,
as decimal multiples of pi.  The decimals carry three digits, so those
entries reproduce the target only to about 1e-3 rad in phase; the solver
module recovers full double precision from these starting points.
"""

from __future__ import annotations

from math import acos, pi, sqrt

from .errors import ValidationError
from .gates import (
    FAMILY_BROADBAND,
    FAMILY_PASSBAND,
    FAMILY_SINGLE,
    CompositeSequence,
    PhasedGate,
)

HALF = pi / 2

# Fixed-point broadband phase tables for target pi/4, in units of pi.
# Key: order n -> (phi0/pi, [phi_k/pi for the pi/2 gates], terminal/pi).
# For n >= 4 the first gate is U(pi/4, pi), i.e. the short form in which
# the leading pi/2 gate has been merged into the target gate.  The n = 4
# row closes with a frame rotation of 1.995*pi (numerically a full turn);
# listing it as a gate would contradict the published total angle of
# 3.75*pi, and the residual oracle in the tests confirms this reading.
_BB_TABLE = {
    3: (0.0, [1.725, 0.244, 1.127, 0.351, 1.785, 1.042], 0.0),
    4: (1.0, [0.170, 0.170, 1.374, 0.677, 1.598, 1.818, 0.528], 1.995),
    5: (1.0, [0.065, 2.257, 1.826, 1.020, 0.487, 1.452, 1.671, 0.132, 0.812], 0.0),
    6: (1.0, [2.193, 1.933, 0.737, 1.932, 1.286, 0.641, 1.531, 1.983, 1.240, 2.077, 0.579], 0.0),
}

# Passband fixed-point tables for target pi/4, in units of pi.
_PB_13 = [0.076, 1.604, 1.851, 0.595, 1.443, 0.751, 0.691, 1.111]
_PB_33 = [0.091, 0.644, 1.866, 0.941, 1.596]

PI_4_ONLY = "catalog entry %s is tabulated for target theta = pi/4 only"


def single(theta: float = pi / 4) -> CompositeSequence:
    """The uncorrected single gate U(theta, 0)."""
    return CompositeSequence(
        gates=(PhasedGate(theta, 0.0),),
        target_theta=theta,
        family=FAMILY_SINGLE,
        label="single",
    )


def _reached(theta: float, entry: str, turns: int) -> float:
    """``theta``, when the closed-form phases of ``entry`` reach it
    (|theta| <= turns * pi); a ValidationError otherwise."""
    if not abs(theta) <= turns * pi:
        bound = "pi" if turns == 1 else f"{turns}pi"
        raise ValidationError(
            f"{entry} has closed-form phases only for |theta| <= {bound}, "
            f"got theta = {theta / pi:.17g}*pi"
        )
    return theta


def bb1_phase(theta: float) -> float:
    """Closed-form phase of the first-order broadband sequence."""
    return acos(-_reached(theta, "BB1", 1) / pi)

def bb2_phase(theta: float) -> float:
    """Closed-form phase of the second-order broadband sequence."""
    return acos(-_reached(theta, "BB2", 2) / (2 * pi))


def broadband(n: int, theta: float = pi / 4) -> CompositeSequence:
    """Broadband sequence cancelling the relative error to order n (1..6)."""
    label = f"BB{n}"
    if n == 1:
        phi = bb1_phase(theta)
        gates = (PhasedGate(theta, 0.0), PhasedGate(HALF, phi), PhasedGate(HALF, 3 * phi))
        return CompositeSequence(gates, -2 * phi, theta, FAMILY_BROADBAND, label)
    if n == 2:
        phi = bb2_phase(theta)
        gates = (
            PhasedGate(theta, 0.0),
            PhasedGate(HALF, phi),
            PhasedGate(pi, 3 * phi),
            PhasedGate(HALF, phi),
        )
        return CompositeSequence(gates, 0.0, theta, FAMILY_BROADBAND, label)
    if n in _BB_TABLE:
        if abs(theta - pi / 4) > 1e-12:
            raise ValidationError(PI_4_ONLY % label)
        phi0, rest, term = _BB_TABLE[n]
        gates = (PhasedGate(theta, phi0 * pi),) + tuple(
            PhasedGate(HALF, p * pi) for p in rest
        )
        return CompositeSequence(gates, term * pi, theta, FAMILY_BROADBAND, label)
    raise ValidationError(f"no broadband catalog entry of order {n}")


_PB_HALF_CHAIN = "PB(2,1) and PB(1,2)"


def passband_chi1(theta: float) -> float:
    theta = _reached(theta, _PB_HALF_CHAIN, 2)
    return acos(-sqrt(0.5 + theta**2 / (8 * pi**2)))

def passband_chi2(theta: float) -> float:
    # The sign of this root is fixed by the derivative conditions; the
    # residual tests exercise both branches and only this one cancels.
    theta = _reached(theta, _PB_HALF_CHAIN, 2)
    return acos(sqrt(2 * theta**2 / (4 * pi**2 + theta**2)))


def passband(n1: int, n2: int, theta: float = pi / 4) -> CompositeSequence:
    """Passband sequence: broadband order n1 at eps=0, order n2 at eps=-1."""
    label = f"PB({n1},{n2})"
    if (n1, n2) == (1, 1):
        phi = acos(-_reached(theta, label, 2) / (2 * pi))
        gates = (PhasedGate(theta, 0.0), PhasedGate(pi, phi), PhasedGate(pi, -phi))
        return CompositeSequence(gates, 0.0, theta, FAMILY_PASSBAND, label)
    if (n1, n2) == (2, 2):
        phi = acos(-_reached(theta, label, 4) / (4 * pi))
        gates = (PhasedGate(theta, 0.0),) + tuple(
            PhasedGate(pi, p) for p in (phi, -phi, -phi, phi)
        )
        return CompositeSequence(gates, 0.0, theta, FAMILY_PASSBAND, label)
    if (n1, n2) in ((2, 1), (1, 2)):
        c1 = passband_chi1(theta)
        c2 = passband_chi2(theta)
        if (n1, n2) == (2, 1):
            c1 = -c1  # the two families differ by this sign flip
        phis = (c1, c1 + c2, -c1 + c2, -c1 - c2, c1 - c2, pi + c1)
        gates = (PhasedGate(theta, 0.0),) + tuple(PhasedGate(HALF, p) for p in phis)
        return CompositeSequence(gates, 0.0, theta, FAMILY_PASSBAND, label)
    if (n1, n2) == (1, 3):
        if abs(theta - pi / 4) > 1e-12:
            raise ValidationError(PI_4_ONLY % label)
        gates = (PhasedGate(theta, 0.0),) + tuple(
            PhasedGate(HALF, p * pi) for p in _PB_13
        )
        return CompositeSequence(gates, 0.0, theta, FAMILY_PASSBAND, label)
    if (n1, n2) == (3, 3):
        if abs(theta - pi / 4) > 1e-12:
            raise ValidationError(PI_4_ONLY % label)
        gates = (PhasedGate(3 * pi / 4, pi),) + tuple(
            PhasedGate(pi, p * pi) for p in _PB_33
        )
        return CompositeSequence(gates, 0.0, theta, FAMILY_PASSBAND, label)
    raise ValidationError(f"no passband catalog entry of orders ({n1}, {n2})")


BROADBAND_ORDERS = (1, 2, 3, 4, 5, 6)
PASSBAND_ORDERS = ((1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (3, 3))

#: Published total angles of the broadband entries at theta = pi/4,
#: in units of pi.
BROADBAND_TOTAL_ANGLES = {1: 1.25, 2: 2.25, 3: 3.25, 4: 3.75, 5: 4.75, 6: 5.75}

#: Published fault-tolerance bands |eps| (infidelity below 1e-4) of the
#: broadband entries at theta = pi/4.
BROADBAND_TOLERANCE_BANDS = {1: 0.11, 2: 0.22, 3: 0.30, 4: 0.37, 5: 0.42, 6: 0.46}


def has_analytic_phases(seq: CompositeSequence) -> bool:
    """True when the entry's phases come from a closed formula (full double
    precision) rather than from the published 3-decimal table."""
    if seq.family == FAMILY_SINGLE:
        return True
    if seq.family == FAMILY_BROADBAND:
        return seq.label in ("BB1", "BB2")
    if seq.family == FAMILY_PASSBAND:
        return seq.label in ("PB(1,1)", "PB(2,2)", "PB(2,1)", "PB(1,2)")
    return False
