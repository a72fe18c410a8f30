"""Gate fidelity, error scans, tolerance-band extraction and
infidelity-order fitting.

Fidelity is Tr(A^dag B)/4 with the modulus taken, so sequences that
reproduce the target up to a global phase score exactly 1.  The raw
(complex) trace overlap is exposed separately for callers that care about
the phase.

Scans, band searches and order fits use the 2x2 blocks V of
:mod:`cpgates.gates`: for a 4x4 reference R with 2x2 blocks R_jk,
Tr(R^dag U)/4 = Tr(r^dag V)/2 with the 2x2 reference
r = (diag(R_00 + R_11) + offdiag(R_01 + R_10))/2, e^{i theta sigma_x} for U(theta).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError
from .gates import CompositeSequence, _blocks, _sequence_blocks
from .linalg import is_unitary


def trace_overlap(a: np.ndarray, b: np.ndarray) -> complex:
    """Raw normalised trace overlap Tr(a^dag b) / dim (global phase kept)."""
    a = np.asarray(a)
    b = np.asarray(b)
    return complex(np.trace(a.conj().T @ b) / a.shape[0])


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|Tr(a^dag b)| / 4 for two-qubit unitaries.

    Equals 1 exactly when b = exp(i gamma) a.  Raises ValidationError for
    non-unitary input; use :func:`trace_overlap` for raw overlaps.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != (4, 4) or b.shape != (4, 4):
        raise ValidationError("fidelity expects 4x4 matrices")
    if not (is_unitary(a, 1e-9) and is_unitary(b, 1e-9)):
        raise ValidationError("fidelity expects unitary matrices")
    return abs(trace_overlap(a, b))


def _reference_block(r: np.ndarray) -> np.ndarray:
    """2x2 reference r with Tr(R^dag U)/4 = Tr(r^dag V)/2 for every
    sequence propagator U of block V (see the module docstring)."""
    if r.shape != (4, 4) or not is_unitary(r, 1e-9):
        raise ValidationError("the reference must be a 4x4 unitary")
    same, cross = r[:2, :2] + r[2:, 2:], r[:2, 2:] + r[2:, :2]
    return (np.diag(np.diag(same)) + cross - np.diag(np.diag(cross))) / 2.0


def _fidelities(seq: CompositeSequence, epsilons, xi: float = 0.0, ref=None) -> np.ndarray:
    """Fidelities against the 2x2 reference ``ref`` (default: the target)
    over a grid of relative errors."""
    if ref is None:
        ref = _blocks(np.cos(seq.target_theta), 1j * np.sin(seq.target_theta))
    v = _sequence_blocks(seq, epsilons, xi)
    return np.abs(np.einsum("ij,eij->e", ref.conj(), v)) / 2.0


def sequence_fidelity(seq: CompositeSequence, epsilon: float = 0.0, xi: float = 0.0) -> float:
    """Fidelity of the distorted sequence propagator against U(target)."""
    return float(_fidelities(seq, epsilon, xi)[0])


@dataclass(frozen=True)
class ScanResult:
    """Fidelity-versus-relative-error curve for one sequence."""

    epsilons: tuple[float, ...]
    fidelities: tuple[float, ...]
    label: str
    target_theta: float

    def __post_init__(self):
        eps = np.asarray(self.epsilons)
        if np.any(np.diff(eps) <= 0):
            raise ValidationError("scan grid must be strictly increasing")
        fids = np.asarray(self.fidelities)
        if np.any(fids < 0) or np.any(fids > 1 + 1e-12):
            raise ValidationError("fidelities must lie in [0, 1]")


def scan(
    seq: CompositeSequence,
    eps_min: float,
    eps_max: float,
    steps: int,
    xi: float = 0.0,
    reference: Optional[np.ndarray] = None,
) -> ScanResult:
    """Uniform fidelity scan over [eps_min, eps_max].

    ``reference`` defaults to the ideal target gate; pass the identity to
    probe the narrowband behaviour around eps = -1.  Any 4x4 unitary
    reference is exact.
    """
    if steps < 2:
        raise ValidationError("a scan needs at least 2 steps")
    if not eps_min < eps_max:
        raise ValidationError("eps_min must be below eps_max")
    ref = None if reference is None else _reference_block(np.asarray(reference))
    eps = np.linspace(eps_min, eps_max, steps)
    fids = _fidelities(seq, eps, xi, ref)
    return ScanResult(tuple(eps), tuple(fids.tolist()), seq.label or seq.family, seq.target_theta)


#: Largest |eps| the band search reaches on either side.
EPS_LIMIT = 1.5
#: Band march grid: 1e-3 steps from 0 summed one at a time (the values of
#: ``e += 1e-3``), 1501 points up to EPS_LIMIT.
_MARCH_GRID = np.cumsum(np.r_[0.0, np.full(int(EPS_LIMIT / 1e-3) + 1, 1e-3)])
_MARCH_GRID = _MARCH_GRID[_MARCH_GRID <= EPS_LIMIT]
#: Bisection steps from a march bracket: 1e-3 halved four times is 6.25e-5.
_BISECTIONS = 4


@dataclass(frozen=True)
class ToleranceBand:
    """Error interval around zero with infidelity below the threshold; an
    edge at |eps| = EPS_LIMIT met no crossing within the search."""

    eps_low: float
    eps_high: float
    threshold: float

    def __post_init__(self):
        if not (self.eps_low <= 0.0 <= self.eps_high):
            raise ValidationError("tolerance band must contain eps = 0")

    def symmetric_width(self) -> float:
        return min(-self.eps_low, self.eps_high)

    def sides_at_limit(self) -> tuple[str, ...]:
        """Sides ("low", "high") that reached EPS_LIMIT without a crossing."""
        edges = (("low", -self.eps_low), ("high", self.eps_high))
        return tuple(side for side, edge in edges if edge >= EPS_LIMIT)


def _bisection_tree(brackets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Intervals of the first _BISECTIONS + 1 levels of the bisection tree
    below each row (lo, hi) of ``brackets``, in level order: node i splits
    at 0.5 * (lo + hi) into node 2i+1 = (lo, mid) and node 2i+2 = (mid, hi)."""
    lo, hi = brackets[:, :1], brackets[:, 1:]
    for k in range(_BISECTIONS):
        a, b = lo[:, 2**k - 1:], hi[:, 2**k - 1:]
        mid = 0.5 * (a + b)
        lo = np.hstack([lo, np.stack([a, mid], -1).reshape(len(a), -1)])
        hi = np.hstack([hi, np.stack([mid, b], -1).reshape(len(a), -1)])
    return lo, hi


def tolerance_band(seq: CompositeSequence, threshold: float = 1e-4) -> ToleranceBand:
    """Interval of eps around 0 keeping infidelity below ``threshold``.

    Marches outward from zero over 1e-3 steps (chunks doubling from 64
    points) until each side's first crossing is bracketed, or |eps|
    reaches EPS_LIMIT, then bisects each bracket four times, every
    midpoint of both sides in one call; each edge lies within 6.25e-5 of
    its crossing and equals a one-point march and bisection bit for bit.
    Raises ValidationError when the sequence already fails at eps = 0.
    """
    if not 0.0 < threshold < 1.0:
        raise ValidationError(f"threshold must lie in (0, 1), got {threshold}")

    def over(eps):
        return 1.0 - _fidelities(seq, eps) > threshold

    if over(0.0)[0]:
        raise ValidationError("sequence exceeds the threshold already at eps = 0")
    brackets, start, size = {}, 0, 64
    while start < len(_MARCH_GRID) - 1 and len(brackets) < 2:
        grid = _MARCH_GRID[start:start + size + 1]
        sides = [d for d in (1.0, -1.0) if d not in brackets]
        hits = over(np.concatenate([d * grid[1:] for d in sides]))
        for d, row in zip(sides, hits.reshape(len(sides), -1)):
            if row.any():
                k = int(np.argmax(row))
                brackets[d] = (grid[k], grid[k + 1])
        start, size = start + size, 2 * size
    edges = {d: d * EPS_LIMIT for d in (1.0, -1.0) if d not in brackets}
    if brackets:
        # the midpoints of the tree's first _BISECTIONS levels are every
        # point the walk can reach; it ends at a leaf of the level below
        sides = list(brackets)
        lo, hi = _bisection_tree(np.array([brackets[d] for d in sides]))
        mid = np.array(sides)[:, None] * (0.5 * (lo + hi))
        hit = over(mid[:, :2**_BISECTIONS - 1].ravel()).reshape(len(sides), -1)
        for s, d in enumerate(sides):
            i = 0
            for _ in range(_BISECTIONS):
                i = 2 * i + (1 if hit[s, i] else 2)
            edges[d] = d * 0.5 * (lo[s, i] + hi[s, i])
    return ToleranceBand(edges[-1.0], edges[1.0], threshold)


INFIDELITY_FLOOR = 1e-14


def infidelity_order(
    seq: CompositeSequence,
    fit_window: tuple[float, float] = (1e-3, 1e-2),
    xi: float = 0.0,
) -> float:
    """Least-squares slope of log10(1-F) versus log10(eps) at 12
    log-spaced points of the positive branch of the window.

    Grid points whose infidelity sits below the double-precision floor
    (1e-14) are discarded; if fewer than two usable points remain the
    order is indeterminate and NaN is returned.  For an order-n broadband
    sequence at solver precision the slope is 2n + 2.
    """
    lo, hi = fit_window
    if not 0 < lo < hi:
        raise ValidationError("fit window must satisfy 0 < lo < hi")
    eps = np.logspace(np.log10(lo), np.log10(hi), 12)
    infid = 1.0 - _fidelities(seq, eps, xi)
    usable = infid > INFIDELITY_FLOOR
    if np.count_nonzero(usable) < 2:
        return float("nan")
    slope, _ = np.polyfit(np.log10(eps[usable]), np.log10(infid[usable]), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# text output formats
# ---------------------------------------------------------------------------

def scan_csv_lines(result: ScanResult) -> list[str]:
    """CSV rows ``epsilon,fidelity,infidelity`` at 17 significant digits."""
    lines = ["epsilon,fidelity,infidelity"]
    for e, f in zip(result.epsilons, result.fidelities):
        lines.append("%.17g,%.17g,%.17g" % (e, f, 1.0 - f))
    return lines


def band_report(band: ToleranceBand) -> str:
    return "band_low=%.17g band_high=%.17g threshold=%.17g" % (
        band.eps_low,
        band.eps_high,
        band.threshold,
    )
