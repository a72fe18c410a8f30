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

Scan CSV cells are exactly ``'%.17g' % value``.  They are converted a
whole column at a time (:func:`_format_g17`): an exact double-double
product yields the 17 digits, and table lookups lay them out in 32-byte
cells with the point beside the first digit.  Zeros, non-finite values,
|x| outside [1e-30, 1e30), 10 <= |x| < 1e17 (where the point falls
inside the digits) and values within the proven error bound of a
rounding tie go through ``%`` itself.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import inf, isfinite
from typing import Optional

import numpy as np

from .errors import ValidationError, check_count
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
    """Fidelity-versus-relative-error curve for one sequence.

    The values may be given as sequences or arrays.  They are checked as
    arrays, which the result keeps for :func:`scan_csv_text`, and stored
    as tuples of Python floats.
    """

    epsilons: tuple[float, ...]
    fidelities: tuple[float, ...]
    label: str
    target_theta: float

    def __post_init__(self):
        eps = np.array(self.epsilons, dtype=float)
        if np.any(np.diff(eps) <= 0):
            raise ValidationError("scan grid must be strictly increasing")
        fids = np.array(self.fidelities, dtype=float)
        if np.any(fids < 0) or np.any(fids > 1 + 1e-12):
            raise ValidationError("fidelities must lie in [0, 1]")
        object.__setattr__(self, "epsilons", tuple(eps.tolist()))
        object.__setattr__(self, "fidelities", tuple(fids.tolist()))
        object.__setattr__(self, "_arrays", (eps, fids))


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
    check_count("steps", steps, 2)
    if not isfinite(eps_max - eps_min):
        raise ValidationError("scan bounds must be finite and span a finite width, got "
                              f"eps_min={eps_min}, eps_max={eps_max}")
    if not eps_min < eps_max:
        raise ValidationError("eps_min must be below eps_max")
    ref = None if reference is None else _reference_block(np.asarray(reference))
    eps = np.linspace(eps_min, eps_max, steps)
    fids = _fidelities(seq, eps, xi, ref)
    return ScanResult(eps, fids, seq.label or seq.family, seq.target_theta)


#: Largest |eps| the band search reaches on either side.
EPS_LIMIT = 1.5
#: Band march grid: 1e-3 steps from 0 summed one at a time (the values of
#: ``e += 1e-3``), 1501 points up to EPS_LIMIT.
_MARCH_GRID = np.cumsum(np.r_[0.0, np.full(int(EPS_LIMIT / 1e-3) + 1, 1e-3)])
_MARCH_GRID = _MARCH_GRID[_MARCH_GRID <= EPS_LIMIT]
#: Probe ladder of the band search: 25 log-spaced march-grid indices from
#: 8 to the last, each at most round(1.25 x) the one before, so a march
#: to the first over-threshold probe overshoots the crossing by 25 % at most.
_PROBES = np.geomspace(8, len(_MARCH_GRID) - 1, 25).round().astype(np.intp)
#: Bisection steps from a march bracket: 1e-3 halved four times is 6.25e-5.
_BISECTIONS = 4
#: Infidelities below this are double-precision rounding noise.
INFIDELITY_FLOOR = 1e-14


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


def tolerance_band(seq: CompositeSequence, threshold: float = 1e-4) -> ToleranceBand:
    """Interval of eps around 0 keeping infidelity below ``threshold``.

    Three batched passes: eps = 0 and the probe ladder _PROBES of the 1e-3
    march grid; each side's march out to its first over-threshold probe
    (to EPS_LIMIT if none), which brackets the first crossing; and the 15
    midpoints that four bisections of each bracket can reach (none without
    a bracket).  Each edge lies within 6.25e-5 of its crossing and equals
    a one-point march and bisection bit for bit.  Raises ValidationError
    for a threshold outside [INFIDELITY_FLOOR, 1) (below the floor, 1 - F
    is rounding noise) and when the sequence fails already at eps = 0.
    """
    if not INFIDELITY_FLOOR <= threshold < 1.0:
        raise ValidationError(f"threshold must lie in [{INFIDELITY_FLOOR:g}, 1), got {threshold}")

    def over(eps):
        return 1.0 - _fidelities(seq, eps) > threshold

    sides = (1.0, -1.0)
    probes = _MARCH_GRID[_PROBES]
    hits = over(np.concatenate([[0.0], probes, -probes]))
    if hits[0]:
        raise ValidationError("sequence exceeds the threshold already at eps = 0")
    stops = [_PROBES[row.argmax() if row.any() else -1] for row in hits[1:].reshape(2, -1)]
    hits = over(np.concatenate([d * _MARCH_GRID[1:stop + 1] for d, stop in zip(sides, stops)]))
    trees, edges = {}, {}
    for d, row in zip(sides, np.split(hits, stops[:1])):
        if row.any():
            k = int(row.argmax())  # grid point k + 1 is the first crossing
            trees[d] = [(float(_MARCH_GRID[k]), float(_MARCH_GRID[k + 1]))]
        else:
            edges[d] = d * EPS_LIMIT
    if trees:
        # bisection trees in level order: node i = (a, b) splits at mid =
        # 0.5 * (a + b) into nodes 2i+1 = (a, mid) and 2i+2 = (mid, b); the walk
        # reaches the midpoints of the first levels and ends at a leaf below
        inner = 2**_BISECTIONS - 1
        for nodes in trees.values():
            for i in range(inner):
                a, b = nodes[i]
                mid = 0.5 * (a + b)
                nodes += [(a, mid), (mid, b)]
        mids = [d * (0.5 * (a + b)) for d, nodes in trees.items() for a, b in nodes[:inner]]
        hits = over(np.array(mids)).reshape(len(trees), inner)
        for (d, nodes), hit in zip(trees.items(), hits):
            i = 0
            for _ in range(_BISECTIONS):
                i = 2 * i + (1 if hit[i] else 2)
            a, b = nodes[i]
            edges[d] = d * (0.5 * (a + b))
    return ToleranceBand(edges[-1.0], edges[1.0], float(threshold))


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
    if not 0 < lo < hi < inf:
        raise ValidationError(f"fit window must satisfy 0 < lo < hi < inf, got lo={lo}, hi={hi}")
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

def scan_csv_text(result: ScanResult) -> str:
    """The scan as CSV text: the header ``epsilon,fidelity,infidelity``,
    then one row per grid point, each cell exactly ``'%.17g' % value``
    (the infidelity is ``1.0 - f``)."""
    eps, f = result._arrays
    cells = np.column_stack([eps, f, 1.0 - f])
    return "".join(("epsilon,fidelity,infidelity", _format_g17(cells, "\n,,"), "\n"))


#: Decimal exponents k = floor(log10|x|) that :func:`_format_g17`
#: converts itself: 1e-30 <= |x| < 1e30, exactly.
_G17_K_MIN, _G17_K_MAX = -30, 29
#: Fractions of |x| 10^(16-k) closer than this to 1/2 are left to ``%``.
#: It is 13 times the proven error bound of 4.3e-15.
_G17_TIE_MARGIN = 2.0**-44


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split: hi + lo == a with 26-bit halves, so products of
    halves are exact (Dekker 1971)."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _pow10(q: int) -> tuple[float, float]:
    """10^q as a double-double: hi = fl(10^q) and lo = fl(10^q - hi),
    from exact integer ratios (int / int rounds correctly)."""
    num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
    hi = num / den
    hi_num, hi_den = hi.as_integer_ratio()
    return hi, (num * hi_den - hi_num * den) / (den * hi_den)


def _words(cells: np.ndarray) -> np.ndarray:
    """Rows of 8 bytes as 64-bit words."""
    return cells.view(np.uint64)[..., 0]


@functools.cache
def _g17_digit_tables():
    """Tables of :func:`_g17_digits`, built on first use: 10^q for q in
    [K_MIN, 16 - K_MIN] as double-doubles hi + lo (|10^q - hi - lo| <=
    2^-106 10^q), hi split in halves, and the trailing zeros of the four
    digits of 0..9999."""
    hi, lo = np.array([_pow10(q) for q in range(_G17_K_MIN, 17 - _G17_K_MIN)]).T
    n = np.arange(10000)
    trailing_zeros = sum(n % 10**j == 0 for j in range(1, 5)).astype(np.uint8)
    return hi, lo, *_split(hi), trailing_zeros


@functools.cache
def _g17_layout_tables():
    """Tables of :func:`_g17_cells`, built on first use.

    * the head words (step 3 of :func:`_format_g17`) by printed decimal
      exponent X in [K_MIN, K_MAX + 1], sign, first digit and whether
      more digits follow; "0.000" is cut to "0." and -X-1 zeros;
    * the exponent words ("e+dd" or "e-dd", NULs in fixed notation);
    * the 4-byte words "dddd" of 0..9999;
    * for keep = 0..17, the two words that pass digits 1 .. keep-1.
    """
    X = np.arange(_G17_K_MIN, _G17_K_MAX + 2)
    prefix = np.where((X >= -4) & (X < 0), 1 - X, 0)  # length of "0.00..."
    head = np.zeros((len(X), 2, 10, 2, 8), np.uint8)  # X, minus, first digit, more
    head[..., 2:7] = np.where(np.arange(5) < prefix[:, None], np.frombuffer(b"0.000", np.uint8),
                              0)[:, None, None, None]
    head[:, 1, ..., 1] = ord("-")
    ascii_digits = np.arange(48, 58, dtype=np.uint8)[:, None]
    head[prefix > 0, ..., 7] = ascii_digits
    head[prefix == 0, ..., 6] = ascii_digits
    head[prefix == 0, :, :, 1, 7] = ord(".")
    exponent = np.zeros((len(X), 8), np.uint8)
    exponent[:, :4] = np.stack([np.full(len(X), ord("e")), np.where(X < 0, ord("-"), ord("+")),
                                48 + abs(X) // 10, 48 + abs(X) % 10], axis=1)
    exponent[(X >= -4) & (X < 17)] = 0
    n = np.arange(10000)[:, None]
    quads = (48 + n // 10 ** np.arange(3, -1, -1) % 10).astype(np.uint8)
    masks = np.where(np.arange(1, 17) < np.arange(18)[:, None], 255, 0).astype(np.uint8)
    return (head.view(np.uint64).ravel(), _words(exponent), quads.view(np.uint32)[:, 0],
            masks.view(np.uint64))


def _g17_digits(x: np.ndarray):
    """Steps 1 and 2 of :func:`_format_g17` for a flat array:
    ``(ok, k, lead, groups, significant)``.  k indexes the printed
    decimal exponent in the tables, the 17 digits are ``lead`` and the
    four 4-digit ``groups``, and ``significant`` counts the digits before
    the trailing zeros; ``ok`` is False where ``%`` must format the
    value."""
    hi, lo, hi_h, hi_l, trailing_zeros = _g17_digit_tables()
    a = np.abs(x)
    ok = (a >= 1e-30) & (a < 1e30)
    a[~ok] = 1.0
    top = _G17_K_MAX - _G17_K_MIN
    # k as an index into hi/lo, which start at 10^K_MIN
    k = np.clip(np.floor(np.log10(a)).astype(np.intp) - _G17_K_MIN, 0, top)
    k += (a > hi[k + 1]) | ((a == hi[k + 1]) & (lo[k + 1] <= 0))
    k -= (a < hi[k]) | ((a == hi[k]) & (lo[k] > 0))
    ok &= (k >= 0) & (k <= top)
    a[~ok], k[~ok] = 1.0, -_G17_K_MIN  # placeholders: |x| = 1, k = 0
    q = 16 - 2 * _G17_K_MIN - k  # index of 10^(16-k)
    prod = a * hi[q]
    a_h, a_l = _split(a)
    r = ((a_h * hi_h[q] - prod) + a_h * hi_l[q] + a_l * hi_h[q] + a_l * hi_l[q]) + a * lo[q]
    t = np.rint(r)
    ok &= np.abs(np.abs(r - t) - 0.5) > _G17_TIE_MARGIN
    # y rounds to high * 1e8 + low: 9 and 8 digits, exact in doubles
    high = np.floor(prod / 1e8)
    low = prod - high * 1e8 + t
    carry = np.floor(low / 1e8)
    low -= carry * 1e8
    high += carry
    rolled = high == 1e9
    high[rolled] = 1e8
    k += rolled
    lead = np.floor(high / 1e8)
    high -= lead * 1e8
    groups = np.empty((len(x), 4), np.uint16)
    groups[:, 0] = np.floor(high / 1e4)
    groups[:, 1] = high - groups[:, 0] * 1e4
    groups[:, 2] = np.floor(low / 1e4)
    groups[:, 3] = low - groups[:, 2] * 1e4
    tz = trailing_zeros.take(groups)
    end = groups == 0
    zeros = tz[:, 3] + end[:, 3] * (tz[:, 2] + end[:, 2] * (tz[:, 1] + end[:, 1] * tz[:, 0]))
    return ok, k, lead.astype(np.intp), groups, 17 - zeros


def _g17_cells(values: np.ndarray, separators: str) -> np.ndarray:
    """Step 3 of :func:`_format_g17`: one row of four 64-bit words per
    value, as bytes."""
    head, exponent, quads, masks = _g17_layout_tables()
    x = np.asarray(values, dtype=float)
    rows, cols = x.shape
    x = x.ravel()
    ok, k, lead, groups, significant = _g17_digits(x)
    ok &= (k < 1 - _G17_K_MIN) | (k > 16 - _G17_K_MIN)  # 1 <= X <= 16: the point is inside
    sep = np.zeros((cols, 8), np.uint8)
    sep[:, 0] = np.frombuffer(separators.encode("ascii"), np.uint8)
    out = np.empty((len(x), 4), np.uint64)
    # the head word of (X, minus, first digit, more digits)
    out.reshape(rows, cols, 4)[..., 0] = head.take(
        ((k * 2 + (x < 0)) * 10 + lead) * 2 + (significant > 1)).reshape(rows, cols) | _words(sep)
    out.view(np.uint32)[:, 2:6] = quads.take(groups)
    out[:, 1:3] &= masks.take(significant, axis=0)
    out[:, 3] = exponent.take(k)
    out = out.view(np.uint8)
    fallback = np.flatnonzero(~ok)
    text = np.array(["%.17g" % v for v in x[fallback].tolist()], dtype="S31")
    out[fallback, 1:] = text.view(np.uint8).reshape(-1, 31)
    return out


def _format_g17(values: np.ndarray, separators: str) -> str:
    """Rows of ``values`` as text: each cell is its column's separator
    followed by exactly ``'%.17g' % value``.

    One column-at-a-time conversion replaces the per-value ``%``:

    1. k = floor(log10|x|) from ``np.log10``, corrected by one exact
       comparison of |x| with the double-double 10^k and 10^(k+1).
    2. y = |x| 10^(16-k), in [1e16, 1e17), as P + r: P = fl(|x| hi) and
       r the sum of Dekker's exact product error and fl(|x| lo).  Three
       roundings of at most 1.24e-15, 1.24e-15 and 1.78e-15 separate P + r
       from y, so round(y) = P + rint(r) whenever the fraction of r is
       farther than that from 1/2 (Adams, "Ryu revisited", 2019, prints
       fixed precision from the same kind of bound).
    3. The 17-digit integer, split as 9 + 8 digits in exact double
       arithmetic (10^17 carries into k + 1), is cut into groups of 1, 4,
       4, 4 and 4 digits.  Each cell fills four 64-bit words (32 bytes)
       by ``%g``'s rules, from tables indexed by the printed exponent X
       and by digit group.  Word 0 holds the separator, the sign and
       either "0.000" and the first digit (fixed notation, -4 <= X < 0)
       or the first digit and, when more digits are significant, the
       point (X = 0, or scientific notation, X < -4 or X >= 17).  Words
       1-2 hold digits 1-16 as 4-byte words and word 3 the exponent.
       Trailing zeros and unused bytes are NUL, and ``bytes.translate``
       drops every NUL.

    Zeros, non-finite values, |x| outside [1e-30, 1e30), values whose
    fraction lies within ``_G17_TIE_MARGIN`` of 1/2 (exact ties such as
    2^-25 among them) and fixed notation with 1 <= X <= 16, that is
    10 <= |x| < 1e17 after rounding, where the point falls inside the
    digits, are formatted by ``%`` itself, so every byte equals the
    per-value loop's.  Fidelities and infidelities never reach that last
    case, and grid points only for scan bounds of magnitude 10 or more.
    """
    return _g17_cells(values, separators).tobytes().translate(None, b"\0").decode("ascii")


def band_report(band: ToleranceBand) -> str:
    return "band_low=%.17g band_high=%.17g threshold=%.17g" % (
        band.eps_low,
        band.eps_high,
        band.threshold,
    )
