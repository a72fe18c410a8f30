"""Independent reference model that checks the benchmark's outputs.

Every propagator here is ``scipy.linalg.expm`` of a gate generator; the
derivatives of a gate product come from multiplying truncated power
series in the error.  The module reads the output files of the program
but imports nothing from ``cpgates``, so a defect in the program's own
algebra cannot hide itself.

Each check takes the pass directory and the arguments a workload attached
to an operation, and returns a list of failure messages (empty when the
output is correct).  Angles in files are in units of pi.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from math import factorial, pi
from pathlib import Path

import numpy as np
from scipy.linalg import expm

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)

RESIDUAL_TOL = 1e-10
SCAN_TOL = 1e-12
TABULATED_FIDELITY_TOL = 1e-4
ANGLE_TOL = 1e-9
BAND_LOCATE_TOL = 1e-4
BAND_LADDER = {1: 0.11, 2: 0.22, 3: 0.30, 4: 0.37, 5: 0.42, 6: 0.46}
BAND_LADDER_TOL = 0.01
ORDER_TOL = 0.3
IONTRAP_TOL = 1e-8


@dataclass(frozen=True)
class Sequence:
    thetas: tuple  # radians, first-applied first
    phis: tuple
    terminal: float
    target: float


def parse_sequence(text: str) -> Sequence:
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    if rows[0] != ["index", "theta_over_pi", "phi_over_pi"]:
        raise ValueError("not a sequence file")
    thetas, phis, terminal, target = [], [], 0.0, None
    for row in rows[1:]:
        if row[0] == "terminal":
            terminal = float(row[2]) * pi
        elif row[0] == "target":
            target = float(row[1]) * pi
        elif row[0] != "family":
            thetas.append(float(row[1]) * pi)
            phis.append(float(row[2]) * pi)
    return Sequence(tuple(thetas), tuple(phis), terminal, thetas[0] if target is None else target)


def generator(phi: float) -> np.ndarray:
    """sigma_x (x) sigma_phi."""
    return np.kron(SX, np.cos(phi) * SX + np.sin(phi) * SY)


def gate(theta: float, phi: float) -> np.ndarray:
    return expm(1j * theta * generator(phi))


def frame(phi: float) -> np.ndarray:
    """exp(-i phi sigma_z) on qubit 2."""
    return np.kron(I2, np.diag([np.exp(-1j * phi), np.exp(1j * phi)]))


def propagator(seq: Sequence, eps: float = 0.0, xi: float = 0.0) -> np.ndarray:
    m = I4
    for theta, phi in zip(seq.thetas, seq.phis):
        m = gate(theta * (1.0 + eps) + xi, phi) @ m
    return frame(seq.terminal) @ m


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return abs(np.trace(a.conj().T @ b)) / 4.0


def derivatives(seq: Sequence, n: int, at_eps: float) -> list:
    """Derivatives 0..n in eps of the bare gate product at ``at_eps``.

    U_k(eps) = U_k(at_eps) * sum_j (i theta_k G_k)^j (eps - at_eps)^j / j!,
    and the product's series is the truncated convolution of the factors'.
    """
    series = [I4] + [np.zeros((4, 4), dtype=complex)] * n
    for theta, phi in zip(seq.thetas, seq.phis):
        base = gate(theta * (1.0 + at_eps), phi)
        step = 1j * theta * generator(phi)
        factor = [base @ np.linalg.matrix_power(step, j) / factorial(j) for j in range(n + 1)]
        series = [sum(factor[j] @ series[m - j] for j in range(m + 1)) for m in range(n + 1)]
    return [factorial(m) * c for m, c in enumerate(series)]


def residual_d(seq: Sequence, n1: int, n2: int) -> float:
    """Objective D: sign-aligned order-0 distance plus the scaled norms of
    derivative orders 1..n1 at eps=0 and 1..n2 at eps=-1."""
    scale = max(1.0, sum(abs(t) for t in seq.thetas))
    target = gate(seq.target, 0.0)
    f = frame(seq.terminal)
    broad = [f @ d for d in derivatives(seq, n1, 0.0)]
    d = min(np.linalg.norm(broad[0] - target), np.linalg.norm(broad[0] + target))
    d += sum(np.linalg.norm(broad[l]) / scale**l for l in range(1, n1 + 1))
    if n2:
        narrow = derivatives(seq, n2, -1.0)
        d += sum(np.linalg.norm(narrow[l]) / scale**l for l in range(1, n2 + 1))
    return float(d)


def _read(root: Path, name: str) -> str:
    return (root / name).read_text()


def _seq(root: Path, name: str) -> Sequence:
    return parse_sequence(_read(root, name))


def _total_over_pi(seq: Sequence) -> float:
    return sum(abs(t) for t in seq.thetas) / pi


def _values(text: str) -> dict:
    return {k: float(v) for k, v in re.findall(r"(\w+)=([-+0-9.eE]+)", text)}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_residual(root, name, n1, n2, total_over_pi):
    """Solved, polished or closed-form sequence: D <= 1e-10 and, when
    given, the expected total angle."""
    seq = _seq(root, name)
    fails = []
    d = residual_d(seq, n1, n2)
    if not d <= RESIDUAL_TOL:
        fails.append(f"{name}: residual D={d:.3e} above {RESIDUAL_TOL:g}")
    if total_over_pi is not None and abs(_total_over_pi(seq) - total_over_pi) > ANGLE_TOL:
        fails.append(f"{name}: total angle {_total_over_pi(seq):.12g}pi, expected {total_over_pi:.12g}pi")
    return fails


def check_tabulated(root, name, total_over_pi):
    """Three-decimal catalog entry: target reached to the catalog's
    precision, with the published total angle when there is one."""
    seq = _seq(root, name)
    fails = []
    f0 = fidelity(gate(seq.target, 0.0), propagator(seq))
    if not f0 >= 1.0 - TABULATED_FIDELITY_TOL:
        fails.append(f"{name}: fidelity {f0:.9f} at eps=0")
    if total_over_pi is not None and abs(_total_over_pi(seq) - total_over_pi) > ANGLE_TOL:
        fails.append(f"{name}: total angle {_total_over_pi(seq):.12g}pi, expected {total_over_pi}pi")
    return fails


def check_scan(root, name, seq_name, eps_min, eps_max, steps, xi_over_pi, identity, rows):
    """Spot rows of a scan agree with the reference to 1e-12."""
    seq = _seq(root, seq_name)
    lines = _read(root, name).splitlines()
    if lines[0] != "epsilon,fidelity,infidelity" or len(lines) != steps + 1:
        return [f"{name}: expected a header and {steps} rows"]
    grid = np.linspace(eps_min, eps_max, steps)
    ref = I4 if identity else gate(seq.target, 0.0)
    fails = []
    for i in rows:
        eps, fid, infid = (float(x) for x in lines[i + 1].split(","))
        want = fidelity(ref, propagator(seq, grid[i], xi_over_pi * pi))
        if abs(eps - grid[i]) > SCAN_TOL or abs(fid - want) > SCAN_TOL or abs(infid - (1.0 - fid)) > SCAN_TOL:
            fails.append(f"{name} row {i}: eps={eps!r} fidelity={fid!r}, reference {want!r}")
    return fails


def _infidelity(seq: Sequence, eps: float) -> float:
    return 1.0 - fidelity(gate(seq.target, 0.0), propagator(seq, eps))


def check_band(root, name, seq_name):
    """Both band edges bracket the threshold crossing within the locate
    tolerance."""
    seq = _seq(root, seq_name)
    v = _values(_read(root, name))
    thr, fails = v["threshold"], []
    for edge, outward in ((v["band_low"], -1.0), (v["band_high"], 1.0)):
        inside = _infidelity(seq, edge - outward * BAND_LOCATE_TOL)
        outside = _infidelity(seq, edge + outward * BAND_LOCATE_TOL)
        if not (inside <= thr < outside):
            fails.append(f"{name}: edge {edge:+.6f} does not bracket {thr:g} "
                         f"(inside {inside:.3e}, outside {outside:.3e})")
    return fails


def check_order(root, name, expected):
    order = _values(_read(root, name)).get("order")
    if order is None or abs(order - expected) > ORDER_TOL:
        return [f"{name}: order {order}, expected {expected}"]
    return []


def check_wrap(root, name, seq_name, probes):
    """The wrapped sequence at (eps, xi) equals the original at (eps, 0)."""
    wrapped, seq = _seq(root, name), _seq(root, seq_name)
    fails = []
    if len(wrapped.thetas) != 2 * len(seq.thetas):
        fails.append(f"{name}: {len(wrapped.thetas)} gates for {len(seq.thetas)}")
    for eps, xi in probes:
        diff = np.linalg.norm(propagator(wrapped, eps, xi) - propagator(seq, eps))
        if diff > SCAN_TOL:
            fails.append(f"{name}: offset {xi} not cancelled at eps={eps} ({diff:.2e})")
    return fails


def check_verify(root, name):
    """Every entry passes, and BB1..BB6 bands at pi/4 match the published
    ladder."""
    lines = _read(root, name).splitlines()
    fails = [f"{name}: {line}" for line in lines if not line.endswith("OK")]
    if len(lines) != 12:
        fails.append(f"{name}: {len(lines)} report lines, expected 12")
    for line in lines:
        m = re.match(r"broadband n=(\d): .* band=\[([-+0-9.]+),([-+0-9.]+)\]", line)
        if m:
            n, lo, hi = int(m[1]), float(m[2]), float(m[3])
            if abs(min(-lo, hi) - BAND_LADDER[n]) > BAND_LADDER_TOL:
                fails.append(f"{name}: BB{n} band {min(-lo, hi)} vs published {BAND_LADDER[n]}")
    return fails


def _trap_angle(config_text: str) -> float:
    """Two-pulse rotation angle 4 (g/Delta)^2 (Delta T - sin Delta T)."""
    v = _values(config_text)
    dt = v["delta_t"] * pi
    return 4.0 * (v["g"] / v["delta"]) ** 2 * (dt - np.sin(dt))


def check_iontrap(root, name, seq_name, eps_g, config_name):
    """Physical qubit gate: no leakage, and it is the gate model at
    eps = (1+eps_g)^2 - 1 up to a global phase."""
    lines = _read(root, name).splitlines()
    cells = np.array([[float(x) for x in line.split(",")] for line in lines[:4]])
    qubit = cells[:, 0::2] + 1j * cells[:, 1::2]
    v = _values(lines[4])
    eps = (1.0 + eps_g) ** 2 - 1.0
    if seq_name:
        seq = _seq(root, seq_name)
        model, ideal = propagator(seq, eps), gate(seq.target, 0.0)
    else:
        theta = _trap_angle(_read(root, config_name))
        model, ideal = gate(theta * (1.0 + eps), 0.0), gate(theta, 0.0)
    fails = []
    if not v["leakage"] <= IONTRAP_TOL:
        fails.append(f"{name}: leakage {v['leakage']:.3e}")
    want = fidelity(ideal, model)
    if abs(v["fidelity"] - want) > IONTRAP_TOL:
        fails.append(f"{name}: fidelity {v['fidelity']!r}, gate model {want!r}")
    if 1.0 - fidelity(model, qubit) > IONTRAP_TOL:
        fails.append(f"{name}: qubit gate departs from the gate model by {1.0 - fidelity(model, qubit):.3e}")
    return fails


CHECKS = {
    "residual": check_residual,
    "tabulated": check_tabulated,
    "scan": check_scan,
    "band": check_band,
    "order": check_order,
    "wrap": check_wrap,
    "verify": check_verify,
    "iontrap": check_iontrap,
}


def run_check(root: Path, check: tuple) -> list:
    """Run one ``(name, *arguments)`` check; a check that cannot read its
    files fails rather than raising."""
    name, *args = check
    try:
        return CHECKS[name](Path(root), *args)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{name} check on {args[0]}: {type(exc).__name__}: {exc}"]
