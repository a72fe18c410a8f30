"""Physical-layer validation with a bichromatic spin-phonon model.

Two ions share one vibrational mode.  The interaction Hamiltonian in the
rotating frame is

    H(t) = g * sum_k sigma(zp_k) (x) (a^dag e^{i(Delta t - zm_k)}
                                      + a e^{-i(Delta t - zm_k)})

with sigma(z) = sigma^+ e^{-iz} + sigma^- e^{iz} acting on ion k, g the
spin-phonon Rabi frequency, Delta the detuning, zp/zm the spin and
motional laser phases.  State ordering is qubit1 (x) qubit2 (x) phonon,
phonon truncated at n_max.

The exact propagator factorises (the commutator of H at two times is a
spin-only operator commuting with everything involved, so the Magnus
series terminates after two terms):

    U(T) = e^{i phi0} D(alpha) exp(i theta_c sigma(zp_1) sigma(zp_2))

    phi0    = (2 g^2/Delta^2) (Delta T - sin Delta T)
    theta_c = phi0 * cos(zm_1 - zm_2)
    alpha   = -(g/Delta) (e^{i Delta T} - 1)
                * sum_k sigma(zp_k) e^{-i zm_k}       (spin-valued)

The displacement prefactor g/Delta (not g T/Delta) and the scalar phase
phi0 follow from the first and second Magnus integrals; the numerical
propagator below is the independent arbiter for both, and the tests pin
the comparison.  A second pulse of equal g and T with zm shifted by pi
flips alpha, cancelling the displacement exactly and doubling theta_c,
which induces the phased two-qubit gate used by the composite sequences.

H(t) commutes with sigma(zp_1) (x) 1 and 1 (x) sigma(zp_2).  In their
joint eigenbasis, with eigenvalues b = (s1, s2) and projectors
P_b = P1_{s1} (x) P2_{s2} (:func:`_from_branches`), each pulse splits
into four driven oscillators of n_max+1 levels:

    H_b(t) = g (beta_b e^{i Delta t} a^dag + h.c.),
    beta_b = s1 e^{-i zm_1} + s2 e^{-i zm_2},
    U(T)   = sum_b P_b (x) U_b(T).

Six facts of H_b, none of them taken from the Magnus closed form, fix
how much work a composite gate needs:

(a) beta_{-b} = -beta_b, and a pi shift of both zm maps beta_b to
    -beta_b, so the second pulse of a gate has the blocks U_{-b} of the
    first: the two-pulse gate is G_b = U_{-b} U_b, from one pulse.
(b) The phonon parity Pi = diag((-1)^n) gives Pi a Pi = -a exactly in
    the truncated space, so U_{-b} = Pi U_b Pi: only the pulse pair P of
    the branches (+,+) and (+,-) is computed, the gate pair is
    (Pi P Pi) P, and the other two branches are parity images.
(c) A gate's spin phase enters only zp_2, which sets the branch basis,
    not the blocks; so the gates of one composite sequence that share an
    angle (up to sign) share their blocks G_b.
(d) Every pulse of a composite has the same g, Delta and beta_b, and
    starts its clock at t = 0, so the pulses differ only in their
    durations: by (f), the pulse pairs at all distinct durations come
    from one eigendecomposition, one product per duration.
(e) Ion 1's spin phase zp_1 is the same for every gate, so in ion 1's
    eigenbasis every gate, and with it the composite, is block-diagonal,
    sum_{s1} P1_{s1} (x) C_{s1}.  Since sigma_z P2_+ sigma_z = P2_-,
    (b) gives C_- = (sigma_z (x) Pi) C_+ (sigma_z (x) Pi): the composite
    is one product of 2(n_max+1)-square blocks
    C_+ = prod_gates sum_{s2} P2_{s2} (x) G_{(+,s2)}, assembled on the
    full space once (:func:`_assemble`).  A single pulse or gate is the
    one-factor case.
(f) With N = diag(0..n_max), e^{i Delta t N} a^dag e^{-i Delta t N} =
    e^{i Delta t} a^dag holds exactly in the truncated space, so
    H_b(t) = e^{i Delta t N} K_b e^{-i Delta t N} with the constant
    Hermitian tridiagonal K_b = g (beta_b a^dag + beta_b^* a).  In the
    frame rotating with Delta N the Hamiltonian is K_b + Delta N, with
    eigenpairs lambda_b, V_b, and
        U_b(T) = e^{i Delta T N} V_b e^{-i T lambda_b} V_b^dag,
    exact to rounding and without time steps (:func:`_propagated_pairs`).

The closed form is U_b(T) = e^{i (phi0 + theta_c s1 s2)} D(alpha_b) with
alpha_b = -(g/Delta) (e^{i Delta T} - 1) beta_b.  The numerical route
propagates U_(+,+) and U_(+,-) from H_b in the truncated Fock space by
(f); none of the Magnus results (phi0, theta_c, alpha) enters it, and
the closed form never propagates H_b, so each route stays an
independent check on the other.  The branch basis, the assembly and the
symmetries (a), (b), (e) and (f) they share are pinned by the tests
against dense kron operators on the full spin-phonon space: the
Hamiltonian, the pulse integrated by a stepping ODE solver, the
two-pulse gate as the product of two separately integrated pulses, and
the composite as a loop over separately computed pulses.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, replace
from math import ceil, pi

import numpy as np

from .errors import TruncationError, ValidationError
from .gates import CompositeSequence, phase_gate
from .linalg import mat_exp_hermitian_generator, sigma_axis


def __getattr__(name: str):
    """Import scipy's ``solve_ivp`` and ``brentq`` on first use (PEP 562),
    since scipy is most of the package's import time, and keep them as
    module globals, which callers and tests may rebind.  No pulse uses
    ``solve_ivp``; it stays resolvable because the benchmark's span
    recorder (``bench/spans.py``) wraps it."""
    module = {"solve_ivp": "scipy.integrate", "brentq": "scipy.optimize"}.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = getattr(importlib.import_module(module), name)
    return globals()[name]


def _scipy(name: str):
    return globals().get(name) or __getattr__(name)


LEAKAGE_LIMIT = 1e-8


@dataclass(frozen=True)
class TrapConfig:
    """Physical parameters of one bichromatic pulse."""

    g: float
    delta: float
    duration: float
    zeta_plus: tuple[float, float] = (0.0, 0.0)
    zeta_minus: tuple[float, float] = (0.0, 0.0)
    n_max: int = 30
    initial_fock: int = 0

    def __post_init__(self):
        reals = (self.g, self.delta, self.duration, *self.zeta_plus, *self.zeta_minus)
        if not np.all(np.isfinite(reals)):
            raise ValidationError("g, delta, duration and the zeta phases must be finite")
        if self.g < 0 or self.delta == 0 or self.duration <= 0:
            raise ValidationError("need g >= 0, delta != 0 and duration > 0")
        if not (0 <= self.initial_fock <= self.n_max):
            raise ValidationError("initial Fock level must lie within the truncation")
        amax = self.displacement_bound()
        if not np.isfinite(amax):
            raise ValidationError("peak displacement g/delta overflows")
        required = ceil((amax + 4.0) ** 2)
        if self.n_max < required:
            raise ValidationError(
                f"n_max={self.n_max} too small for peak displacement "
                f"{amax:.3f}; need at least {required}"
            )

    @property
    def dim(self) -> int:
        return 4 * (self.n_max + 1)

    def phase_angle(self) -> float:
        """Delta*T, the phase-space loop angle of the pulse."""
        return self.delta * self.duration

    def displacement_bound(self) -> float:
        """Peak |alpha| over the pulse (both ions, worst spin branch)."""
        dt = abs(self.phase_angle())
        loop = 2.0 if dt >= pi else 2.0 * abs(np.sin(dt / 2.0))
        return 2.0 * (self.g / abs(self.delta)) * loop

    def shifted_motional_phases(self) -> "TrapConfig":
        zm = tuple(z + pi for z in self.zeta_minus)
        return replace(self, zeta_minus=zm)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def destroy(levels: int) -> np.ndarray:
    """Truncated phonon annihilation operator on ``levels`` Fock states."""
    a = np.zeros((levels, levels), dtype=complex)
    n = np.arange(1, levels)
    a[n - 1, n] = np.sqrt(n)
    return a


def _fock_level(cfg: TrapConfig, level: int | None, default: int | None, name: str) -> int:
    """``level`` (``default`` when None) as an index into the truncated Fock
    space; ValidationError unless it is an integer in [0, n_max]."""
    level = default if level is None else level
    if not (isinstance(level, (int, np.integer)) and 0 <= level <= cfg.n_max):
        raise ValidationError(f"{name}={level!r} must be an integer in [0, n_max={cfg.n_max}]")
    return int(level)


def leakage(u: np.ndarray, cfg: TrapConfig, source_levels: int | None = None) -> float:
    """Worst-case population in the top two phonon levels over all input
    basis states with phonon level <= source_levels."""
    levels = cfg.n_max + 1
    src = _fock_level(cfg, source_levels, cfg.initial_fock, "source_levels")
    blocks = u.reshape(4, levels, 4, levels)
    top = blocks[:, -2:, :, : src + 1]
    return float(np.max(np.sum(np.abs(top) ** 2, axis=(0, 1))))


def _branch_leakage(pair: np.ndarray, cfg: TrapConfig) -> float:
    """:func:`leakage` of the operator with branch blocks ``pair`` for
    (+,+) and (+,-) and their parity images, from the pair alone.

    Every entry of the branch basis has modulus 1/2, so a spin input sees
    each branch with weight 1/4, and a parity image has the moduli of its
    block: the value depends neither on the basis nor on the order of the
    pair."""
    top = np.abs(pair[:, -2:, : cfg.initial_fock + 1]) ** 2
    return float(np.max(np.mean(np.sum(top, axis=1), axis=0)))


def _check_leakage(pair: np.ndarray, cfg: TrapConfig) -> None:
    leak = _branch_leakage(pair, cfg)
    if leak > LEAKAGE_LIMIT:
        raise TruncationError(
            f"population {leak:.2e} reached the top two Fock levels; "
            f"increase n_max"
        )


def _branch_amplitudes(cfg: TrapConfig) -> np.ndarray:
    """beta_b = s1 e^{-i zm_1} + s2 e^{-i zm_2} for the branches (s1, s2)
    ordered (+,+), (+,-), (-,+), (-,-)."""
    s1, s2 = np.repeat([1.0, -1.0], 2), np.tile([1.0, -1.0], 2)
    return s1 * np.exp(-1j * cfg.zeta_minus[0]) + s2 * np.exp(-1j * cfg.zeta_minus[1])


def _from_branches(zp: float, blocks: np.ndarray) -> np.ndarray:
    """sum_s P_s (x) blocks[s] for the eigenprojectors P_+- = (1 +- sigma(zp))/2
    of one ion's spin axis, each block acting on everything after that ion:
    1 (x) M + sigma(zp) (x) D with M and D the half sum and half difference."""
    mean, diff = (blocks[0] + blocks[1]) / 2, (blocks[0] - blocks[1]) / 2
    phase = np.exp(1j * zp)
    return np.block([[mean, np.conj(phase) * diff], [phase * diff, mean]])


def _assemble(cfg: TrapConfig, plus: np.ndarray) -> np.ndarray:
    """sum_{s1} P1_{s1} (x) C_{s1} on the full space from ion 1's block
    C_+ = ``plus`` on qubit 2 (x) phonon: C_- = (sigma_z (x) Pi) C_+ (sigma_z (x) Pi).
    An operator with branch pair P has C_+ = _from_branches(zp_2, P)."""
    flip = np.outer([1.0, -1.0], (-1.0) ** np.arange(cfg.n_max + 1)).ravel()
    return _from_branches(cfg.zeta_plus[0], np.array([plus, np.outer(flip, flip) * plus]))


def _propagated_pairs(cfgs: list[TrapConfig]) -> np.ndarray:
    """U_b(T) of the branches (+,+) and (+,-) for configs that differ only
    in their durations T, exact in the truncated Fock space: in the frame
    rotating with Delta N, H_b is the constant K_b + Delta N, so one
    batched eigendecomposition serves every duration (fact (f))."""
    cfg = cfgs[0]
    a = destroy(cfg.n_max + 1)
    n = np.arange(cfg.n_max + 1)
    beta = _branch_amplitudes(cfg)[:2, None, None]
    k = cfg.g * (beta * a.conj().T + np.conj(beta) * a)
    lam, v = np.linalg.eigh(k + np.diag(cfg.delta * n))
    t = np.array([c.duration for c in cfgs])[:, None, None]
    # U_b(T) = e^{i Delta T N} V_b e^{-i T lambda_b} V_b^dag, one row phase per level
    frame = np.exp(1j * cfg.delta * t * n)[..., None]
    return frame * (v * np.exp(-1j * t * lam)[:, :, None, :]) @ v.conj().swapaxes(-1, -2)


def _closed_form_pair(cfg: TrapConfig) -> np.ndarray:
    """U_b(T) = e^{i (phi0 + theta_c s1 s2)} D(alpha_b) of the branches
    (+,+) and (+,-)."""
    a = destroy(cfg.n_max + 1)
    s1s2 = np.array([1.0, -1.0])
    phases = np.exp(1j * (0.5 * rotation_angle(cfg) + single_pulse_spin_angle(cfg) * s1s2))
    # D(alpha) = exp(i h) with the Hermitian h = -i (alpha a^dag - alpha^* a)
    return np.array([
        phase * mat_exp_hermitian_generator(-1j * (alpha * a.conj().T - np.conj(alpha) * a), 1.0)
        for phase, alpha in zip(phases, displacement_amplitudes(cfg)[:2])
    ])


def _gate_pairs(cfgs: list[TrapConfig], analytic: bool) -> list[np.ndarray]:
    """Branch blocks G_b = U_{-b} U_b of (+,+) and (+,-) of the two-pulse
    gates for configs that differ only in their durations:
    each gate pair is (Pi P Pi) P for its pulse pair P, and every pulse
    pair passes the leakage guard."""
    pairs = [_closed_form_pair(c) for c in cfgs] if analytic else _propagated_pairs(cfgs)
    parity = (-1.0) ** np.arange(cfgs[0].n_max + 1)
    for cfg, pair in zip(cfgs, pairs):
        _check_leakage(pair, cfg)
    return [(np.outer(parity, parity) * pair) @ pair for pair in pairs]


def evolve_numerical(cfg: TrapConfig, check: bool = True) -> np.ndarray:
    """Time-ordered propagator over [0, T] of dU/dt = -i H(t) U in the
    truncated space, exact to rounding: one phonon block per spin branch
    (two from one eigendecomposition in the rotating frame, two by parity).

    Independent of the closed form: it sees only the Hamiltonian.  Raises
    TruncationError when population leaks into the top two Fock levels.
    """
    [pair] = _propagated_pairs([cfg])
    if check:
        _check_leakage(pair, cfg)
    return _assemble(cfg, _from_branches(cfg.zeta_plus[1], pair))


def rotation_angle(cfg: TrapConfig) -> float:
    """Two-pulse qubit rotation angle (4 g^2/Delta^2)(Delta T - sin Delta T)."""
    dt = cfg.phase_angle()
    return 4.0 * (cfg.g / cfg.delta) ** 2 * (dt - np.sin(dt))


def single_pulse_spin_angle(cfg: TrapConfig) -> float:
    """Spin-spin angle of one pulse, half the two-pulse angle, weighted by
    the motional-phase mismatch."""
    return 0.5 * rotation_angle(cfg) * np.cos(cfg.zeta_minus[0] - cfg.zeta_minus[1])


def displacement_amplitudes(cfg: TrapConfig) -> np.ndarray:
    """Coherent displacement per simultaneous spin eigenbranch (s1, s2),
    ordered (+1,+1), (+1,-1), (-1,+1), (-1,-1)."""
    c = -(cfg.g / cfg.delta) * (np.exp(1j * cfg.phase_angle()) - 1.0)
    return c * _branch_amplitudes(cfg)


def analytic_propagator(cfg: TrapConfig, check: bool = True) -> np.ndarray:
    """Closed-form single-pulse propagator (displacement times spin-spin
    exponential times scalar phase), built per spin branch in the
    truncated space: e^{i (phi0 + theta_c s1 s2)} D(alpha_b)."""
    pair = _closed_form_pair(cfg)
    if check:
        _check_leakage(pair, cfg)
    return _assemble(cfg, _from_branches(cfg.zeta_plus[1], pair))


def two_pulse_gate(cfg: TrapConfig, analytic: bool = False) -> np.ndarray:
    """Propagator of two equal pulses, the second with motional phases
    shifted by pi.  The displacement cancels, restoring the vibrational
    state regardless of the (common) detuning, and the spin-spin angle
    doubles to :func:`rotation_angle`.  One pulse is computed; the second
    one's branch blocks are its blocks in reverse order."""
    [gate] = _gate_pairs([cfg], analytic)
    return _assemble(cfg, _from_branches(cfg.zeta_plus[1], gate))


def ideal_two_pulse_gate(cfg: TrapConfig) -> np.ndarray:
    """exp(i theta sigma(zp1) sigma(zp2)) (x) 1 with the scalar phase of
    the two-pulse scheme included (it equals the rotation angle)."""
    theta = rotation_angle(cfg)
    spin = mat_exp_hermitian_generator(
        np.kron(sigma_axis(cfg.zeta_plus[0]), sigma_axis(cfg.zeta_plus[1])),
        theta * np.cos(cfg.zeta_minus[0] - cfg.zeta_minus[1]),
    )
    return np.exp(1j * theta) * np.kron(spin, np.eye(cfg.n_max + 1))


def extract_qubit_gate(u: np.ndarray, cfg: TrapConfig, fock_level: int | None = None) -> np.ndarray:
    """4x4 qubit block of a propagator that acts as identity on the
    phonon factor, read off at the given Fock level."""
    levels = cfg.n_max + 1
    p = _fock_level(cfg, fock_level, cfg.initial_fock, "fock_level")
    return u.reshape(4, levels, 4, levels)[:, p, :, p].copy()


def duration_for_angle(g: float, delta: float, theta: float) -> float:
    """Positive pulse duration giving the two-pulse rotation angle
    sign(delta) * theta: the angle is odd in the detuning."""
    if not (np.isfinite(theta) and theta > 0):
        raise ValidationError("target angle must be finite and positive")
    if g <= 0:
        raise ValidationError("a gate angle needs g > 0")
    y = theta * delta**2 / (4.0 * g**2)
    if not np.isfinite(y):
        raise ValidationError("target angle out of reach: theta*delta^2/g^2 overflows")
    f = lambda x: x - np.sin(x) - y
    lo = max(y - 1.0, 1e-9)
    hi = y + 1.0 + 1e-9
    if f(lo) > 0:
        lo = 1e-12
    x = _scipy("brentq")(f, lo, hi, xtol=1e-14, rtol=1e-15)
    return x / abs(delta)


def composite_physical_gate(
    seq: CompositeSequence,
    cfg_base: TrapConfig,
    eps_g: float = 0.0,
    analytic: bool = False,
) -> np.ndarray:
    """Full physical propagator of a composite sequence with individual
    addressing: ion 2's spin phase carries each gate's phase, the pulse
    duration is chosen per gate so the two-pulse angle matches the gate
    angle, and the Rabi frequency error eps_g enters every pulse.

    A gate whose angle has the opposite sign to the detuning is realised
    by a pi shift of the spin phase, and a zero-angle gate, the identity,
    by no pulse.  Gates of equal duration share one gate pair, every
    distinct pulse duration is one product on one shared
    eigendecomposition, and the gates are multiplied as ion 1's s1 = +
    blocks, assembled on the full space once.  The terminal frame
    rotation, a software phase, is applied as an ideal qubit operation.
    The induced relative rotation-angle error is (1+eps_g)^2 - 1.
    """
    gates = [gate for gate in seq.gates if gate.theta != 0.0]
    angles = {abs(gate.theta) for gate in gates}
    durations = {t: duration_for_angle(cfg_base.g, cfg_base.delta, t) for t in angles}
    times = sorted(set(durations.values()))
    cfgs = [replace(cfg_base, g=cfg_base.g * (1.0 + eps_g), duration=t) for t in times]
    pairs = dict(zip(times, _gate_pairs(cfgs, analytic) if cfgs else []))
    levels = cfg_base.n_max + 1
    chain = np.eye(2 * levels, dtype=complex)
    for gate in gates:
        phi = gate.phi + pi if gate.theta * cfg_base.delta < 0 else gate.phi
        pair = pairs[durations[abs(gate.theta)]]
        chain = _from_branches(cfg_base.zeta_plus[0] + phi, pair) @ chain
    if seq.terminal_phase != 0.0:
        # the frame rotation is diagonal on qubit 2 and commutes with sigma_z (x) Pi
        chain = np.repeat(np.diag(phase_gate(seq.terminal_phase, 2))[:2], levels)[:, None] * chain
    return _assemble(cfg_base, chain)


# ---------------------------------------------------------------------------
# config file format
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {
    "g", "delta", "t", "delta_t", "nmax", "fock0",
    "zeta1p", "zeta2p", "zeta1m", "zeta2m", "eps_g",
}
_INTEGER_KEYS = {"nmax", "fock0"}


def parse_config(text: str) -> tuple[TrapConfig, float]:
    """Parse the flat key=value pulse description.

    Angle-like keys (zeta*, delta_t) are given in units of pi; g, delta
    and T are raw angular-frequency / time values.  Returns the config and
    the Rabi-frequency error eps_g (0 when absent).
    """
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        if key not in _CONFIG_KEYS:
            raise ValidationError(f"line {lineno}: unknown key {key!r}")
        try:
            value = float(val)
        except ValueError:
            raise ValidationError(f"line {lineno}: {key} is not a number: {val.strip()!r}") from None
        if not np.isfinite(value):
            raise ValidationError(f"line {lineno}: {key} must be finite")
        if key in _INTEGER_KEYS and not value.is_integer():
            raise ValidationError(f"line {lineno}: {key} must be an integer, got {val.strip()!r}")
        values[key] = value
    for required in ("g", "delta"):
        if required not in values:
            raise ValidationError(f"missing required key {required!r}")
    if "t" in values:
        duration = values["t"]
    elif "delta_t" in values:
        if values["delta"] == 0:
            raise ValidationError("delta_t needs delta != 0")
        duration = values["delta_t"] * pi / values["delta"]
    else:
        raise ValidationError("provide either t or delta_t")
    cfg = TrapConfig(
        g=values["g"],
        delta=values["delta"],
        duration=duration,
        zeta_plus=(values.get("zeta1p", 0.0) * pi, values.get("zeta2p", 0.0) * pi),
        zeta_minus=(values.get("zeta1m", 0.0) * pi, values.get("zeta2m", 0.0) * pi),
        n_max=int(values.get("nmax", 30)),
        initial_fock=int(values.get("fock0", 0)),
    )
    return cfg, values.get("eps_g", 0.0)
