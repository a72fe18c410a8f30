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
P_b = P1_{s1} (x) P2_{s2}, each pulse splits into four driven
oscillators of n_max+1 levels:

    H_b(t) = g (beta_b e^{i Delta t} a^dag + h.c.),
    beta_b = s1 e^{-i zm_1} + s2 e^{-i zm_2},
    U(T)   = sum_b P_b (x) U_b(T).

Six facts of H_b, none of them taken from the Magnus closed form, fix
how much work a composite gate needs, and (g) and (h) do so for the
closed form:

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
    durations: by (f), or (g) in closed form, the pulse pairs at all
    distinct durations share one eigendecomposition, one product each.
(e) Ion 1's spin phase zp_1 is the same for every gate, so in ion 1's
    eigenbasis every gate, and with it the composite, is block-diagonal,
    sum_{s1} P1_{s1} (x) C_{s1}.  Since sigma_z P2_+ sigma_z = P2_-,
    (b) gives C_- = (sigma_z (x) Pi) C_+ (sigma_z (x) Pi): the composite
    is one product of 2(n_max+1)-square blocks (2-square in closed form,
    by (h)) C_+ = prod_gates sum_{s2} P2_{s2} (x) G_{(+,s2)}.  A single pulse
    or gate is the one-factor case.  C_+ alone gives the qubit gate and the
    leakage (:func:`_qubit_gate`, :func:`_leakage`); only the public
    functions assemble the full space (:func:`_assemble`).  Both sums over
    eigenprojectors are the gate model's block identity, implemented once in
    :func:`cpgates.gates._from_branches`, which also embeds the gates' 2x2
    blocks as 4x4 matrices.
(f) With N = diag(0..n_max), e^{i Delta t N} a^dag e^{-i Delta t N} =
    e^{i Delta t} a^dag holds exactly in the truncated space, so
    H_b(t) = e^{i Delta t N} K_b e^{-i Delta t N} with the constant
    Hermitian tridiagonal K_b = g (beta_b a^dag + beta_b^* a).  In the
    frame rotating with Delta N the Hamiltonian is K_b + Delta N, with
    eigenpairs lambda_b, V_b, and
        U_b(T) = e^{i Delta T N} V_b e^{-i T lambda_b} V_b^dag,
    exact to rounding and without time steps (:func:`_propagated_pairs`).
(g) By the same identity, D(r e^{if}) = e^{ifN} exp(r (a^dag - a)) e^{-ifN}
    exactly in the truncated space, so one eigendecomposition of the
    fixed Hermitian i (a - a^dag) gives every displacement, whatever g,
    Delta and the durations (:func:`_closed_form_pairs`); it is computed
    once per level count (:func:`_displacement_basis`).
(h) The truncated generator alpha a^dag - alpha^* a is anti-Hermitian, so
    Pi D(alpha) Pi = D(-alpha) = D(alpha)^{-1} exactly, and s1 s2 is the
    same for b and -b: by (a) and (b) the closed-form two-pulse gate is
    one phase per branch, G_b = e^{2i (phi0 + theta_c s1 s2)} times the
    phonon identity (:func:`_gate_pairs`).  Its chain multiplies blocks of
    one level per branch, which the readers of (e) take as C_+ (x) 1 and
    only :func:`_assemble` expands; only the truncation guard reads
    D(alpha_b), in its top two rows (:func:`_displacement_corners`).

The closed form is U_b(T) = e^{i (phi0 + theta_c s1 s2)} D(alpha_b) with
alpha_b = -(g/Delta) (e^{i Delta T} - 1) beta_b, built by (g).  The
numerical route propagates U_(+,+) and U_(+,-) from H_b in the truncated
Fock space by (f); none of the Magnus results (phi0, theta_c, alpha)
enters it, and the closed form never propagates H_b, so each route stays
an independent check on the other.  The branch basis, the assembly and the
symmetries (a), (b), (e) and (f) they share are pinned by the tests
against dense kron operators on the full spin-phonon space: the
Hamiltonian, the pulse integrated by a stepping ODE solver, the
two-pulse gate as the product of two separately integrated pulses, and
the composite as a loop over separately computed pulses.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, replace
from functools import cache, reduce
from math import ceil, factorial, inf, pi, sin, tan, ulp

import numpy as np

from .errors import TruncationError, ValidationError
from .gates import CompositeSequence, _from_branches
from .linalg import mat_exp_hermitian_generator, sigma_axis


def __getattr__(name: str):
    """Import scipy's ``solve_ivp`` on first use (PEP 562).  No pulse uses it:
    it resolves only for the benchmark's span recorder (``bench/spans.py``),
    which wraps it, and goes when in-program metrics replace that recorder."""
    if name != "solve_ivp":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = importlib.import_module("scipy.integrate").solve_ivp
    return globals()[name]


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
        if not isinstance(self.n_max, (int, np.integer)):
            raise ValidationError(f"n_max={self.n_max!r} must be an integer")
        _fock_level(self, self.initial_fock, "initial_fock")
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
        return replace(self, zeta_minus=tuple(z + pi for z in self.zeta_minus))


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def destroy(levels: int) -> np.ndarray:
    """Truncated phonon annihilation operator on ``levels`` Fock states."""
    return np.diag(np.sqrt(np.arange(1, levels)), 1).astype(complex)


def _fock_level(cfg: TrapConfig, level: int, name: str) -> int:
    """``level`` as an index into the truncated Fock space; ValidationError
    unless it is an integer in [0, n_max]."""
    if not (isinstance(level, (int, np.integer)) and 0 <= level <= cfg.n_max):
        raise ValidationError(f"{name}={level!r} must be an integer in [0, n_max={cfg.n_max}]")
    return int(level)


def _branch_amplitudes(cfg: TrapConfig) -> np.ndarray:
    """beta_b = s1 e^{-i zm_1} + s2 e^{-i zm_2} for the branches (s1, s2)
    ordered (+,+), (+,-), (-,+), (-,-)."""
    s1, s2 = np.repeat([1.0, -1.0], 2), np.tile([1.0, -1.0], 2)
    return s1 * np.exp(-1j * cfg.zeta_minus[0]) + s2 * np.exp(-1j * cfg.zeta_minus[1])


def _assemble(cfg: TrapConfig, plus: np.ndarray) -> np.ndarray:
    """sum_{s1} P1_{s1} (x) C_{s1} on the full space from ion 1's block
    C_+ = ``plus`` on qubit 2 (x) phonon: C_- = (sigma_z (x) Pi) C_+ (sigma_z (x) Pi).
    A block of one level per branch, a closed-form gate chain (fact (h)),
    acts as the phonon identity and is expanded as Q (x) 1."""
    levels = plus.shape[-1] // 2
    flip = np.outer([1.0, -1.0], (-1.0) ** np.arange(levels)).ravel()
    full = _from_branches(cfg.zeta_plus[0], (plus, np.outer(flip, flip) * plus))
    return full if levels == cfg.n_max + 1 else np.kron(full, np.eye(cfg.n_max + 1))


def _qubit_gate(cfg: TrapConfig, plus: np.ndarray) -> np.ndarray:
    """4x4 qubit gate of the operator with ion 1's block C_+ = ``plus`` that
    acts as the identity on the phonons: the 2x2 block q of C_+ at Fock level
    initial_fock, or at the one level of a closed-form chain, and sigma_z q sigma_z of C_-."""
    levels = plus.shape[-1] // 2
    p = min(cfg.initial_fock, levels - 1)
    q = plus.reshape(2, levels, 2, levels)[:, p, :, p]
    return _from_branches(cfg.zeta_plus[0], (q, q * np.array([[1.0, -1.0], [-1.0, 1.0]])))


def _leakage(cfg: TrapConfig, plus: np.ndarray) -> float:
    """Worst-case population in the top two phonon levels, over the inputs at
    levels <= initial_fock, of the operator with ion 1's block C_+ = ``plus``:
    C_- has the moduli of C_+ and ion 1's projectors split every input evenly,
    so it is the largest column sum of |C_+|^2 over those rows and columns, to
    which ``plus`` may be cut.  One level per branch is C_+ (x) 1 (fact (h))."""
    levels = plus.shape[-2] // 2
    blocks = plus.reshape(2, levels, 2, -1)
    if levels == 1:
        blocks = blocks * np.eye(cfg.n_max + 1)[-2:, None, : cfg.initial_fock + 1]
    top = np.abs(blocks[:, -2:, :, : cfg.initial_fock + 1]) ** 2
    return float(np.max(np.sum(top, axis=(0, 1))))


def _operator(cfg: TrapConfig, pair: np.ndarray) -> np.ndarray:
    """Full-space operator of the branch pair P of (+,+) and (+,-):
    C_+ = sum_{s2} P2_{s2} (x) P[s2]."""
    return _assemble(cfg, _from_branches(cfg.zeta_plus[1], pair))


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


@cache
def _displacement_basis(levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs w, V of the Hermitian i (a - a^dag) on ``levels`` Fock
    states, read-only: by fact (g) they give every displacement."""
    a = destroy(levels)
    w, v = np.linalg.eigh(1j * (a - a.conj().T))
    w.flags.writeable = v.flags.writeable = False
    return w, v


def _closed_form_phases(cfgs: list[TrapConfig]) -> np.ndarray:
    """phi0 + theta_c s1 s2 of the branches (+,+) and (+,-), one row per config."""
    s1s2 = np.array([1.0, -1.0])
    return np.array([0.5 * rotation_angle(c) + single_pulse_spin_angle(c) * s1s2 for c in cfgs])


def _closed_form_pairs(cfgs: list[TrapConfig]) -> np.ndarray:
    """U_b(T) = e^{i (phi0 + theta_c s1 s2)} D(alpha_b) of the branches
    (+,+) and (+,-) for configs that differ only in their durations: by
    fact (g), one eigendecomposition V diag(w) V^dag of i (a - a^dag)
    serves every alpha_b = r e^{if}, as D = W e^{i r w} W^dag, W = e^{ifN} V."""
    n = np.arange(cfgs[0].n_max + 1)
    w, v = _displacement_basis(n.size)
    alpha = np.array([displacement_amplitudes(c)[:2] for c in cfgs])
    rot = np.exp(1j * np.angle(alpha)[..., None, None] * n[:, None]) * v
    disp = (rot * np.exp(1j * np.abs(alpha)[..., None, None] * w)) @ rot.conj().swapaxes(-1, -2)
    return np.exp(1j * _closed_form_phases(cfgs))[..., None, None] * disp


def _displacement_corners(cfgs: list[TrapConfig]) -> np.ndarray:
    """The part of each closed-form pulse pair that :func:`_leakage` reads,
    the top two rows and first initial_fock+1 columns, up to phases:
    e^{ifN} of fact (g) and the pulse phase have modulus 1, so
    |D(r e^{if})| = |V e^{i r w} V^dag| entry by entry."""
    cfg = cfgs[0]
    w, v = _displacement_basis(cfg.n_max + 1)
    r = np.abs([displacement_amplitudes(c)[:2] for c in cfgs])[..., None, None]
    return (v[-2:] * np.exp(1j * r * w)) @ v[: cfg.initial_fock + 1].conj().T


def _guard(cfgs: list[TrapConfig], pairs):
    """``pairs`` once every pulse is checked: TruncationError at the first whose
    (+,+) and (+,-) blocks P, or their corners, leak into the top two Fock levels,
    read from ion 1's block sum_{s2} P2_{s2} (x) P[s2] at any of ion 2's phases."""
    for cfg, pair in zip(cfgs, pairs):
        if (leak := _leakage(cfg, _from_branches(0.0, pair))) > LEAKAGE_LIMIT:
            raise TruncationError(
                f"population {leak:.2e} reached the top two Fock levels; increase n_max")
    return pairs


def _gate(pair: np.ndarray) -> np.ndarray:
    """Branch blocks G_b = U_{-b} U_b = (Pi P Pi) P of the two-pulse gate
    of pulse pair P, by facts (a) and (b)."""
    parity = (-1.0) ** np.arange(pair.shape[-1])
    return (np.outer(parity, parity) * pair) @ pair


def _gate_pairs(cfgs: list[TrapConfig], analytic: bool) -> np.ndarray:
    """Branch blocks G_b of (+,+) and (+,-) of the two-pulse gates of pulses
    that differ only in their durations, every pulse guarded: in closed form
    one phase per branch, blocks of one level (fact (h)), else the gates of
    the propagated pulse pairs, blocks of n_max+1 levels."""
    if analytic:
        _guard(cfgs, _displacement_corners(cfgs))
        return np.exp(2j * _closed_form_phases(cfgs))[..., None, None]
    return np.array([_gate(pair) for pair in _guard(cfgs, _propagated_pairs(cfgs))])


def evolve_numerical(cfg: TrapConfig) -> np.ndarray:
    """Time-ordered propagator over [0, T] of dU/dt = -i H(t) U in the
    truncated space, exact to rounding: one phonon block per spin branch
    (two from one eigendecomposition in the rotating frame, two by parity).

    Independent of the closed form: it sees only the Hamiltonian.  Raises
    TruncationError when population leaks into the top two Fock levels.
    """
    return _operator(cfg, *_guard([cfg], _propagated_pairs([cfg])))


def rotation_angle(cfg: TrapConfig) -> float:
    """Two-pulse qubit rotation angle (4 g^2/Delta^2)(Delta T - sin Delta T),
    with Delta T - sin Delta T from :func:`_sine_gap`, accurate at small Delta T."""
    return 4.0 * (cfg.g / cfg.delta) ** 2 * _sine_gap(float(cfg.phase_angle()), 0.0)


def single_pulse_spin_angle(cfg: TrapConfig) -> float:
    """Spin-spin angle of one pulse, half the two-pulse angle, weighted by
    the motional-phase mismatch."""
    return 0.5 * rotation_angle(cfg) * np.cos(cfg.zeta_minus[0] - cfg.zeta_minus[1])


def displacement_amplitudes(cfg: TrapConfig) -> np.ndarray:
    """Coherent displacement per simultaneous spin eigenbranch (s1, s2),
    ordered (+1,+1), (+1,-1), (-1,+1), (-1,-1)."""
    c = -(cfg.g / cfg.delta) * (np.exp(1j * cfg.phase_angle()) - 1.0)
    return c * _branch_amplitudes(cfg)


def analytic_propagator(cfg: TrapConfig) -> np.ndarray:
    """Closed-form single-pulse propagator e^{i (phi0 + theta_c s1 s2)}
    D(alpha_b) per spin branch b in the truncated space (displacement
    times spin-spin exponential times scalar phase), by fact (g); raises
    TruncationError when it leaks into the top two Fock levels."""
    return _operator(cfg, *_guard([cfg], _closed_form_pairs([cfg])))


def two_pulse_gate(cfg: TrapConfig, analytic: bool = False) -> np.ndarray:
    """Propagator of two equal pulses, the second with motional phases
    shifted by pi.  The displacement cancels, restoring the vibrational
    state regardless of the (common) detuning, and the spin-spin angle
    doubles to :func:`rotation_angle`.  One pulse is computed; the second
    one's branch blocks are its blocks in reverse order, and in closed form
    the gate is one phase per branch (fact (h))."""
    return _operator(cfg, *_gate_pairs([cfg], analytic))


def ideal_two_pulse_gate(cfg: TrapConfig) -> np.ndarray:
    """4x4 qubit gate e^{i theta} exp(i theta cos(zm1 - zm2) sigma(zp1) sigma(zp2))
    of the two-pulse scheme, theta the rotation angle; the ideal gate on the
    full space is its kron with the phonon identity."""
    theta = rotation_angle(cfg)
    spin = mat_exp_hermitian_generator(
        np.kron(sigma_axis(cfg.zeta_plus[0]), sigma_axis(cfg.zeta_plus[1])),
        theta * np.cos(cfg.zeta_minus[0] - cfg.zeta_minus[1]),
    )
    return np.exp(1j * theta) * spin


# 2 pi = _TWO_PI_HI + _TWO_PI_LO to 2^-62 (Cody & Waite); the high part has
# 8 significant bits, so k * _TWO_PI_HI is exact for k < 2^45
_TWO_PI_HI, _TWO_PI_LO = 201 / 32, 1.9353071795864769253e-3
# (u - sin u - u^3/6) / u^5 in powers of u^2, highest first, to 1e-20 for |u| < 1.5
_SINE_TAIL = [(-1) ** (n + 1) / factorial(2 * n + 5) for n in reversed(range(10))]


def _sine_gap(u: float, c: float) -> float:
    """u - sin u - c; for |u| < 1.5, where u - sin u cancels, from its
    series with (u^3 - 6c)/6 rounded once, so it keeps its relative accuracy."""
    if abs(u) >= 1.5:
        return u - sin(u) - c
    (p, q), (r, s) = u.as_integer_ratio(), c.as_integer_ratio()
    tail = reduce(lambda acc, coef: acc * (u * u) + coef, _SINE_TAIL, 0.0)
    return (p**3 * s - 6 * r * q**3) / (6 * q**3 * s) + u**5 * tail


def duration_for_angle(g: float, delta: float, theta: float) -> float:
    """Positive pulse duration giving the two-pulse rotation angle
    sign(delta) * theta: the angle is odd in the detuning.

    The loop angle x = |delta| T solves x - sin x = y = theta delta^2/(4 g^2):
    with k whole turns and c = y - 2 pi k against a two-term 2 pi, the series
    root u = s + s^3/60 + s^5/1400, s = (6c)^(1/3), of u - sin u = c starts
    at most six Halley steps, and x = 2 pi k + u leaves x - sin x - y within
    a few ulp of y.  At whole turns x - sin x is flat to third order: there
    the residual r falls below 1e-3 ulp yet fixes x only to (6r)^(1/3),
    2e-6 at y = 8 pi, which the angle, a function of x - sin x, never sees."""
    if g <= 0:
        raise ValidationError("a gate angle needs g > 0")
    y = theta * delta**2 / (4.0 * g**2)
    if not 0.0 < y < inf:
        raise ValidationError("target angle out of reach: need theta > 0 and "
                              "theta*delta^2/(4 g^2) positive and finite")
    k = round(y / (2 * pi))
    # past k = 2^45 the rounding of k * _TWO_PI_HI, below ulp(y), may carry c beyond pi
    c = min(max((y - k * _TWO_PI_HI) - k * _TWO_PI_LO, -pi), pi)
    s = float(np.cbrt(6.0 * c))
    u = s + s**3 / 60.0 + s**5 / 1400.0
    for _ in range(6):
        if (f := _sine_gap(u, c)) == 0.0:
            break
        t = f / (2.0 * sin(0.5 * u) ** 2)  # f / f', f' = 1 - cos u free of cancellation
        step = t / (1.0 - 0.5 * t / tan(0.5 * u))  # Halley's step: f''/f' = cot(u/2)
        u -= step
        if abs(step) < ulp(u):
            break
    return (k * _TWO_PI_HI + (k * _TWO_PI_LO + u)) / abs(delta)


def _coupling_with_error(cfg: TrapConfig, eps_g: float) -> float:
    """Rabi frequency g (1 + eps_g) of ``cfg`` under the relative error
    eps_g; ValidationError unless eps_g is finite and >= -1 (so g >= 0)."""
    if not (np.isfinite(eps_g) and eps_g >= -1.0):
        raise ValidationError(f"eps_g={eps_g} must be finite and >= -1")
    return cfg.g * (1.0 + eps_g)


def _composite_block(seq: CompositeSequence, cfg_base: TrapConfig, eps_g: float,
                     analytic: bool) -> np.ndarray:
    """Ion 1's block C_+ of :func:`composite_physical_gate` on qubit 2 (x)
    phonon, n_max+1 levels per branch, or one in closed form (fact (h))."""
    g = _coupling_with_error(cfg_base, eps_g)
    gates = [gate for gate in seq.gates if gate.theta != 0.0]
    angles = {abs(gate.theta) for gate in gates}
    durations = {t: duration_for_angle(cfg_base.g, cfg_base.delta, t) for t in angles}
    times = sorted(set(durations.values()))
    cfgs = [replace(cfg_base, g=g, duration=t) for t in times]
    blocks = _gate_pairs(cfgs, analytic) if cfgs else np.ones((0, 2, 1, 1), dtype=complex)
    pairs = dict(zip(times, blocks))
    levels = blocks.shape[-1]
    chain = np.eye(2 * levels, dtype=complex)
    for gate in gates:
        phi = gate.phi + pi if gate.theta * cfg_base.delta < 0 else gate.phi
        pair = pairs[durations[abs(gate.theta)]]
        chain = _from_branches(cfg_base.zeta_plus[0] + phi, pair) @ chain
    if seq.terminal_phase != 0.0:
        # the frame rotation diag(e^{-it}, e^{it}) on qubit 2 commutes with sigma_z (x) Pi
        chain = np.repeat(np.exp(np.array([-1j, 1j]) * seq.terminal_phase), levels)[:, None] * chain
    return chain


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
    The induced relative rotation-angle error is (1+eps_g)^2 - 1.  In
    closed form the chain multiplies one phase per branch (fact (h)).
    """
    return _assemble(cfg_base, _composite_block(seq, cfg_base, eps_g, analytic))


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
    and T are raw angular-frequency / time values.  Each key is given at
    most once, and the duration by t or delta_t, not both.  Returns the
    config and the Rabi-frequency error eps_g (0 when absent).
    """
    values: dict[str, float] = {}
    lines: dict[str, int] = {}
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
        if key in lines:
            raise ValidationError(f"line {lineno}: {key} repeats line {lines[key]}")
        try:
            value = float(val)
        except ValueError:
            raise ValidationError(f"line {lineno}: {key} is not a number: {val.strip()!r}") from None
        if not np.isfinite(value):
            raise ValidationError(f"line {lineno}: {key} must be finite")
        if key in _INTEGER_KEYS and not value.is_integer():
            raise ValidationError(f"line {lineno}: {key} must be an integer, got {val.strip()!r}")
        values[key], lines[key] = value, lineno
    for required in ("g", "delta"):
        if required not in values:
            raise ValidationError(f"missing required key {required!r}")
    if "t" in values and "delta_t" in values:
        raise ValidationError(f"line {lines['t']} gives t and line {lines['delta_t']} "
                              "delta_t: give the duration once")
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
