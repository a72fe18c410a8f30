"""Reference routes kept only for cross-checking the library.

Each oracle computes its quantity the slow, literal way: the 4x4
embedding of a 2x2 block written out, sums over a qubit's
eigenprojectors as dense kron products, 4x4 products
gate by gate (the two-gate absolute-error composite among them),
single-gate derivatives from the shifted-angle closed form
and the explicit multinomial sum over them, the 4x4 Leibniz recursion
and the solver residuals built from it, the closed-form low narrowband
conditions, the solver Jacobian by central differences, the Newton step
ladder one candidate at a time and the solver's restarts one after
another, the band search as a scalar march one grid point at a time, the
scan CSV as one ``%`` row per grid point, the ion-trap pulse, closed
form and integrated, as dense operators over the full spin-phonon
space, and composite ion-trap gates as a loop over gates and pulses,
each pulse computed on its own.  Helpers that only
tests use live here too: broadband and passband solver problems on the
escalation ladders' shapes, the closed form of a product of phased Pauli
axes, the fusion of neighbouring gates of equal phase, and the ion-trap
readers (the Hamiltonian at one time, a propagator distance and the
phonon-identity defect over source levels clear of the truncation edge,
a Fock population, and the qubit gate and the leakage read from the full
space, which the library reads from ion 1's block), the paper's
published three-decimal phases of the tabulated catalog entries with
Table 1's total angles and tolerance bands, and for pulse durations the root of
x - sin x = y by bracketing and x - sin x - y in 60-digit decimals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from decimal import Decimal, localcontext
from math import comb, factorial, pi

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from cpgates import catalog
from cpgates.abserr import AbsoluteComposite
from cpgates.analysis import sequence_fidelity
from cpgates.errors import ValidationError
from cpgates.gates import (
    FAMILY_BROADBAND, FAMILY_PASSBAND, CompositeSequence, PhasedGate, _blocks, distorted_theta, ideal_cphase, phase_gate,
    phased_cphase,
)
from cpgates.iontrap import (
    TrapConfig, _assemble, _branch_amplitudes, _fock_level, _from_branches, analytic_propagator,
    destroy, duration_for_angle, evolve_numerical,
)
from cpgates.linalg import IDENTITY_2, mat_exp_hermitian_generator, sigma_axis
from cpgates.solver import (
    LADDERS, STALL_DROP, STALL_WINDOW, SolverResult, _jacobian, _residuals, objective_D,
)

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: Tag returned by :func:`pauli_string_product` for even-length strings,
#: whose product is exp(i * argument * sigma_z).
Z_EXPONENTIAL = "z_exponential"
#: Tag for odd-length strings, whose product is sigma(argument).
SIGMA = "sigma"


def pauli_string_product(phis) -> tuple[str, float]:
    """Collapse a product sigma(phi_1) sigma(phi_2) ... sigma(phi_M)
    (first list element leftmost) to its closed form.

    Even length 2l: the product is exp(i * arg * sigma_z) with
    arg = sum_k (-1)^k phi_k (k counted from 1); returns
    (Z_EXPONENTIAL, arg).  Odd length: the product is sigma(arg) with
    arg = -sum_k (-1)^k phi_k; returns (SIGMA, arg).

    Raises
    ------
    ValidationError
        If the list is empty.
    """
    phis = list(phis)
    if not phis:
        raise ValidationError("pauli_string_product needs at least one factor")
    alternating = sum((-1) ** k * p for k, p in enumerate(phis, start=1))
    if len(phis) % 2 == 0:
        return Z_EXPONENTIAL, float(alternating)
    return SIGMA, float(-alternating)


def pauli_string_matrix(kind: str, argument: float) -> np.ndarray:
    """2x2 matrix for a :func:`pauli_string_product` result."""
    if kind == Z_EXPONENTIAL:
        return mat_exp_hermitian_generator(SIGMA_Z, argument)
    if kind == SIGMA:
        return sigma_axis(argument)
    raise ValidationError(f"unknown pauli string kind {kind!r}")


#: The published phases of the tabulated catalog entries at theta = pi/4,
#: as (chain phases, terminal) in units of pi, keyed by catalog name.
#: The catalog stores these refined to full precision.
PUBLISHED = {
    "bb3": ((1.725, 0.244, 1.127, 0.351, 1.785, 1.042), 0.0),
    "bb4": ((0.170, 0.170, 1.374, 0.677, 1.598, 1.818, 0.528), 1.995),
    "bb5": ((0.065, 2.257, 1.826, 1.020, 0.487, 1.452, 1.671, 0.132, 0.812), 0.0),
    "bb6": ((2.193, 1.933, 0.737, 1.932, 1.286, 0.641, 1.531, 1.983, 1.240, 2.077, 0.579), 0.0),
    "pb13": ((0.076, 1.604, 1.851, 0.595, 1.443, 0.751, 0.691, 1.111), 0.0),
    "pb33": ((0.091, 0.644, 1.866, 0.941, 1.596), 0.0),
}

#: Published total angles of the broadband entries at theta = pi/4,
#: in units of pi (Table 1).
BROADBAND_TOTAL_ANGLES = {1: 1.25, 2: 2.25, 3: 3.25, 4: 3.75, 5: 4.75, 6: 5.75}

#: Published fault-tolerance bands |eps| (infidelity below 1e-4) of the
#: broadband entries at theta = pi/4 (Table 1).
BROADBAND_TOLERANCE_BANDS = {1: 0.11, 2: 0.22, 3: 0.30, 4: 0.37, 5: 0.42, 6: 0.46}


def published_entry(name: str) -> CompositeSequence:
    """The catalog entry ``name`` with its published decimal phases."""
    seq = catalog.by_name(name)
    phases, terminal = PUBLISHED[name]
    return seq.with_phis((seq.gates[0].phi,) + tuple(p * pi for p in phases), terminal * pi)


#: the shapes of the escalation ladders, by name
SHAPES = {shape.name: shape for ladder in LADDERS.values() for shape, _ in ladder}


def broadband_problem(n, target_theta, half_pi_gates, short=False, free_terminal=False):
    """BBn on a chain of ``half_pi_gates`` pi/2 gates: with the leading
    pi/2 gate merged into the target gate (``short``), with a free
    terminal, or plain."""
    name = ("half-pi chain, leading gates merged" if short
            else "half-pi chain + free terminal" if free_terminal else "half-pi chain")
    return SHAPES[name].problem(FAMILY_BROADBAND, (n, 0), target_theta, half_pi_gates)


def passband_problem(n1, n2, target_theta, chain_gates, shape="pi chain"):
    """PB(n1, n2) on the ladder shape called ``shape`` with ``chain_gates``
    chain gates."""
    return SHAPES[shape].problem(FAMILY_PASSBAND, (n1, n2), target_theta, chain_gates)


def merge_adjacent(seq: CompositeSequence, tol: float = 1e-12) -> CompositeSequence:
    """Fuse neighbouring gates whose phases are equal (angles add).

    The propagator is unchanged: gates about the same axis commute and
    their angles are additive.
    """
    merged: list[PhasedGate] = []
    for g in seq.gates:
        if merged and abs(merged[-1].phi - g.phi) <= tol:
            merged[-1] = PhasedGate(merged[-1].theta + g.theta, g.phi)
        else:
            merged.append(g)
    return replace(seq, gates=tuple(merged))


def embed_blocks_4x4(v: np.ndarray) -> np.ndarray:
    """4x4 matrices I (x) d + sigma_x (x) o of 2x2 blocks V = d + o (d
    diagonal, o off-diagonal), batched over the leading axes of ``v``,
    written out directly rather than as a sum over eigenprojectors."""
    d = np.where(np.eye(2, dtype=bool), v, 0)
    return np.block([[d, v - d], [v - d, d]])


def branch_sum_dense(zp: float, blocks) -> np.ndarray:
    """sum_s P_s (x) blocks[s] for the eigenprojectors P_+- = (1 +- sigma(zp))/2
    of one qubit's axis, each term a dense kron product."""
    return sum(np.kron((IDENTITY_2 + s * sigma_axis(zp)) / 2, b) for s, b in zip((1, -1), blocks))


def gate_product_propagator(
    seq: CompositeSequence, epsilon: float = 0.0, xi: float = 0.0
) -> np.ndarray:
    """Product of the distorted 4x4 gates, without the terminal frame
    rotation.  This is the part neighbouring qubits are exposed to."""
    m = np.eye(4, dtype=complex)
    for g in seq.gates:
        m = phased_cphase(distorted_theta(g.theta, epsilon, xi), g.phi) @ m
    return m


def sequence_product_propagator(
    seq: CompositeSequence, epsilon: float = 0.0, xi: float = 0.0
) -> np.ndarray:
    """Full 4x4 sequence propagator, terminal frame rotation included."""
    return phase_gate(seq.terminal_phase, 2) @ gate_product_propagator(seq, epsilon, xi)


def sequence_blocks_per_gate(seq: CompositeSequence, epsilons, xi: float = 0.0) -> np.ndarray:
    """The (E, 2, 2) blocks of :func:`cpgates.gates._sequence_blocks`, with
    cos t and i sin t evaluated afresh for every gate."""
    eps = np.atleast_1d(np.asarray(epsilons, dtype=float))
    a, b = np.ones(eps.shape, dtype=complex), np.zeros(eps.shape, dtype=complex)
    for g in seq.gates:
        t = distorted_theta(g.theta, eps, xi)
        c, s = np.cos(t), 1j * np.sin(t) * np.exp(-1j * g.phi)
        a, b = c * a - s * b.conj(), c * b + s * a.conj()
    f = np.exp(-1j * seq.terminal_phase)
    return _blocks(f * a, f * b)


def absolute_composite_propagator(
    c: AbsoluteComposite, xi: float = 0.0, epsilon: float = 0.0
) -> np.ndarray:
    """4x4 product of the two-gate composite's gates with both angles
    offset by xi (and optionally scaled by 1 + epsilon)."""
    seq = CompositeSequence(c.gates(), target_theta=c.target_theta)
    return gate_product_propagator(seq, epsilon, xi)


def derivative_single_gate(
    theta: float, phi: float, l: int, at_epsilon: float = 0.0
) -> np.ndarray:
    """l-th derivative of U(theta*(1+eps), phi) at eps = at_epsilon."""
    if l < 0 or int(l) != l:
        raise ValidationError(f"derivative order must be a non-negative integer, got {l}")
    return theta**l * phased_cphase(theta * (1.0 + at_epsilon) + l * pi / 2, phi)


def derivative_sequence_multinomial(
    seq: CompositeSequence, l: int, at_epsilon: float = 0.0
) -> np.ndarray:
    """Explicit sum over derivative-order compositions."""
    thetas = seq.thetas()
    phis = seq.phis()
    n = len(thetas)
    total = np.zeros((4, 4), dtype=complex)
    for combo in itertools.product(range(l + 1), repeat=n):
        if sum(combo) != l:
            continue
        coeff = factorial(l)
        for c in combo:
            coeff //= factorial(c)
        m = np.eye(4, dtype=complex)
        for k in range(n):
            m = derivative_single_gate(thetas[k], phis[k], combo[k], at_epsilon) @ m
        total = total + coeff * m
    if seq.terminal_phase != 0.0:
        total = phase_gate(seq.terminal_phase, 2) @ total
    return total


def reduced_narrowband_conditions(seq: CompositeSequence) -> tuple[complex, complex]:
    """Closed-form first and second narrowband conditions.

    Writing theta_k, phi_k for the gate angles and phases, the first two
    derivatives of the gate product at eps = -1 vanish exactly when

        c1 = sum_k theta_k exp(i phi_k) = 0
        c2 = sum_k theta_k^2
             + 2 sum_{s<t} theta_s theta_t exp(i (phi_t - phi_s)) = 0

    (s < t in application order).  Both are returned; the passband catalog
    entries drive them to rounding level.
    """
    thetas = seq.thetas()
    phis = seq.phis()
    e = np.exp(1j * phis)
    c1 = complex(np.sum(thetas * e))
    weighted = thetas * e
    cross = 0.0 + 0.0j
    for s in range(len(thetas)):
        cross += np.conj(weighted[s]) * np.sum(weighted[s + 1 :])
    c2 = complex(np.sum(thetas**2) + 2.0 * cross)
    return c1, c2


def gate_derivative_stack(thetas, phis, l_max: int, at_epsilon: float):
    """(B, G, l_max+1, 4, 4) array; entry [b, k, l] is
    theta_k^l * U(theta_k*(1+at_epsilon) + l*pi/2, phis[b, k])."""
    thetas = np.asarray(thetas, dtype=float)
    phis = np.atleast_2d(np.asarray(phis, dtype=float))
    b, g = phis.shape
    orders = np.arange(l_max + 1)
    ang = thetas[None, :, None] * (1.0 + at_epsilon) + orders[None, None, :] * (pi / 2)
    c = np.broadcast_to(np.cos(ang), (b, g, l_max + 1)).copy()
    s = 1j * np.broadcast_to(np.sin(ang), (b, g, l_max + 1))
    eminus = np.exp(-1j * phis)[:, :, None]
    eplus = np.exp(1j * phis)[:, :, None]
    out = np.zeros((b, g, l_max + 1, 4, 4), dtype=complex)
    for d in range(4):
        out[..., d, d] = c
    # i sin(ang) * kron(sigma_x, sigma_phi)
    out[..., 0, 3] = s * eminus
    out[..., 1, 2] = s * eplus
    out[..., 2, 1] = s * eminus
    out[..., 3, 0] = s * eplus
    powers = thetas[None, :, None] ** orders[None, None, :]
    out *= powers[..., None, None]
    return out


def leibniz_derivative_stack(thetas, phis, l_max: int, at_epsilon: float = 0.0):
    """(B, l_max+1, 4, 4) derivatives of the gate product by the 4x4
    Leibniz recursion over the gates, with binomial weights."""
    stacks = gate_derivative_stack(thetas, phis, l_max, at_epsilon)
    p = stacks[:, 0].copy()
    for k in range(1, stacks.shape[1]):
        gk = stacks[:, k]
        new = np.empty_like(p)
        for m in range(l_max + 1):
            acc = gk[:, 0] @ p[:, m]
            for j in range(1, m + 1):
                acc = acc + comb(m, j) * (gk[:, j] @ p[:, m - j])
            new[:, m] = acc
        p = new
    return p


def residual_matrices_4x4(problem, x_batch):
    """(B, orders, 4, 4) residual matrices from the 4x4 Leibniz stack:
    orders 0..n1 of the framed product at eps = 0, order 0 less the closer
    of +-U(target) (+ on a tie), then orders 1..n2 at eps = -1."""
    x_batch = np.atleast_2d(np.asarray(x_batch, dtype=float))
    phis, terminal = problem.split(x_batch)
    n1, n2 = problem.orders
    target = ideal_cphase(problem.target_theta)
    e = np.exp(-1j * terminal)[:, None]
    frame = np.concatenate([e, e.conj(), e, e.conj()], axis=1)
    p = frame[:, None, :, None] * leibniz_derivative_stack(problem.thetas, phis, n1)
    c0 = p[:, :1]
    dplus = np.linalg.norm(c0 - target, axis=(2, 3))
    dminus = np.linalg.norm(c0 + target, axis=(2, 3))
    sign = np.where(dplus <= dminus, 1.0, -1.0)[..., None, None]
    mats = [c0 - sign * target, p[:, 1:]]
    if n2 > 0:
        mats.append(leibniz_derivative_stack(problem.thetas, phis, n2, at_epsilon=-1.0)[:, 1:])
    return np.concatenate(mats, axis=1)


def residuals_4x4(problem, x_batch):
    """Solver residuals (R, D) from :func:`residual_matrices_4x4`: every
    matrix entry of every targeted order, order l scaled by 1/A**l, and D
    the sum of the scaled orders' Frobenius norms."""
    m = residual_matrices_4x4(problem, x_batch)
    n1, n2 = problem.orders
    orders = np.concatenate([np.arange(n1 + 1), np.arange(1, n2 + 1)])
    scaled = m / max(1.0, problem.total_angle()) ** orders[:, None, None]
    d = np.linalg.norm(scaled, axis=(2, 3)).sum(axis=1)
    rc = scaled.reshape(len(m), -1)
    return np.concatenate([rc.real, rc.imag], axis=1), d


def central_difference_jacobian(problem, x, h=1e-6):
    """(p, n) Jacobian of the solver residual vector by central
    differences of step h in every free phase."""
    n = problem.free_phase_count
    eye = np.eye(n)
    r, _ = _residuals(problem, np.vstack([x + h * eye, x - h * eye]))
    return (r[:n] - r[n:]).T / (2.0 * h)


def newton_sequential(problem, x, d, config):
    """Damped Newton least squares with the step ladder tried one
    candidate at a time: full step, halvings, then Levenberg rungs.
    Returns (x, D, iterations, stop reason) like the solver."""
    n = problem.free_phase_count
    eye = np.eye(n)
    trail = [d]
    for it in range(config.max_newton_iters):
        if d <= config.residual_tolerance:
            return x, d, it, "converged"
        if it >= STALL_WINDOW and d > (1.0 - STALL_DROP) * trail[it - STALL_WINDOW]:
            return x, d, it, "stalled"
        r0, jacs = _jacobian(problem, x[None, :])
        r0, jac = r0[0], jacs[0]
        accepted = False
        dx, *_ = np.linalg.lstsq(jac, -r0, rcond=None)
        step = 1.0
        for _ in range(20):
            xn = x + step * dx
            _, dn = _residuals(problem, xn[None, :])
            if dn[0] < d:
                x, d, accepted = xn, float(dn[0]), True
                break
            step *= 0.5
        if not accepted:
            jtj = jac.T @ jac
            jtr = jac.T @ r0
            lam = 1e-6 * max(np.trace(jtj) / n, 1e-30)
            for _ in range(25):
                try:
                    dx = np.linalg.solve(jtj + lam * eye, -jtr)
                except np.linalg.LinAlgError:
                    break
                xn = x + dx
                _, dn = _residuals(problem, xn[None, :])
                if dn[0] < d:
                    x, d, accepted = xn, float(dn[0]), True
                    break
                lam *= 10.0
        if not accepted:
            return x, d, it + 1, "no_step"
        trail.append(d)
    reason = "converged" if d <= config.residual_tolerance else "budget"
    return x, d, config.max_newton_iters, reason


def solve_sequential(problem, config, log=None):
    """The solver's Monte-Carlo restarts run one after another, each by
    :func:`newton_sequential`; returns the SolverResult and writes the log
    lines of :func:`cpgates.solver.solve`."""
    rng = np.random.default_rng(config.rng_seed)
    n = problem.free_phase_count
    best_d = np.inf
    ends = dict.fromkeys(("converged", "stalled", "no_step", "budget"), 0)
    result = None
    for k in range(config.max_restarts):
        if k == 0 and config.initial_phases is not None:
            x = np.asarray(config.initial_phases, dtype=float)
        else:
            x = rng.uniform(0.0, 2.0 * pi, n)
        _, d0 = _residuals(problem, x[None, :])
        x, d, iters, reason = newton_sequential(problem, x, float(d0[0]), config)
        ends[reason] += 1
        if log is not None:
            log.write(f"restart={k} iters={iters} D={d:.6e}\n")
        best_d = min(best_d, d)
        if d <= config.residual_tolerance:
            x = np.mod(x, 2.0 * pi)
            result = SolverResult(
                sequence=problem.build_sequence(x),
                residual_D=objective_D(problem, x),
                restarts_used=k + 1,
                iterations_used=iters,
                converged=True,
                problem=problem,
            )
            break
    if log is not None:
        counts = " ".join(f"{reason}={count}" for reason, count in ends.items())
        log.write(f"stage-end restarts={sum(ends.values())} {counts}\n")
    return result or SolverResult(
        sequence=None,
        residual_D=float(best_d),
        restarts_used=config.max_restarts,
        iterations_used=config.max_newton_iters,
        converged=False,
        problem=problem,
    )


@dataclass(frozen=True)
class ErrorModel:
    """Systematic rotation-angle errors: relative epsilon and absolute xi.

    epsilon = -1 is legal; it is the operating point of the narrowband
    conditions (all rotation angles vanish there).
    """

    epsilon: float = 0.0
    xi: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and np.isfinite(self.xi)):
            raise ValidationError("error model parameters must be finite")

    def distort(self, theta: float) -> float:
        """Distorted rotation angle theta*(1+epsilon) + xi."""
        return theta * (1.0 + self.epsilon) + self.xi

    def propagator(self, seq: CompositeSequence) -> np.ndarray:
        """4x4 sequence propagator under this error model, gate by gate."""
        return sequence_product_propagator(seq, self.epsilon, self.xi)


def _scalar_crossing(infid, threshold, direction, coarse_step, eps_limit, locate_tol):
    """March outward from 0 one point at a time, then bisect."""
    prev = 0.0
    e = coarse_step
    while e <= eps_limit:
        if infid(direction * e) > threshold:
            lo, hi = prev, e
            while hi - lo > locate_tol:
                mid = 0.5 * (lo + hi)
                if infid(direction * mid) > threshold:
                    hi = mid
                else:
                    lo = mid
            return direction * 0.5 * (lo + hi)
        prev = e
        e += coarse_step
    return direction * eps_limit


def scalar_march_band(seq, threshold, eps_limit, coarse_step, locate_tol):
    """Band edges (low, high) from a scalar march over sequence_fidelity."""
    def infid(e):
        return 1.0 - sequence_fidelity(seq, e)

    low = _scalar_crossing(infid, threshold, -1.0, coarse_step, eps_limit, locate_tol)
    high = _scalar_crossing(infid, threshold, 1.0, coarse_step, eps_limit, locate_tol)
    return low, high


def scan_csv_rows(result) -> str:
    """Scan CSV text written one ``"%.17g,%.17g,%.17g" % row`` at a time."""
    lines = ["epsilon,fidelity,infidelity"]
    for e, f in zip(result.epsilons, result.fidelities):
        lines.append("%.17g,%.17g,%.17g" % (e, f, 1.0 - f))
    return "\n".join(lines) + "\n"


def spin_phonon(cfg: TrapConfig):
    """The operators B_k = sigma(zp_k) e^{-i zm_k} (x) a^dag for both ions,
    summed, plus the bare spin axes, as 4(n_max+1)-square kron products."""
    levels = cfg.n_max + 1
    adag = destroy(levels).conj().T
    s1 = np.kron(np.kron(sigma_axis(cfg.zeta_plus[0]), IDENTITY_2), np.eye(levels))
    s2 = np.kron(np.kron(IDENTITY_2, sigma_axis(cfg.zeta_plus[1])), np.eye(levels))
    raising = np.kron(np.eye(4), adag)
    b = (
        np.exp(-1j * cfg.zeta_minus[0]) * s1
        + np.exp(-1j * cfg.zeta_minus[1]) * s2
    ) @ raising
    return b, s1, s2


def analytic_full_space(cfg: TrapConfig) -> np.ndarray:
    """Closed-form pulse propagator e^{i phi0} D(alpha) exp(i theta_c s1 s2)
    with every factor a dense operator on the full spin-phonon space."""
    b, s1, s2 = spin_phonon(cfg)
    dt = cfg.phase_angle()
    phi0 = (dt - np.sin(dt)) * 2.0 * (cfg.g / cfg.delta) ** 2
    theta_c = phi0 * np.cos(cfg.zeta_minus[0] - cfg.zeta_minus[1])
    c = -(cfg.g / cfg.delta) * (np.exp(1j * dt) - 1.0)
    gen = c * b - np.conj(c) * b.conj().T        # anti-Hermitian
    disp = mat_exp_hermitian_generator(-1j * gen, 1.0)
    spin = mat_exp_hermitian_generator(s1 @ s2, theta_c)
    return np.exp(1j * phi0) * (disp @ spin)


def evolve_full_space(
    cfg: TrapConfig, rtol: float = 1e-10, atol: float = 1e-12
) -> np.ndarray:
    """Pulse propagator from integrating dU/dt = -i H(t) U on the whole
    4(n_max+1)-dimensional space, every step of the dense state kept."""
    b, _, _ = spin_phonon(cfg)
    bdag = b.conj().T
    dim = cfg.dim
    u0 = np.eye(dim, dtype=complex).reshape(-1)

    def rhs(t, y):
        u = y.reshape(dim, dim)
        h = cfg.g * (np.exp(1j * cfg.delta * t) * b + np.exp(-1j * cfg.delta * t) * bdag)
        return (-1j * (h @ u)).reshape(-1)

    sol = solve_ivp(
        rhs, (0.0, cfg.duration), u0, method="DOP853", rtol=rtol, atol=atol
    )
    if not sol.success:
        raise RuntimeError(f"integrator failed: {sol.message}")
    return sol.y[:, -1].reshape(dim, dim)


def hamiltonian_at(cfg: TrapConfig, t: float) -> np.ndarray:
    """Interaction Hamiltonian at time t (Hermitian, linear in g), built
    per spin branch with the library's branch basis and assembly."""
    if not 0 <= t <= cfg.duration:
        raise ValidationError("t must lie within the pulse duration")
    a = destroy(cfg.n_max + 1)
    c = (np.exp(1j * cfg.delta * t) * _branch_amplitudes(cfg)[:2])[:, None, None]
    pair = c * a.conj().T + np.conj(c) * a
    return cfg.g * _assemble(cfg, _from_branches(cfg.zeta_plus[1], pair))


def safe_source_level(cfg: TrapConfig) -> int:
    """Highest initial Fock level whose displaced dynamics stay clear of
    the truncation edge.

    A displaced Fock state |p> spreads over roughly 2*|alpha|*sqrt(p)
    levels; inside the truncated ladder the commutator [a, a^dag] differs
    from one at the top level, so only sources that never reach it follow
    the untruncated dynamics.
    """
    amax = cfg.displacement_bound()
    p = cfg.n_max
    while p > 0 and p + 4.0 * amax * np.sqrt(p + 1.0) + 8.0 > cfg.n_max:
        p -= 1
    return p


def propagator_distance(
    a: np.ndarray, b: np.ndarray, cfg: TrapConfig, source_levels: int | None = None
) -> float:
    """Frobenius distance restricted to source columns with phonon level
    at most ``source_levels`` (default :func:`safe_source_level`).

    Full-matrix comparisons are meaningless near the truncation edge,
    where a time-ordered integration and a closed-form exponential of the
    same truncated operators legitimately differ.
    """
    levels = cfg.n_max + 1
    src = _fock_level(
        cfg, safe_source_level(cfg) if source_levels is None else source_levels, "source_levels")
    da = (a - b).reshape(4, levels, 4, levels)[:, :, :, : src + 1]
    return float(np.linalg.norm(da))


def phonon_identity_defect(
    u: np.ndarray, cfg: TrapConfig, source_levels: int | None = None
) -> float:
    """Frobenius distance between u and (qubit block) (x) 1, over source
    columns that stay clear of the truncation edge."""
    levels = cfg.n_max + 1
    src = _fock_level(
        cfg, safe_source_level(cfg) if source_levels is None else source_levels, "source_levels")
    blocks = u.reshape(4, levels, 4, levels)
    p = min(cfg.initial_fock, src)
    ideal = np.einsum("qr,pm->qprm", blocks[:, p, :, p], np.eye(levels))
    da = (blocks - ideal)[:, :, :, : src + 1]
    return float(np.linalg.norm(da))


def extract_qubit_gate(u: np.ndarray, cfg: TrapConfig) -> np.ndarray:
    """4x4 qubit block of a full-space propagator that acts as identity on
    the phonon factor, read off at the initial Fock level ``cfg.initial_fock``."""
    levels, p = cfg.n_max + 1, cfg.initial_fock
    return u.reshape(4, levels, 4, levels)[:, p, :, p].copy()


def leakage(u: np.ndarray, cfg: TrapConfig) -> float:
    """Worst-case population of a full-space propagator in the top two
    phonon levels over all input basis states with phonon level <=
    cfg.initial_fock."""
    levels = cfg.n_max + 1
    blocks = u.reshape(4, levels, 4, levels)
    top = blocks[:, -2:, :, : cfg.initial_fock + 1]
    return float(np.max(np.sum(np.abs(top) ** 2, axis=(0, 1))))


def fock_population(u: np.ndarray, cfg: TrapConfig, qubit_state: np.ndarray, level: int) -> float:
    """Population of phonon |level> after applying u to qubit_state (x) |level>."""
    levels = cfg.n_max + 1
    phonon = np.zeros(levels, dtype=complex)
    phonon[_fock_level(cfg, level, "level")] = 1.0
    psi = np.kron(np.asarray(qubit_state, dtype=complex), phonon)
    out = (u @ psi).reshape(4, levels)
    return float(np.sum(np.abs(out[:, level]) ** 2))


def composite_per_pulse(
    seq: CompositeSequence,
    cfg_base: TrapConfig,
    eps_g: float = 0.0,
    analytic: bool = False,
) -> np.ndarray:
    """Composite physical gate as a loop over gates and, within each gate,
    over its two pulses, every pulse computed on its own on the full space
    (the second with its motional phases shifted by pi) and nothing
    shared between gates.  A zero-angle gate is skipped, and a gate whose
    angle has the opposite sign to the detuning takes a pi spin-phase
    shift."""
    pulse = analytic_propagator if analytic else evolve_numerical
    u = np.eye(cfg_base.dim, dtype=complex)
    for gate in seq.gates:
        theta, phi = gate.theta, gate.phi
        if theta == 0.0:
            continue
        if theta * cfg_base.delta < 0:
            phi += pi
        cfg = replace(
            cfg_base,
            g=cfg_base.g * (1.0 + eps_g),
            duration=duration_for_angle(cfg_base.g, cfg_base.delta, abs(theta)),
            zeta_plus=(cfg_base.zeta_plus[0], cfg_base.zeta_plus[0] + phi),
        )
        u = pulse(cfg.shifted_motional_phases()) @ pulse(cfg) @ u
    if seq.terminal_phase != 0.0:
        u = np.kron(phase_gate(seq.terminal_phase, 2), np.eye(cfg_base.n_max + 1)) @ u
    return u


#: pi to 64 digits, for :func:`sine_gap_exact`
PI_64 = Decimal("3.141592653589793238462643383279502884197169399375105820974944592")


def loop_angle_bracketed(y: float) -> float:
    """Root x > 0 of x - sin x = y by Brent's method on a bracket of width
    about 2 around y, in double precision: the duration solver's former path."""
    f = lambda x: x - np.sin(x) - y
    lo = max(y - 1.0, 1e-9)
    hi = y + 1.0 + 1e-9
    if f(lo) > 0:
        lo = 1e-12
    return brentq(f, lo, hi, xtol=1e-14, rtol=1e-15)


def sine_gap_exact(x: float, y: float) -> float:
    """x - sin x - y in 60-digit decimals, correct to about 1e-55 for
    |x| below 1e4: x is reduced to u by whole turns of a 64-digit 2 pi and
    u - sin u summed from its series, so nothing cancels."""
    with localcontext() as ctx:
        ctx.prec = 60
        two_pi = 2 * PI_64
        turns = (Decimal(x) / two_pi).to_integral_value()
        u = Decimal(x) - turns * two_pi
        term, gap, n = u**3 / 6, Decimal(0), 1
        while abs(term) > Decimal("1e-60"):
            gap += term
            term *= -u * u / ((2 * n + 2) * (2 * n + 3))
            n += 1
        return float(turns * two_pi + gap - Decimal(y))
