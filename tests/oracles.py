"""Reference routes kept only for cross-checking the library.

Each oracle computes its quantity the slow, literal way: 4x4 products
gate by gate, the explicit multinomial sum over derivative orders, and
the band search as a scalar march one grid point at a time, and the
ion-trap pulse as one dense integration over the full spin-phonon space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

import numpy as np
from scipy.integrate import solve_ivp

from cpgates.analysis import sequence_fidelity
from cpgates.derivatives import derivative_single_gate
from cpgates.errors import ValidationError
from cpgates.gates import CompositeSequence, distorted_theta, phase_gate, phased_cphase
from cpgates.iontrap import TrapConfig, _spin_phonon


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


def evolve_full_space(
    cfg: TrapConfig, rtol: float = 1e-10, atol: float = 1e-12
) -> np.ndarray:
    """Pulse propagator from integrating dU/dt = -i H(t) U on the whole
    4(n_max+1)-dimensional space, every step of the dense state kept."""
    b, _, _ = _spin_phonon(cfg)
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
