"""Phase-sequence solver: damped Newton least squares over the residual
conditions, with seeded Monte-Carlo restarts and gate-count escalation.

The unknowns are the free gate phases (plus, for the shortest broadband
shape, the terminal frame rotation).  The residual conditions come from
:func:`cpgates.derivatives.residual_rows`, as do those that ``verify``
checks: each targeted order is the first row (a, b) of a 2x2
Cayley-Klein block, order 0 taken less the closer of +-U(target).  The
residual vector stacks the real and imaginary parts of 2 (a, b), whose
norm is that of the 4x4 matrix, with order l scaled by 1/A**l (A the
total rotation angle), which keeps all orders at comparable magnitude
and makes the default tolerance attainable at every catalog order.  The
objective D reported in results and logs is the sum of the scaled
residual norms, order 0 included, so D = 0 exactly when every targeted
order cancels.

Each Newton step takes the exact Jacobian with respect to the phases
from one batched kernel pass of the same function (its phase partials),
then accepts the first candidate step that lowers D: the full
least-squares step, evaluated with its Jacobian, then its 19 halvings in
one batched call, then 25 Levenberg-regularised steps, solved together
and evaluated in one batched call.  An accepted full step carries its
Jacobian into the next iteration, so a run of full steps costs one
kernel pass per iteration.  A run ends when D reaches the tolerance,
when no candidate lowers it, when the iteration budget is spent, or when
D has fallen by less than 0.1 % over the last 5 iterations (a stall:
such runs sit at a false minimum).

A stage's restarts run in rounds.  Restart 0, which carries any given
initial phases and usually converges by itself, runs alone; later rounds
hold up to ROUND_SIZE restarts (16), and one Newton loop advances all of
a round's live restarts together: one kernel pass for the Jacobians
they do not carry and one batched call per rung of the step ladder, each
start keeping its own stop rules.  A start's arithmetic does not depend
on the others in its batch, and the stage's result is the lowest-index
restart that converged (later restarts of its round are dropped
unlogged), so results and logs do not depend on the round size: they
are those of running the restarts one after another.

Escalation walks a fixed ladder of (shape, chain length) stages per
family and builds only the stages whose free phases reach the rank C of
their residual conditions (n + ceil(n/2) + 1 for order-n broadband): a
stage below it generically has no solution.  An order that no stage
reaches is a ValidationError.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from math import isfinite, pi
from typing import Optional

import numpy as np

from .errors import ValidationError, check_count
from .gates import (
    FAMILY_BROADBAND,
    FAMILY_PASSBAND,
    CompositeSequence,
    PhasedGate,
)
from .catalog import HALF, entry_label
from .derivatives import residual_rows

#: a Newton run stalls when D has fallen by less than STALL_DROP
#: (relative) over the last STALL_WINDOW iterations
STALL_WINDOW = 5
STALL_DROP = 1e-3

#: restarts after restart 0 run in rounds of up to ROUND_SIZE, advanced
#: in lockstep; results and logs do not depend on it
ROUND_SIZE = 16

@dataclass(frozen=True)
class SolverProblem:
    """A fixed gate-angle skeleton whose phases are to be solved.

    ``thetas`` lists every gate angle, first-applied first; gate 0 has the
    fixed phase ``phi0`` and the remaining gates carry free phases.  When
    ``free_terminal`` is set, one additional unknown is the terminal frame
    rotation (otherwise it is zero).
    """

    family: str
    orders: tuple[int, int]  # (broadband order, narrowband order); 0 = unused
    target_theta: float
    thetas: tuple[float, ...]
    phi0: float = 0.0
    free_terminal: bool = False
    shape: str = "custom"

    def __post_init__(self):
        if min(self.orders) < 0:
            raise ValidationError(f"orders must be non-negative, got {self.orders}")
        if not all(map(isfinite, (self.target_theta, *self.thetas, self.phi0))):
            raise ValidationError(
                f"target angle, gate angles and phi0 must be finite, got "
                f"target_theta={self.target_theta}, thetas={self.thetas}, phi0={self.phi0}"
            )
        if not self.thetas or self.free_phase_count == 0:
            raise ValidationError(
                f"a problem needs at least one gate and one free phase, got "
                f"thetas={self.thetas}, free_terminal={self.free_terminal}"
            )

    @cached_property
    def residual_weights(self):
        """Row weights 2 / A**l of the residual rows (orders 0..n1, then
        1..n2; A the total angle), shaped to multiply them."""
        n1, n2 = self.orders
        orders = np.concatenate([np.arange(n1 + 1), np.arange(1, n2 + 1)])
        return (2.0 / max(1.0, self.total_angle()) ** orders)[:, None]

    @property
    def free_phase_count(self) -> int:
        return len(self.thetas) - 1 + (1 if self.free_terminal else 0)

    @property
    def gate_count(self) -> int:
        return len(self.thetas)

    def total_angle(self) -> float:
        return float(sum(abs(t) for t in self.thetas))

    def label(self) -> str:
        return entry_label(self.family, *self.orders)

    def split(self, x: np.ndarray):
        """Split an unknown vector into (gate phases, terminal phase)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.free_phase_count:
            raise ValidationError(
                f"expected {self.free_phase_count} free phases, got {x.shape[-1]}"
            )
        g = self.gate_count
        phis = np.empty(x.shape[:-1] + (g,))
        phis[..., 0] = self.phi0
        phis[..., 1:] = x[..., : g - 1]
        terminal = x[..., g - 1] if self.free_terminal else np.zeros(x.shape[:-1])
        return phis, terminal

    def build_sequence(self, x) -> CompositeSequence:
        phis, terminal = self.split(np.atleast_1d(np.asarray(x, dtype=float)))
        gates = tuple(PhasedGate(t, p) for t, p in zip(self.thetas, phis.tolist()))
        return CompositeSequence(
            gates=gates,
            terminal_phase=float(terminal) if self.free_terminal else 0.0,
            target_theta=self.target_theta,
            family=self.family,
            label=self.label(),
        )


@dataclass(frozen=True)
class SolverConfig:
    """Tolerance on D and budgets of a search; ``max_restarts`` is the one
    restart budget, of a :func:`solve` and of every escalation stage."""

    residual_tolerance: float = 1e-10
    max_newton_iters: int = 200
    max_restarts: int = 100
    rng_seed: int = 0
    initial_phases: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        tol = self.residual_tolerance
        if not (np.isfinite(tol) and tol > 0):
            raise ValidationError(f"residual_tolerance must be finite and positive, got {tol}")
        for name, least in (("max_newton_iters", 1), ("max_restarts", 1), ("rng_seed", 0)):
            check_count(name, getattr(self, name), least)
        phases = self.initial_phases
        if phases is not None and not all(map(isfinite, phases)):
            raise ValidationError(f"initial_phases must be finite, got {phases}")


@dataclass(frozen=True)
class SolverResult:
    sequence: Optional[CompositeSequence]
    residual_D: float
    restarts_used: int
    iterations_used: int
    converged: bool
    problem: SolverProblem
    attempted_gate_counts: tuple[int, ...] = field(default_factory=tuple)


def _weighted_rows(problem: SolverProblem, x_batch, partials: bool = False):
    """Residual rows of :func:`cpgates.derivatives.residual_rows` at a
    batch of points (B, n), order l weighted by 2 / A**l; with
    ``partials`` also their partials with respect to the free phases,
    (B, n + 1, orders, 2) with the rows first."""
    phis, terminal = problem.split(np.atleast_2d(np.asarray(x_batch, dtype=float)))
    rows = residual_rows(problem.thetas, phis, terminal if problem.free_terminal else None,
                         problem.target_theta, problem.orders, partials)
    return rows * problem.residual_weights


def _residuals(problem: SolverProblem, x_batch: np.ndarray):
    """Stacked real residual components and objective D for a batch.

    Returns (R, D): R is (B, p) float, the real and imaginary parts of
    the weighted rows interleaved, and D (B,) the sum of their norms.
    """
    rows = _weighted_rows(problem, x_batch)
    r = rows.view(float).reshape(len(rows), -1)
    return r, _objective(r)


def _objective(r):
    """D of residual vectors r (B, p): the sum of the norms of their
    rows, four components each.  The squares form a new contiguous array,
    so D is the same bits whatever the layout of r."""
    return np.add.reduce(np.sqrt(np.add.reduce(r.reshape(len(r), -1, 4) ** 2, axis=2)), axis=1)


def _jacobian(problem: SolverProblem, x_batch: np.ndarray):
    """Residual vectors R (B, p) at a batch of points (B, n) and their
    exact Jacobians, a list of B arrays (p, n).

    The target is constant, so the partials of the weighted rows are the
    Jacobian columns.  Each Jacobian is the transpose of its point's own
    contiguous partial rows, so it has the same memory layout whatever
    the batch.
    """
    rows = _weighted_rows(problem, x_batch, partials=True)
    m = rows.shape[1] - 1
    jacs = [point[1:].view(float).reshape(m, -1).T for point in rows]
    return rows[:, 0].view(float).reshape(len(rows), -1), jacs


def objective_D(problem: SolverProblem, phases) -> float:
    """Scaled residual objective for a candidate free-phase vector.

    Zero exactly when all targeted derivative orders cancel.  Raises
    ValidationError when the phase list length does not match the
    problem's free phase count.
    """
    phases = np.asarray(phases, dtype=float)
    if phases.ndim != 1 or phases.size != problem.free_phase_count:
        raise ValidationError(
            f"expected {problem.free_phase_count} free phases, got {phases.size}"
        )
    _, d = _residuals(problem, phases[None, :])
    return float(d[0])


def _first_improving(problem, blocks, d):
    """Per start, the first row of its candidate block that lowers its D,
    as (x, D), or None; all blocks are evaluated in one batched call."""
    found = [None] * len(blocks)
    candidates = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    if len(candidates) == 0:
        return found
    _, dn = _residuals(problem, candidates)
    stop = 0
    for j, block in enumerate(blocks):
        start, stop = stop, stop + len(block)
        hit = np.flatnonzero(dn[start:stop] < d[j])
        if hit.size:
            found[j] = block[hit[0]], float(dn[start + hit[0]])
    return found


def _levenberg_steps(jtj, jtr, lams):
    """Steps solving (J^T J + lam I) dx = -J^T r, one row per lam.

    For a Gram matrix J^T J and lam > 0 every system is positive
    definite; should one still be singular, there are no steps."""
    systems = jtj + lams[:, None, None] * np.eye(len(jtr))
    try:
        return np.linalg.solve(systems, -jtr[:, None])[..., 0]
    except np.linalg.LinAlgError:
        return np.empty((0, len(jtr)))


def _levenberg_block(x, r0, jac):
    """Candidates x + dx for the 25 Levenberg weights, which grow
    tenfold from 1e-6 mean(diag J^T J)."""
    jtj = jac.T @ jac
    lam = 1e-6 * max(np.trace(jtj) / len(x), 1e-30)
    lams = np.multiply.accumulate(np.r_[lam, np.full(24, 10.0)])
    return x + _levenberg_steps(jtj, jac.T @ r0, lams)


def _newton_from(problem, x, d, config):
    """Damped Newton least-squares iterations from a batch of starts,
    advanced in lockstep.

    ``x`` is (R, n) and ``d`` (R,) their objectives.  Returns (x, D,
    iterations, reasons), one entry per start, each reason one of
    "converged", "stalled", "no_step" (no candidate lowers D) and
    "budget".  Every iteration evaluates each rung of the step ladder for
    all starts that still need it in one batched call: the full steps
    with their Jacobians, then halvings and Levenberg steps by value.  A
    start whose full step is accepted carries that Jacobian into the next
    iteration; the others get theirs in one kernel pass at its top.  A
    start's arithmetic does not depend on the others in its batch, so
    each start ends exactly as it would alone.
    """
    x = np.array(x, dtype=float)
    d = np.array(d, dtype=float)
    tol = config.residual_tolerance
    halvings = np.multiply.accumulate(np.full(19, 0.5))[:, None]
    iters = [config.max_newton_iters] * len(x)
    reasons = ["budget"] * len(x)
    trail = [d.copy()]
    live = list(range(len(x)))
    # (residual vector, Jacobian) at x[i], kept from an accepted full step
    held = [None] * len(x)

    def end(i, it, reason):
        iters[i], reasons[i] = it, reason

    for it in range(config.max_newton_iters):
        running = []
        for i in live:
            if d[i] <= tol:
                end(i, it, "converged")
            elif it >= STALL_WINDOW and d[i] > (1.0 - STALL_DROP) * trail[it - STALL_WINDOW][i]:
                end(i, it, "stalled")
            else:
                running.append(i)
        live = running
        if not live:
            break
        fresh = [i for i in live if held[i] is None]
        if fresh:
            for i, r, jac in zip(fresh, *_jacobian(problem, x[fresh])):
                held[i] = r, jac
        x_live, d_live = (x, d) if len(live) == len(x) else (x[live], d[live])
        r0, jacs = zip(*(held[i] for i in live))
        steps = [np.linalg.lstsq(jac, -r, rcond=None)[0] for r, jac in zip(r0, jacs)]
        full = x_live + np.array(steps)
        r_full, jac_full = _jacobian(problem, full)
        d_full = _objective(r_full)
        found = [None] * len(live)
        for j, i in enumerate(live):
            held[i] = None
            if d_full[j] < d_live[j]:
                found[j] = full[j], float(d_full[j])
                held[i] = r_full[j], jac_full[j]
        rungs = (
            lambda j: x_live[j] + halvings * steps[j],
            lambda j: _levenberg_block(x_live[j], r0[j], jacs[j]),
        )
        for rung in rungs:
            failing = [j for j, f in enumerate(found) if f is None]
            if not failing:
                break
            blocks = [rung(j) for j in failing]
            d_failing = [d_live[j] for j in failing]
            for j, f in zip(failing, _first_improving(problem, blocks, d_failing)):
                found[j] = f
        running = []
        for i, f in zip(live, found):
            if f is None:
                end(i, it + 1, "no_step")
            else:
                x[i], d[i] = f
                running.append(i)
        live = running
        trail.append(d.copy())
    for i in live:
        if d[i] <= tol:
            reasons[i] = "converged"
    return x, d, iters, reasons


def solve(
    problem: SolverProblem, config: SolverConfig = SolverConfig(), log=None
) -> SolverResult:
    """Monte-Carlo restarted Newton search for phases nullifying the
    residual conditions, at most ``config.max_restarts`` restarts.

    Restart 0 uses ``config.initial_phases`` when given (a length other
    than the problem's free phase count is a ValidationError); every other
    restart draws the free phases uniformly from [0, 2*pi) with a
    generator seeded by ``config.rng_seed``, so results are bit-for-bit
    reproducible.  Restart 0 runs alone; later restarts run in rounds of
    up to ROUND_SIZE, advanced together by :func:`_newton_from`.  The
    result is the lowest-index converged restart: the later restarts of
    its round are dropped, so the result and the log are those of running
    the restarts one by one.  Non-convergence is reported in the result,
    not raised.  The converged phases are wrapped into [0, 2*pi), and
    ``residual_D`` is recomputed only when the wrap moves a phase: D at
    a point has the same bits from any batch.  ``log`` receives one line
    per restart and a closing ``stage-end`` line counting how the
    restarts ended.
    """
    n = problem.free_phase_count
    if config.initial_phases is not None and len(config.initial_phases) != n:
        raise ValidationError(
            f"initial_phases has {len(config.initial_phases)} entries, "
            f"the problem has {n} free phases"
        )
    rng = None  # made at the first draw: a seeded restart 0 alone draws nothing
    best_d = np.inf
    ends = dict.fromkeys(("converged", "stalled", "no_step", "budget"), 0)
    result = None
    first = 0
    while result is None and first < config.max_restarts:
        size = 1 if first == 0 else min(ROUND_SIZE, config.max_restarts - first)
        if first == 0 and config.initial_phases is not None:
            starts = [np.asarray(config.initial_phases, dtype=float)]
        else:
            rng = rng or np.random.default_rng(config.rng_seed)
            starts = [rng.uniform(0.0, 2.0 * pi, n) for _ in range(size)]
        _, d0 = _residuals(problem, np.array(starts))
        xs, ds, iters, reasons = _newton_from(problem, starts, d0, config)
        for j in range(size):
            d = float(ds[j])
            ends[reasons[j]] += 1
            if log is not None:
                log.write(f"restart={first + j} iters={iters[j]} D={d:.6e}\n")
            best_d = min(best_d, d)
            if d <= config.residual_tolerance:
                x = np.mod(xs[j], 2.0 * pi)
                # D at a point has the same bits from any batch
                if x.tobytes() != xs[j].tobytes():
                    d = objective_D(problem, x)
                result = SolverResult(
                    sequence=problem.build_sequence(x),
                    residual_D=d,
                    restarts_used=first + j + 1,
                    iterations_used=iters[j],
                    converged=True,
                    problem=problem,
                )
                break
        first += size
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


# ---------------------------------------------------------------------------
# ladder shapes and escalation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Shape:
    """A gate-angle skeleton short of its chain length: gate 0 is the
    target gate plus ``lead`` with the fixed phase ``phi0``, followed by a
    chain of ``chain`` gates; ``free_terminal`` makes the terminal frame
    rotation an unknown.  ``name`` labels the stage in solver logs."""

    name: str
    chain: float
    lead: float = 0.0
    phi0: float = 0.0
    free_terminal: bool = False

    def problem(self, family: str, orders: tuple[int, int], target_theta: float,
                m: int) -> SolverProblem:
        """The problem of this shape with a chain of ``m`` gates."""
        # a zero lead keeps the sign of a zero target
        first = target_theta + self.lead if self.lead else target_theta
        return SolverProblem(
            family=family, orders=orders, target_theta=target_theta,
            thetas=(first,) + (self.chain,) * m, phi0=self.phi0,
            free_terminal=self.free_terminal, shape=self.name,
        )


_HALF_CHAIN = Shape("half-pi chain", HALF)
_HALF_CHAIN_SHORT = Shape("half-pi chain, leading gates merged", HALF, phi0=pi)
_PI_CHAIN = Shape("pi chain", pi)

#: the escalation ladder of each family: (shape, chain gates) stages in
#: the order they are tried.  Broadband starts from three gates with a
#: free terminal and past six chain gates merges the leading pi/2 gate
#: into the target gate, which then carries the phase pi; this keeps the
#: published total angles minimal.  A plain pi/2 chain needs an even
#: count for the zero-order condition to be solvable, a merged one an odd
#: count.  Passband is ordered by total angle, with two ties: the 6
#: half-pi gates go before the 3 pi gates (theta + 3 pi), and the 4 pi
#: gates before the 8 half-pi gates (theta + 4 pi).
LADDERS = {
    FAMILY_BROADBAND: (
        (Shape("half-pi chain + free terminal", HALF, free_terminal=True), 2),
        (_HALF_CHAIN, 4), (_HALF_CHAIN, 6), (_HALF_CHAIN_SHORT, 7),
        (_HALF_CHAIN_SHORT, 9), (_HALF_CHAIN_SHORT, 11), (_HALF_CHAIN_SHORT, 13),
    ),
    FAMILY_PASSBAND: (
        (_PI_CHAIN, 2), (_HALF_CHAIN, 6), (_PI_CHAIN, 3), (_PI_CHAIN, 4), (_HALF_CHAIN, 8),
        (_PI_CHAIN, 5), (Shape("pi chain, leading gates merged", pi, lead=HALF, phi0=pi), 5),
    ),
}


@cache
def _residual_rank(family: str, orders: tuple[int, int], shape: Shape) -> int:
    """Rank C of the residual conditions of ``orders`` on ``shape``: the
    Jacobian's rank (singular values above 1e-12 of the largest) at a
    fixed random point of a 24-gate chain of the shape at target 0.3 pi."""
    chain = shape.problem(family, orders, 0.3 * pi, 24)
    x = np.random.default_rng(0).uniform(0.0, 2.0 * pi, (1, chain.free_phase_count))
    s = np.linalg.svd(_jacobian(chain, x)[1][0], compute_uv=False)
    return int(np.count_nonzero(s > 1e-12 * s[0]))


def _stages(family: str, orders: tuple[int, int], target_theta: float) -> list[SolverProblem]:
    """The stages of the family's ladder whose unknowns reach their rank
    C, in ladder order; a stage below it generically has no solution."""
    return [
        shape.problem(family, orders, target_theta, m) for shape, m in LADDERS[family]
        if m + shape.free_terminal >= _residual_rank(family, orders, shape)
    ]


def _is_integer_pair(orders) -> bool:
    """Whether ``orders`` is a tuple or list of two Python or numpy integers."""
    return (isinstance(orders, (tuple, list)) and len(orders) == 2
            and all(isinstance(n, (int, np.integer)) for n in orders))


def solve_with_escalation(
    family: str,
    orders,
    target_theta: float,
    config: SolverConfig = SolverConfig(),
    log=None,
) -> SolverResult:
    """Run the stages of the family's ladder (:data:`LADDERS`) in order,
    returning the first converged result; ``orders`` is one integer n for
    broadband (BBn) and a pair (n1, n2) for passband.

    Only the stages whose unknowns reach their rank (:func:`_stages`) are
    built and run, and ``attempted_gate_counts`` lists those that ran; an
    order that no stage reaches is a ValidationError, raised before any
    search.  Each stage has the Monte-Carlo budget ``config.max_restarts``.
    ``config.initial_phases`` seeds restart 0 of the stages with as many
    unknowns; a length that fits no stage is a ValidationError.
    """
    if family == FAMILY_BROADBAND:
        if not isinstance(orders, (int, np.integer)):
            raise ValidationError(f"broadband orders must be one integer, got {orders!r}")
        orders = (int(orders), 0)
    elif family == FAMILY_PASSBAND:
        if not _is_integer_pair(orders):
            raise ValidationError(f"passband orders must be a pair of integers, got {orders!r}")
        orders = (int(orders[0]), int(orders[1]))
    else:
        raise ValidationError(f"escalation is defined for broadband/passband, got {family!r}")
    stages = _stages(family, orders, target_theta)
    label = entry_label(family, *orders)
    if not stages:
        shape, m = max(LADDERS[family], key=lambda entry: entry[1] + entry[0].free_terminal)
        raise ValidationError(
            f"{label} has no ladder stage at the rank of its residual conditions: the largest, "
            f"{m + 1} gates ({shape.name}), has {m + shape.free_terminal} unknowns and needs "
            f"rank {_residual_rank(family, orders, shape)}"
        )
    phases = config.initial_phases
    unknowns = [stage.free_phase_count for stage in stages]
    if phases is not None and len(phases) not in unknowns:
        raise ValidationError(f"initial_phases has {len(phases)} entries, and the stages of "
                              f"{label} have {unknowns} unknowns")
    for k, stage in enumerate(stages):
        if log is not None:
            log.write(f"stage gates={stage.gate_count} shape={stage.shape!r} "
                      f"unknowns={unknowns[k]}\n")
        fits = phases is not None and len(phases) == unknowns[k]
        result = solve(stage, replace(config, initial_phases=phases if fits else None), log=log)
        if result.converged:
            break
    return replace(result, attempted_gate_counts=tuple(s.gate_count for s in stages[: k + 1]))


def polish(seq: CompositeSequence, orders, config: SolverConfig = SolverConfig()) -> SolverResult:
    """Refine a catalog-precision sequence to solver precision.

    Builds the problem matching the sequence's skeleton (fixed gate
    angles, gate-0 phase, terminal phase free when nonzero) and runs the
    Newton search seeded with the sequence's own phases; ``orders`` is n1 or (n1, n2).
    """
    pair = (orders, 0) if isinstance(orders, (int, np.integer)) else orders
    if not _is_integer_pair(pair):
        raise ValidationError(f"orders must be an integer or a pair of integers, got {orders!r}")
    free_terminal = seq.terminal_phase != 0.0
    problem = SolverProblem(
        family=seq.family,
        orders=(int(pair[0]), int(pair[1])),
        target_theta=seq.target_theta,
        thetas=tuple(g.theta for g in seq.gates),
        phi0=seq.gates[0].phi,
        free_terminal=free_terminal,
        shape="catalog skeleton",
    )
    x0 = [g.phi for g in seq.gates[1:]]
    if free_terminal:
        x0.append(seq.terminal_phase)
    cfg = replace(config, max_newton_iters=max(config.max_newton_iters, 300),
                  max_restarts=1, initial_phases=tuple(x0))
    return solve(problem, cfg)
