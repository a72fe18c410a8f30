import io
import re
import time
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from math import acos, pi

from cpgates import catalog, solver
from cpgates.derivatives import (
    broadband_residuals, narrowband_residuals, product_derivative_stack,
)
from cpgates.errors import ValidationError
from cpgates.gates import FAMILY_BROADBAND, FAMILY_PASSBAND
from cpgates.solver import (
    SolverConfig,
    SolverProblem,
    _residuals,
    broadband_problem,
    objective_D,
    passband_problem,
    polish,
    solve,
    solve_with_escalation,
)
from oracles import (
    central_difference_jacobian, newton_sequential, residual_matrices_4x4, residuals_4x4,
    solve_sequential,
)

TH = pi / 4


def phases_match(candidate, reference, tol=1e-6):
    """Equality modulo simultaneous negation and 2*pi shifts."""
    c = np.asarray(candidate)
    r = np.asarray(reference)
    for sign in (1.0, -1.0):
        d = np.mod(sign * c - r + pi, 2 * pi) - pi
        if np.max(np.abs(d)) < tol:
            return True
    return False


def test_objective_bb1_analytic_phases():
    problem = broadband_problem(1, TH, 2, free_terminal=True)
    phi = acos(-TH / pi)
    assert objective_D(problem, [phi, 3 * phi, -2 * phi]) <= 1e-12


def test_objective_bb1_zero_phases_large():
    problem = broadband_problem(1, TH, 2, free_terminal=True)
    assert objective_D(problem, [0.0, 0.0, 0.0]) > 0.1


def test_objective_bb2_merged_pattern():
    # merged skeleton (theta, pi/2, pi, pi/2) with phases (0, phi, 3phi, phi)
    from cpgates.solver import SolverProblem

    phi = acos(-1 / 8)
    problem = SolverProblem(
        family=FAMILY_BROADBAND,
        orders=(2, 0),
        target_theta=TH,
        thetas=(TH, pi / 2, pi, pi / 2),
        phi0=0.0,
    )
    assert objective_D(problem, [phi, 3 * phi, phi]) <= 1e-12


def test_objective_validates_length():
    problem = broadband_problem(1, TH, 2, free_terminal=True)
    with pytest.raises(ValidationError):
        objective_D(problem, [0.1, 0.2])


@pytest.mark.parametrize("theta", [pi / 8, TH, pi / 2])
def test_solve_bb1_recovers_analytic_solution(theta):
    problem = broadband_problem(1, theta, 2, free_terminal=True)
    result = solve(problem, SolverConfig(rng_seed=7, max_restarts=200))
    assert result.converged
    assert result.residual_D <= 1e-10
    phi = acos(-theta / pi)
    got = [g.phi for g in result.sequence.gates[1:]] + [result.sequence.terminal_phase]
    assert phases_match(got, [phi, 3 * phi, -2 * phi])


def test_solve_bb2_recovers_analytic_solution():
    problem = broadband_problem(2, TH, 4)
    result = solve(problem, SolverConfig(rng_seed=7, max_restarts=300))
    assert result.converged and result.residual_D <= 1e-10
    phi = acos(-TH / (2 * pi))
    got = [g.phi for g in result.sequence.gates[1:]]
    assert phases_match(got, [phi, 3 * phi, 3 * phi, phi])


def test_solve_bb2_theta_dependence():
    problem = broadband_problem(2, pi / 2, 4)
    result = solve(problem, SolverConfig(rng_seed=7, max_restarts=300))
    assert result.converged
    phi = acos(-1 / 4)
    got = [g.phi for g in result.sequence.gates[1:]]
    assert phases_match(got, [phi, 3 * phi, 3 * phi, phi])


def test_solve_pb11_recovers_analytic_solution():
    problem = passband_problem(1, 1, TH, 2)
    result = solve(problem, SolverConfig(rng_seed=3, max_restarts=200))
    assert result.converged
    phi = acos(-1 / 8)
    got = [g.phi for g in result.sequence.gates[1:]]
    assert phases_match(got, [phi, -phi])


def test_converged_results_pass_residual_conditions():
    cases = [
        (broadband_problem(1, TH, 2, free_terminal=True), 7),
        (broadband_problem(2, TH, 4), 7),
        (passband_problem(1, 1, TH, 2), 3),
    ]
    for problem, seed in cases:
        result = solve(problem, SolverConfig(rng_seed=seed, max_restarts=200))
        assert result.converged
        seq = result.sequence
        n1, n2 = problem.orders
        assert max(broadband_residuals(seq, n1).scaled_norms) <= 1e-9
        if n2:
            assert max(narrowband_residuals(seq, n2).scaled_norms) <= 1e-9


def test_solver_determinism_bit_for_bit():
    problem = broadband_problem(1, TH, 2, free_terminal=True)
    for seed in (0, 1, 42):
        a = solve(problem, SolverConfig(rng_seed=seed, max_restarts=50))
        b = solve(problem, SolverConfig(rng_seed=seed, max_restarts=50))
        assert a.converged == b.converged
        assert a.restarts_used == b.restarts_used
        assert a.residual_D == b.residual_D
        pa = [g.phi for g in a.sequence.gates] + [a.sequence.terminal_phase]
        pb = [g.phi for g in b.sequence.gates] + [b.sequence.terminal_phase]
        assert pa == pb


def test_solver_log_format():
    problem = broadband_problem(1, TH, 2, free_terminal=True)
    log = io.StringIO()
    solve(problem, SolverConfig(rng_seed=7, max_restarts=50), log=log)
    lines = [ln for ln in log.getvalue().splitlines() if ln.startswith("restart=")]
    assert lines
    assert re.fullmatch(r"restart=\d+ iters=\d+ D=[\d.eE+-]+", lines[0])


def test_solver_log_ends_each_stage_with_stop_counts():
    log = io.StringIO()
    solve_with_escalation(FAMILY_BROADBAND, 3, TH,
                          SolverConfig(rng_seed=7, max_restarts=12, max_newton_iters=8), log=log)
    lines = log.getvalue().splitlines()
    ends = [ln for ln in lines if ln.startswith("stage-end ")]
    assert len(ends) == sum(ln.startswith("stage gates=") for ln in lines)
    counts = []
    for ln in ends:
        m = re.fullmatch(r"stage-end restarts=(\d+) converged=(\d+) stalled=(\d+) "
                         r"no_step=(\d+) budget=(\d+)", ln)
        assert m
        counts.append([int(v) for v in m.groups()])
    # every restart ends for exactly one reason, and the summary follows
    # the stage's own restart lines
    for (restarts, *reasons), ln in zip(counts, ends):
        assert sum(reasons) == restarts
        before = lines[: lines.index(ln)]
        start = max(i for i, b in enumerate(before) if b.startswith("stage gates="))
        assert sum(b.startswith("restart=") for b in before[start:]) == restarts
    assert sum(c[4] for c in counts) > 0  # the small budget is hit


def test_phases_reported_in_canonical_range():
    problem = broadband_problem(2, TH, 4)
    result = solve(problem, SolverConfig(rng_seed=7, max_restarts=300))
    for g in result.sequence.gates:
        assert 0.0 <= g.phi < 2 * pi


def test_escalation_bb1_stops_at_three_gates():
    result = solve_with_escalation(
        FAMILY_BROADBAND, 1, TH, SolverConfig(rng_seed=7, max_restarts=50)
    )
    assert result.converged
    assert result.attempted_gate_counts == (3,)
    assert abs(result.sequence.total_angle() - 1.25 * pi) < 1e-12


def test_escalation_bb3_reaches_published_length():
    config = SolverConfig(rng_seed=7, max_restarts=12, max_newton_iters=60)
    result = solve_with_escalation(FAMILY_BROADBAND, 3, TH, config)
    assert result.converged
    assert result.attempted_gate_counts == (3, 5, 7)
    assert abs(result.sequence.total_angle() - 3.25 * pi) < 1e-12


def test_escalation_bb6_total_angle():
    # seed the search with the catalog phases: the earlier (shorter) stages
    # cannot satisfy order six and are abandoned after the restart budget,
    # and the published twelve-gate shape converges immediately
    seed_phases = tuple(g.phi for g in catalog.broadband(6, TH).gates[1:])
    config = SolverConfig(
        rng_seed=1, max_restarts=2, max_newton_iters=150, initial_phases=seed_phases
    )
    result = solve_with_escalation(FAMILY_BROADBAND, 6, TH, config)
    assert result.converged
    assert result.sequence is not None
    assert abs(result.sequence.total_angle() - 5.75 * pi) < 1e-12
    assert result.attempted_gate_counts[-1] == 12


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_escalation_bb6_from_random_starts(seed):
    # measured 3.1-3.5 s per seed (2 vCPU, one BLAS thread); dead stages end
    # by the stall rule within a few iterations per restart, and each round
    # of restarts advances in lockstep
    t0 = time.perf_counter()
    result = solve_with_escalation(FAMILY_BROADBAND, 6, TH, SolverConfig(rng_seed=seed))
    elapsed = time.perf_counter() - t0
    assert result.converged
    assert len(result.sequence.gates) == 12
    assert abs(result.sequence.total_angle() - 5.75 * pi) < 1e-12
    assert elapsed < 30.0


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_polish_catalog_broadband_in_few_iterations(n):
    result = polish(catalog.broadband(n, TH), n)
    assert result.converged
    assert result.iterations_used <= 5


def test_polish_refines_catalog_decimals():
    seq = catalog.broadband(3, TH)
    result = polish(seq, 3)
    assert result.converged
    assert result.residual_D <= 1e-10
    # the polished phases stay near the printed decimals
    before = np.array([g.phi for g in seq.gates[1:]])
    after = np.array([g.phi for g in result.sequence.gates[1:]])
    assert np.max(np.abs(np.mod(after - before + pi, 2 * pi) - pi)) < 0.1


def test_passband_escalation_pb11():
    result = solve_with_escalation(
        FAMILY_PASSBAND, (1, 1), TH, SolverConfig(rng_seed=3, max_restarts=60)
    )
    assert result.converged
    assert result.attempted_gate_counts == (3,)
    assert abs(result.sequence.total_angle() - (2 * pi + TH)) < 1e-12


# --- residuals on 2x2 blocks, batched step ladder, budgets ------------------

@st.composite
def problems(draw):
    gates = draw(st.integers(1, 10))
    thetas = tuple(draw(st.lists(st.floats(-2 * pi, 2 * pi), min_size=gates, max_size=gates)))
    return SolverProblem(
        family=FAMILY_PASSBAND,
        orders=(draw(st.integers(0, 6)), draw(st.integers(0, 4))),
        target_theta=draw(st.floats(-pi, pi)),
        thetas=thetas,
        phi0=draw(st.floats(0.0, 2 * pi)),
        # one gate without a free terminal leaves nothing to solve
        free_terminal=draw(st.booleans()) or gates == 1,
    )


@st.composite
def problem_points(draw):
    """A problem and a batch of one to five points of its free phases."""
    problem = draw(problems())
    batch, n = draw(st.integers(1, 5)), problem.free_phase_count
    flat = draw(st.lists(st.floats(0.0, 2 * pi), min_size=batch * n, max_size=batch * n))
    return problem, np.array(flat).reshape(batch, n)


@settings(max_examples=80)
@given(case=problem_points())
# D at rounding level: 1.92e-16 here against the oracle's 9.60e-17
@example(case=(SolverProblem(family=FAMILY_PASSBAND, orders=(1, 0), target_theta=0.0,
                             thetas=(2.3125, -2.3125), phi0=0.0, free_terminal=True),
               np.zeros((1, 2))))
def test_residuals_equal_4x4_oracle(case):
    problem, x = case
    r, d = _residuals(problem, x)
    r_oracle, d_oracle = residuals_4x4(problem, x)
    # atol: rounding noise, as in the public-path assertions below
    np.testing.assert_allclose(d, d_oracle, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(
        np.linalg.norm(r, axis=1), np.linalg.norm(r_oracle, axis=1), rtol=1e-12, atol=1e-14)
    # the public path, one sequence at a time: per-order scaled norms,
    # their sum D, and the sign-aligned 4x4 matrices; scaled, no order
    # exceeds 3, and atol covers its rounding noise
    n1, n2 = problem.orders
    orders = np.concatenate([np.arange(n1 + 1), np.arange(1, n2 + 1)])
    powers = max(1.0, problem.total_angle()) ** orders[:, None, None]
    for point, d_point, mats in zip(x, d, residual_matrices_4x4(problem, x)):
        seq = problem.build_sequence(point)
        bb, nb = broadband_residuals(seq, n1), narrowband_residuals(seq, n2)
        assert nb.norms[0] == 0.0
        scaled = bb.scaled_norms + nb.scaled_norms[1:]
        np.testing.assert_allclose(
            scaled, np.linalg.norm(mats / powers, axis=(1, 2)), rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(sum(scaled), d_point, rtol=1e-12, atol=1e-14)
        entries = np.array(bb.entries + nb.entries[1:]) / powers
        # where both target signs are (nearly) equally close, either is right
        first = 0 if _sign_margin(problem, point) > 1e-9 else 1
        np.testing.assert_allclose(entries[first:], (mats / powers)[first:], rtol=0, atol=1e-12)


def _sign_margin(problem, x):
    """|Re <row, target>| of the framed order-0 row: the residual switches
    target sign, and is not differentiable, where it is zero."""
    phis, terminal = problem.split(x)
    row = np.exp(-1j * terminal) * product_derivative_stack(problem.thetas, phis, 0)[0, 0, 0]
    target = np.array([np.cos(problem.target_theta), 1j * np.sin(problem.target_theta)])
    return abs(np.vdot(row, target).real)


@settings(max_examples=80)
@given(problem=problems(), data=st.data())
def test_jacobian_equals_central_differences(problem, data):
    n = problem.free_phase_count
    assume(n > 0)
    x = np.array(data.draw(st.lists(st.floats(0.0, 2 * pi), min_size=n, max_size=n)))
    assume(_sign_margin(problem, x) > 1e-3)
    r0, jacs = solver._jacobian(problem, x[None, :])
    r, _ = _residuals(problem, x[None, :])
    np.testing.assert_allclose(r0[0], r[0], rtol=0, atol=1e-13)
    np.testing.assert_allclose(jacs[0], central_difference_jacobian(problem, x, h=1e-6),
                               rtol=0, atol=1e-8)


@settings(max_examples=40)
@given(problem=problems(), batch=st.integers(2, 20), data=st.data())
def test_jacobian_batch_equals_single_point_calls(problem, batch, data):
    # each point's residuals and Jacobian, bit for bit and in the same
    # memory layout, whatever shares its batch
    n = problem.free_phase_count
    assume(n > 0)
    flat = data.draw(st.lists(st.floats(0.0, 2 * pi), min_size=batch * n, max_size=batch * n))
    x = np.array(flat).reshape(batch, n)
    r0, jacs = solver._jacobian(problem, x)
    for k in range(batch):
        r0_one, (jac_one,) = solver._jacobian(problem, x[k : k + 1])
        assert np.array_equal(r0[k], r0_one[0])
        assert np.array_equal(jacs[k], jac_one)
        assert jacs[k].strides == jac_one.strides


#: (problem, solver seed) starts; together they reach every rung of the
#: step ladder: full steps, halvings and Levenberg regularisation
LADDER_PANEL = [
    (broadband_problem(1, TH, 2, free_terminal=True), 0),
    (broadband_problem(2, TH, 4), 1),
    (broadband_problem(3, TH, 6), 2),
    (broadband_problem(3, TH, 4), 3),
    (passband_problem(1, 1, TH, 2), 4),
    (passband_problem(2, 2, TH, 5), 5),
]


def test_batched_ladder_equals_sequential_oracle(monkeypatch):
    batches = []

    def counting(problem, x_batch):
        batches.append(len(np.atleast_2d(x_batch)))
        return _residuals(problem, x_batch)

    monkeypatch.setattr(solver, "_residuals", counting)
    config = SolverConfig(max_newton_iters=60)
    for problem, seed in LADDER_PANEL:
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(0.0, 2 * pi, (3, problem.free_phase_count))
        d0 = _residuals(problem, x0)[1]
        # the three starts advance together, each as it would alone
        xs, ds, iters, reasons = solver._newton_from(problem, x0, d0, config)
        for k in range(3):
            x_ref, d_ref, iters_ref, reason_ref = newton_sequential(
                problem, x0[k], float(d0[k]), config)
            assert iters[k] == iters_ref
            assert reasons[k] == reason_ref
            assert ds[k] == d_ref
            assert np.array_equal(xs[k], x_ref)
    # each rung is one call for all starts that need it: full steps in
    # calls of at most three rows, halvings in multiples of 19 rows and
    # Levenberg rungs in multiples of 25
    assert all(b <= 3 or b % 19 == 0 or b % 25 == 0 for b in batches)
    assert any(b % 19 == 0 for b in batches) and any(b % 25 == 0 for b in batches)


#: (problem, config, restarts used) stages run by the lockstep solver and
#: by the sequential restart loop: a dead stage, a stage converging in
#: its second round, a seeded restart 0 that fails, budget ends, a stage
#: converging on restart 0, and restart budgets that are not multiples
#: of the round size
SOLVE_PANEL = [
    (broadband_problem(2, TH, 2, free_terminal=True),
     SolverConfig(rng_seed=3, max_restarts=20), 20),
    (broadband_problem(4, TH, 7, short=True), SolverConfig(rng_seed=0, max_restarts=40), 19),
    (broadband_problem(3, TH, 6),
     SolverConfig(rng_seed=1, max_restarts=37, initial_phases=(0.0,) * 6), 6),
    (broadband_problem(3, TH, 6),
     SolverConfig(rng_seed=2, max_restarts=18, max_newton_iters=8), 7),
    (passband_problem(2, 2, TH, 4), SolverConfig(rng_seed=5, max_restarts=19), 1),
]


@pytest.mark.parametrize("round_size", [solver.ROUND_SIZE, 5])
@pytest.mark.parametrize("problem, config, restarts", SOLVE_PANEL,
                         ids=["dead", "second-round", "seeded", "budget", "first"])
def test_solve_equals_sequential_restarts(monkeypatch, problem, config, restarts, round_size):
    monkeypatch.setattr(solver, "ROUND_SIZE", round_size)
    log, log_ref = io.StringIO(), io.StringIO()
    result = solve(problem, config, log=log)
    ref = solve_sequential(problem, config, log=log_ref)
    assert result.restarts_used == ref.restarts_used == restarts
    assert result.converged == ref.converged
    assert result.iterations_used == ref.iterations_used
    assert result.residual_D == ref.residual_D
    assert result.sequence == ref.sequence
    assert log.getvalue() == log_ref.getvalue()


def test_levenberg_steps_match_one_solve_per_rung():
    jac = np.random.default_rng(3).normal(size=(12, 4))
    jtj, jtr = jac.T @ jac, jac.T @ np.ones(12)
    lams = np.multiply.accumulate(np.r_[1e-6, np.full(24, 10.0)])
    steps = solver._levenberg_steps(jtj, jtr, lams)
    assert steps.shape == (25, 4)
    for lam, step in zip(lams, steps):
        np.testing.assert_allclose(step, np.linalg.solve(jtj + lam * np.eye(4), -jtr),
                                   rtol=1e-12, atol=0)


def test_levenberg_ladder_is_empty_when_a_rung_is_singular():
    # lam = 10 makes jtj + lam I singular (jtj is no Gram matrix here)
    steps = solver._levenberg_steps(np.diag([-10.0, 1.0]), np.array([1.0, 1.0]),
                                    np.array([1.0, 10.0, 100.0]))
    assert steps.shape == (0, 2)


@pytest.mark.parametrize("kwargs", [
    {"residual_tolerance": float("nan")},
    {"residual_tolerance": float("inf")},
    {"residual_tolerance": 0.0},
    {"residual_tolerance": -1e-10},
    {"residual_tolerance": float("-inf")},
    {"max_newton_iters": 0},
    {"max_newton_iters": -1},
    {"max_restarts": 0},
])
def test_solver_config_rejects_invalid_budgets(kwargs):
    with pytest.raises(ValidationError):
        SolverConfig(**kwargs)


@pytest.mark.parametrize("stage_restarts", [0, -3])
def test_escalation_rejects_empty_stage_budget(stage_restarts):
    with pytest.raises(ValidationError):
        solve_with_escalation(FAMILY_BROADBAND, 1, TH, stage_restarts=stage_restarts)


def test_escalation_uncapped_stage_budget():
    result = solve_with_escalation(
        FAMILY_BROADBAND, 1, TH, SolverConfig(rng_seed=7, max_restarts=50), stage_restarts=None
    )
    assert result.converged


@pytest.mark.parametrize("orders", [(-1, 0), (1, -1), (-2, 1)])
def test_problem_rejects_negative_orders(orders):
    with pytest.raises(ValidationError):
        SolverProblem(family=FAMILY_PASSBAND, orders=orders, target_theta=TH, thetas=(TH, pi))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["target_theta", "thetas", "phi0"])
def test_problem_rejects_non_finite_angles(field, bad):
    kwargs = dict(family=FAMILY_BROADBAND, orders=(1, 0), target_theta=TH,
                  thetas=(TH, pi / 2, pi / 2), phi0=0.0)
    kwargs[field] = (TH, bad, pi / 2) if field == "thetas" else bad
    with pytest.raises(ValidationError):
        SolverProblem(**kwargs)


@pytest.mark.parametrize("thetas,free_terminal", [((), False), ((), True), ((TH,), False)])
def test_problem_without_free_phases_raises(thetas, free_terminal):
    # nothing to solve: no gate, or one gate with its phase fixed and no terminal
    with pytest.raises(ValidationError, match="free phase"):
        SolverProblem(family=FAMILY_BROADBAND, orders=(1, 0), target_theta=TH,
                      thetas=thetas, free_terminal=free_terminal)


def test_one_gate_with_a_free_terminal_is_a_problem():
    problem = SolverProblem(family=FAMILY_BROADBAND, orders=(0, 0), target_theta=TH,
                            thetas=(TH,), free_terminal=True)
    assert problem.free_phase_count == 1
    assert solve(problem, SolverConfig(rng_seed=3, max_restarts=2)).converged


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_solver_config_rejects_non_finite_initial_phases(bad):
    with pytest.raises(ValidationError):
        SolverConfig(initial_phases=(bad, 0.0, 0.0))


@pytest.mark.parametrize("phases", [(0.1, 0.2), (0.1, 0.2, 0.3, 0.4)])
def test_solve_rejects_initial_phases_of_wrong_length(phases):
    problem = broadband_problem(1, TH, 2, free_terminal=True)
    with pytest.raises(ValidationError):
        solve(problem, SolverConfig(initial_phases=phases))
