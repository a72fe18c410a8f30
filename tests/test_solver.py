import io
import json
import re
import time
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from math import acos, ceil, pi
from pathlib import Path

from cpgates import catalog, derivatives, solver
from cpgates.derivatives import (
    broadband_residuals, narrowband_residuals, product_derivative_stack, residual_rows,
)
from cpgates.errors import ValidationError
from cpgates.gates import FAMILY_BROADBAND, FAMILY_PASSBAND, _blocks
from cpgates.seqio import sequence_to_csv
from cpgates.solver import (
    LADDERS,
    SolverConfig,
    SolverProblem,
    _jacobian,
    _residual_rank,
    _residuals,
    _stages,
    objective_D,
    polish,
    solve,
    solve_with_escalation,
)
from oracles import (
    broadband_problem, central_difference_jacobian, embed_blocks_4x4, newton_sequential,
    passband_problem, published_entry, residual_matrices_4x4, residuals_4x4, solve_sequential,
)

TH = pi / 4

#: ``sequence_to_csv`` text of the escalation tests' results, captured
#: while the stages below the rank of their residual conditions still ran
GOLDEN_ESCALATION = json.loads(
    (Path(__file__).parent / "golden" / "escalation.json").read_text())


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
    # the stages of 3 and 5 gates are below rank 6 and are not built, so
    # the log starts at 7 gates; every stage ends with one stop-count line
    assert lines[0] == "stage gates=7 shape='half-pi chain' unknowns=6"
    assert not any(" skipped" in ln for ln in lines)
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


def test_escalation_gives_every_stage_the_config_budget():
    # a budget above the CLI's default of 100 restarts per stage is kept
    log = io.StringIO()
    config = SolverConfig(rng_seed=0, max_restarts=150, max_newton_iters=1,
                          residual_tolerance=1e-300)
    solve_with_escalation(FAMILY_BROADBAND, 1, TH, config, log=log)
    ends = [ln.split()[1] for ln in log.getvalue().splitlines() if ln.startswith("stage-end ")]
    assert ends == ["restarts=150"] * len(LADDERS[FAMILY_BROADBAND])


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
    assert sequence_to_csv(result.sequence) == GOLDEN_ESCALATION["bb1_seed7"]


def test_escalation_bb3_reaches_published_length():
    config = SolverConfig(rng_seed=7, max_restarts=12, max_newton_iters=60)
    result = solve_with_escalation(FAMILY_BROADBAND, 3, TH, config)
    assert result.converged
    # the stages of 3 and 5 gates are below rank 6 and do not run
    assert result.attempted_gate_counts == (7,)
    assert abs(result.sequence.total_angle() - 3.25 * pi) < 1e-12
    assert sequence_to_csv(result.sequence) == GOLDEN_ESCALATION["bb3_seed7"]


def test_escalation_bb6_total_angle():
    # seed the search with the published phases: the shorter stages are
    # below the rank of the order-six conditions and are not built, so
    # the published twelve-gate shape runs first and converges immediately
    seed_phases = tuple(g.phi for g in published_entry("bb6").gates[1:])
    config = SolverConfig(
        rng_seed=1, max_restarts=2, max_newton_iters=150, initial_phases=seed_phases
    )
    result = solve_with_escalation(FAMILY_BROADBAND, 6, TH, config)
    assert result.converged
    assert result.sequence is not None
    assert abs(result.sequence.total_angle() - 5.75 * pi) < 1e-12
    assert result.attempted_gate_counts[-1] == 12
    assert sequence_to_csv(result.sequence) == GOLDEN_ESCALATION["bb6_catalog_seeded"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_escalation_bb6_from_random_starts(seed):
    # measured 0.4-0.5 s per seed (2 vCPU, one BLAS thread): the five
    # stages below rank 10 are not built, and only the twelve-gate stage runs
    t0 = time.perf_counter()
    result = solve_with_escalation(FAMILY_BROADBAND, 6, TH, SolverConfig(rng_seed=seed))
    elapsed = time.perf_counter() - t0
    assert result.converged
    assert len(result.sequence.gates) == 12
    assert abs(result.sequence.total_angle() - 5.75 * pi) < 1e-12
    assert sequence_to_csv(result.sequence) == GOLDEN_ESCALATION[f"bb6_seed{seed}"]
    assert elapsed < 1.5


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_polish_catalog_broadband_in_few_iterations(n):
    result = polish(published_entry(f"bb{n}"), n)
    assert result.converged
    assert result.iterations_used <= 5


def test_polish_refines_catalog_decimals():
    seq = published_entry("bb3")
    result = polish(seq, 3)
    assert result.converged
    assert result.residual_D <= 1e-10
    # the polished phases stay near the printed decimals
    before = np.array([g.phi for g in seq.gates[1:]])
    after = np.array([g.phi for g in result.sequence.gates[1:]])
    assert np.max(np.abs(np.mod(after - before + pi, 2 * pi) - pi)) < 0.1


def test_polish_takes_numpy_integers_and_rejects_other_orders():
    seq = catalog.broadband(3)
    assert polish(seq, np.int64(3)) == polish(seq, 3)
    for orders in (3.0, (3,)):
        with pytest.raises(ValidationError, match="orders must be an integer or a pair"):
            polish(seq, orders)


def test_passband_escalation_pb11():
    result = solve_with_escalation(
        FAMILY_PASSBAND, (1, 1), TH, SolverConfig(rng_seed=3, max_restarts=60)
    )
    assert result.converged
    assert result.attempted_gate_counts == (3,)
    assert abs(result.sequence.total_angle() - (2 * pi + TH)) < 1e-12
    assert sequence_to_csv(result.sequence) == GOLDEN_ESCALATION["pb11_seed3"]


@pytest.mark.parametrize("orders", [(2, 1), (1, 2), (1, 3)], ids=["pb21", "pb12", "pb13"])
def test_passband_escalation_with_unequal_orders(orders):
    # the Jacobian pass expands both points to max(n1, n2); these goldens
    # were captured while each point had a kernel pass of its own order
    result = solve_with_escalation(FAMILY_PASSBAND, orders, 0.3 * pi, SolverConfig(rng_seed=7))
    assert result.converged
    assert sequence_to_csv(result.sequence) == GOLDEN_ESCALATION["pb%d%d_seed7" % orders]


# --- the rank of the residual conditions and the ladders ---------------------

#: passband ranks (pi chain, plain or short; half-pi chain) by (n1, n2).
#: They follow m + ceil(m/2) with m = max(n1, n2) on a pi chain, and
#: n1 + ceil(n1/2) + 1 + n2 + ceil(n2/2) on a half-pi chain.
PASSBAND_RANKS = {
    (1, 1): (2, 5), (2, 1): (3, 6), (1, 2): (3, 6), (2, 2): (3, 7),
    (1, 3): (5, 8), (3, 3): (5, 11), (4, 4): (6, 13), (2, 4): (6, 10),
    (3, 1): (5, 8), (2, 3): (5, 9), (3, 2): (5, 9), (1, 4): (6, 9),
    (4, 1): (6, 9), (3, 4): (6, 12), (4, 2): (6, 10), (4, 3): (6, 12),
}
LADDER_KEYS = [(FAMILY_BROADBAND, (n, 0)) for n in range(1, 9)] + [
    (FAMILY_PASSBAND, orders) for orders in PASSBAND_RANKS]


def ladder(family, orders, theta):
    """(shape, stage) of every ladder entry, those below rank included."""
    return [(shape, shape.problem(family, orders, theta, m)) for shape, m in LADDERS[family]]


@pytest.mark.parametrize("n", range(1, 9))
def test_broadband_rank_closed_form(n):
    # every broadband shape, plain, short and with a free terminal
    for shape, _ in LADDERS[FAMILY_BROADBAND]:
        assert _residual_rank(FAMILY_BROADBAND, (n, 0), shape) == n + ceil(n / 2) + 1


@pytest.mark.parametrize("orders", PASSBAND_RANKS)
def test_passband_rank_by_shape(orders):
    pi_chain, half_chain = PASSBAND_RANKS[orders]
    for shape, _ in LADDERS[FAMILY_PASSBAND]:
        want = half_chain if shape.chain == pi / 2 else pi_chain
        assert _residual_rank(FAMILY_PASSBAND, orders, shape) == want, shape.name


@settings(max_examples=40)
@given(ladder_key=st.sampled_from(LADDER_KEYS), theta=st.floats(0.02 * pi, 0.98 * pi),
       seed=st.integers(0, 2**32 - 1))
def test_stage_jacobian_rank_is_min_of_unknowns_and_rank(ladder_key, theta, seed):
    # the Jacobian has rank min(unknowns, C) at a generic point; a single
    # random point of a short high-order stage can sit near a rank drop
    # (s_min/s_0 down to 1e-17 for BB8), so the rank is the largest of
    # four points, and no point may exceed it
    rng = np.random.default_rng(seed)
    for shape, stage in ladder(*ladder_key, theta):
        want = min(stage.free_phase_count, _residual_rank(*ladder_key, shape))
        _, jacs = _jacobian(stage, rng.uniform(0.0, 2 * pi, (4, stage.free_phase_count)))
        ranks = [np.linalg.matrix_rank(j, tol=1e-12 * np.linalg.norm(j, 2)) for j in jacs]
        assert max(ranks) == want, (stage.gate_count, stage.shape, ranks)


_TERMINAL, _HALF, _SHORT = (
    "half-pi chain + free terminal", "half-pi chain", "half-pi chain, leading gates merged")
_PI, _PI_SHORT = "pi chain", "pi chain, leading gates merged"

#: the hand-written ladders the table replaced, as (gate count, shape
#: name, unknowns) in the order they were tried
HAND_WRITTEN_LADDERS = {
    FAMILY_BROADBAND: [(3, _TERMINAL, 3), (5, _HALF, 4), (7, _HALF, 6), (8, _SHORT, 7),
                       (10, _SHORT, 9), (12, _SHORT, 11), (14, _SHORT, 13)],
    FAMILY_PASSBAND: [(3, _PI, 2), (7, _HALF, 6), (4, _PI, 3), (5, _PI, 4), (9, _HALF, 8),
                      (6, _PI, 5), (6, _PI_SHORT, 5)],
}


@pytest.mark.parametrize("family, orders", LADDER_KEYS)
def test_built_stages_are_the_hand_written_ladder_at_rank(family, orders):
    # ranks from the closed form and the table above, not from the solver
    if family == FAMILY_BROADBAND:
        n = orders[0]
        rank = {name: n + ceil(n / 2) + 1 for name in (_TERMINAL, _HALF, _SHORT)}
    else:
        pi_chain, half_chain = PASSBAND_RANKS[orders]
        rank = {_PI: pi_chain, _PI_SHORT: pi_chain, _HALF: half_chain}
    want = [stage for stage in HAND_WRITTEN_LADDERS[family] if stage[2] >= rank[stage[1]]]
    built = _stages(family, orders, TH)
    assert [(s.gate_count, s.shape, s.free_phase_count) for s in built] == want
    for stage in built:
        assert stage.family == family and stage.orders == orders and stage.target_theta == TH


@pytest.mark.parametrize("family", [FAMILY_BROADBAND, FAMILY_PASSBAND])
def test_every_ladder_entry_builds_a_chain_after_the_lead_gate(family):
    for shape, m in LADDERS[family]:
        stage = shape.problem(family, (1, 1), TH, m)
        assert stage.thetas == (TH + shape.lead,) + (shape.chain,) * m
        assert stage.free_phase_count == m + shape.free_terminal
        assert (stage.phi0, stage.free_terminal, stage.shape) == (
            shape.phi0, shape.free_terminal, shape.name)


#: catalog name -> (family, orders) of every catalog entry whose skeleton
#: is a ladder stage; BB2 and BB4 are the exceptions, pinned below
LADDER_SKELETONS = {
    "bb1": (FAMILY_BROADBAND, (1, 0)), "bb3": (FAMILY_BROADBAND, (3, 0)),
    "bb5": (FAMILY_BROADBAND, (5, 0)), "bb6": (FAMILY_BROADBAND, (6, 0)),
    "pb11": (FAMILY_PASSBAND, (1, 1)), "pb21": (FAMILY_PASSBAND, (2, 1)),
    "pb12": (FAMILY_PASSBAND, (1, 2)), "pb22": (FAMILY_PASSBAND, (2, 2)),
    "pb13": (FAMILY_PASSBAND, (1, 3)), "pb33": (FAMILY_PASSBAND, (3, 3)),
}


def _skeleton(seq):
    """Gate angles, gate-0 phase and whether there is a terminal."""
    return tuple(g.theta for g in seq.gates), seq.gates[0].phi, seq.terminal_phase != 0.0


def _ladder_skeletons(family, orders):
    return {(s.thetas, s.phi0, s.free_terminal): s for _, s in ladder(family, orders, TH)}


@pytest.mark.parametrize("name", LADDER_SKELETONS)
def test_catalog_skeletons_are_ladder_stages(name):
    stage = _ladder_skeletons(*LADDER_SKELETONS[name]).get(_skeleton(catalog.by_name(name)))
    assert stage is not None
    # and the stage is built: its unknowns reach the rank
    assert stage.gate_count in [s.gate_count for s in _stages(stage.family, stage.orders, TH)]


def test_catalog_skeletons_outside_the_ladders():
    # BB4 is the 7-chain short stage, but its stored terminal of about
    # 1.994 pi (a full turn to three decimals) is a free terminal the
    # stage does not have
    thetas, phi0, terminal = _skeleton(catalog.broadband(4))
    stages = _ladder_skeletons(FAMILY_BROADBAND, (4, 0))
    assert terminal and (thetas, phi0, terminal) not in stages
    assert stages[thetas, phi0, False].shape == _SHORT and len(thetas) == 8
    # the closed-form BB2 holds a pi gate, and every broadband stage is a
    # chain of pi/2 gates
    thetas, phi0, terminal = _skeleton(catalog.broadband(2))
    assert thetas == (TH, pi / 2, pi, pi / 2)
    assert all(s[0] != thetas for s in _ladder_skeletons(FAMILY_BROADBAND, (2, 0)))


@pytest.mark.parametrize("orders, rank", [((4, 4), 13), ((2, 4), 10)])
def test_escalation_with_every_stage_below_rank_fails_at_once(orders, rank):
    # no stage is built: the error names the rank and the largest stage,
    # and no search runs
    log = io.StringIO()
    t0 = time.perf_counter()
    label = f"PB({orders[0]},{orders[1]})"
    with pytest.raises(ValidationError, match=re.escape(
            f"{label} has no ladder stage at the rank of its residual conditions: the "
            f"largest, 9 gates (half-pi chain), has 8 unknowns and needs rank {rank}")):
        solve_with_escalation(FAMILY_PASSBAND, orders, TH, SolverConfig(rng_seed=1), log=log)
    assert time.perf_counter() - t0 < 1.0
    assert log.getvalue() == ""


def test_escalation_past_the_ladder_fails_at_once():
    # BB9 needs rank 15; the largest broadband stage has 13 unknowns
    with pytest.raises(ValidationError, match=re.escape(
            "the largest, 14 gates (half-pi chain, leading gates merged), has 13 unknowns "
            "and needs rank 15")):
        solve_with_escalation(FAMILY_BROADBAND, 9, TH)


def test_escalation_rejects_initial_phases_that_fit_no_stage():
    # BB3 builds stages of 6, 7, 9, 11 and 13 unknowns: five phases fit
    # none, and are an error rather than dropped for random starts
    config = SolverConfig(rng_seed=7, initial_phases=(0.1,) * 5)
    with pytest.raises(ValidationError, match=re.escape(
            "initial_phases has 5 entries, and the stages of BB3 have [6, 7, 9, 11, 13] "
            "unknowns")):
        solve_with_escalation(FAMILY_BROADBAND, 3, TH, config)


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
        rows = np.concatenate([bb.rows, nb.rows[1:]])
        entries = embed_blocks_4x4(_blocks(rows[:, 0], rows[:, 1])) / powers
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
    r, d = _residuals(problem, x[None, :])
    # the full Newton step takes its D from the Jacobian pass: the same bits
    assert np.array_equal(r0[0], r[0])
    assert solver._objective(r0)[0] == d[0]
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
    batches, jacobian_batches = [], []

    def counting(problem, x_batch):
        batches.append(len(np.atleast_2d(x_batch)))
        return _residuals(problem, x_batch)

    def counting_jacobian(problem, x_batch):
        jacobian_batches.append(len(x_batch))
        return _jacobian(problem, x_batch)

    monkeypatch.setattr(solver, "_residuals", counting)
    monkeypatch.setattr(solver, "_jacobian", counting_jacobian)
    config = SolverConfig(max_newton_iters=60)
    for problem, seed in LADDER_PANEL:
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(0.0, 2 * pi, (3, problem.free_phase_count))
        d0 = _residuals(problem, x0)[1]
        jacobian_batches.clear()
        # the three starts advance together, each as it would alone
        xs, ds, iters, reasons = solver._newton_from(problem, x0, d0, config)
        for k in range(3):
            x_ref, d_ref, iters_ref, reason_ref = newton_sequential(
                problem, x0[k], float(d0[k]), config)
            assert iters[k] == iters_ref
            assert reasons[k] == reason_ref
            assert ds[k] == d_ref
            assert np.array_equal(xs[k], x_ref)
        # every iteration evaluates the full steps of its live starts
        # with their Jacobians in one call; a start whose full step was
        # accepted needs no Jacobian at the top of the next iteration
        loops = max(iters)
        assert loops <= len(jacobian_batches) <= 2 * loops
        assert all(b <= 3 for b in jacobian_batches)
    # each later rung is one call for all starts that need it: halvings
    # in multiples of 19 rows and Levenberg rungs in multiples of 25
    assert all(b % 19 == 0 or b % 25 == 0 for b in batches)
    assert any(b % 19 == 0 for b in batches) and any(b % 25 == 0 for b in batches)


#: restart-0 runs whose every Newton step is the full step
FULL_STEP_RUNS = [
    (broadband_problem(1, TH, 2, free_terminal=True), 0),
    (broadband_problem(2, TH, 4), 11),
    (passband_problem(1, 1, TH, 2), 0),
]


@pytest.mark.parametrize("problem, seed", FULL_STEP_RUNS, ids=["bb1", "bb2", "pb11"])
def test_accepted_full_steps_carry_their_jacobian(monkeypatch, problem, seed):
    # one kernel pass per iteration, and at most three more: D at the
    # start, the first Jacobian and, when the wrap moves a phase, D at
    # the wrapped phases
    calls = []

    def counting(*args):
        calls.append(args)
        return residual_rows(*args)

    monkeypatch.setattr(solver, "residual_rows", counting)
    result = solve(problem, SolverConfig(rng_seed=seed, max_restarts=1))
    assert result.converged and result.iterations_used >= 4
    assert len(calls) <= result.iterations_used + 3


@pytest.mark.parametrize("problem", [passband_problem(1, 1, TH, 2),
                                     passband_problem(2, 1, TH, 6, shape="half-pi chain")],
                         ids=["pb11", "pb21"])
def test_passband_jacobian_pass_is_one_kernel_pass(monkeypatch, problem):
    # a Jacobian pass carries eps = 0 and eps = -1 through one gate loop;
    # a value pass keeps one kernel pass per point
    partials, points = [], []
    kernel = derivatives._kernel

    def counting_rows(*args):
        partials.append(args[5])
        return residual_rows(*args)

    def counting_kernel(*args):
        points.append(args[3])
        return kernel(*args)

    monkeypatch.setattr(solver, "residual_rows", counting_rows)
    monkeypatch.setattr(derivatives, "_kernel", counting_kernel)
    solve(problem, SolverConfig(rng_seed=7, max_restarts=3))
    jacobians, values = partials.count(True), partials.count(False)
    assert jacobians >= 2 and values >= 2
    assert len(points) == jacobians + 2 * values
    assert points.count((0.0, -1.0)) == jacobians


@pytest.mark.parametrize("n", [3, 6])
def test_polish_from_a_converged_start_takes_no_jacobian(monkeypatch, n):
    partials = []

    def counting(*args):
        partials.append(args[5])
        return residual_rows(*args)

    monkeypatch.setattr(solver, "residual_rows", counting)
    result = polish(catalog.broadband(n), n)
    assert result.converged and result.iterations_used == 0
    # D at the start, by value; the stored phases are in [0, 2 pi), so
    # the wrap moves none and D is not evaluated again
    assert partials == [False]


def test_generator_is_made_at_the_first_draw(monkeypatch):
    made = []
    default_rng = np.random.default_rng

    def counting(seed):
        made.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    # polish and a seeded one-restart solve draw nothing
    polished = polish(catalog.broadband(3), 3)
    config = SolverConfig(max_restarts=1, initial_phases=tuple(_stored_phases(polished)))
    assert solve(polished.problem, config).converged
    assert made == []
    # a seeded restart 0 that fails makes the generator for the next round
    config = SolverConfig(rng_seed=5, max_restarts=3, initial_phases=(0.0,) * 6)
    solve(broadband_problem(3, TH, 6), config)
    assert made == [5]


def _stored_phases(result):
    """The free phases that the result's sequence stores: the converged
    phases wrapped into [0, 2 pi)."""
    x = [g.phi for g in result.sequence.gates[1:]]
    if result.problem.free_terminal:
        x.append(result.sequence.terminal_phase)
    return x


@pytest.mark.parametrize("n1, n2, seq", [row[1:] for row in catalog.table_rows("all")],
                         ids=[row[3].label for row in catalog.table_rows("all")])
def test_polish_reports_D_at_its_wrapped_phases(n1, n2, seq):
    result = polish(seq, (n1, n2))
    assert result.converged
    assert result.residual_D.hex() == objective_D(result.problem, _stored_phases(result)).hex()


#: (family, orders, theta / pi, seed, restarts): the solves of the
#: synthesize benchmark workload, at angles of its range
SYNTHESIZE_SOLVES = [
    (FAMILY_BROADBAND, 1, 0.3, 7, 20), (FAMILY_BROADBAND, 1, 0.1, 11, 20),
    (FAMILY_PASSBAND, (1, 1), 0.3, 7, 100), (FAMILY_PASSBAND, (1, 1), 0.45, 2, 100),
    (FAMILY_BROADBAND, 2, 0.15, 1, 10), (FAMILY_BROADBAND, 2, 0.45, 3, 10),
]


@pytest.mark.parametrize("family, orders, theta, seed, restarts", SYNTHESIZE_SOLVES)
def test_solve_reports_D_at_its_wrapped_phases(family, orders, theta, seed, restarts):
    config = SolverConfig(rng_seed=seed, max_restarts=restarts)
    result = solve_with_escalation(family, orders, theta * pi, config)
    assert result.converged
    assert result.residual_D.hex() == objective_D(result.problem, _stored_phases(result)).hex()


def test_solve_recomputes_D_when_the_wrap_moves_a_phase(monkeypatch):
    polished = polish(catalog.broadband(3), 3)
    moved = np.array(_stored_phases(polished)) + 2.0 * pi
    partials = []

    def counting(*args):
        partials.append(args[5])
        return residual_rows(*args)

    monkeypatch.setattr(solver, "residual_rows", counting)
    config = SolverConfig(max_restarts=1, initial_phases=tuple(moved))
    result = solve(polished.problem, config)
    assert result.converged and result.iterations_used == 0
    # D at the start, then at the wrapped phases
    assert partials == [False, False]
    assert result.residual_D.hex() == objective_D(result.problem, np.mod(moved, 2.0 * pi)).hex()


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
    {"max_newton_iters": 2.5},
    {"max_restarts": 3.0},
    {"rng_seed": -1},
    {"rng_seed": 1.5},
    {"rng_seed": None},
])
def test_solver_config_rejects_invalid_budgets(kwargs):
    with pytest.raises(ValidationError):
        SolverConfig(**kwargs)


def test_solver_config_accepts_numpy_integers():
    config = SolverConfig(
        max_newton_iters=np.int64(60), max_restarts=np.int32(3), rng_seed=np.uint8(7))
    assert solve(broadband_problem(1, TH, 2, free_terminal=True), config).converged


@pytest.mark.parametrize("stage_restarts", [0, -3, 2.5, 3.0, None])
def test_escalation_rejects_empty_stage_budget(stage_restarts):
    # every stage runs on config.max_restarts, so an empty budget is
    # refused before any stage starts
    with pytest.raises(ValidationError, match="^max_restarts must be an integer of at least 1"):
        solve_with_escalation(FAMILY_BROADBAND, 1, TH, SolverConfig(max_restarts=stage_restarts))


@pytest.mark.parametrize("family, orders, message", [
    (FAMILY_BROADBAND, (3, 2), "^broadband orders must be one integer"),
    (FAMILY_BROADBAND, [3], "^broadband orders must be one integer"),
    (FAMILY_BROADBAND, 1.5, "^broadband orders must be one integer"),
    (FAMILY_BROADBAND, 3.0, "^broadband orders must be one integer"),
    (FAMILY_BROADBAND, None, "^broadband orders must be one integer"),
    (FAMILY_BROADBAND, -1, "^orders must be non-negative"),
    (FAMILY_PASSBAND, 1, "^passband orders must be a pair of integers"),
    (FAMILY_PASSBAND, (1,), "^passband orders must be a pair of integers"),
    (FAMILY_PASSBAND, (1, 1, 1), "^passband orders must be a pair of integers"),
    (FAMILY_PASSBAND, (1, 1.5), "^passband orders must be a pair of integers"),
    (FAMILY_PASSBAND, "11", "^passband orders must be a pair of integers"),
    (FAMILY_PASSBAND, (1, -1), "^orders must be non-negative"),
])
def test_escalation_rejects_malformed_orders(family, orders, message):
    with pytest.raises(ValidationError, match=message):
        solve_with_escalation(family, orders, TH)


def test_escalation_accepts_numpy_integer_orders():
    config = SolverConfig(rng_seed=7, max_restarts=50)
    for family, orders, plain in ((FAMILY_BROADBAND, np.int64(1), 1),
                                  (FAMILY_PASSBAND, (np.int32(1), np.uint8(1)), (1, 1))):
        result = solve_with_escalation(family, orders, TH, config)
        expected = solve_with_escalation(family, plain, TH, config)
        assert result.converged
        assert sequence_to_csv(result.sequence) == sequence_to_csv(expected.sequence)


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
