import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from math import pi

from cpgates import catalog
from cpgates.analysis import sequence_fidelity
from cpgates.errors import ValidationError
from cpgates.gates import CompositeSequence, PhasedGate, sequence_propagator
from cpgates.seqio import sequence_from_csv, sequence_to_csv
from cpgates.solver import SolverConfig, polish
from oracles import (
    BROADBAND_TOTAL_ANGLES, PUBLISHED, broadband_problem, passband_problem, published_entry,
)


@pytest.mark.parametrize("n", catalog.BROADBAND_ORDERS)
def test_broadband_zero_error_fidelity(n):
    assert sequence_fidelity(catalog.broadband(n, pi / 4)) >= 1 - 1e-12


@pytest.mark.parametrize("orders", catalog.PASSBAND_ORDERS)
def test_passband_zero_error_fidelity(orders):
    assert sequence_fidelity(catalog.passband(*orders, pi / 4)) >= 1 - 1e-12


#: largest distance of a stored phase or terminal from its published
#: decimal, modulo 2 pi, in thousandths of pi (measured, rounded up)
PUBLISHED_DISTANCE = {"bb3": 0.82, "bb4": 2.25, "bb5": 2.46, "bb6": 2.18, "pb13": 0.52,
                      "pb33": 0.42}


def _phase_distance(a, b):
    """Largest distance modulo 2 pi between the phases and terminals of
    two sequences of the same skeleton."""
    x = np.append(a.phis(), a.terminal_phase) - np.append(b.phis(), b.terminal_phase)
    return np.max(np.abs(np.mod(x + pi, 2 * pi) - pi))


@pytest.mark.parametrize("name", sorted(PUBLISHED))
def test_tabulated_phases_refine_the_published_decimals(name):
    _, n1, n2 = catalog.NAMES[name]
    seq, published = catalog.by_name(name), published_entry(name)
    assert _phase_distance(seq, published) <= PUBLISHED_DISTANCE[name] * 1e-3 * pi
    config = SolverConfig(residual_tolerance=1e-13)
    refined = polish(published, (n1, n2), config)
    assert refined.converged and _phase_distance(refined.sequence, seq) <= 1e-12
    again = polish(seq, (n1, n2), config)
    assert again.converged and again.iterations_used == 0


@pytest.mark.parametrize("theta", [pi / 8, pi / 4, pi / 2])
@pytest.mark.parametrize("n", [1, 2])
def test_parametric_broadband_any_theta(n, theta):
    assert sequence_fidelity(catalog.broadband(n, theta)) >= 1 - 1e-12


@pytest.mark.parametrize("orders", [(1, 1), (2, 2), (2, 1), (1, 2)])
@pytest.mark.parametrize("theta", [pi / 8, pi / 4, pi / 2])
def test_parametric_passband_any_theta(orders, theta):
    assert sequence_fidelity(catalog.passband(*orders, theta)) >= 1 - 1e-12


@pytest.mark.parametrize("n", catalog.BROADBAND_ORDERS)
def test_broadband_total_angles_exact(n):
    seq = catalog.broadband(n, pi / 4)
    assert abs(seq.total_angle() - BROADBAND_TOTAL_ANGLES[n] * pi) < 1e-12


def test_fixed_point_entries_require_quarter_pi():
    with pytest.raises(ValidationError):
        catalog.broadband(3, pi / 2)
    with pytest.raises(ValidationError):
        catalog.passband(3, 3, pi / 8)


def test_unknown_orders_rejected():
    with pytest.raises(ValidationError):
        catalog.broadband(7)
    with pytest.raises(ValidationError):
        catalog.passband(4, 4)


def test_passband_totals():
    # pi-chain entries: theta + N*pi; half-pi entries: theta + N*pi/2
    theta = pi / 4
    assert abs(catalog.passband(1, 1, theta).total_angle() - (2 * pi + theta)) < 1e-12
    assert abs(catalog.passband(2, 2, theta).total_angle() - (4 * pi + theta)) < 1e-12
    assert abs(catalog.passband(2, 1, theta).total_angle() - (3 * pi + theta)) < 1e-12
    assert abs(catalog.passband(1, 2, theta).total_angle() - (3 * pi + theta)) < 1e-12
    assert abs(catalog.passband(1, 3, theta).total_angle() - 4.25 * pi) < 1e-12
    assert abs(catalog.passband(3, 3, theta).total_angle() - 5.75 * pi) < 1e-12


@pytest.mark.parametrize("n", catalog.BROADBAND_ORDERS)
def test_csv_round_trip_broadband(n):
    seq = catalog.broadband(n, pi / 4)
    back = sequence_from_csv(sequence_to_csv(seq))
    assert len(back.gates) == len(seq.gates)
    assert np.allclose([g.theta for g in back.gates], [g.theta for g in seq.gates])
    assert np.allclose([g.phi for g in back.gates], [g.phi for g in seq.gates])
    assert abs(back.terminal_phase - seq.terminal_phase) < 1e-15
    assert abs(back.target_theta - seq.target_theta) < 1e-15
    assert back.family == seq.family
    assert np.linalg.norm(sequence_propagator(back, 0.17) - sequence_propagator(seq, 0.17)) < 1e-12


def test_csv_rejects_bad_header_and_labels():
    with pytest.raises(ValidationError):
        sequence_from_csv("a,b,c\n0,0.25,0\n")
    good = sequence_to_csv(catalog.single())
    with pytest.raises(ValidationError):
        sequence_from_csv(good + "mystery,1,2\n")
    # a repeated metadata row would silently overrule the first one
    for row in ("target,0.3,", "terminal,,0.5", "family,broadband,"):
        with pytest.raises(ValidationError, match="repeated"):
            sequence_from_csv(good + f"{row}\n{row}\n")


def test_csv_rejects_a_fourth_cell_but_not_an_empty_one():
    header = "index,theta_over_pi,phi_over_pi\n"
    for extra in ("99", " 0 "):
        for row in (f"0,0.25,0,{extra}", f"0,0.25,0\nterminal,,0.5,{extra}",
                    f"0,0.25,0\ntarget,0.3,,,{extra}"):
            with pytest.raises(ValidationError, match="at most three cells"):
                sequence_from_csv(header + row + "\n")
    seq = sequence_from_csv(header + "0,0.25,0,\n1,0.5,1, \n")
    assert [(g.theta, g.phi) for g in seq.gates] == [(0.25 * pi, 0.0), (0.5 * pi, pi)]


#: gate phases, tiny negative ones included: np.mod(-1e-16, 2 pi) rounds to 2 pi
csv_phases = st.one_of(st.floats(-4 * pi, 4 * pi), st.floats(-1e-14, 0.0))


@given(
    st.lists(st.builds(PhasedGate, st.floats(-2 * pi, 2 * pi), csv_phases), min_size=1, max_size=6),
    st.floats(-pi, pi),
    st.floats(-2 * pi, 2 * pi),
    st.sampled_from(["single", "broadband", "passband", "combined"]),
)
@example([PhasedGate(0.5, -1e-16)], 0.0, 0.5, "single")
def test_csv_round_trip_is_a_fixed_point(gates, terminal, target, family):
    text = sequence_to_csv(CompositeSequence(tuple(gates), terminal, target, family))
    back = sequence_from_csv(text)
    assert sequence_to_csv(back) == text
    assert all(0.0 <= g.phi < 2 * pi for g in gates + list(back.gates))


def test_provenance_labels_and_names():
    assert broadband_problem(3, pi / 4, 6).label() == catalog.broadband(3).label == "BB3"
    assert passband_problem(1, 3, pi / 4, 8).label() == catalog.passband(1, 3).label == "PB(1,3)"
    with pytest.raises(ValidationError) as err:
        catalog.by_name("bb9")
    assert str(err.value) == (
        "unknown catalog entry 'bb9'; choose from ['bb1', 'bb2', 'bb3', 'bb4', 'bb5', "
        "'bb6', 'pb11', 'pb12', 'pb13', 'pb21', 'pb22', 'pb33', 'single']"
    )
