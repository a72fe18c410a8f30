"""Property tests for the 2x2 block kernel behind the 4x4 propagators,
scans and band searches."""

from dataclasses import replace
from math import pi

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cpgates import analysis, catalog, gates, iontrap
from cpgates.analysis import fidelity, infidelity_order, scan, sequence_fidelity, tolerance_band
from cpgates.errors import ValidationError
from cpgates.gates import CompositeSequence, PhasedGate, ideal_cphase, sequence_propagator
from cpgates.linalg import frobenius_norm
from oracles import (
    branch_sum_dense, embed_blocks_4x4, scalar_march_band, sequence_blocks_per_gate,
    sequence_product_propagator,
)

angles = st.floats(-2 * pi, 2 * pi)
phases = st.floats(0.0, 2 * pi)
epsilons = st.one_of(st.just(-1.0), st.floats(-2.0, 2.0))
offsets = st.floats(-1.0, 1.0)
non_finite = st.sampled_from([float("nan"), float("inf"), float("-inf")])


@st.composite
def sequences(draw, max_gates=8):
    gates = draw(st.lists(st.builds(PhasedGate, angles, phases), min_size=1, max_size=max_gates))
    return CompositeSequence(gates=tuple(gates), terminal_phase=draw(st.floats(-pi, pi)))


#: Basis change to the sigma_x eigenbasis of qubit 1.
SIGMA_X_BASIS = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2), np.eye(2))


@st.composite
def unitaries(draw):
    """Random 4x4 unitary (QR of a random complex matrix)."""
    flat = draw(st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32))
    m = np.array(flat[:16]).reshape(4, 4) + 1j * np.array(flat[16:]).reshape(4, 4)
    q, _ = np.linalg.qr(m + 2.0 * np.eye(4))  # shifted to stay well conditioned
    return q


@given(sequences(), epsilons, offsets)
def test_block_embedding_equals_gate_product(seq, eps, xi):
    got = sequence_propagator(seq, eps, xi)
    assert frobenius_norm(got - sequence_product_propagator(seq, eps, xi)) < 1e-14


@settings(max_examples=40)
@given(st.floats(-2 * pi, 2 * pi), st.sampled_from([1, 2, 2 * (22 + 1)]), st.integers(0, 2**32 - 1))
def test_branch_sum_equals_dense_kron_sum(zp, size, seed):
    # a scalar block, a gate's 2x2 block, and ion 1's block at n_max = 22
    rng = np.random.default_rng(seed)
    blocks = rng.normal(size=(2, size, size)) + 1j * rng.normal(size=(2, size, size))
    got = gates._from_branches(zp, blocks)
    assert np.max(np.abs(got - branch_sum_dense(zp, blocks))) < 1e-14
    assert iontrap._from_branches is gates._from_branches


@given(st.integers(0, 2**32 - 1), st.sampled_from([(), (3,), (2, 5)]))
def test_embedding_equals_the_direct_formula_bit_for_bit(seed, batch):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=batch + (2, 2)) + 1j * rng.normal(size=batch + (2, 2))
    # exact zeros, as in the blocks of identities and of real or imaginary gates
    v[rng.random(v.shape) < 0.2] = 0.0
    v.real[rng.random(v.shape) < 0.2] = 0.0
    v.imag[rng.random(v.shape) < 0.2] = 0.0
    got, want = gates._embed_blocks(v), embed_blocks_4x4(v)
    assert got.shape == want.shape == batch + (4, 4)
    assert got.tobytes() == want.tobytes()


@st.composite
def repeating_sequences(draw):
    """Sequences of up to 12 gates whose angles come from a pool of at
    most three, which may hold negative angles and both signed zeros."""
    pool = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0]), angles),
                         min_size=1, max_size=3))
    thetas = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    gates = tuple(PhasedGate(t, draw(phases)) for t in thetas)
    return CompositeSequence(gates=gates, terminal_phase=draw(st.floats(-pi, pi)))


@settings(max_examples=150)
@given(repeating_sequences(), st.lists(epsilons, min_size=1, max_size=5),
       st.one_of(st.sampled_from([0.0, -0.0]), offsets))
# at eps = -1 and xi = -0.0 the gate angles are the signed zeros of theta
@example(CompositeSequence(gates=(PhasedGate(0.0, 1.0), PhasedGate(-0.0, 2.0),
                                  PhasedGate(-pi / 2, 0.5), PhasedGate(pi / 2, 0.5),
                                  PhasedGate(-0.0, 3.0))),
         [-1.0, 0.0, 0.25], -0.0)
def test_sequence_blocks_equal_per_gate_oracle_bit_for_bit(seq, eps, xi):
    # cos t and i sin t are shared between gates of the same angle only
    got = gates._sequence_blocks(seq, eps, xi)
    assert got.tobytes() == sequence_blocks_per_gate(seq, eps, xi).tobytes()


def test_default_target_block_equals_the_block_of_the_4x4_target(monkeypatch):
    built = []

    def spy(a, b):
        built.append(gates._blocks(a, b))
        return built[-1]

    monkeypatch.setattr(analysis, "_blocks", spy)
    special = [0.0, pi / 4, -pi / 4, pi / 2, pi, -pi, 3 * pi, 1e-300]
    for theta in special + list(np.random.default_rng(3).uniform(-4 * pi, 4 * pi, 200)):
        seq = CompositeSequence(gates=(PhasedGate(pi / 4, 0.0),), target_theta=theta)
        analysis._fidelities(seq, [0.0, 0.1])
        np.testing.assert_array_equal(built[-1], analysis._reference_block(ideal_cphase(theta)))
    assert len(built) == len(special) + 200


@settings(max_examples=50)
@given(sequences(max_gates=5), unitaries(), offsets)
def test_scan_with_general_reference_matches_pointwise_fidelity(seq, ref, xi):
    # only references that mix the two sigma_x blocks of qubit 1
    assume(frobenius_norm((SIGMA_X_BASIS @ ref @ SIGMA_X_BASIS)[:2, 2:]) > 0.05)
    result = scan(seq, -1.2, 0.8, 21, xi=xi, reference=ref)
    for e, f in zip(result.epsilons, result.fidelities):
        assert abs(f - fidelity(ref, sequence_product_propagator(seq, e, xi))) < 1e-14


def overrotated(seq, factor):
    """``seq`` with every gate angle scaled by ``factor``: its infidelity
    curve is that of ``seq`` moved off eps = 0, so its band is lopsided."""
    return replace(seq, gates=tuple(PhasedGate(g.theta * factor, g.phi) for g in seq.gates))


BAND_SEQUENCES = [
    lambda th: catalog.single(th),
    lambda th: catalog.broadband(1, th),
    lambda th: catalog.broadband(2, th),
    lambda th: catalog.passband(1, 1, th),
    # tabulated at pi/4 only
    lambda th: catalog.broadband(6, pi / 4),
    lambda th: catalog.passband(3, 3, pi / 4),
    lambda th: overrotated(catalog.broadband(2, th), 1.05),
]


def each_band_sequence_at(*thresholds):
    """Explicit examples: every BAND_SEQUENCES entry at pi/4 and each threshold."""
    def wrap(test):
        for make in BAND_SEQUENCES:
            for threshold in thresholds:
                test = example(make, pi / 4, threshold)(test)
        return test
    return wrap


@settings(max_examples=35)
@given(
    st.sampled_from(BAND_SEQUENCES),
    st.floats(0.1 * pi, 0.45 * pi),
    st.sampled_from([1e-4, 1e-3, 1e-2, 0.3, 0.9]),
)
@each_band_sequence_at(1e-4, 0.9)
@example(BAND_SEQUENCES[0], pi / 4, 1e-6)  # crosses at 0.0018, below the first probe
def test_batched_band_equals_scalar_march(make, theta, threshold):
    seq = make(theta)
    band = tolerance_band(seq, threshold)
    assert (band.eps_low, band.eps_high) == scalar_march_band(seq, threshold, 1.5, 1e-3, 1e-4)


@settings(max_examples=30)
@given(st.floats(0.006, 0.012))
@example(0.006)
def test_batched_band_with_one_side_at_eps_limit(angle):
    # one small gate against the identity: 1 - F = 1 - cos(angle (1 + eps))
    # crosses 1e-4 only at eps = 0.01414 / angle - 1 <= 1.357, so the high
    # side is bisected alone while the low side marches to EPS_LIMIT
    seq = CompositeSequence((PhasedGate(angle, 0.0),), target_theta=0.0)
    band = tolerance_band(seq)
    assert band.sides_at_limit() == ("low",)
    assert (band.eps_low, band.eps_high) == scalar_march_band(seq, 1e-4, 1.5, 1e-3, 1e-4)


def count_fidelity_calls(monkeypatch):
    """Sizes of the ``analysis._fidelities`` calls made from now on."""
    calls = []
    fidelities = analysis._fidelities

    def spy(seq, epsilons, *args, **kwargs):
        calls.append(np.size(epsilons))
        return fidelities(seq, epsilons, *args, **kwargs)

    monkeypatch.setattr(analysis, "_fidelities", spy)
    return calls


def test_band_search_work(monkeypatch):
    # a probe pass, a march to the first over-threshold probe and one
    # bisection pass: BB1 crosses 1e-4 at |eps| = 0.109 (probe 0.110),
    # BB6 at 0.454 (probe 0.504); a single gate never loses 90 % within
    # EPS_LIMIT, so it marches the whole grid and bisects nothing
    calls = count_fidelity_calls(monkeypatch)
    for seq, threshold, passes, most_points in (
        (catalog.broadband(1, pi / 4), 1e-4, 3, 301),
        (catalog.broadband(6, pi / 4), 1e-4, 3, 1089),
        (catalog.single(pi / 4), 0.9, 2, 3051),
    ):
        calls.clear()
        tolerance_band(seq, threshold)
        assert len(calls) == passes and sum(calls) <= most_points, (seq.label, calls)


def test_probe_ladder_bounds_the_march():
    # each probe is at most round(1.25 x) the one before, so the march to
    # the first over-threshold probe overshoots a crossing by 25 % at most
    p = analysis._PROBES.tolist()
    assert p[0] <= 8 and p[-1] == len(analysis._MARCH_GRID) - 1
    assert all(a < b <= round(1.25 * a) for a, b in zip(p, p[1:]))


def test_band_at_the_infidelity_floor_equals_scalar_march():
    for seq in (catalog.single(pi / 4), catalog.broadband(1, pi / 4), catalog.broadband(2, pi / 4)):
        band = tolerance_band(seq, analysis.INFIDELITY_FLOOR)
        expected = scalar_march_band(seq, analysis.INFIDELITY_FLOOR, 1.5, 1e-3, 1e-4)
        assert (band.eps_low, band.eps_high) == expected, seq.label


def _synthetic_curves():
    """Infidelity curves (threshold 1e-4) that test the search logic, each
    an exact function of eps."""
    grid, probes = analysis._MARCH_GRID, analysis._PROBES.tolist()
    # a spike over only the grid point midway between two probes, then a
    # broad crossing at 0.9
    a, b = next((a, b) for a, b in zip(probes, probes[1:]) if b - a >= 4)
    spike = grid[(a + b) // 2]
    on_probe = grid[probes[10]] - 1e-4  # the first grid point past it is a probe
    return {
        "spike-between-probes": (
            lambda e: np.where(np.abs(np.abs(e) - spike) < 4e-4, 2e-4, 0.0) + 1e-4 * (e / 0.9) ** 2,
            spike - 4e-4,
        ),
        # and with no probe over the threshold on either side
        "spike-alone": (lambda e: np.where(np.abs(np.abs(e) - spike) < 4e-4, 2e-4, 0.0), spike - 4e-4),
        "below-first-probe": (lambda e: 1e-4 * (e / 0.0042) ** 2, 0.0042),
        "at-a-probe": (lambda e: 1e-4 * (e / on_probe) ** 2, on_probe),
        "one-side-only": (lambda e: 1e-4 * (np.maximum(e, 0.0) / 0.31) ** 2, 0.31),
    }


@pytest.mark.parametrize("name", sorted(_synthetic_curves()))
def test_band_search_on_synthetic_curves(monkeypatch, name):
    infid, crossing = _synthetic_curves()[name]

    def fidelities(seq, epsilons, *args, **kwargs):
        return 1.0 - infid(np.atleast_1d(np.asarray(epsilons, dtype=float)))

    monkeypatch.setattr(analysis, "_fidelities", fidelities)
    seq = catalog.single(pi / 4)  # ignored by the curves
    calls = count_fidelity_calls(monkeypatch)
    band = tolerance_band(seq, 1e-4)
    assert len(calls) == 3
    assert (band.eps_low, band.eps_high) == scalar_march_band(seq, 1e-4, 1.5, 1e-3, 1e-4)
    assert abs(band.eps_high - crossing) <= 6.25e-5
    if name == "one-side-only":
        assert band.sides_at_limit() == ("low",)
    else:
        assert band.eps_low == -band.eps_high


@given(non_finite, st.booleans())
def test_non_finite_errors_raise(bad, as_xi):
    seq = catalog.broadband(1, pi / 4)
    eps, xi = (0.1, bad) if as_xi else (bad, 0.0)
    with pytest.raises(ValidationError):
        sequence_propagator(seq, eps, xi)
    with pytest.raises(ValidationError):
        sequence_fidelity(seq, eps, xi)
    if as_xi:
        with pytest.raises(ValidationError):
            scan(seq, -0.5, 0.5, 11, xi=xi)
        with pytest.raises(ValidationError):
            infidelity_order(seq, xi=xi)
