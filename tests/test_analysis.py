import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from math import cos, pi

from cpgates import catalog
from cpgates.abserr import wrap_sequence_absolute
from cpgates.analysis import (
    ScanResult,
    ToleranceBand,
    _format_g17,
    band_report,
    fidelity,
    infidelity_order,
    scan,
    scan_csv_text,
    sequence_fidelity,
    tolerance_band,
    trace_overlap,
)
from cpgates.errors import ValidationError
from cpgates.gates import CompositeSequence, PhasedGate, ideal_cphase, sequence_propagator
from oracles import scan_csv_rows

TH = pi / 4


def test_fidelity_identical_matrices():
    u = ideal_cphase(TH)
    assert abs(fidelity(u, u) - 1.0) < 1e-15


def test_fidelity_of_distorted_single_gate_is_cosine():
    # Tr(U(t)^dag U(t(1+e))) = 4 cos(t e)
    for eps in (0.018, 0.1, 0.4):
        got = fidelity(ideal_cphase(TH), ideal_cphase(TH * (1 + eps)))
        assert abs(got - abs(cos(TH * eps))) < 1e-12
    infid = 1 - fidelity(ideal_cphase(TH), ideal_cphase(TH * 1.018))
    assert abs(infid - 1.0e-4) < 2e-6


def test_fidelity_global_phase_invariance():
    u = ideal_cphase(TH)
    assert abs(fidelity(u, -u) - 1.0) < 1e-15
    assert abs(fidelity(u, np.exp(0.7j) * u) - 1.0) < 1e-14


def test_fidelity_symmetry():
    a = ideal_cphase(TH)
    b = sequence_propagator(catalog.broadband(1, TH), 0.3)
    assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-14


def test_fidelity_rejects_non_unitary():
    with pytest.raises(ValidationError):
        fidelity(np.ones((4, 4)), np.eye(4))


def test_trace_overlap_keeps_phase():
    u = ideal_cphase(TH)
    z = trace_overlap(u, -u)
    assert abs(z + 1.0) < 1e-14


def test_scan_single_gate_closed_form():
    result = scan(catalog.single(TH), -1.0, 1.0, 201)
    for e, f in zip(result.epsilons, result.fidelities):
        assert abs(f - abs(cos(TH * e))) < 1e-12


def test_scan_symmetric_for_single_gate():
    result = scan(catalog.single(TH), -0.5, 0.5, 101)
    fids = np.asarray(result.fidelities)
    assert np.allclose(fids, fids[::-1], atol=1e-12)


def test_scan_bb2_exact_at_zero():
    result = scan(catalog.broadband(2, TH), -0.1, 0.1, 3)
    assert abs(result.fidelities[1] - 1.0) < 1e-12


def test_scan_pb22_identity_at_minus_one():
    seq = catalog.passband(2, 2, TH)
    result = scan(seq, -1.001, -0.999, 3, reference=np.eye(4, dtype=complex))
    assert result.fidelities[1] >= 1 - 1e-12


def test_scan_validation():
    with pytest.raises(ValidationError):
        scan(catalog.single(TH), 0.5, -0.5, 10)
    for steps in (1, np.int64(1), 2.5, 5.0, "5", None):
        with pytest.raises(ValidationError, match="steps must be an integer of at least 2"):
            scan(catalog.single(TH), -0.5, 0.5, steps)
    assert len(scan(catalog.single(TH), -0.5, 0.5, np.int64(5)).epsilons) == 5


def test_scan_stores_python_floats():
    result = scan(catalog.broadband(2, TH), -0.5, 0.5, 11)
    assert all(type(v) is float for v in result.epsilons + result.fidelities)


def test_scan_csv_format():
    # every cell equals the per-row "%" formatting, byte for byte
    results = [scan(catalog.by_name(name), -1.0, 1.0, 401) for name in catalog.NAMES]
    results.append(scan(catalog.passband(2, 2), -1.05, -0.95, 101, reference=np.eye(4)))
    results.append(scan(wrap_sequence_absolute(catalog.broadband(2)), -1.0, 1.0, 201, xi=0.1 * pi))
    narrow = scan(catalog.broadband(1), -1e-3, 1e-3, 21)
    results.append(narrow)
    infidelities = [row.split(",")[2] for row in scan_csv_text(narrow).splitlines()[1:]]
    assert all("e-" in cell for cell in infidelities if cell != "0")
    for result in results:
        assert scan_csv_text(result) == scan_csv_rows(result), result.label


def _percent_g17(values) -> str:
    return "," + ",".join(map("%.17g".__mod__, values))


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(1.7976931348623157e308)
@example(2.0**-25)
@example(float(np.nextafter(1e-4, 0.0)))
@example(1e-4)
@example(float(np.nextafter(1e17, 0.0)))
@example(0.99999999999999995)
@example(1 - 2.0**-53)
@example(-2.220446049250313e-16)
@example(1e-14)  # below 10^-14, its 17 digits round up to 10^17
@example(9.9999999999999982)  # the largest cell laid out at X = 0; 10.0 goes to %
@example(10.0)
@example(1e16)
@example(1e17)  # the first X of scientific notation above the point-inside range
@example(1e-5)
@example(1.5e-4)
@example(-0.1)
@example(1.0000000000000002)
def test_format_g17_matches_percent(x):
    assert _format_g17(np.array([[x]]), ",") == _percent_g17([x])


def test_format_g17_sweep():
    # 2e5 random bit patterns, three quarters with the exponent in the
    # kernel's window (1e-30 .. 1e30), then values of uniform and tiny size
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2**64, 50_000, dtype=np.uint64).view(np.float64)
    window = rng.integers(0, 2**64, 150_000, dtype=np.uint64) & np.uint64(0x800F_FFFF_FFFF_FFFF)
    window |= rng.integers(923, 1124, 150_000, dtype=np.uint64) << np.uint64(52)
    tiny = rng.choice([-1.0, 1.0], 25_000) * 10.0 ** rng.uniform(-17, -15, 25_000)
    x = np.concatenate([bits, window.view(np.float64), rng.uniform(0.0, 1.0, 25_000), tiny])
    x = x[np.isfinite(x)]
    assert _format_g17(x[:, None], ",") == _percent_g17(x.tolist())


def test_format_g17_scan_rows_sweep():
    # (N, 3) rows with the scan's separators: grid points of every size
    # the kernel lays out or leaves to %, fidelities and infidelities
    rng = np.random.default_rng(36)
    n = 20_000
    eps = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8, 20, n)
    eps[rng.random(n) < 0.05] = 0.0
    f = rng.uniform(0.0, 1.0, n) ** rng.choice([1.0, 1e-9, 1e9], n)
    cells = np.column_stack([eps, f, 1.0 - f])
    want = "".join("\n" + ",".join(map("%.17g".__mod__, row)) for row in cells.tolist())
    assert _format_g17(cells, "\n,,") == want


def test_tolerance_band_single_gate():
    band = tolerance_band(catalog.single(TH))
    assert abs(band.symmetric_width() - 0.018) < 1e-3
    assert band.eps_low < 0 < band.eps_high
    assert all(type(v) is float for v in (band.eps_low, band.eps_high, band.threshold))
    assert "np.float64" not in repr(band)


def test_tolerance_band_report_format():
    band = tolerance_band(catalog.single(TH))
    text = band_report(band)
    assert text.startswith("band_low=")
    assert "band_high=" in text and "threshold=" in text


def test_tolerance_band_rejects_broken_sequence():
    seq = catalog.single(TH).with_phis([1.0])  # wrong phase, fails at eps=0
    bad = seq.with_phis([0.0])
    from dataclasses import replace

    broken = replace(bad, target_theta=TH + 0.3)
    with pytest.raises(ValidationError):
        tolerance_band(broken)


def test_infidelity_order_single_gate():
    slope = infidelity_order(catalog.single(TH))
    assert abs(slope - 2.0) < 0.05


def test_infidelity_order_bb1():
    slope = infidelity_order(catalog.broadband(1, TH))
    assert abs(slope - 4.0) < 0.2


def test_infidelity_order_bb3_shifted_window():
    slope = infidelity_order(catalog.broadband(3, TH), (2e-2, 7e-2))
    assert abs(slope - 8.0) < 0.3


def test_infidelity_order_indeterminate_below_floor():
    # far below the double-precision floor everywhere in this tiny window
    slope = infidelity_order(catalog.broadband(3, TH), (1e-6, 2e-6))
    assert np.isnan(slope)


def test_scan_result_validation():
    with pytest.raises(ValidationError):
        ScanResult((0.0, 0.0), (1.0, 1.0), "x", TH)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("eps, fids", [
    ((NAN, NAN), (NAN, 1.0)), ((0.0, NAN, 0.2), (1.0, 1.0, 1.0)), ((NAN,), (1.0,)),
    ((0.0, INF), (1.0, 1.0)), ((-INF, 0.0), (1.0, 1.0)), ((0.0, 0.1), (1.0, NAN)),
    ((0.0, 0.1), (INF, 1.0)), (np.array([0.0, 0.1]), np.array([NAN, NAN])),
])
def test_scan_result_rejects_non_finite_values(eps, fids):
    # a NaN compares false, so each check must pass only values that satisfy it
    with pytest.raises(ValidationError, match="finite and strictly increasing|in \\[0, 1\\]"):
        ScanResult(eps, fids, "x", 0.1)


@pytest.mark.parametrize("low, high, threshold", [
    (-0.1, INF, NAN), (-0.1, INF, 1e-4), (-INF, 0.1, 1e-4), (-0.1, 0.1, NAN),
    (NAN, 0.1, 1e-4), (-0.1, 0.1, INF),
])
def test_tolerance_band_rejects_non_finite_values(low, high, threshold):
    with pytest.raises(ValidationError, match="must be finite"):
        ToleranceBand(low, high, threshold)


def test_band_widths_widen_with_order():
    widths = []
    for n in (1, 2):
        seq = catalog.broadband(n, TH)
        widths.append(tolerance_band(seq).symmetric_width())
    assert widths[1] > widths[0]


def test_fidelity_curves_even_in_epsilon():
    # not assumed: measured on every catalog entry
    entries = [catalog.broadband(n) for n in catalog.BROADBAND_ORDERS]
    entries += [catalog.passband(n1, n2) for n1, n2 in catalog.PASSBAND_ORDERS]
    grid = np.linspace(0.01, 0.3, 15)
    for seq in entries:
        asym = max(
            abs(sequence_fidelity(seq, e) - sequence_fidelity(seq, -e)) for e in grid
        )
        assert asym < 1e-12, seq.label


@pytest.mark.parametrize(
    "threshold", [float("nan"), float("inf"), 0.0, 1.0, 2.0, -0.1, 1e-15, 1e-300, 5e-324]
)
def test_tolerance_band_rejects_bad_threshold(threshold):
    # below INFIDELITY_FLOOR = 1e-14, 1 - F is rounding noise: BB2's edges
    # at 1e-16 came out lopsided although its curve is even in eps
    with pytest.raises(ValidationError, match=r"\[1e-14, 1\)"):
        tolerance_band(catalog.single(TH), threshold=threshold)


def test_tolerance_band_flags_eps_limit():
    # a single gate at pi/4 never loses 90% fidelity within |eps| <= 1.5,
    # so both sides reach the limit without a crossing
    band = tolerance_band(catalog.single(TH), 0.9)
    assert (band.eps_low, band.eps_high) == (-1.5, 1.5)
    assert band.sides_at_limit() == ("low", "high")
    assert tolerance_band(catalog.single(TH)).sides_at_limit() == ()
    # a 0.006 rad gate against the identity crosses 1e-4 on the high side only
    band = tolerance_band(CompositeSequence((PhasedGate(0.006, 0.0),), target_theta=0.0))
    assert (band.eps_low, band.eps_high) == (-1.5, 1.3570312499999613)
    assert band.sides_at_limit() == ("low",)
