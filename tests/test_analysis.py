import numpy as np
import pytest
from math import cos, pi

from cpgates import catalog
from cpgates.analysis import (
    ScanResult,
    band_report,
    fidelity,
    infidelity_order,
    scan,
    scan_csv_lines,
    sequence_fidelity,
    tolerance_band,
    trace_overlap,
)
from cpgates.errors import ValidationError
from cpgates.gates import CompositeSequence, PhasedGate, ideal_cphase, sequence_propagator
from cpgates.solver import SolverConfig, polish

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
    with pytest.raises(ValidationError):
        scan(catalog.single(TH), -0.5, 0.5, 1)


def test_scan_csv_format():
    result = scan(catalog.single(TH), -0.1, 0.1, 5)
    lines = scan_csv_lines(result)
    assert lines[0] == "epsilon,fidelity,infidelity"
    assert len(lines) == 6
    cells = lines[1].split(",")
    assert len(cells) == 3
    assert abs(float(cells[0]) + 0.1) < 1e-15


def test_tolerance_band_single_gate():
    band = tolerance_band(catalog.single(TH))
    assert abs(band.symmetric_width() - 0.018) < 1e-3
    assert band.eps_low < 0 < band.eps_high


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
    refined = polish(catalog.broadband(1, TH), 1, SolverConfig())
    assert refined.converged
    slope = infidelity_order(refined.sequence)
    assert abs(slope - 4.0) < 0.2


def test_infidelity_order_bb3_shifted_window():
    refined = polish(catalog.broadband(3, TH), 3, SolverConfig())
    assert refined.converged
    slope = infidelity_order(refined.sequence, (2e-2, 7e-2))
    assert abs(slope - 8.0) < 0.3


def test_infidelity_order_indeterminate_below_floor():
    refined = polish(catalog.broadband(3, TH), 3, SolverConfig())
    # far below the double-precision floor everywhere in this tiny window
    slope = infidelity_order(refined.sequence, (1e-6, 2e-6))
    assert np.isnan(slope)


def test_scan_result_validation():
    with pytest.raises(ValidationError):
        ScanResult((0.0, 0.0), (1.0, 1.0), "x", TH)


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


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 0.0, 1.0, 2.0, -0.1])
def test_tolerance_band_rejects_bad_threshold(threshold):
    with pytest.raises(ValidationError):
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
