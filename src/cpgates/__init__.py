"""Composite two-qubit controlled-phase gates robust to rotation-angle
errors: sequence catalog, residual conditions, phase solver, fidelity
analysis, absolute-error composites and a trapped-ion physical model."""

from .errors import TruncationError, ValidationError
from .gates import (
    CompositeSequence,
    PhasedGate,
    convert_phase_conventions,
    ideal_cphase,
    interleaved_from_phases,
    phase_gate,
    phased_cphase,
    sequence_propagator,
)
from .catalog import broadband, passband, single
from .derivatives import (
    ResidualVector,
    broadband_residuals,
    derivative_sequence,
    narrowband_residuals,
)
from .solver import (
    SolverConfig,
    SolverProblem,
    SolverResult,
    objective_D,
    polish,
    solve,
    solve_with_escalation,
)
from .analysis import (
    ScanResult,
    ToleranceBand,
    fidelity,
    infidelity_order,
    scan,
    sequence_fidelity,
    tolerance_band,
)
from .abserr import AbsoluteComposite, wrap_sequence_absolute
from .iontrap import TrapConfig, analytic_propagator, composite_physical_gate, evolve_numerical, rotation_angle, two_pulse_gate
from .seqio import read_sequence, sequence_from_csv, sequence_to_csv

__version__ = "0.1.0"

__all__ = [
    "TruncationError", "ValidationError",
    "CompositeSequence", "PhasedGate", "convert_phase_conventions", "ideal_cphase",
    "interleaved_from_phases", "phase_gate", "phased_cphase", "sequence_propagator",
    "broadband", "passband", "single",
    "ResidualVector", "broadband_residuals", "derivative_sequence", "narrowband_residuals",
    "SolverConfig", "SolverProblem", "SolverResult", "objective_D", "polish", "solve",
    "solve_with_escalation",
    "ScanResult", "ToleranceBand", "fidelity", "infidelity_order", "scan", "sequence_fidelity",
    "tolerance_band",
    "AbsoluteComposite", "wrap_sequence_absolute",
    "TrapConfig", "analytic_propagator", "composite_physical_gate", "evolve_numerical",
    "rotation_angle", "two_pulse_gate",
    "read_sequence", "sequence_from_csv", "sequence_to_csv",
]
