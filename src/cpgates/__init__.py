"""Composite two-qubit controlled-phase gates robust to rotation-angle
errors: sequence catalog, residual conditions, phase solver, fidelity
analysis, absolute-error composites and a trapped-ion physical model.

The namespace is lazy (PEP 562): ``import cpgates`` loads no submodule.
Each name of ``__all__`` and each submodule is imported on first access,
so a command-line run loads only the modules its subcommand runs."""

import importlib

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

#: name -> the submodule that defines it; each submodule maps to itself
_ORIGIN = {
    "TruncationError": "errors", "ValidationError": "errors",
    "CompositeSequence": "gates", "PhasedGate": "gates", "convert_phase_conventions": "gates",
    "ideal_cphase": "gates", "interleaved_from_phases": "gates", "phase_gate": "gates",
    "phased_cphase": "gates", "sequence_propagator": "gates",
    "broadband": "catalog", "passband": "catalog", "single": "catalog",
    "ResidualVector": "derivatives", "broadband_residuals": "derivatives",
    "derivative_sequence": "derivatives", "narrowband_residuals": "derivatives",
    "SolverConfig": "solver", "SolverProblem": "solver", "SolverResult": "solver",
    "objective_D": "solver", "polish": "solver", "solve": "solver",
    "solve_with_escalation": "solver",
    "ScanResult": "analysis", "ToleranceBand": "analysis", "fidelity": "analysis",
    "infidelity_order": "analysis", "scan": "analysis", "sequence_fidelity": "analysis",
    "tolerance_band": "analysis",
    "AbsoluteComposite": "abserr", "wrap_sequence_absolute": "abserr",
    "TrapConfig": "iontrap", "analytic_propagator": "iontrap",
    "composite_physical_gate": "iontrap", "evolve_numerical": "iontrap",
    "rotation_angle": "iontrap", "two_pulse_gate": "iontrap",
    "read_sequence": "seqio", "sequence_from_csv": "seqio", "sequence_to_csv": "seqio",
    "abserr": "abserr", "analysis": "analysis", "catalog": "catalog", "cli": "cli",
    "derivatives": "derivatives", "errors": "errors", "gates": "gates", "iontrap": "iontrap",
    "linalg": "linalg", "seqio": "seqio", "solver": "solver",
}


def __getattr__(name: str):
    """Import ``name``'s submodule on first access and bind the name here,
    so later reads skip this hook."""
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_ORIGIN[name]}")
    value = globals()[name] = module if _ORIGIN[name] == name else getattr(module, name)
    return value
