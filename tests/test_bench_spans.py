"""The benchmark's span recorder still finds and wraps the layer functions
it traces: it rebinds them from outside the program, so a renamed
function or a name that stops being a module global would silently drop
its spans from the traced pass."""

import importlib
import importlib.util
from math import pi
from pathlib import Path

import pytest

from cpgates import derivatives, iontrap, solver
from cpgates.catalog import broadband
from cpgates.cli import main
from oracles import broadband_problem

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(spans):
    for module_name, attr, _, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def test_recorder_traces_derivative_stack_and_integrator(spans):
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        problem = broadband_problem(1, pi / 4, 2, free_terminal=True)
        solver.solve(problem, solver.SolverConfig(rng_seed=7, max_restarts=3))
        derivatives.derivative_sequence(broadband(2), 1)
        cfg = iontrap.TrapConfig(g=0.05, delta=1.0, duration=0.5, n_max=20)
        iontrap.evolve_numerical(cfg)
    finally:
        recorder.uninstall()
    names = {span[0] for span in recorder.spans}
    assert {"derivatives.product_derivative_stack", "solver.solve",
            "iontrap.evolve_numerical"} <= names
    metrics = spans.layer_metrics(recorder.spans)
    assert metrics["derivatives.product_derivative_stack.calls"] > 0
    # uninstalling restores the program's own functions
    assert not hasattr(iontrap.solve_ivp, "__wrapped__")
    assert not hasattr(derivatives.product_derivative_stack, "__wrapped__")


def test_recorder_traces_catalog_builders(spans, capsys):
    # the CLI reaches the entries through the catalog's module globals, so
    # each lookup (one build) and each Table 1 or Table 2 row is a span
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        assert main(["catalog", "--entry", "bb3"]) == 0
        assert main(["catalog", "--entry", "pb33"]) == 0
        assert main(["verify"]) == 0
    finally:
        recorder.uninstall()
    names = [span[0] for span in recorder.spans]
    assert names.count("catalog.broadband") == 7
    assert names.count("catalog.passband") == 7
