"""Span recorder for the traced pass, and the per-layer metrics derived
from its spans.

Tracing wraps the layer functions from outside the program: each target
function is replaced, in every ``cpgates`` module that holds it, by a
wrapper that records a span (name, start, end, parent span, operation
id) and a few counts taken from the call's arguments and result.  Spans
stay in memory until the pass ends.  Untraced passes run the program
untouched.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _stack_attrs(args, kwargs, result):
    """(B, G, l, at_epsilon) of a product_derivative_stack call."""
    thetas, phis, l_max = args[:3]
    at_eps = args[3] if len(args) > 3 else kwargs.get("at_epsilon", 0.0)
    return (np.atleast_2d(phis).shape[0], len(thetas), int(l_max), float(at_eps))


def _gate_count(args, kwargs, result):
    return (len(args[0].gates),)


def _solve_attrs(args, kwargs, result):
    return (bool(result.converged), int(result.restarts_used))


def _ivp_attrs(args, kwargs, result):
    return (int(result.nfev), int(result.y.nbytes))


#: (module, attribute, span name, attribute extractor).  Each attribute is
#: rebound wherever a cpgates module refers to the same function object,
#: so ``from .x import f`` call sites are traced too.
TARGETS = (
    ("cpgates.cli", "main", "cli.main", None),
    ("cpgates.seqio", "read_sequence", "seqio.read_sequence", None),
    ("cpgates.seqio", "sequence_to_csv", "seqio.sequence_to_csv", None),
    ("cpgates.catalog", "broadband", "catalog.broadband", None),
    ("cpgates.catalog", "passband", "catalog.passband", None),
    ("cpgates.abserr", "wrap_sequence_absolute", "abserr.wrap_sequence_absolute", None),
    ("cpgates.gates", "sequence_propagator", "gates.sequence_propagator", _gate_count),
    ("cpgates.derivatives", "product_derivative_stack",
     "derivatives.product_derivative_stack", _stack_attrs),
    ("cpgates.derivatives", "broadband_residuals", "derivatives.broadband_residuals", None),
    ("cpgates.solver", "solve_with_escalation", "solver.solve_with_escalation", None),
    ("cpgates.solver", "solve", "solver.solve", _solve_attrs),
    ("cpgates.solver", "polish", "solver.polish", None),
    ("cpgates.analysis", "fidelity", "analysis.fidelity", None),
    ("cpgates.analysis", "scan", "analysis.scan", None),
    ("cpgates.analysis", "tolerance_band", "analysis.tolerance_band", None),
    ("cpgates.analysis", "infidelity_order", "analysis.infidelity_order", None),
    ("cpgates.linalg", "is_unitary", "linalg.is_unitary", None),
    ("cpgates.linalg", "mat_exp_hermitian_generator", "linalg.mat_exp_hermitian_generator", None),
    ("cpgates.iontrap", "composite_physical_gate", "iontrap.composite_physical_gate", None),
    ("cpgates.iontrap", "two_pulse_gate", "iontrap.two_pulse_gate", None),
    ("cpgates.iontrap", "evolve_numerical", "iontrap.evolve_numerical", None),
    ("cpgates.iontrap", "analytic_propagator", "iontrap.analytic_propagator", None),
    ("cpgates.iontrap", "duration_for_angle", "iontrap.duration_for_angle", None),
    ("cpgates.iontrap", "solve_ivp", "iontrap.solve_ivp", _ivp_attrs),
)


class SpanRecorder:
    """Records one span per call of a target function.

    A span is ``(name, start, end, parent index, op id, attrs)``; the
    parent is the span that was open when the call began (-1 for none).
    """

    def __init__(self):
        self.spans: list = []
        self.op_id = -1
        self._open: list[int] = []
        self._patches: list = []

    def _wrap(self, name, fn, attrs_fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                open_.pop()
                attrs = attrs_fn(args, kwargs, result) if attrs_fn and result is not None else None
                spans[index] = (name, start, end, parent, self.op_id, attrs)

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "cpgates" or n.startswith("cpgates.")]
        for module_name, attr, name, attrs_fn in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(name, original, attrs_fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Write the spans as gzipped CSV, times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start_s,end_s,parent,op_id,attrs\n")
            for i, (name, start, end, parent, op_id, attrs) in enumerate(self.spans):
                attr_text = " ".join(map(str, attrs)) if attrs else ""
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},{op_id},{attr_text}\n")


def matmuls(batch: int, gates: int, order: int) -> int:
    """4x4 products in one product_derivative_stack call: the recursion
    runs over gates 1..G-1 and, per derivative order m <= l, multiplies
    m+1 pairs."""
    return batch * (gates - 1) * (order + 1) * (order + 2) // 2


def layer_metrics(spans) -> dict:
    """Per-layer values from one traced pass.

    ``busy_s`` sums a function's outermost spans, ``self_s`` each span's
    time minus that of its direct children, ``calls`` the span count.
    """
    names = [s[0] for s in spans]
    duration = [s[2] - s[1] for s in spans]
    child_time = defaultdict(float)
    for s, d in zip(spans, duration):
        if s[3] >= 0:
            child_time[s[3]] += d

    def has_ancestor(i, name):
        p = spans[i][3]
        while p >= 0:
            if names[p] == name:
                return True
            p = spans[p][3]
        return False

    calls, busy, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    for i, name in enumerate(names):
        calls[name] += 1
        self_s[name] += duration[i] - child_time[i]
        if not has_ancestor(i, name):
            busy[name] += duration[i]

    stack = "derivatives.product_derivative_stack"
    rows = mm = newton = line = 0
    for i, s in enumerate(spans):
        if s[0] != stack or s[5] is None:
            continue
        b, g, l, at_eps = s[5]
        rows += b
        mm += matmuls(b, g, l)
        if at_eps == 0.0 and has_ancestor(i, "solver.solve"):
            newton += b > 1
            line += b == 1
    solves = [i for i, n in enumerate(names) if n == "solver.solve" and spans[i][5]]
    stages = [i for i in solves if has_ancestor(i, "solver.solve_with_escalation")]
    converged = sum(spans[i][5][0] for i in stages)
    ivp = [s[5] for s in spans if s[0] == "iontrap.solve_ivp" and s[5]]
    propagations = [i for i, n in enumerate(names) if n == "gates.sequence_propagator"]

    return {
        f"{stack}.calls": calls[stack],
        f"{stack}.busy_s": busy[stack],
        f"{stack}.rows": rows,
        f"{stack}.matmuls": mm,
        "solver.solve.calls": calls["solver.solve"],
        "solver.solve.self_s": self_s["solver.solve"],
        "solver.newton_iters": newton,
        "solver.line_evals": line,
        "solver.restarts": sum(spans[i][5][1] for i in solves),
        "solver.stage_yield": converged / len(stages) if stages else 0.0,
        "solver.polish.busy_s": busy["solver.polish"],
        "gates.sequence_propagator.calls": calls["gates.sequence_propagator"],
        "gates.sequence_propagator.busy_s": busy["gates.sequence_propagator"],
        "gates.sequence_propagator.gate_steps": sum(spans[i][5][0] for i in propagations if spans[i][5]),
        "analysis.fidelity.calls": calls["analysis.fidelity"],
        "analysis.fidelity.self_s": self_s["analysis.fidelity"],
        "linalg.is_unitary.calls": calls["linalg.is_unitary"],
        "linalg.is_unitary.busy_s": busy["linalg.is_unitary"],
        "analysis.scan.self_s": self_s["analysis.scan"],
        "analysis.tolerance_band.busy_s": busy["analysis.tolerance_band"],
        "analysis.tolerance_band.evals": sum(
            1 for i in propagations if has_ancestor(i, "analysis.tolerance_band")),
        "analysis.infidelity_order.busy_s": busy["analysis.infidelity_order"],
        "derivatives.broadband_residuals.busy_s": busy["derivatives.broadband_residuals"],
        "iontrap.evolve_numerical.calls": calls["iontrap.evolve_numerical"],
        "iontrap.evolve_numerical.busy_s": busy["iontrap.evolve_numerical"],
        "iontrap.rhs_evals": sum(a[0] for a in ivp),
        "iontrap.stored_mb": sum(a[1] for a in ivp) / 1e6,
        "iontrap.analytic_propagator.busy_s": busy["iontrap.analytic_propagator"],
        "linalg.mat_exp_hermitian_generator.busy_s": busy["linalg.mat_exp_hermitian_generator"],
        "iontrap.composite_physical_gate.self_s": self_s["iontrap.composite_physical_gate"],
        "iontrap.duration_for_angle.busy_s": busy["iontrap.duration_for_angle"],
        "cli.main.self_s": self_s["cli.main"],
        "seqio.read_sequence.busy_s": busy["seqio.read_sequence"],
        "seqio.sequence_to_csv.busy_s": busy["seqio.sequence_to_csv"],
    }


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("yield"):
        return "ratio"
    return "count"
