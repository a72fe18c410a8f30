"""The library ships no code that only tests call, and no stale copy.

The public surface is ``cpgates.__all__``, a literal list pinned here.
Every public module-level function, class or assigned name of
``src/cpgates`` is referenced from other ``src`` code, listed in ``cpgates.__all__`` or
traced by the benchmark (a ``TARGETS`` attribute of
``bench/spans.py``).  Every private one (``_name``, dunders aside) is
referenced from another top-level statement of its own module or
imported by another module, and no module both defines and imports the
same name.  Every method or property of a ``src/cpgates`` class
(dunders aside) is read as an attribute somewhere in ``src``, ``tests``
or ``bench``.  Test-only helpers live in ``tests/oracles.py``.
A reference is a bare name that no enclosing function binds as a
parameter or assignment target, or an attribute of a cpgates module
alias (``cat.x``): ``args.entry`` or an ``entry`` parameter does not use
a function ``entry``.  A function that imports a name from cpgates
(``from .x import y`` in its body) uses that name.
"""

import ast
import importlib.util
import re
from pathlib import Path
from types import ModuleType

import cpgates

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cpgates"

PUBLIC = [
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


def _traced():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(name.rsplit(".", 1)[-1], attr) for name, attr, _, _ in module.TARGETS}


def _module_aliases(tree):
    """Names under which a module binds the cpgates modules it imports."""
    modules = {path.stem for path in SRC.glob("*.py")}
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in ((1, None), (0, "cpgates"))
        for alias in node.names if alias.name in modules
    }


def _local_names(func):
    """Parameters and assignment targets of ``func``, its nested scopes aside."""
    args = func.args
    params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    names = {a.arg for a in params if a is not None}
    todo = [func.body] if isinstance(func, ast.Lambda) else list(func.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif not isinstance(node, ast.Lambda):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _from_cpgates(node):
    """Whether ``node`` is a ``from ... import`` statement of cpgates names."""
    return isinstance(node, ast.ImportFrom) and (
        node.level == 1 or (node.module or "").split(".")[0] == "cpgates")


def _references(node, aliases, bound=frozenset()):
    """Names read inside ``node`` that can refer to a module-level
    definition: a bare name that no enclosing function binds, an
    attribute of a cpgates module alias (``cat.x``), or a name that a
    function imports from cpgates."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        bound = bound | _local_names(node)
        found = {a.name for n in ast.walk(node) if _from_cpgates(n) for a in n.names}
    elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
        found = {node.id}
    elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
        found = {node.attr}
    else:
        found = set()
    for child in ast.iter_child_nodes(node):
        found |= _references(child, aliases, bound)
    return found


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _definitions(tree):
    return [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def _assigned(tree):
    """(name, statement) of each name a top-level assignment of ``tree`` binds."""
    return [
        (name.id, node)
        for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for name in ast.walk(target) if isinstance(name, ast.Name)
    ]


def _imports(tree):
    """(module, name) of each name ``tree`` imports from cpgates, at top
    level or inside a function."""
    return {
        ((node.module or "").rsplit(".", 1)[-1], alias.name)
        for node in ast.walk(tree) if _from_cpgates(node)
        for alias in node.names
    }


def _pinned_all(tree):
    """The names of ``__all__``, which must be assigned a literal list of strings."""
    [value] = [
        node.value for node in tree.body if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
    ]
    assert isinstance(value, ast.List)
    assert all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in value.elts)
    return [e.value for e in value.elts]


def test_public_surface_is_pinned():
    names = _pinned_all(_trees()["__init__"])
    assert names == cpgates.__all__ == PUBLIC
    assert not any(isinstance(getattr(cpgates, name), ModuleType) for name in names)
    # submodules stay reachable as attributes of the package
    assert isinstance(cpgates.catalog, ModuleType)


def test_every_public_definition_is_used_by_the_program():
    trees = _trees()
    exported = set(_pinned_all(trees["__init__"]))
    traced = _traced()
    # each top-level statement of src with the names it reads
    statements = [
        (top, _references(top, _module_aliases(tree)))
        for tree in trees.values() for top in tree.body
    ]
    unused = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, node in [(d.name, d) for d in _definitions(tree)] + _assigned(tree)
        if not name.startswith("_")
        and name not in exported
        and (module, name) not in traced
        and not any(name in names for top, names in statements if top is not node)
    ]
    assert unused == []


def test_every_private_definition_is_used_and_defined_once():
    trees = _trees()
    unused, shadowed = [], []
    for module, tree in trees.items():
        aliases = _module_aliases(tree)
        for node in _definitions(tree):
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            own = any(node.name in _references(top, aliases) for top in tree.body if top is not node)
            imported = any((module, node.name) in _imports(other) for other in trees.values())
            if not (own or imported):
                unused.append(f"{module}.{node.name}")
            if node.name in {name for _, name in _imports(tree)}:
                shadowed.append(f"{module}.{node.name}")
    assert unused == []
    assert shadowed == []


def test_every_method_is_read_somewhere():
    files = [*SRC.glob("*.py"), *(ROOT / "tests").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]
    read = {
        node.attr for path in files for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{cls.name}.{node.name}"
        for tree in _trees().values() for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("__") and node.name not in read
    ]
    assert unread == []


def test_readme_library_sketch_runs_and_states_its_values():
    # the README's one python block runs as written, and the values its
    # comments state hold
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    assert len(blocks) == 1
    names = {}
    exec(compile(blocks[0], "README.md", "exec"), names)
    band, order, refined = names["band"], names["order"], names["refined"]
    assert abs(band.eps_low + 0.22) < 5e-3 and abs(band.eps_high - 0.22) < 5e-3
    assert abs(order - 6.0) < 0.05
    assert refined.converged and refined.residual_D <= 1e-10
    assert names["result"].converged
    assert names["u"].shape == (104, 104)
