"""The library ships no code that only tests call.

Every public module-level function or class of ``src/cpgates`` is
referenced from other ``src`` code, exported by ``cpgates/__init__.py``
or traced by the benchmark (a ``TARGETS`` attribute of
``bench/spans.py``).  Test-only helpers live in ``tests/oracles.py``.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cpgates"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(name.rsplit(".", 1)[-1], attr) for name, attr, _, _ in module.TARGETS}


def _references(node):
    """Names and attribute names read anywhere inside ``node``."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_public_definition_is_used_by_the_program():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    exported = {
        alias.asname or alias.name
        for node in trees["__init__"].body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    traced = _traced()
    # each top-level statement of src with the names it reads
    statements = [(top, _references(top)) for tree in trees.values() for top in tree.body]
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in exported
        and (module, node.name) not in traced
        and not any(node.name in names for top, names in statements if top is not node)
    ]
    assert unused == []
