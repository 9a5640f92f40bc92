"""Lint guard: the analytics warehouse is a projection of the primary store.

Section 3.1.1 describes the analytics engine as a relational warehouse over
the KG's extended triples.  Here it reads the primary ``TripleStore``'s
columns (docs/architecture.md, "The warehouse reads the primary"): it holds
no copy of the facts, so no log agent keeps one up to date and it can
neither lag the primary nor drift from it.  A write API on the warehouse,
or a warehouse agent in the replay order, would bring the second copy back.

The guard parses ``src/repro`` and fails on:

* a function named ``ingest``, ``ingest_rows``, ``remove_subjects`` or
  ``refresh_subjects`` in ``engine/analytics.py``;
* ``AnalyticsStore.__init__`` taking anything but ``triples``;
* the name ``AnalyticsAgent`` in ``engine/graph_engine.py``, or
  ``"analytics"`` in its ``AGENT_ORDER``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

ANALYTICS_MODULE = "engine/analytics.py"
ENGINE_MODULE = "engine/graph_engine.py"

#: The warehouse's former write API.
WRITE_METHODS = {"ingest", "ingest_rows", "remove_subjects", "refresh_subjects"}
STORE_PARAMETERS = ["triples"]


def _tree(relative: str) -> ast.AST:
    path = SRC_ROOT / relative
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _write_methods(tree: ast.AST) -> list[str]:
    """Every function or method of the module named like a write."""
    return sorted(
        f"{node.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in WRITE_METHODS
    )


def _init_parameters(tree: ast.AST, class_name: str) -> list[str]:
    """Every parameter of the class's ``__init__`` but ``self``, starred
    ones marked with their stars."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            for child in node.body:
                if isinstance(child, ast.FunctionDef) and child.name == "__init__":
                    arguments = child.args
                    names = [a.arg for a in arguments.posonlyargs + arguments.args]
                    if arguments.vararg is not None:
                        names.append(f"*{arguments.vararg.arg}")
                    names.extend(a.arg for a in arguments.kwonlyargs)
                    if arguments.kwarg is not None:
                        names.append(f"**{arguments.kwarg.arg}")
                    return names[1:]
            raise AssertionError(f"{class_name}.__init__ not found")
    raise AssertionError(f"class {class_name} not found")


def _agent_references(tree: ast.AST) -> list[int]:
    """Lines naming ``AnalyticsAgent`` (a class, a name or an attribute)."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.ClassDef) and node.name == "AnalyticsAgent")
        or (isinstance(node, ast.Name) and node.id == "AnalyticsAgent")
        or (isinstance(node, ast.Attribute) and node.attr == "AnalyticsAgent")
    )


def _agent_order(tree: ast.AST) -> list[object]:
    """The literal values of the module's ``AGENT_ORDER``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "AGENT_ORDER"
            for target in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError("AGENT_ORDER not found")


def test_the_warehouse_has_no_write_api():
    found = _write_methods(_tree(ANALYTICS_MODULE))
    assert not found, (
        f"{ANALYTICS_MODULE} reads the primary store and keeps no copy to write: {found}"
    )


def test_the_warehouse_is_built_from_the_primary_store_alone():
    parameters = _init_parameters(_tree(ANALYTICS_MODULE), "AnalyticsStore")
    assert parameters == STORE_PARAMETERS, (
        f"AnalyticsStore is a projection of one TripleStore; found {parameters}"
    )


def test_no_warehouse_agent_replays_the_log():
    tree = _tree(ENGINE_MODULE)
    assert not _agent_references(tree), (
        f"{ENGINE_MODULE} names AnalyticsAgent at lines {_agent_references(tree)}"
    )
    assert "analytics" not in _agent_order(tree), (
        f"{ENGINE_MODULE}'s AGENT_ORDER replays into a warehouse copy"
    )


def test_the_guard_sees_every_shape():
    tree = ast.parse(
        "AGENT_ORDER = ('primary', 'analytics')\n"
        "class AnalyticsStore:\n"
        "    def __init__(self, triples, *, copy=True): ...\n"
        "    def ingest_rows(self, rows): ...\n"
        "class AnalyticsAgent: ...\n"
        "coordinator.register(engine.AnalyticsAgent())\n"
        "def refresh_subjects(subjects): ...\n"
    )
    assert _write_methods(tree) == ["ingest_rows:4", "refresh_subjects:7"]
    assert _init_parameters(tree, "AnalyticsStore") == ["triples", "copy"]
    assert _agent_references(tree) == [5, 6]
    assert _agent_order(tree) == ["primary", "analytics"]
