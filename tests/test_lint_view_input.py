"""Lint guard: the view manager takes one LSN-stamped ``ViewDelta`` and nothing else.

Saga keeps views current from the operation log (Sections 3.1-3.2): each
change carries an LSN, and a view's freshness is the log position it
reflects.  The manager therefore has one change input,
``ViewManager.enqueue(delta)``, which the Graph Engine registers as the log
replay's delta listener (docs/views.md, "One input").  A forced
``update(ids)``, a wall-clock SLA, a flush-counting LSN or a scope snapshot
that may be incomplete would each be a second way in, with its own notion
of freshness.

The guard parses ``src/repro`` and fails on:

* ``ViewManager.__init__`` taking anything but ``catalog, engines,
  lsn_source, entity_source``;
* ``ViewManager.enqueue`` taking anything but one delta;
* a ``ViewManager.update`` or ``ViewManager.stale_views`` method, or a
  ``ViewDefinition.freshness_sla`` field;
* a reference to ``.enqueue`` outside ``engine/graph_engine.py`` (the one
  module that wires the manager to the log).
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The module defining the view manager, relative to src/repro.
VIEWS_MODULE = "engine/views.py"

#: The one module that wires ``enqueue``, relative to src/repro.
ENQUEUE_WIRING = "engine/graph_engine.py"

MANAGER_PARAMETERS = ["catalog", "engines", "lsn_source", "entity_source"]
ENQUEUE_PARAMETERS = ["delta"]

#: Second change inputs and second freshness measures, by class.
FORBIDDEN_MEMBERS = {
    "ViewManager": {"update", "stale_views"},
    "ViewDefinition": {"freshness_sla"},
}


def _modules():
    for path in sorted(SRC_ROOT.rglob("*.py")):
        relative = path.relative_to(SRC_ROOT).as_posix()
        yield relative, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _views_tree() -> ast.AST:
    return ast.parse((SRC_ROOT / VIEWS_MODULE).read_text(encoding="utf-8"))


def _class(tree: ast.AST, name: str) -> ast.ClassDef:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    raise AssertionError(f"class {name} not found")


def _parameters(class_node: ast.ClassDef, method: str) -> list[str]:
    """Every parameter of *method* but ``self``, in order (``*args`` and
    ``**kwargs`` included, marked with their stars)."""
    for child in class_node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and child.name == method:
            arguments = child.args
            names = [a.arg for a in arguments.posonlyargs + arguments.args]
            if arguments.vararg is not None:
                names.append(f"*{arguments.vararg.arg}")
            names.extend(a.arg for a in arguments.kwonlyargs)
            if arguments.kwarg is not None:
                names.append(f"**{arguments.kwarg.arg}")
            return names[1:] if names[:1] == ["self"] else names
    raise AssertionError(f"{class_node.name}.{method} not found")


def _members(class_node: ast.ClassDef) -> set[str]:
    """Names of the methods and fields declared in the class body."""
    members = set()
    for child in class_node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            members.add(child.name)
        elif isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name):
            members.add(child.target.id)
        elif isinstance(child, ast.Assign):
            members.update(t.id for t in child.targets if isinstance(t, ast.Name))
    return members


def _enqueue_references(tree: ast.AST) -> list[int]:
    """Lines referencing ``<anything>.enqueue`` (a call or a bound method)."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "enqueue"
    )


def test_view_manager_is_built_from_catalog_engines_and_two_sources():
    parameters = _parameters(_class(_views_tree(), "ViewManager"), "__init__")
    assert parameters == MANAGER_PARAMETERS, (
        "ViewManager is built from the catalog, the engines, the log position "
        f"and the entity enumeration only; found {parameters}"
    )


def test_enqueue_takes_one_delta():
    parameters = _parameters(_class(_views_tree(), "ViewManager"), "enqueue")
    assert parameters == ENQUEUE_PARAMETERS, (
        f"ViewManager.enqueue takes one LSN-stamped ViewDelta; found {parameters}"
    )


def test_no_second_change_input_or_freshness_measure():
    tree = _views_tree()
    violations = [
        f"{class_name}.{member}"
        for class_name, forbidden in sorted(FORBIDDEN_MEMBERS.items())
        for member in sorted(_members(_class(tree, class_name)) & forbidden)
    ]
    assert not violations, (
        "changes reach views through enqueue and freshness is an LSN: " + ", ".join(violations)
    )


def test_only_the_graph_engine_wires_enqueue():
    violations = [
        f"src/repro/{relative}:{line}: references .enqueue"
        for relative, tree in _modules()
        if relative != ENQUEUE_WIRING
        for line in _enqueue_references(tree)
    ]
    assert not violations, (
        f"the view manager hears the log through {ENQUEUE_WIRING} only:\n"
        + "\n".join(violations)
    )


def test_the_guard_sees_every_shape():
    source = (
        "class ViewManager:\n"
        "    def __init__(self, catalog, engines, *, clock=None): ...\n"
        "    def enqueue(self, changed, lsn=None, **extra): ...\n"
        "    def update(self, ids): ...\n"
        "class ViewDefinition:\n"
        "    name: str\n"
        "    freshness_sla: float | None = None\n"
        "coordinator.add_delta_listener(manager.enqueue)\n"
        "manager.enqueue(delta)\n"
    )
    tree = ast.parse(source)
    manager = _class(tree, "ViewManager")
    assert _parameters(manager, "__init__") == ["catalog", "engines", "clock"]
    assert _parameters(manager, "enqueue") == ["changed", "lsn", "**extra"]
    assert _members(manager) == {"__init__", "enqueue", "update"}
    assert _members(_class(tree, "ViewDefinition")) == {"name", "freshness_sla"}
    assert _enqueue_references(tree) == [8, 9]
