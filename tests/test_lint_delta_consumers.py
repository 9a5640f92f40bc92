"""Lint guard: every consumer follows the log through the coordinator's delta.

Saga keeps each consumer fresh from one operation log (Section 3.1).  Once
every store has replayed a record, ``AgentCoordinator`` hands its
LSN-stamped ``ViewDelta`` to each delta listener: the view manager (wired by
the Graph Engine), the NERD service and the live graph's stable feed (wired
by ``SagaPlatform`` when each is first used).  A publish-side refresh call, a
whole-KG reload or a second watermark setter would be a path beside the log,
with its own idea of what changed and how fresh it is.

The guard parses ``src/repro`` and fails on:

* a call to ``refresh_entities`` in ``saga.py``;
* ``sync_stable_view``, ``_gazetteer``, ``set_watermark`` or
  ``refresh_entities`` anywhere, as a name, an attribute or a definition;
* a call to ``add_delta_listener`` outside ``engine/graph_engine.py`` and
  ``saga.py``;
* ``OperationLog.__init__`` taking a parameter (the log lives in memory,
  with the payloads its records point at).
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Side paths around the log, by name.
FORBIDDEN_NAMES = {"sync_stable_view", "_gazetteer", "set_watermark", "refresh_entities"}

#: The modules that register delta listeners, relative to src/repro.
LISTENER_WIRING = {"engine/graph_engine.py", "saga.py"}


def _modules():
    for path in sorted(SRC_ROOT.rglob("*.py")):
        relative = path.relative_to(SRC_ROOT).as_posix()
        yield relative, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names(tree: ast.AST, wanted: set[str]) -> list[tuple[int, str]]:
    """Lines defining or referencing one of *wanted*."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        else:
            continue
        if name in wanted:
            found.append((node.lineno, name))
    return sorted(found)


def _calls(tree: ast.AST, method: str) -> list[int]:
    """Lines calling ``<anything>.<method>(...)`` or ``<method>(...)``."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Attribute) and node.func.attr == method)
            or (isinstance(node.func, ast.Name) and node.func.id == method)
        )
    )


def _init_parameters(tree: ast.AST, class_name: str) -> list[str]:
    """Every parameter of ``class_name.__init__`` but ``self``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            for child in node.body:
                if isinstance(child, ast.FunctionDef) and child.name == "__init__":
                    arguments = child.args
                    names = [a.arg for a in arguments.posonlyargs + arguments.args]
                    names.extend(a.arg for a in arguments.kwonlyargs)
                    if arguments.vararg is not None:
                        names.append(f"*{arguments.vararg.arg}")
                    if arguments.kwarg is not None:
                        names.append(f"**{arguments.kwarg.arg}")
                    return names[1:]
            return []
    raise AssertionError(f"class {class_name} not found")


def test_the_platform_does_not_refresh_consumers_on_publish():
    tree = ast.parse((SRC_ROOT / "saga.py").read_text(encoding="utf-8"))
    lines = _calls(tree, "refresh_entities")
    assert not lines, f"saga.py calls refresh_entities at lines {lines}"


def test_no_side_path_beside_the_log():
    violations = [
        f"src/repro/{relative}:{line}: {name}"
        for relative, tree in _modules()
        for line, name in _names(tree, FORBIDDEN_NAMES)
    ]
    assert not violations, (
        "NERD and the live graph follow the coordinator's deltas, not a side path:\n"
        + "\n".join(violations)
    )


def test_only_the_engine_and_the_platform_register_delta_listeners():
    violations = [
        f"src/repro/{relative}:{line}: calls add_delta_listener"
        for relative, tree in _modules()
        if relative not in LISTENER_WIRING
        for line in _calls(tree, "add_delta_listener")
    ]
    assert not violations, (
        f"delta listeners are wired in {sorted(LISTENER_WIRING)} only:\n"
        + "\n".join(violations)
    )


def test_the_operation_log_takes_no_parameter():
    tree = ast.parse((SRC_ROOT / "engine" / "log.py").read_text(encoding="utf-8"))
    parameters = _init_parameters(tree, "OperationLog")
    assert parameters == [], f"OperationLog.__init__ takes {parameters}"


def test_the_guard_sees_every_shape():
    source = (
        "class OperationLog:\n"
        "    def __init__(self, path=None): ...\n"
        "def sync_stable_view(engine): ...\n"
        "service.refresh_entities(store, ids)\n"
        "self._gazetteer = {}\n"
        "index.set_watermark('stable', 3)\n"
        "coordinator.add_delta_listener(listener)\n"
    )
    tree = ast.parse(source)
    assert _init_parameters(tree, "OperationLog") == ["path"]
    assert _names(tree, FORBIDDEN_NAMES) == [
        (3, "sync_stable_view"),
        (4, "refresh_entities"),
        (5, "_gazetteer"),
        (6, "set_watermark"),
    ]
    assert _calls(tree, "refresh_entities") == [4]
    assert _calls(tree, "add_delta_listener") == [7]
