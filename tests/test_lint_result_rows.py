"""Lint guard: a served result row is an immutable value, never copied.

The executor builds each ``QueryResultRow`` once, witness included, and the
front door's result cache stores those rows and hands the same objects to
every hit (docs/frontdoor.md, "Tenancy").  Writing to a row raises at
run time; this guard keeps the code from trying, and keeps the per-row
copies that the old mutable rows needed from coming back.

It parses the source and fails on:

* under ``src/repro``: an assignment, augmented assignment or ``del`` whose
  target is a row attribute (``.entity_id``, ``.values``, ``.witness``) or
  an item of ``.values``, and a call of a dict mutator on ``.values``
  (``x.values.update(...)``);
* under ``src/repro/serving/frontdoor``: any ``_copy_rows`` name, and a
  ``dict(x.values)`` copy.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"
DOOR_ROOT = SRC_ROOT / "serving" / "frontdoor"

#: The fields of a QueryResultRow.
ROW_FIELDS = {"entity_id", "values", "witness"}

#: The dict methods that write.
MUTATORS = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def _is_values(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "values"


def _written(target: ast.AST) -> bool:
    """Whether assigning to *target* writes a row field or a row value."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_written(element) for element in target.elts)
    if isinstance(target, ast.Starred):
        return _written(target.value)
    if isinstance(target, ast.Attribute):
        return target.attr in ROW_FIELDS
    return isinstance(target, ast.Subscript) and _is_values(target.value)


def row_writes(tree: ast.AST) -> list[int]:
    """Lines that write a row field, a ``.values`` item, or call a mutator
    on ``.values``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS
            and _is_values(node.func.value)
        ):
            found.append(node.lineno)
            continue
        else:
            continue
        if any(_written(target) for target in targets):
            found.append(node.lineno)
    return sorted(found)


def row_copies(tree: ast.AST) -> list[int]:
    """Lines that name ``_copy_rows`` or call ``dict(x.values)``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "_copy_rows":
            found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "_copy_rows":
            found.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "_copy_rows":
            found.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "dict"
            and any(_is_values(argument) for argument in node.args)
        ):
            found.append(node.lineno)
    return sorted(found)


def _violations(root: Path, check) -> list[str]:
    return [
        f"{path.relative_to(SRC_ROOT).as_posix()}:{line}"
        for path in sorted(root.rglob("*.py"))
        for line in check(ast.parse(path.read_text(encoding="utf-8")))
    ]


def test_no_code_writes_to_a_result_row():
    violations = _violations(SRC_ROOT, row_writes)
    assert not violations, (
        "result rows are immutable values; build a new row instead of writing to one:\n"
        + "\n".join(violations)
    )


def test_the_front_door_copies_no_row():
    assert sorted(DOOR_ROOT.glob("*.py")), DOOR_ROOT
    violations = _violations(DOOR_ROOT, row_copies)
    assert not violations, (
        "the result cache shares the executor's immutable rows; copy none:\n"
        + "\n".join(violations)
    )


def test_the_guard_sees_every_shape():
    writes = (
        "row.witness = witness\n"
        "row.values['name'] = 'x'\n"
        "row.values[key] += 1\n"
        "del rows[0].values['name']\n"
        "row.values.setdefault('name', None)\n"
        "first, row.entity_id = pair\n"
        "row.values = {}\n"
        "values['name'] = 'x'\n"
        "self.witnesses = []\n"
        "column = row.values.get('name')\n"
    )
    assert row_writes(ast.parse(writes)) == [1, 2, 3, 4, 5, 6, 7]
    copies = (
        "class QueryCache:\n"
        "    def _copy_rows(self, rows):\n"
        "        return [dict(row.values) for row in rows]\n"
        "    def get(self, key):\n"
        "        return self._copy_rows(self._entries[key])\n"
        "shared = list(rows)\n"
        "fresh = dict(values)\n"
    )
    assert row_copies(ast.parse(copies)) == [2, 3, 5]
