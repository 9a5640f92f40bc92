"""Lint guard: the executor scopes a query by feed, and a scan reads a partition.

A replica serves one view by naming its feed: ``QueryExecutor.execute(plan,
feed=...)`` reads that feed's ``(feed, type)`` partition of the key-value
store, already in id order.  A per-document ``scope`` callable beside it
would run once per candidate of every feed, and an unordered type index
would be sorted on every scan; both were the executor's cost before.

The guard parses ``src/repro`` and fails on:

* a ``scope`` parameter on ``QueryExecutor.execute`` or ``match_documents``;
* ``_by_type`` anywhere in ``GraphKVStore``;
* a ``sorted(...)`` call in ``live/executor.py`` whose argument reads a type
  partition (``partition``, ``partition_feeds``, ``by_type`` or
  ``ids_by_type``).
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The key-value store's type-partition readers.
PARTITION_READERS = {"partition", "partition_feeds", "by_type", "ids_by_type"}


def _tree(relative: str) -> ast.Module:
    path = SRC_ROOT / relative
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _class(tree: ast.AST, name: str) -> ast.ClassDef:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    raise AssertionError(f"class {name} not found")


def _parameters(function: ast.FunctionDef) -> list[str]:
    arguments = function.args
    return [a.arg for a in arguments.posonlyargs + arguments.args + arguments.kwonlyargs]


def test_execute_and_match_documents_take_no_scope():
    executor = _class(_tree("live/executor.py"), "QueryExecutor")
    methods = {
        node.name: node for node in executor.body if isinstance(node, ast.FunctionDef)
    }
    for name in ("execute", "match_documents"):
        assert name in methods, name
        assert "scope" not in _parameters(methods[name]), f"QueryExecutor.{name} takes scope="
        assert "feed" in _parameters(methods[name]), f"QueryExecutor.{name} lost feed="


def test_kv_store_holds_no_unordered_type_index():
    store = _class(_tree("live/index.py"), "GraphKVStore")
    found = sorted(
        node.lineno
        for node in ast.walk(store)
        if (isinstance(node, ast.Attribute) and node.attr == "_by_type")
        or (isinstance(node, ast.Name) and node.id == "_by_type")
    )
    assert not found, f"GraphKVStore uses _by_type at lines {found}"


def test_executor_never_sorts_a_type_partition():
    offending = []
    for node in ast.walk(_tree("live/executor.py")):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sorted"
        ):
            continue
        for argument in ast.walk(ast.Module(body=[ast.Expr(a) for a in node.args], type_ignores=[])):
            if isinstance(argument, ast.Attribute) and argument.attr in PARTITION_READERS:
                offending.append((node.lineno, argument.attr))
    assert not offending, f"live/executor.py sorts a type partition: {offending}"
