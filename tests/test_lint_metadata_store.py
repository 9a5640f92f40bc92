"""Lint guard: the metadata store holds store replay watermarks and nothing else.

Saga's metadata store records, per store, the last log position it has
replayed (Section 3.1).  Every other freshness fact has one owner and is read
from it: a view's build position from ``ViewManager``, a replica's applied
LSN from ``ReplicaNode``, an audited digest from the auditor's last report,
serving counters from the ``stats()`` of the component that counts them
(docs/architecture.md, "Where each freshness fact lives").  A second copy in
the metadata store would be written on a hot path and read by nobody.

The guard parses every module under ``src/repro`` and fails on:

* a public method or field of ``MetadataStore`` beyond the store watermarks;
* a call to ``update_watermark`` outside ``engine/agents.py`` (the
  orchestration agents' coordinator is the one writer);
* ``MetadataStore`` imported or referenced outside ``repro.engine``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The store-watermark surface, and the one field it reads and writes.
STORE_WATERMARK_METHODS = {
    "update_watermark",
    "watermark",
    "minimum_watermark",
    "is_fresh",
    "lagging_stores",
}
STORE_WATERMARK_FIELDS = {"watermarks"}

#: The one module that advances a store watermark, relative to src/repro.
WATERMARK_WRITER = "engine/agents.py"

#: The package allowed to import the metadata store, relative to src/repro.
METADATA_HOME = "engine/"


def _modules():
    for path in sorted(SRC_ROOT.rglob("*.py")):
        relative = path.relative_to(SRC_ROOT).as_posix()
        yield relative, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _public_surface(tree: ast.AST, class_name: str) -> tuple[set[str], set[str]]:
    """(public methods, public fields) declared in the body of *class_name*."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            methods = {
                child.name
                for child in node.body
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not child.name.startswith("_")
            }
            fields = {
                target.id
                for child in node.body
                if isinstance(child, (ast.AnnAssign, ast.Assign))
                for target in (
                    [child.target] if isinstance(child, ast.AnnAssign) else child.targets
                )
                if isinstance(target, ast.Name) and not target.id.startswith("_")
            }
            return methods, fields
    raise AssertionError(f"class {class_name} not found")


def _watermark_writes(tree: ast.AST) -> list[int]:
    """Lines calling ``<anything>.update_watermark(...)``."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "update_watermark"
    )


def _metadata_store_uses(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(
            alias.name == "MetadataStore" for alias in node.names
        ):
            found.append((node.lineno, "imports MetadataStore"))
        elif isinstance(node, ast.Attribute) and node.attr == "MetadataStore":
            found.append((node.lineno, "references MetadataStore"))
    return sorted(found)


def test_metadata_store_api_is_the_store_watermarks():
    tree = ast.parse((SRC_ROOT / "engine" / "metadata.py").read_text(encoding="utf-8"))
    methods, fields = _public_surface(tree, "MetadataStore")
    assert methods == STORE_WATERMARK_METHODS, (
        "MetadataStore holds store replay watermarks only; read every other "
        f"freshness fact from its owner. Extra: {sorted(methods - STORE_WATERMARK_METHODS)}"
        f", missing: {sorted(STORE_WATERMARK_METHODS - methods)}"
    )
    assert fields == STORE_WATERMARK_FIELDS, f"unexpected fields: {sorted(fields)}"


def test_only_the_agent_coordinator_writes_a_watermark():
    violations = [
        f"src/repro/{relative}:{line}: calls update_watermark"
        for relative, tree in _modules()
        if relative != WATERMARK_WRITER
        for line in _watermark_writes(tree)
    ]
    assert not violations, (
        f"store watermarks advance only as agents replay ({WATERMARK_WRITER}):\n"
        + "\n".join(violations)
    )


def test_metadata_store_stays_inside_the_engine():
    violations = [
        f"src/repro/{relative}:{line}: {what}"
        for relative, tree in _modules()
        if not relative.startswith(METADATA_HOME)
        for line, what in _metadata_store_uses(tree)
    ]
    assert not violations, (
        "only repro.engine uses the metadata store; elsewhere read freshness "
        "from its owner (ViewManager, ReplicaNode, ServingFleet.lag):\n"
        + "\n".join(violations)
    )


def test_the_guard_sees_every_shape():
    source = (
        "from repro.engine.metadata import MetadataStore\n"
        "from repro.engine import metadata\n"
        "store = metadata.MetadataStore()\n"
        "store.update_watermark('replica', 3)\n"
        "class MetadataStore:\n"
        "    watermarks: dict\n"
        "    view_marks = {}\n"
        "    _private = 0\n"
        "    def watermark(self): ...\n"
        "    async def serving_metrics(self): ...\n"
        "    def _helper(self): ...\n"
    )
    tree = ast.parse(source)
    assert _metadata_store_uses(tree) == [
        (1, "imports MetadataStore"),
        (3, "references MetadataStore"),
    ]
    assert _watermark_writes(tree) == [4]
    assert _public_surface(tree, "MetadataStore") == (
        {"watermark", "serving_metrics"},
        {"watermarks", "view_marks"},
    )
