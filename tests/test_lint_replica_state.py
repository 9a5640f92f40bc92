"""Lint guard: replication chains on LSNs alone, and a replica's LSN lives in its index.

The log's LSN is the one synchronization primitive of serving (Section 3.1):
a shipped batch names the LSN it extends and the LSN it reaches, a replica
catches up from the LSN it holds, and the anti-entropy audit compares LSNs.
A second lineage number beside it was carried on every batch, journal line
and checkpoint, yet could not tell two processes' histories apart, so a
fresh replica trusted a checkpoint for rows it did not have.  A replica's
applied LSN is its ``LiveIndex`` feed watermark, read in place: a second
per-view map on the node would be one more copy to keep in step.

The guard parses the modules under ``src/repro/serving/`` and
``engine/views.py`` and fails on:

* ``revision`` / ``revisions`` as an attribute, a parameter, a keyword
  argument, a class field, or a string key;
* ``serving/replica.py`` importing or referencing ``WatermarkMap``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The names no replication layer may carry.
LINEAGE_NAMES = {"revision", "revisions"}

#: The module whose applied LSNs live only in its index, relative to src/repro.
REPLICA_MODULE = "serving/replica.py"


def _guarded_modules():
    paths = sorted((SRC_ROOT / "serving").rglob("*.py")) + [SRC_ROOT / "engine" / "views.py"]
    for path in paths:
        relative = path.relative_to(SRC_ROOT).as_posix()
        yield relative, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _lineage_uses(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in LINEAGE_NAMES:
            found.append((node.lineno, f"attribute .{node.attr}"))
        elif isinstance(node, ast.arg) and node.arg in LINEAGE_NAMES:
            found.append((node.lineno, f"parameter {node.arg}"))
        elif isinstance(node, ast.keyword) and node.arg in LINEAGE_NAMES:
            found.append((node.value.lineno, f"keyword {node.arg}="))
        elif isinstance(node, ast.Constant) and node.value in LINEAGE_NAMES:
            found.append((node.lineno, f"key {node.value!r}"))
        elif isinstance(node, ast.ClassDef):
            for child in node.body:
                if (
                    isinstance(child, ast.AnnAssign)
                    and isinstance(child.target, ast.Name)
                    and child.target.id in LINEAGE_NAMES
                ):
                    found.append((child.lineno, f"field {child.target.id}"))
    return sorted(found)


def _watermark_map_uses(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(
            alias.name == "WatermarkMap" for alias in node.names
        ):
            found.append((node.lineno, "imports WatermarkMap"))
        elif isinstance(node, ast.Attribute) and node.attr == "WatermarkMap":
            found.append((node.lineno, "references WatermarkMap"))
    return sorted(found)


def test_no_lineage_number_beside_the_lsn():
    violations = [
        f"src/repro/{relative}:{line}: {what}"
        for relative, tree in _guarded_modules()
        for line, what in _lineage_uses(tree)
    ]
    assert not violations, (
        "replication orders batches, journal lines, checkpoints and audits "
        "by LSN alone:\n" + "\n".join(violations)
    )


def test_a_replica_reads_its_applied_lsn_from_its_index():
    tree = ast.parse((SRC_ROOT / REPLICA_MODULE).read_text(encoding="utf-8"))
    violations = [
        f"src/repro/{REPLICA_MODULE}:{line}: {what}"
        for line, what in _watermark_map_uses(tree)
    ]
    assert not violations, (
        "a replica keeps no per-view LSN map of its own; its LiveIndex feed "
        "watermarks are the record:\n" + "\n".join(violations)
    )


def test_the_guard_sees_every_shape():
    source = (
        "from repro.engine.metadata import WatermarkMap\n"
        "from repro.engine import metadata\n"
        "applied = metadata.WatermarkMap()\n"
        "class Batch:\n"
        "    revision: int\n"
        "def catchup(view, revision):\n"
        "    node.revisions[view] = Batch(revision=1)\n"
        "    return {'revision': 1}\n"
        "revision_count = 0\n"
    )
    tree = ast.parse(source)
    assert _watermark_map_uses(tree) == [
        (1, "imports WatermarkMap"),
        (3, "references WatermarkMap"),
    ]
    assert _lineage_uses(tree) == [
        (5, "field revision"),
        (6, "parameter revision"),
        (7, "attribute .revisions"),
        (7, "keyword revision="),
        (8, "key 'revision'"),
    ]
