"""Lint guard: only the construction pipeline commits ingestion results.

A snapshot enters the KG one way (docs/construction.md, "Batches and
failures"): ``KnowledgeConstructionPipeline.consume_many`` is the one loop
that advances a source's consumed snapshot (``IngestionResult.commit``) and
the one place that turns a failed commit's exception back into its report
(``construction_report``).  A second reader of either is a second set of
failure rules, which every fix to those rules then has to find.

The guard parses every module under ``src/repro`` except
``construction/pipeline.py`` and fails on:

* a read of ``construction_report``: an attribute load, or the name as a
  string constant (``getattr(exc, "construction_report", None)``).  The
  constructor *setting* it on the exception it raises is not a read;
* a call ``<expr>.commit()`` with no arguments, the shape of
  ``IngestionResult.commit``.  ``DeltaComputer.commit`` takes the source,
  the entities and the timestamp, so it does not match.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The one module allowed to commit ingestion results, relative to src/repro.
ALLOWED = "construction/pipeline.py"


def _violations(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "construction_report"
            and isinstance(node.ctx, ast.Load)
        ) or (isinstance(node, ast.Constant) and node.value == "construction_report"):
            found.append((node.lineno, "reads construction_report"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "commit"
            and not node.args
            and not node.keywords
        ):
            found.append((node.lineno, "calls .commit()"))
    return sorted(found)


def test_only_the_construction_pipeline_commits_ingestion_results():
    violations = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        relative = path.relative_to(SRC_ROOT).as_posix()
        if relative == ALLOWED:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        violations.extend(
            f"src/repro/{relative}:{line}: {what}" for line, what in _violations(tree)
        )
    assert not violations, (
        "only construction/pipeline.py may read construction_report or call "
        "IngestionResult.commit (route ingestion through consume_many):\n"
        + "\n".join(violations)
    )


def test_the_guard_sees_both_shapes():
    source = (
        "failed = getattr(exc, 'construction_report', None)\n"
        "report = exc.construction_report\n"
        "result.commit()\n"
        "exc.construction_report = report\n"
        "computer.commit(source_id, entities, timestamp)\n"
    )
    assert _violations(ast.parse(source)) == [
        (1, "reads construction_report"),
        (2, "reads construction_report"),
        (3, "calls .commit()"),
    ]
