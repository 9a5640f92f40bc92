"""Lint guard: TripleStore private internals stay inside the model layer.

The columnar refactor (docs/store.md) made the store's layout an
implementation detail: per-predicate column partitions, term dictionaries (with
their cached term reprs), the insertion-ordered ref dict, the subject/object
indexes and the per-source row counts.  Consumers must go through the public
API — ``facts_about``/``value_of`` lookups, the batch operators, ``to_rows``/
``canonical_rows`` — so the layout can keep evolving (and the per-source
row counts can stay in step with every provenance replacement) without
auditing every caller.

This test greps the tree for attribute access to the private fields and fails
with the offending locations.  ``src/repro/model/`` owns the layout, and
``tests/oracles/legacy_store.py`` is the frozen pre-refactor implementation
(a test-side oracle) whose same-named fields are its own.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Directories whose Python files must not reach into the store's internals.
SCANNED_DIRS = ("src", "tests", "benchmarks", "examples")

#: The store-private fields.
PRIVATE_FIELDS = (
    "row_order",
    "by_subject",
    "by_object",
    "source_rows",
    "partitions",
    "subject_terms",
    "predicate_terms",
    "locale_terms",
    "rid_terms",
    "object_terms",
    "facts_cache",
    "none_rid",
    "none_rpred",
)

PRIVATE_ACCESS = re.compile(r"\._(?:" + "|".join(PRIVATE_FIELDS) + r")\b")

#: Files allowed to touch the layout, relative to the repo root.
ALLOWED = (
    "src/repro/model/",
    "tests/oracles/legacy_store.py",
    "tests/test_lint_store_internals.py",
)


def test_store_internals_stay_in_model_layer():
    violations = []
    for directory in SCANNED_DIRS:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            relative = path.relative_to(REPO_ROOT).as_posix()
            if relative.startswith(ALLOWED) or relative in ALLOWED:
                continue
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1
            ):
                if PRIVATE_ACCESS.search(line):
                    violations.append(f"{relative}:{number}: {line.strip()}")
    assert not violations, (
        "TripleStore private internals accessed outside src/repro/model/ "
        "(use the public store API instead):\n" + "\n".join(violations)
    )
