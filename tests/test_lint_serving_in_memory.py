"""Lint guard: the serving tier keeps its state in memory and writes no file.

The primary's log, stores and views live in the serving process, and a new
process rebuilds them from sources, possibly with other content at the same
LSN.  So the delta journal, the replicas and the router hold everything in
memory: a journal file or a replica checkpoint written beside them would be
read back by nothing, or chained onto views it does not describe
(docs/serving.md, "The in-memory journal").  A file write comes back only
together with a reader that uses it.

The guard parses every module under ``src/repro/serving/`` and fails on:

* an ``import`` / ``from ... import`` of ``json``, ``os``, ``pathlib``,
  ``shutil`` or ``tempfile`` (a submodule such as ``os.path`` included);
* a call of the built-in ``open``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SERVING_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro" / "serving"

#: Modules that serialize state or reach the file system.
FILE_MODULES = {"json", "os", "pathlib", "shutil", "tempfile"}


def _imported_modules(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level and node.module:
        return [node.module]
    return []


def _violations(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) of every file-module import and built-in ``open`` call."""
    found = []
    for node in ast.walk(tree):
        for module in _imported_modules(node):
            if module.split(".")[0] in FILE_MODULES:
                found.append((node.lineno, f"imports {module}"))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "open"
        ):
            found.append((node.lineno, "calls open"))
    return sorted(found)


def test_the_serving_tier_does_no_file_io():
    modules = sorted(SERVING_ROOT.rglob("*.py"))
    assert modules, f"no modules under {SERVING_ROOT}"
    offending = [
        f"{path.relative_to(SERVING_ROOT).as_posix()}:{line}: {what}"
        for path in modules
        for line, what in _violations(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not offending, (
        "the serving tier keeps its state in memory; a file write needs a "
        f"reader that uses it: {offending}"
    )


def test_the_guard_sees_every_shape():
    source = (
        "import json\n"
        "import os.path\n"
        "from pathlib import Path\n"
        "import shutil, tempfile\n"
        "def save(p):\n"
        "    with open(p, 'w') as handle:\n"
        "        import json as j\n"
        "import threading\n"
        "from . import json\n"
        "from repro.serving import journal_store\n"
        "handle.open()\n"
        "opened = 'open'\n"
    )
    assert _violations(ast.parse(source)) == [
        (1, "imports json"),
        (2, "imports os.path"),
        (3, "imports pathlib"),
        (4, "imports shutil"),
        (4, "imports tempfile"),
        (6, "calls open"),
        (7, "imports json"),
    ]
