"""Lint guard: the front door runs every plan inline on its event loop.

A KGQ plan, REACH included, runs in well under the interpreter's 5 ms switch
interval, and every thread shares one interpreter lock, so a worker thread
would hold the lock for the whole plan anyway: a hop to a pool only adds two
thread switches and a future to each request (docs/frontdoor.md, "Where a
plan runs").

The guard parses every module under ``src/repro/serving/frontdoor`` and
fails on:

* an ``import`` / ``from ... import`` of ``concurrent.futures`` (or
  ``from concurrent import futures``);
* a name or attribute ``ThreadPoolExecutor``, ``run_in_executor`` or
  ``to_thread``.
"""

from __future__ import annotations

import ast
from pathlib import Path

DOOR_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro" / "serving" / "frontdoor"

#: Names that hand a plan to another thread.
BANNED_NAMES = {"ThreadPoolExecutor", "run_in_executor", "to_thread"}


def _imports_futures(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("concurrent.futures") for alias in node.names)
    if isinstance(node, ast.ImportFrom) and not node.level:
        module = node.module or ""
        if module.startswith("concurrent.futures"):
            return True
        return module == "concurrent" and any(a.name == "futures" for a in node.names)
    return False


def _violations(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) of every executor import or executor name."""
    found = []
    for node in ast.walk(tree):
        if _imports_futures(node):
            found.append((node.lineno, "imports concurrent.futures"))
        elif isinstance(node, ast.Name) and node.id in BANNED_NAMES:
            found.append((node.lineno, f"names {node.id}"))
        elif isinstance(node, ast.Attribute) and node.attr in BANNED_NAMES:
            found.append((node.lineno, f"names {node.attr}"))
    return sorted(found)


def test_the_front_door_hands_no_plan_to_a_thread():
    modules = sorted(DOOR_ROOT.glob("*.py"))
    assert modules, f"no modules under {DOOR_ROOT}"
    offending = [
        f"{path.name}:{line}: {what}"
        for path in modules
        for line, what in _violations(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not offending, f"the front door must run plans inline: {offending}"


def test_the_guard_sees_every_shape():
    source = (
        "import concurrent.futures\n"
        "from concurrent.futures import Future\n"
        "from concurrent import futures\n"
        "pool = ThreadPoolExecutor(2)\n"
        "loop.run_in_executor(None, f)\n"
        "asyncio.to_thread(f)\n"
        "import concurrent\n"
        "import asyncio\n"
        "from . import futures\n"
        "pool_size = 2\n"
        "name = 'run_in_executor'\n"
    )
    assert [line for line, _ in _violations(ast.parse(source))] == [1, 2, 3, 4, 5, 6]
