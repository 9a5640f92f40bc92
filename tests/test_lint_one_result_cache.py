"""Lint guard: the read path caches results once, at the front door.

Every replica holds each view whole and answers each query whole, so a
result cache below the door only duplicates the per-tenant caches, needs
its own invalidation under the replica apply lock, and has no answer to
"what LSN were these rows served at".  The per-tenant ``QueryCache`` of
``serving/frontdoor/tenancy.py`` is the only one (docs/frontdoor.md).

The guard parses every module under ``src/repro`` and fails on:

* ``QueryCache`` defined, imported or constructed outside
  ``serving/frontdoor/``;
* a function declaring a ``use_cache`` parameter, other than the door's
  real switch (``FrontDoor.query``) and two documented no-ops kept for
  callers written against the old signature (``QueryExecutor.execute``,
  ``QueryRouter.execute``).
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The package allowed to hold result caches, relative to src/repro.
CACHE_HOME = "serving/frontdoor/"

#: The functions allowed a ``use_cache`` parameter: (module, qualified name).
USE_CACHE_ALLOWED = {
    ("serving/frontdoor/frontdoor.py", "FrontDoor.query"),
    ("live/executor.py", "QueryExecutor.execute"),
    ("serving/query_router.py", "QueryRouter.execute"),
}


def _cache_uses(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(
            alias.name == "QueryCache" for alias in node.names
        ):
            found.append((node.lineno, "imports QueryCache"))
        elif isinstance(node, ast.ClassDef) and node.name == "QueryCache":
            found.append((node.lineno, "defines QueryCache"))
        elif isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id == "QueryCache")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "QueryCache")
        ):
            found.append((node.lineno, "constructs QueryCache"))
    return sorted(found)


def _use_cache_parameters(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, qualified name) of every function declaring ``use_cache``."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                arguments = child.args
                names = {
                    arg.arg
                    for arg in (*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs)
                }
                if "use_cache" in names:
                    found.append((child.lineno, f"{prefix}{child.name}"))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return sorted(found)


def _modules():
    for path in sorted(SRC_ROOT.rglob("*.py")):
        relative = path.relative_to(SRC_ROOT).as_posix()
        yield relative, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_query_cache_lives_only_at_the_front_door():
    violations = [
        f"src/repro/{relative}:{line}: {what}"
        for relative, tree in _modules()
        if not relative.startswith(CACHE_HOME)
        for line, what in _cache_uses(tree)
    ]
    assert not violations, (
        "QueryCache belongs to the front door's per-tenant caches only:\n"
        + "\n".join(violations)
    )


def test_no_use_cache_parameter_below_the_door():
    violations = [
        f"src/repro/{relative}:{line}: {name} declares use_cache"
        for relative, tree in _modules()
        for line, name in _use_cache_parameters(tree)
        if (relative, name) not in USE_CACHE_ALLOWED
    ]
    assert not violations, (
        "only FrontDoor.query switches a result cache (QueryExecutor.execute and "
        "QueryRouter.execute keep use_cache as documented no-ops):\n"
        + "\n".join(violations)
    )


def test_the_guard_sees_every_shape():
    source = (
        "from repro.live.executor import QueryCache\n"
        "class QueryCache:\n"
        "    pass\n"
        "cache = executor.QueryCache(capacity=4)\n"
        "other = QueryCache()\n"
        "class Replica:\n"
        "    def query(self, plan, use_cache=True):\n"
        "        def inner(*, use_cache): ...\n"
        "async def serve(use_cache=False, /): ...\n"
        "def fine(cache=None): ...\n"
    )
    tree = ast.parse(source)
    assert _cache_uses(tree) == [
        (1, "imports QueryCache"),
        (2, "defines QueryCache"),
        (4, "constructs QueryCache"),
        (5, "constructs QueryCache"),
    ]
    assert _use_cache_parameters(tree) == [
        (7, "Replica.query"),
        (8, "Replica.query.inner"),
        (9, "serve"),
    ]
