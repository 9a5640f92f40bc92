"""Lint guard: the front door parses each query shape once.

A request's literals are lifted out of its text, the shape keys the
tenant's LRU, and a hit binds the literals into the parsed shape and plans
it (docs/frontdoor.md).  Rendering a plan back to text, or parsing anywhere
but the shape cache's miss path, would put a text-sized cost back on every
request.

The guard parses every module under ``src/repro/serving/frontdoor`` and
fails on:

* a ``.render(...)`` call;
* a call of ``parse``, ``parse_shape`` or ``tokenize`` outside
  ``TenantRegistry.compile``.
"""

from __future__ import annotations

import ast
from pathlib import Path

DOOR_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro" / "serving" / "frontdoor"

#: The parsing entry points of repro.live.kgq.
PARSERS = {"parse", "parse_shape", "tokenize"}

#: The one function allowed to call them, as "Class.method".
PARSE_HOME = "TenantRegistry.compile"


def _called_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _violations(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) of every render call and every parse outside PARSE_HOME."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                name = _called_name(child)
                if name == "render" and isinstance(child.func, ast.Attribute):
                    found.append((child.lineno, "calls .render()"))
                elif name in PARSERS and not (
                    scope == PARSE_HOME or scope.startswith(PARSE_HOME + ".")
                ):
                    found.append((child.lineno, f"calls {name}() in {scope or 'the module'}"))
            visit(child, inner)

    visit(tree, "")
    return sorted(found)


def test_the_door_parses_only_in_the_shape_cache():
    modules = sorted(DOOR_ROOT.glob("*.py"))
    assert modules, DOOR_ROOT
    violations = [
        f"{path.name}:{line}: {what}"
        for path in modules
        for line, what in _violations(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not violations, (
        "the front door renders no plan and parses only in TenantRegistry.compile:\n"
        + "\n".join(violations)
    )


def test_the_guard_sees_every_shape():
    source = (
        "class FrontDoor:\n"
        "    def _cache_key(self, plan):\n"
        "        return plan.query.render()\n"
        "class TenantRegistry:\n"
        "    def compile(self, text):\n"
        "        shape = parse_shape(text)\n"
        "        fallback = kgq.parse(text)\n"
        "        def helper():\n"
        "            return tokenize(text)\n"
        "    def other(self, text):\n"
        "        return kgq.tokenize(text)\n"
        "plan = parse(TEXT)\n"
        "label = render(plan)\n"
    )
    assert _violations(ast.parse(source)) == [
        (3, "calls .render()"),
        (11, "calls tokenize() in TenantRegistry.other"),
        (12, "calls parse() in the module"),
    ]
