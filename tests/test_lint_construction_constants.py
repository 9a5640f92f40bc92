"""Lint guard: construction and NERD take no tuning knobs.

Every threshold, seed and budget of linking (blocking, pair generation,
clustering), object resolution, fusion, truth discovery and NERD is a module
constant with the value the platform runs (``docs/construction.md``,
"Constants").  No caller ever set another, so the config classes only let
tests pin settings production never used.  A test that needs another value
monkeypatches the constant.

The guard parses ``src/repro/construction/`` and ``src/repro/ml/nerd/`` and
fails on:

* a class whose name ends in ``Config``;
* a function parameter named ``config``, ``*_config`` or ``*_threshold``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"
GUARDED = (SRC_ROOT / "construction", SRC_ROOT / "ml" / "nerd")


def _knob_parameter(name: str) -> bool:
    return name == "config" or name.endswith("_config") or name.endswith("_threshold")


def knobs_in(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, description)`` of every config class and knob parameter."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name.endswith("Config"):
            found.append((node.lineno, f"class {node.name}"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            parameters = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            parameters += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
            for arg in parameters:
                if _knob_parameter(arg.arg):
                    found.append((arg.lineno, f"parameter {arg.arg}"))
    return found


def test_guarded_packages_exist():
    for package in GUARDED:
        assert (package / "__init__.py").is_file(), package


def test_construction_and_nerd_take_no_knobs():
    offending = []
    for package in GUARDED:
        for path in sorted(package.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for line, what in knobs_in(tree):
                offending.append(f"{path.relative_to(SRC_ROOT)}:{line}: {what}")
    assert not offending, f"tuning knobs under construction/ or ml/nerd/: {offending}"


def test_the_guard_sees_planted_knobs():
    planted = ast.parse(
        "class FooConfig:\n"
        "    pass\n"
        "def link(records, match_threshold=0.85):\n"
        "    pass\n"
        "class Stage:\n"
        "    def __init__(self, *, config=None, fusion_config=None):\n"
        "        pass\n"
    )
    assert [what for _, what in knobs_in(planted)] == [
        "class FooConfig",
        "parameter match_threshold",
        "parameter config",
        "parameter fusion_config",
    ]
