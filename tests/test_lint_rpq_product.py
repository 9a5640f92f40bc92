"""Lint guard: REACH runs one folded product BFS over a minimal DFA.

``RpqEvaluator._evaluate_product`` drops an already-visited ``(node,
state)`` pair before it builds a witness, and builds one witness tuple per
new pair.  Separate expand and merge steps built a witness for every
candidate, visited or not, and then threw most of them away; over the
unminimised automaton that was most of REACH's time.  Every automaton the
evaluator sees comes out of ``compile_automaton``, which minimises it.

The guard parses ``src/repro`` and fails on:

* a definition of ``expand_product_entries``, ``merge_frontier`` or
  ``initial_frontier`` in ``live/rpq.py``;
* an ``Automaton(...)`` call in any module but ``live/rpq.py``, which would
  hand the evaluator an automaton that skipped minimisation.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"
RPQ = SRC_ROOT / "live" / "rpq.py"

#: The unfolded product-BFS steps.
UNFOLDED_STEPS = {"expand_product_entries", "merge_frontier", "initial_frontier"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_rpq_defines_no_unfolded_product_steps():
    defined = sorted(
        node.name
        for node in ast.walk(_tree(RPQ))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name in UNFOLDED_STEPS
    )
    assert not defined, f"live/rpq.py defines {defined}"


def test_only_rpq_constructs_an_automaton():
    offending = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        if path == RPQ:
            continue
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "Automaton":
                offending.append(f"{path.relative_to(SRC_ROOT)}:{node.lineno}")
    assert not offending, f"Automaton constructed outside live/rpq.py: {offending}"
