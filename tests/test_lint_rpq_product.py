"""Lint guard: REACH runs one folded product BFS over a minimal DFA, and
builds witnesses only for the answers asked for.

``RpqEvaluator._evaluate_product`` walks (node, state) pairs in
canonical-witness order, so a pair's first discovery is its canonical
witness: each pair holds its parent pair and an edge label, and
``ReachAnswers`` builds a witness on demand for the rows a query returns.
Separate expand and merge steps built a witness for every candidate,
visited or not, and then threw most of them away; over the unminimised
automaton that was most of REACH's time.  Later, a witness tuple per
visited pair (concatenated round by round) and a projection of every
visited pair onto answers (``accepting_answers``) built ~180 witnesses for
the 50 rows a LIMIT returned.  Every automaton the evaluator sees comes out
of ``compile_automaton``, which minimises it.

The guard parses ``src/repro`` and fails on:

* a definition of ``expand_product_entries``, ``merge_frontier``,
  ``initial_frontier`` or ``accepting_answers`` in ``live/rpq.py``;
* a tuple concatenation (``x + (...)``, ``(...) + x`` or ``x += (...)``) in
  ``RpqEvaluator._evaluate_product``, which would build witnesses in the
  BFS again;
* an ``Automaton(...)`` call in any module but ``live/rpq.py``, which would
  hand the evaluator an automaton that skipped minimisation.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"
RPQ = SRC_ROOT / "live" / "rpq.py"

#: The unfolded product-BFS steps and the eager witness projection.
UNFOLDED_STEPS = {
    "expand_product_entries", "merge_frontier", "initial_frontier", "accepting_answers",
}


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


def _tuple_concatenations(function: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(function):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            if isinstance(node.left, ast.Tuple) or isinstance(node.right, ast.Tuple):
                lines.append(node.lineno)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            if isinstance(node.value, ast.Tuple):
                lines.append(node.lineno)
    return lines


def test_the_product_bfs_concatenates_no_tuple():
    products = [
        method
        for node in ast.walk(_tree(RPQ))
        if isinstance(node, ast.ClassDef) and node.name == "RpqEvaluator"
        for method in node.body
        if isinstance(method, ast.FunctionDef) and method.name == "_evaluate_product"
    ]
    assert len(products) == 1, "RpqEvaluator._evaluate_product is gone"
    lines = _tuple_concatenations(products[0])
    assert not lines, f"_evaluate_product concatenates a tuple at lines {lines}"


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
