"""Lint guard: no graph library in the process.

Entity importance (``engine/importance.py``) builds its graph from one pass
over the store's columns and runs PageRank as a numpy power iteration, so
nothing under ``src/`` needs ``networkx``, or the ``scipy`` its PageRank
imports.  Together they put some 360 modules into every process that
materialized the Figure-7 views (26 MB of peak RSS on ``bench_e2e``'s
``construct`` workload), and ``scipy`` was never a pinned dependency.

The guard fails on:

* an ``import`` / ``from ... import`` of either package, or an
  ``importlib.import_module`` / ``__import__`` call naming one, in any module
  under ``src/``;
* either package in ``sys.modules`` after a fresh process imports ``repro``
  and materializes the Figure-7 views.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys

import repro

SRC_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Top-level packages the program must not import.
BANNED = {"networkx", "scipy"}


def _banned_imports(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in ("import_module", "__import__")
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            names = [node.args[0].value]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.split(".")[0] in BANNED]
    return found


def test_no_module_under_src_imports_a_graph_library():
    offending = [
        f"{path.relative_to(SRC_ROOT)}:{line}: {name}"
        for path in sorted(SRC_ROOT.rglob("*.py"))
        for line, name in _banned_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not offending, f"graph-library imports under src/: {offending}"


def test_the_guard_sees_every_shape():
    source = (
        "import networkx as nx\n"
        "import os, scipy.sparse\n"
        "from networkx.algorithms import pagerank\n"
        "from scipy import sparse\n"
        "importlib.import_module('scipy.sparse')\n"
        "__import__('networkx')\n"
        "import numpy\n"
        "from . import scipy\n"
        "from networkx_free import x\n"
    )
    assert [line for line, _ in _banned_imports(ast.parse(source))] == [1, 2, 3, 4, 5, 6]


def test_materializing_the_views_loads_no_graph_library():
    snippet = (
        "import json, sys\n"
        "import repro\n"
        "from repro.model.provenance import Provenance\n"
        "from repro.model.triples import ExtendedTriple, TripleStore\n"
        "from repro.saga import SagaPlatform\n"
        "store = TripleStore(\n"
        "    ExtendedTriple(f'kg:s{i}', 'performed_by', f'kg:s{(i + 1) % 5}',\n"
        "                   provenance=Provenance.from_source('wiki'))\n"
        "    for i in range(5)\n"
        ")\n"
        "engine = SagaPlatform().graph_engine\n"
        "engine.publish_store(store, source_id='construction')\n"
        "built = engine.materialize_views(engine.register_standard_views())\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] in sys.argv[1:])\n"
        "print(json.dumps([sorted(built), loaded]))\n"
    )
    src_dir = str(pathlib.Path(repro.__file__).resolve().parents[1])
    output = subprocess.run(
        [sys.executable, "-c", snippet, *sorted(BANNED)],
        env=dict(os.environ, PYTHONPATH=src_dir), capture_output=True, text=True, check=True,
    ).stdout
    built, loaded = json.loads(output)
    assert built == ["entity_features", "entity_importance", "entity_neighbourhood",
                     "ranked_entity_index"]
    assert loaded == []
