"""RPQ — interval-encoded reachability vs the naive BFS reference.

The REACH operator evaluates over per-predicate adjacency bitmaps maintained
incrementally in the :class:`~repro.live.index.LiveIndex`; tree-shaped
closures (``part_of*`` ancestry, ``^part_of+`` descendants) additionally take
the pre/post-order interval encoding (:class:`~repro.live.rpq.IntervalIndex`),
turning iteration-to-fixpoint into parent-chain walks and one preorder range
scan.  The baseline is :func:`~repro.live.rpq.naive_rpq` — the same
set-based BFS the seeded equivalence suite uses as its oracle, which
re-derives the edge relation from the documents per query (the cost of *not*
maintaining the index).  Every timed pair is first cross-checked for
identical answers and witnesses.

Gated sections (≥3x):

* **ancestry** — ``part_of*`` from a batch of leaf seeds over a ~4k-node
  ontology tree: parent-chain walks over the interval index vs the naive
  rebuild-and-BFS;
* **descendants** — ``^part_of+`` from an interior node: one preorder range
  scan vs frontier expansion to fixpoint.

Reported ungated: the automaton-product path over the bitmaps for an
alternation expression no interval can serve — the maintained-bitmap win
without the encoding.

Writes ``BENCH_RPQ.json`` (see ``write_bench_json``) so CI tracks the
trajectory per commit.
"""

from __future__ import annotations

import random
import time

from benchmarks.conftest import print_table, write_bench_json
from repro.live.executor import QueryExecutor
from repro.live.index import LiveEntityDocument, LiveIndex
from repro.live.kgq import parse
from repro.live.rpq import compile_automaton, naive_rpq, single_label_closure

NUM_NODES = 4_000
FANOUT = 4
ANCESTRY_GATE = 3.0
DESCENDANTS_GATE = 3.0


def build_index() -> tuple[LiveIndex, list[LiveEntityDocument]]:
    """A ~4k-node ``part_of`` tree (fanout 4) with sparse ``knows`` edges."""
    rng = random.Random(7_117)
    index = LiveIndex()
    documents = []
    for i in range(NUM_NODES):
        facts: dict = {"rank": [i % 97]}
        if i > 0:
            facts["part_of"] = [f"c{(i - 1) // FANOUT:05d}"]
        if rng.random() < 0.25:
            facts["knows"] = [f"c{rng.randrange(NUM_NODES):05d}"]
        documents.append(
            LiveEntityDocument(
                entity_id=f"c{i:05d}",
                entity_type="concept",
                name=f"Concept {i}",
                facts=facts,
                timestamp=1,
            )
        )
    index.upsert_many(documents)
    return index, documents


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _measure(index: LiveIndex, documents: list[LiveEntityDocument]) -> dict:
    executor = QueryExecutor(index)
    rng = random.Random(11)
    leaf_floor = (NUM_NODES - 2) // FANOUT + 1     # every node from here on is a leaf
    sections = {
        "ancestry": {
            "expression": "part_of*",
            "seeds": sorted(f"c{rng.randrange(leaf_floor, NUM_NODES):05d}" for _ in range(16)),
        },
        "descendants": {
            "expression": "^part_of+",
            "seeds": ["c00007"],                   # an interior node's whole subtree
        },
        "product_alternation": {
            "expression": "(part_of|knows)/part_of*",
            "seeds": sorted(f"c{rng.randrange(NUM_NODES):05d}" for _ in range(8)),
        },
    }
    results: dict[str, dict] = {}
    for name, spec in sections.items():
        expr = parse(f"MATCH concept REACH {spec['expression']} RETURN name").reach
        automaton = compile_automaton(expr)
        closure = single_label_closure(expr)
        seeds = spec["seeds"]
        indexed_answers, _ = executor.rpq.evaluate("", seeds, automaton, closure)
        naive_answers, _ = naive_rpq(documents, seeds, automaton)
        assert indexed_answers == naive_answers, name       # rows AND witnesses
        if closure is not None:
            assert executor.rpq.interval_hits > 0, name     # the fast path ran
        indexed_s = _best_of(lambda: executor.rpq.evaluate("", seeds, automaton, closure))
        naive_s = _best_of(lambda: naive_rpq(documents, seeds, automaton))
        results[name] = {
            "expression": spec["expression"],
            "seeds": len(seeds),
            "answers": len(indexed_answers),
            "indexed_ms": indexed_s * 1000.0,
            "naive_bfs_ms": naive_s * 1000.0,
            "speedup": naive_s / max(indexed_s, 1e-9),
        }
    return results


def bench_rpq_interval_vs_naive_bfs(benchmark):
    """Interval/bitmap REACH evaluation vs the naive BFS reference."""
    index, documents = build_index()
    gates = {"ancestry": ANCESTRY_GATE, "descendants": DESCENDANTS_GATE}
    # Re-measure on a gate miss to absorb scheduling jitter (same pattern as
    # STORE/KGQEXEC): the ratios are structural, only the timing is noisy.
    for _ in range(3):
        results = _measure(index, documents)
        if all(results[name]["speedup"] >= floor for name, floor in gates.items()):
            break
    print_table(
        f"REACH over maintained adjacency vs naive BFS ({NUM_NODES} nodes, fanout {FANOUT})",
        ["section", "expression", "seeds", "answers", "indexed_ms", "naive_bfs_ms", "speedup"],
        [
            [name, r["expression"], r["seeds"], r["answers"],
             r["indexed_ms"], r["naive_bfs_ms"], r["speedup"]]
            for name, r in results.items()
        ],
    )
    write_bench_json("BENCH_RPQ.json", {
        "benchmark": "RPQ",
        "workload": {
            "nodes": NUM_NODES,
            "fanout": FANOUT,
            "sections": sorted(results),
        },
        "gates": gates,
        "sections": results,
    })
    for name, floor in gates.items():
        assert results[name]["speedup"] >= floor, (
            f"{name}: {results[name]['speedup']:.1f}x < {floor}x gate"
        )

    executor = QueryExecutor(index)
    expr = parse("MATCH concept REACH part_of* RETURN name").reach
    automaton = compile_automaton(expr)
    closure = single_label_closure(expr)
    seeds = [f"c{NUM_NODES - 1:05d}"]
    benchmark(lambda: executor.rpq.evaluate("", seeds, automaton, closure))
