"""RPQ — interval-encoded reachability vs the naive BFS reference.

The REACH operator evaluates over per-predicate adjacency rows (a bare
ordinal, a sorted tuple of a few, a set of more) maintained incrementally in
the :class:`~repro.live.index.LiveIndex`; tree-shaped
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

Reported ungated: the automaton-product path over the adjacency rows for an
alternation expression no interval can serve — the maintained-adjacency win
without the encoding; and **limited_product** — ``(part_of|knows)+ LIMIT 50``
through the executor, each query seeded by the ~41 concepts of one
``rank`` (interior nodes and leaves; one seed alone reaches too few
answers for the LIMIT to bind), in µs per query with the witnesses each
query built (the rows it returned, not the pairs it reached), every
query's rows and witnesses first checked against the naive BFS's first 50
answers.

The gated sections time evaluation plus every answer's witness, which is
what the naive BFS returns.

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
from repro.live.planner import QueryPlanner
from repro.live.rpq import compile_automaton, naive_rpq, single_label_closure

NUM_NODES = 4_000
FANOUT = 4
ANCESTRY_GATE = 3.0
DESCENDANTS_GATE = 3.0
LIMITED_EXPRESSION = "(part_of|knows)+"
LIMITED_ROWS = 50
LIMITED_QUERIES = 16


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


def _witnesses(answers) -> dict:
    """Every answer's witness: the evaluator's answers as the naive BFS
    returns them."""
    return dict(zip(answers, answers.witnesses(answers)))


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
        answers, _ = executor.rpq.evaluate("", seeds, automaton, closure)
        indexed_answers = {node: answers.witness(node) for node in answers}
        naive_answers, _ = naive_rpq(documents, seeds, automaton)
        assert indexed_answers == naive_answers, name       # rows AND witnesses
        if closure is not None:
            assert executor.rpq.interval_hits > 0, name     # the fast path ran
        indexed_s = _best_of(
            lambda: _witnesses(executor.rpq.evaluate("", seeds, automaton, closure)[0])
        )
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


def _measure_limited(index: LiveIndex, documents: list[LiveEntityDocument]) -> dict:
    """``(part_of|knows)+ LIMIT 50`` from the concepts of one rank a query,
    through the executor; each query's rows first checked against the
    naive BFS's first 50 answers."""
    ranks = range(LIMITED_QUERIES)
    planner = QueryPlanner(selectivity=index.seed_selectivity)
    automaton = compile_automaton(
        parse(f"MATCH concept REACH {LIMITED_EXPRESSION} RETURN name").reach
    )
    plans = [
        planner.plan(parse(
            f"MATCH concept WHERE rank = {rank} REACH {LIMITED_EXPRESSION} "
            f"RETURN name LIMIT {LIMITED_ROWS}"
        ))
        for rank in ranks
    ]
    executor = QueryExecutor(index)
    answers = 0
    for rank, plan in zip(ranks, plans):
        seeds = [d.entity_id for d in documents if d.facts["rank"] == [rank]]
        expected, _ = naive_rpq(documents, seeds, automaton)
        answers += len(expected)
        rows = executor.execute(plan).rows
        assert [(row.entity_id, row.witness) for row in rows] == [
            (node, expected[node]) for node in sorted(expected)[:LIMITED_ROWS]
        ], rank
    built = executor.rpq.witnesses_built
    for plan in plans:
        executor.execute(plan)
    built = executor.rpq.witnesses_built - built
    elapsed_s = _best_of(lambda: [executor.execute(plan) for plan in plans])
    return {
        "expression": f"{LIMITED_EXPRESSION} LIMIT {LIMITED_ROWS}",
        "queries": len(plans),
        "answers_per_query": answers / len(plans),
        "us_per_query": elapsed_s / len(plans) * 1e6,
        "witnesses_built_per_query": built / len(plans),
    }


def bench_rpq_interval_vs_naive_bfs(benchmark):
    """Interval/adjacency REACH evaluation vs the naive BFS reference."""
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
    limited = results["limited_product"] = _measure_limited(index, documents)
    print_table(
        "REACH with a LIMIT through the executor (ungated)",
        ["expression", "queries", "answers_per_query", "us_per_query", "witnesses_built_per_query"],
        [[limited["expression"], limited["queries"], limited["answers_per_query"],
          limited["us_per_query"], limited["witnesses_built_per_query"]]],
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
