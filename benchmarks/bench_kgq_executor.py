"""KGQEXEC — the set-based KGQ executor vs the per-document reference loop.

The executor evaluates plans as set and column operations over candidate id
batches: equality filters intersect raw
inverted-index postings (with per-document verification of the probe
superset), range/CONTAINS filters walk batched value columns fetched with
one ``get_many`` per hop, and projections batch reference resolution.  The
per-document loop — one `_walk_path`/`_evaluate_condition` pass per
candidate — is kept with the tests as the reference implementation
(``oracles.per_document_executor``; run with ``tests/`` on ``PYTHONPATH``),
so every timed pair is first cross-checked for identical rows and
``candidates_examined``.

Gated sections (≥3x):

* **type_scan_equality** — a type scan over the full partition with a
  selective equality filter: the postings intersection touches only the
  matching ids where the reference loop walks every candidate;
* **filter_heavy** — equality + range + CONTAINS stacked on a type scan:
  the postings cut runs first (ordered by seed selectivity), so the
  columnar filters see two orders of magnitude fewer candidates.

Reported ungated: a two-equality indexed point query (both executors share the
seed, the win is only the residual filter), a pure range scan (columnar
batch fetch vs per-document walks over the same candidate count), and a
LIMIT early-break scan (both stop at the limit-th hit).

Writes ``BENCH_KGQEXEC.json`` (see ``write_bench_json``) so CI tracks the
trajectory per commit.
"""

from __future__ import annotations

import random
import time

from benchmarks.conftest import print_table, write_bench_json
from oracles.per_document_executor import PerDocumentExecutor
from repro.live.executor import QueryExecutor
from repro.live.index import LiveEntityDocument, LiveIndex
from repro.live.kgq import Condition, Query, parse
from repro.live.planner import (
    FilterOp,
    LimitOp,
    PhysicalPlan,
    ProjectOp,
    QueryPlanner,
    TypeScan,
)

NUM_DOCS = 6_000
GENRES = [f"genre_{i:02d}" for i in range(50)]          # ~2% selectivity each
DECADES = [f"{d}s" for d in range(1900, 2030, 10)]
EQUALITY_GATE = 3.0
FILTER_HEAVY_GATE = 3.0


def build_index(num_docs: int = NUM_DOCS) -> LiveIndex:
    rng = random.Random(4_242)
    index = LiveIndex()
    documents = []
    for i in range(num_docs):
        documents.append(LiveEntityDocument(
            entity_id=f"track:{i:05d}",
            entity_type="track",
            name=f"Track {rng.randrange(num_docs)} {rng.choice(GENRES)}",
            facts={
                "genre": [rng.choice(GENRES)],
                "decade": [rng.choice(DECADES)],
                "score": [rng.randrange(0, 1000)],
            },
            references={"album": f"album:{i % 500:03d}"},
            timestamp=1,
            is_live=True,
        ))
    index.upsert_many(documents)
    return index


def type_scan_plan(conditions: list[Condition], limit: int | None = None) -> PhysicalPlan:
    """A TypeScan plan keeping every condition as a FilterOp — the shape a
    query takes when its equality conditions cannot all fold into the seed."""
    query = Query(
        entity_type="track",
        conditions=conditions,
        returns=[("name",), ("score",)],
        limit=limit,
    )
    return PhysicalPlan(
        query=query,
        seed=TypeScan("track"),
        filters=[FilterOp(condition) for condition in conditions],
        project=ProjectOp(tuple(query.returns)),
        limit=LimitOp(limit) if limit is not None else None,
    )


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _measure(index: LiveIndex) -> dict:
    executor = QueryExecutor(index)
    reference_executor = PerDocumentExecutor(index)
    planner = QueryPlanner(selectivity=index.seed_selectivity)
    plans = {
        "type_scan_equality": type_scan_plan(
            [Condition(("genre",), "=", "genre_07")]
        ),
        "filter_heavy": type_scan_plan([
            Condition(("genre",), "=", "genre_07"),
            Condition(("score",), ">", 250),
            Condition(("name",), "CONTAINS", "track"),
        ]),
        "indexed_point": planner.plan(parse(
            'MATCH track WHERE genre = "genre_07" AND decade = "1990s" RETURN name, score'
        )),
        "range_scan": type_scan_plan([Condition(("score",), ">", 900)]),
        "limit_break": type_scan_plan([], limit=25),
    }
    results: dict[str, dict] = {}
    for name, plan in plans.items():
        vectorized = executor.execute(plan)
        reference = reference_executor.execute(plan)
        rows = [(row.entity_id, row.values) for row in vectorized.rows]
        assert rows == [(row.entity_id, row.values) for row in reference.rows], name
        assert vectorized.candidates_examined == reference.candidates_examined, name
        vec_s = _best_of(lambda: executor.execute(plan))
        ref_s = _best_of(lambda: reference_executor.execute(plan))
        results[name] = {
            "rows": len(rows),
            "examined": vectorized.candidates_examined,
            "vectorized_ms": vec_s * 1000.0,
            "per_document_ms": ref_s * 1000.0,
            "speedup": ref_s / max(vec_s, 1e-9),
        }
    return results


def bench_kgqexec_vectorized_vs_per_document(benchmark):
    """Vectorized vs per-document execution on the plans the refactor targets."""
    index = build_index()
    gates = {
        "type_scan_equality": EQUALITY_GATE,
        "filter_heavy": FILTER_HEAVY_GATE,
    }
    # Re-measure on a gate miss to absorb scheduling jitter (same pattern as
    # STORE): the ratios are structural, only the timing is noisy.
    for _ in range(3):
        results = _measure(index)
        if all(results[name]["speedup"] >= floor for name, floor in gates.items()):
            break
    print_table(
        f"Vectorized vs per-document KGQ execution ({NUM_DOCS} documents)",
        ["plan", "rows", "examined", "vectorized_ms", "per_document_ms", "speedup"],
        [
            [name, r["rows"], r["examined"], r["vectorized_ms"],
             r["per_document_ms"], r["speedup"]]
            for name, r in results.items()
        ],
    )
    write_bench_json("BENCH_KGQEXEC.json", {
        "benchmark": "KGQEXEC",
        "workload": {
            "documents": NUM_DOCS,
            "genres": len(GENRES),
            "plans": sorted(results),
        },
        "gates": gates,
        "sections": results,
    })
    for name, floor in gates.items():
        assert results[name]["speedup"] >= floor, (
            f"{name}: {results[name]['speedup']:.1f}x < {floor}x gate"
        )

    executor = QueryExecutor(index)
    plan = type_scan_plan([Condition(("genre",), "=", "genre_07")])
    benchmark(lambda: executor.execute(plan))
