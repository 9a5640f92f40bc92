"""STORE — columnar TripleStore hot loops vs the frozen legacy store.

The columnar refactor (docs/store.md) dictionary-interns every term and lays
facts out in per-predicate column partitions, so the hot loops that dominated
profile time in construction fusion, view building, and serving now run over
dense ids and cached materializations instead of re-sorting and re-hashing
triple objects.  This benchmark measures the loops the refactor targeted, with
:class:`oracles.legacy_store.LegacyTripleStore` (the pre-refactor
implementation, kept verbatim with the tests — run with ``tests/`` on
``PYTHONPATH``) as the baseline:

* **bulk scan** — repeated ``facts_about`` sweeps over every subject, the
  access pattern of view delta builders and replica reads (gated ≥5x);
* **point lookups** — ``value_of``/``values_of`` via the ``(subject,
  predicate)`` composite index (gated ≥3x);
* bulk load, ``remove_source`` via the inverted source index, and
  ``canonical_rows`` are reported ungated.

Every timed pair is cross-checked through ``canonical_rows()`` — a speedup on
a store that diverged from the legacy baseline would be meaningless.  Writes
``BENCH_TRIPLESTORE.json`` (see ``write_bench_json``) so CI tracks the
trajectory per commit.
"""

from __future__ import annotations

import time

from benchmarks.conftest import print_table, write_bench_json
from oracles.legacy_store import LegacyTripleStore
from repro.model.triples import TripleStore

SCAN_PASSES = 5
POINT_PREDICATES = ("name", "type", "genre", "popularity", "birth_date")

SCAN_GATE = 5.0
POINT_GATE = 3.0


def _best_of(fn, repeats: int = 3) -> float:
    """Best wall-clock of *repeats* runs, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _measure(rows: list[dict]) -> dict:
    columnar = TripleStore.from_rows(rows)
    legacy = LegacyTripleStore.from_rows(rows)
    assert columnar.canonical_rows() == legacy.canonical_rows()
    subjects = sorted(legacy.subjects())
    results: dict[str, dict] = {}

    def section(name: str, col_fn, leg_fn, repeats: int = 3) -> None:
        col_s = _best_of(col_fn, repeats)
        leg_s = _best_of(leg_fn, repeats)
        results[name] = {
            "columnar_ms": col_s * 1000.0,
            "legacy_ms": leg_s * 1000.0,
            "speedup": leg_s / max(col_s, 1e-9),
        }

    section(
        "bulk_load",
        lambda: TripleStore.from_rows(rows),
        lambda: LegacyTripleStore.from_rows(rows),
    )

    def sweep(store) -> int:
        touched = 0
        for _ in range(SCAN_PASSES):
            for subject in subjects:
                touched += len(store.facts_about(subject))
        return touched

    assert sweep(columnar) == sweep(legacy)  # warm caches + cross-check
    section("scan_sweep", lambda: sweep(columnar), lambda: sweep(legacy))

    def points(store) -> None:
        for subject in subjects:
            for predicate in POINT_PREDICATES:
                store.value_of(subject, predicate)
                store.values_of(subject, predicate)

    for subject in subjects[:50]:
        for predicate in POINT_PREDICATES:
            assert columnar.value_of(subject, predicate) == legacy.value_of(
                subject, predicate
            )
            assert columnar.values_of(subject, predicate) == legacy.values_of(
                subject, predicate
            )
    section("point_lookups", lambda: points(columnar), lambda: points(legacy))

    # Source deletion: spread the facts over fifty feeds and delete one, the
    # governance case the inverted source index exists for — the legacy store
    # scans every fact, the columnar store touches only the feed's slice (the
    # index's advantage grows with the store-to-source size ratio).
    multi_rows = [
        {**row, "sources": [f"feed-{index % 50}"], "trust": [0.9]}
        for index, row in enumerate(rows)
    ]
    check_col = TripleStore.from_rows(multi_rows)
    check_leg = LegacyTripleStore.from_rows(multi_rows)
    assert check_col.remove_source("feed-3") == check_leg.remove_source("feed-3")
    assert check_col.canonical_rows() == check_leg.canonical_rows()
    # Fresh builds for both pools, made before the timed region.  The
    # consumed stores are kept alive so their deallocation (thousands of
    # objects) also lands outside the timed region.
    col_pool = [TripleStore.from_rows(multi_rows) for _ in range(3)]
    leg_pool = [LegacyTripleStore.from_rows(multi_rows) for _ in range(3)]
    consumed: list[object] = []

    def remove_feed(pool) -> None:
        store = pool.pop()
        store.remove_source("feed-3")
        consumed.append(store)

    section(
        "remove_source",
        lambda: remove_feed(col_pool),
        lambda: remove_feed(leg_pool),
    )

    section(
        "canonical_rows",
        lambda: columnar.canonical_rows(),
        lambda: legacy.canonical_rows(),
    )
    return results


def bench_triplestore_hot_loops(benchmark, bench_store):
    """Columnar vs legacy on the loops the refactor targeted (gated)."""
    rows = bench_store.to_rows()
    gates = {
        "scan_sweep": SCAN_GATE,
        "point_lookups": POINT_GATE,
    }
    # Re-measure on a gate miss to absorb scheduling jitter: the ratios are
    # structural, only the timing is noisy.
    for _ in range(3):
        results = _measure(rows)
        if all(results[name]["speedup"] >= floor for name, floor in gates.items()):
            break
    print_table(
        f"Columnar vs legacy TripleStore ({len(rows)} facts, "
        f"{SCAN_PASSES}-pass sweeps)",
        ["section", "columnar_ms", "legacy_ms", "speedup"],
        [
            [name, r["columnar_ms"], r["legacy_ms"], r["speedup"]]
            for name, r in results.items()
        ],
    )
    write_bench_json("BENCH_TRIPLESTORE.json", {
        "benchmark": "STORE",
        "workload": {
            "facts": len(rows),
            "scan_passes": SCAN_PASSES,
            "point_predicates": list(POINT_PREDICATES),
        },
        "gates": gates,
        "sections": results,
    })
    for name, floor in gates.items():
        assert results[name]["speedup"] >= floor, (
            f"{name}: {results[name]['speedup']:.1f}x < {floor}x gate"
        )

    columnar = TripleStore.from_rows(rows)
    subjects = sorted(columnar.subjects())
    benchmark(lambda: sum(len(columnar.facts_about(s)) for s in subjects))
