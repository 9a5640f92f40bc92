"""CONSTR / CONSTRUCT — incremental and parallel construction (§2.4, Figure 5).

Saga's construction pipeline always consumes source *deltas*: the ingestion
platform eagerly partitions each new snapshot into Added / Updated / Deleted /
Volatile payloads so that only changed entities flow through linking and
fusion.  This module quantifies two design choices the section argues for:

* **CONSTR** — after a source has been consumed once, consuming a
  lightly-changed snapshot incrementally is far cheaper than rebuilding the
  KG from the full snapshot, and the volatile partition bypasses linking
  entirely;
* **CONSTRUCT** — source-specific processing is embarrassingly parallel with
  fusion as the only synchronization point: the staged scheduler prepares
  every source/entity-type block independently, so a worker pool shrinks the
  pre-fusion work to its longest block while the serialized barrier stays
  fixed.  The speedup is modeled from one staged run's measured per-block
  times (LPT makespan at the target pool size) — CI runners cannot be
  trusted for wall-clock parallelism — with the measured sequential wall
  time reported alongside, and byte-identical output asserted.  Results land in ``BENCH_CONSTRUCT.json`` for the CI artifact
  trail.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import print_table, write_bench_json
from repro.construction import (
    IncrementalConstructor,
    KnowledgeConstructionPipeline,
    lpt_makespan,
)
from repro.datagen import SourceSpec, evolve_source, generate_source
from repro.ingestion import DeltaComputer
from repro.model.delta import SourceDelta


@pytest.fixture(scope="module")
def snapshots(bench_world):
    """Two consecutive snapshots of a music source with realistic churn."""
    spec = SourceSpec(
        source_id="musicdb",
        entity_types=("music_artist", "album", "song", "record_label"),
        coverage=0.9,
        duplicate_rate=0.05,
        seed=77,
    )
    first = generate_source(bench_world, spec)
    second = evolve_source(bench_world, first, added_fraction=0.1,
                           updated_fraction=0.08, deleted_fraction=0.02)
    return first, second


def _bootstrap(ontology, first):
    constructor = IncrementalConstructor(ontology)
    constructor.consume(SourceDelta.initial("musicdb", first.entities))
    return constructor


def bench_constr_full_reconstruction(benchmark, ontology, snapshots):
    """Baseline: rebuild the KG from scratch with the full second snapshot."""
    _, second = snapshots

    def rebuild():
        constructor = IncrementalConstructor(ontology)
        return constructor.consume(SourceDelta.initial("musicdb", second.entities))

    report = benchmark.pedantic(rebuild, rounds=2, iterations=1)
    assert report.linked_added == len(second.entities)


def bench_constr_incremental_delta(benchmark, ontology, snapshots):
    """Saga's path: consume only the delta between the two snapshots."""
    first, second = snapshots
    constructor = _bootstrap(ontology, first)
    delta_computer = DeltaComputer(ontology=ontology)
    delta_computer.compute("musicdb", first.entities)
    delta = delta_computer.peek("musicdb", second.entities)

    def consume_delta():
        # Work on a copy of the link/fact state so each round is comparable.
        snapshot_constructor = IncrementalConstructor(ontology, store=constructor.store.snapshot())
        snapshot_constructor.link_table = dict(constructor.link_table)
        return snapshot_constructor.consume(delta)

    report = benchmark.pedantic(consume_delta, rounds=2, iterations=1)
    assert report.linked_added <= delta.change_count()


def bench_constr_speedup_report(benchmark, ontology, snapshots):
    """Report: delta consumption vs full reconstruction, plus delta sizes."""
    first, second = snapshots
    constructor = _bootstrap(ontology, first)
    delta_computer = DeltaComputer(ontology=ontology)
    delta_computer.compute("musicdb", first.entities)
    delta = delta_computer.peek("musicdb", second.entities)

    started = time.perf_counter()
    fresh = IncrementalConstructor(ontology)
    fresh.consume(SourceDelta.initial("musicdb", second.entities))
    full_seconds = time.perf_counter() - started

    started = time.perf_counter()
    incremental = IncrementalConstructor(ontology, store=constructor.store.snapshot())
    incremental.link_table = dict(constructor.link_table)
    incremental.consume(delta)
    incremental_seconds = time.perf_counter() - started

    speedup = full_seconds / max(incremental_seconds, 1e-9)
    print_table(
        "Incremental delta-based construction vs full re-construction (§2.4)",
        ["metric", "value"],
        [
            ["snapshot entities", len(second.entities)],
            ["delta added", len(delta.added)],
            ["delta updated", len(delta.updated)],
            ["delta deleted", len(delta.deleted)],
            ["delta volatile (bypasses linking)", len(delta.volatile)],
            ["full reconstruction (s)", full_seconds],
            ["incremental consumption (s)", incremental_seconds],
            ["speedup (x)", speedup],
        ],
    )
    assert delta.change_count() < len(second.entities) * 0.5
    assert speedup > 2.0, "consuming a small delta must be much cheaper than a full rebuild"

    benchmark(lambda: delta_computer.peek("musicdb", second.entities))


# --------------------------------------------------------------------- #
# CONSTRUCT — parallel vs sequential construction (Figure 5)
# --------------------------------------------------------------------- #
PARALLEL_POOL_SIZE = 4


@pytest.fixture(scope="module")
def parallel_sources(bench_world):
    """A four-source workload over disjoint entity-type blocks.

    The largest source leads so that barrier-time replans (triggered by
    object resolution minting parent-typed entities such as ``place`` or
    ``person``) land on the small trailing blocks, not the expensive ones.
    """
    specs = [
        SourceSpec("musicdb", ("music_artist", "album", "song"),
                   coverage=0.8, duplicate_rate=0.4, typo_rate=0.3, seed=11),
        SourceSpec("moviedb", ("movie",),
                   coverage=1.0, duplicate_rate=0.8, typo_rate=0.4, seed=12),
        SourceSpec("sportsdb", ("sports_team", "stadium"),
                   coverage=1.0, duplicate_rate=0.8, typo_rate=0.4, seed=13),
        SourceSpec("geodb", ("city", "country"),
                   coverage=1.0, duplicate_rate=0.8, typo_rate=0.4, seed=14),
    ]
    return [generate_source(bench_world, spec) for spec in specs]


def _batch(parallel_sources):
    return [
        SourceDelta.initial(
            source.spec.source_id,
            [entity.copy() for entity in source.entities],
            timestamp=1,
        )
        for source in parallel_sources
    ]


def bench_construct_parallel_vs_sequential(benchmark, ontology, parallel_sources):
    """CONSTRUCT: staged parallel construction vs the sequential chain."""
    # Sequential baseline: the classic one-delta-at-a-time chain.
    started = time.perf_counter()
    sequential = KnowledgeConstructionPipeline(ontology)
    for delta in _batch(parallel_sources):
        sequential.consume_delta(delta)
    sequential_seconds = time.perf_counter() - started

    # Staged run with inline (serial) preparation: the per-block timings are
    # measured undisturbed, then modeled onto a pool of PARALLEL_POOL_SIZE
    # workers.  One run, one set of measurements — numerator and denominator
    # share their noise.
    staged = KnowledgeConstructionPipeline(ontology, executor="serial")
    started = time.perf_counter()
    reports = staged.consume_many(_batch(parallel_sources))
    staged_seconds = time.perf_counter() - started
    stats = staged.scheduler.last_batch

    # The headline claim only matters if the outputs are byte-identical.
    assert staged.store.canonical_rows() == sequential.store.canonical_rows()
    assert staged.link_table == sequential.link_table
    assert [r.summary() for r in staged.reports] == [
        r.summary() for r in sequential.reports
    ]

    serial_portion = stats.shared_view_seconds + stats.barrier_seconds
    modeled_parallel = stats.modeled_parallel_seconds(PARALLEL_POOL_SIZE)
    modeled_speedup = (serial_portion + stats.prepare_cpu_seconds()) / modeled_parallel

    # A real pool run for reference (thread wall clock is honest but bound by
    # the runner's cores and the GIL, so it is reported, not asserted).
    pooled = KnowledgeConstructionPipeline(ontology, max_workers=PARALLEL_POOL_SIZE)
    started = time.perf_counter()
    with pooled.scheduler:
        pooled.consume_many(_batch(parallel_sources))
    pooled_seconds = time.perf_counter() - started
    assert pooled.store.canonical_rows() == sequential.store.canonical_rows()

    print_table(
        "Parallel construction: partitioned pre-fusion stages, fusion barrier (§2.4)",
        ["metric", "value"],
        [
            ["sources", len(parallel_sources)],
            ["entities", sum(len(s.entities) for s in parallel_sources)],
            ["blocks (source x entity-type)", stats.blocks],
            ["plans committed as prepared", stats.plans_reused],
            ["plans replanned at barrier", stats.plans_replanned],
            ["sequential chain (s)", sequential_seconds],
            ["staged serial run (s)", staged_seconds],
            ["prepare work, parallelizable (s)", stats.prepare_cpu_seconds()],
            ["fusion barrier, serialized (s)", serial_portion],
            [f"modeled @ pool={PARALLEL_POOL_SIZE} (s)", modeled_parallel],
            [f"modeled speedup @ pool={PARALLEL_POOL_SIZE} (x)", modeled_speedup],
            ["thread-pool wall clock (s)", pooled_seconds],
        ],
    )
    write_bench_json("BENCH_CONSTRUCT.json", {
        "construct": {
            "pool_size": PARALLEL_POOL_SIZE,
            "sources": len(parallel_sources),
            "entities": sum(len(s.entities) for s in parallel_sources),
            "sequential_seconds": round(sequential_seconds, 4),
            "staged_seconds": round(staged_seconds, 4),
            "pooled_wall_seconds": round(pooled_seconds, 4),
            "modeled_parallel_seconds": round(modeled_parallel, 4),
            "modeled_speedup": round(modeled_speedup, 3),
            "batch": stats.as_dict(),
        }
    })

    assert all(report.error is None for report in reports)
    assert modeled_speedup >= 1.5, (
        "partitioned pre-fusion stages must model at least a 1.5x speedup "
        f"at pool size {PARALLEL_POOL_SIZE} (got {modeled_speedup:.2f}x)"
    )

    benchmark(lambda: lpt_makespan(stats.block_seconds, PARALLEL_POOL_SIZE))
