"""CONSTR — incremental construction (§2.4, Figure 5).

Saga's construction pipeline always consumes source *deltas*: the ingestion
platform eagerly partitions each new snapshot into Added / Updated / Deleted /
Volatile payloads so that only changed entities flow through linking and
fusion.  After a source has been consumed once, consuming a lightly-changed
snapshot incrementally is far cheaper than rebuilding the KG from the full
snapshot, and the volatile partition bypasses linking entirely.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import print_table
from repro.construction import IncrementalConstructor
from repro.datagen import SourceSpec, evolve_source, generate_source
from repro.ingestion import DeltaComputer
from repro.model.delta import SourceDelta
from repro.model.triples import TripleStore


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


def _copy_of(ontology, constructor):
    """A constructor over a copy of *constructor*'s fact and link state, so
    each consumption starts from the same bootstrapped KG."""
    store = TripleStore.from_rows(constructor.store.to_rows())
    copy = IncrementalConstructor(ontology, store=store)
    copy.link_table = dict(constructor.link_table)
    return copy


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

    def fresh_copy():
        # Each round consumes into its own copy, built outside the timing.
        return (_copy_of(ontology, constructor),), {}

    report = benchmark.pedantic(
        lambda copy: copy.consume(delta), setup=fresh_copy, rounds=2, iterations=1
    )
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

    incremental = _copy_of(ontology, constructor)
    started = time.perf_counter()
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
