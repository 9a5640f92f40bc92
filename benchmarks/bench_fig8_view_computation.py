"""FIG8 — Graph Engine view computation vs the legacy implementation (Figure 8).

The paper computes six schematized entity-centric views (People, Artists,
Playlists, Playlist Artists, Songs, Media People) with the analytics store and
reports a 1.05x–14.53x speedup (≈5x average) over a legacy Spark-based
implementation.  This benchmark computes the same kinds of join-heavy views
with the optimized hash-join warehouse and the row-at-a-time legacy baseline on
identical synthetic data and reports the per-view speedups.  Absolute numbers
differ from the paper (our substrate is in-process Python, not a production
warehouse against Spark clusters) but the shape — every view at least as fast,
join-heavy views gaining the most, roughly an order of magnitude on the best
case — is the reproduced claim.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import print_table
from repro.baselines import LegacyViewEngine
from repro.engine.analytics import AnalyticsStore, EntityViewSpec
from repro.engine.views import ViewCatalog, ViewDefinition, ViewDelta, ViewManager
from repro.model.triples import TripleStore

#: The six production views of Figure 8, expressed over our ontology.
VIEW_SPECS = [
    EntityViewSpec(
        name="People",
        entity_type="person",
        predicates=("birth_date", "occupation"),
        reference_joins={"birth_place_name": "birth_place", "spouse_name": "spouse"},
    ),
    EntityViewSpec(
        name="Artists",
        entity_type="music_artist",
        predicates=("birth_date", "occupation"),
        reference_joins={"label_name": "record_label", "birth_place_name": "birth_place"},
        nested_joins={"label_city": ("record_label", "headquarters")},
    ),
    EntityViewSpec(
        name="Playlists",
        entity_type="playlist",
        predicates=("genre",),
        reference_joins={"track_names": "track"},
    ),
    EntityViewSpec(
        name="Playlist Artists",
        entity_type="playlist",
        nested_joins={"artist_names": ("track", "performed_by")},
    ),
    EntityViewSpec(
        name="Songs",
        entity_type="song",
        predicates=("genre", "duration_seconds", "release_date"),
        reference_joins={"artist_name": "performed_by"},
    ),
    EntityViewSpec(
        name="Media People",
        entity_type="actor",
        predicates=("birth_date",),
        reference_joins={"birth_place_name": "birth_place", "spouse_name": "spouse"},
        nested_joins={"spouse_birth_place": ("spouse", "birth_place")},
    ),
]

#: Paper-reported speedups for reference in the printed table.
PAPER_SPEEDUPS = {
    "People": 5.31,
    "Artists": 1.05,
    "Playlists": 2.44,
    "Playlist Artists": 3.50,
    "Songs": 1.05,
    "Media People": 14.53,
}


@pytest.fixture(scope="module")
def engines(bench_store):
    triples = list(bench_store)
    optimized = AnalyticsStore(TripleStore(triples))
    legacy = LegacyViewEngine.from_triples(triples)
    return optimized, legacy


def _measure(callable_, repeat=3, setup=None):
    """Best of *repeat* timed calls; *setup* runs untimed before each."""
    best = float("inf")
    for _ in range(repeat):
        if setup is not None:
            setup()
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def bench_fig8_optimized_views(benchmark, engines):
    """Optimized analytics-store computation of all six Figure 8 views."""
    optimized, _ = engines

    def run_all():
        return [optimized.entity_view(spec) for spec in VIEW_SPECS]

    views = benchmark(run_all)
    assert all(len(view) > 0 for view in views)


def bench_fig8_legacy_views(benchmark, engines):
    """Legacy row-at-a-time computation of the same views (the Figure 8 baseline)."""
    _, legacy = engines

    def run_all():
        return [legacy.entity_view(spec) for spec in VIEW_SPECS]

    views = benchmark(run_all)
    assert all(len(view) > 0 for view in views)


def bench_fig8_selective_view_maintenance(benchmark, engines, bench_store):
    """Maintaining the six Figure 8 views selectively after a small delta.

    Each view is registered in a catalog with a scope covering the subjects
    it materializes, so changing a handful of song entities only rebuilds the
    views that actually read them instead of all six.  Every selective run
    flushes a freshly stamped delta of the changed songs, enqueued untimed.
    """
    optimized, _ = engines
    catalog = ViewCatalog()
    clock = {"lsn": 0}
    manager = ViewManager(
        catalog, engines={"analytics": optimized},
        lsn_source=lambda: clock["lsn"],
        entity_source=bench_store.subjects,
    )
    view_subjects: dict[str, set[str]] = {}
    for spec in VIEW_SPECS:
        view_subjects[spec.name] = {
            row["subject"] for row in optimized.entity_view(spec).rows
        }

        def create(context, spec=spec):
            return context.engine("analytics").entity_view(spec)

        def scope(entity_id, name=spec.name):
            return entity_id in view_subjects[name]

        catalog.register(ViewDefinition(
            name=spec.name, engine="analytics", create=create, scope=scope,
        ))
    manager.materialize()

    changed = sorted(view_subjects["Songs"])[:10]

    def enqueue_changed():
        clock["lsn"] += 1
        manager.enqueue(ViewDelta(
            updated=frozenset(changed), first_lsn=clock["lsn"], last_lsn=clock["lsn"],
        ))

    full = manager.materialize()
    enqueue_changed()
    selective = manager.flush()
    assert len(selective) < len(full)
    assert "Songs" in selective and "Media People" not in selective

    full_seconds = _measure(manager.materialize)
    selective_seconds = _measure(manager.flush, setup=enqueue_changed)
    print_table(
        "Figure 8 views — selective vs full maintenance (10 changed songs)",
        ["configuration", "views_rebuilt", "seconds"],
        [
            ["full maintenance", len(full), full_seconds],
            ["selective maintenance", len(selective), selective_seconds],
        ],
    )
    # 10% tolerance: the margin here is only the skipped views, so shared-CI
    # scheduling jitter must not turn a non-regression into a red build.
    assert selective_seconds <= full_seconds * 1.10
    benchmark.pedantic(manager.flush, setup=enqueue_changed, rounds=5)


def bench_fig8_speedup_table(benchmark, engines):
    """Per-view legacy/optimized latency ratios — the series plotted in Figure 8."""
    optimized, legacy = engines
    rows = []
    speedups = {}
    for spec in VIEW_SPECS:
        optimized_rows = optimized.entity_view(spec)
        legacy_rows = legacy.entity_view(spec)
        assert {r["subject"] for r in optimized_rows.rows} == {
            r["subject"] for r in legacy_rows.rows
        }, f"view {spec.name} must produce identical entity sets"
        optimized_seconds = _measure(lambda spec=spec: optimized.entity_view(spec))
        legacy_seconds = _measure(lambda spec=spec: legacy.entity_view(spec))
        speedup = legacy_seconds / max(optimized_seconds, 1e-9)
        speedups[spec.name] = speedup
        rows.append([spec.name, len(optimized_rows), legacy_seconds * 1000,
                     optimized_seconds * 1000, speedup, PAPER_SPEEDUPS[spec.name]])
    average = sum(speedups.values()) / len(speedups)
    rows.append(["AVERAGE", "", "", "", average,
                 sum(PAPER_SPEEDUPS.values()) / len(PAPER_SPEEDUPS)])
    print_table(
        "Figure 8 — view computation: legacy vs Graph Engine analytics store",
        ["view", "rows", "legacy_ms", "engine_ms", "speedup_x", "paper_speedup_x"],
        rows,
    )

    # Shape claims: no view slower, the best case near an order of magnitude,
    # and a healthy average speedup.
    assert all(value >= 1.0 for value in speedups.values())
    assert max(speedups.values()) >= 5.0
    assert average >= 2.0

    benchmark(lambda: optimized.entity_view(VIEW_SPECS[0]))
