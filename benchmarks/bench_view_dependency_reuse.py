"""VIEWDEP — runtime saving from reusing shared view dependencies (§3.2).

The paper reports a 26% runtime improvement in a production view dependency
graph when shared intermediate views (the entity-features view of Figure 7)
are computed once and reused by all dependents instead of being rebuilt per
view pipeline.  This benchmark registers the Figure 7-style dependency graph
(importance → features → {ranked entity index, entity neighbourhood}) over the
Graph Engine and compares end-to-end materialization with and without reuse.

It also measures *selective* maintenance: with entity-scoped per-type profile
views registered alongside the shared graph, a small delta (<10% of entities,
all of one type) only rebuilds the affected closure, while full maintenance
rebuilds every materialized view — the dependency-aware skip is the second
runtime saving this subsystem provides.

Finally, the *incremental-vs-closure* mode measures true delta-driven
recomputation: a deep dependency chain of row views maintained through
``apply_delta`` (rebuilding only journal entries) against the same chain
maintained through full closure rebuilds, for a ≤1% single-type delta.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import print_table
from repro.engine.graph_engine import GraphEngine
from repro.engine.views import ViewCatalog, ViewDefinition, ViewDelta, ViewManager
from repro.ml.similarity import tokens
from repro.model.entity import KGEntity

TARGET_VIEWS = ("ranked_entity_index", "entity_neighbourhood")

#: Entity types given scoped profile views for the selective-maintenance run.
PROFILED_TYPES = ("person", "music_artist", "song", "playlist", "movie")

#: Depth of the apply_delta chain in the incremental-vs-closure mode.
CHAIN_DEPTH = 6


@pytest.fixture(scope="module")
def engine(ontology, bench_store):
    engine = GraphEngine(ontology)
    engine.publish_store(bench_store, source_id="reference")
    engine.register_standard_views()
    return engine


def _best_seconds(run, repeat: int = 3, setup=None) -> float:
    """Best of *repeat* timed calls; *setup* runs untimed before each."""
    best = float("inf")
    for _ in range(repeat):
        if setup is not None:
            setup()
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def _independent_pipelines(engine: GraphEngine) -> dict[str, float]:
    """One materialization per target, each rebuilding its own dependency
    chain — the naive one-pipeline-per-view deployment; seconds summed."""
    timings: dict[str, float] = {}
    for target in TARGET_VIEWS:
        for name, seconds in engine.materialize_views([target]).items():
            timings[name] = timings.get(name, 0.0) + seconds
    return timings


def bench_viewdep_with_reuse(benchmark, engine):
    """Materialize the dependency graph computing shared views once."""
    timings = benchmark(lambda: engine.materialize_views(TARGET_VIEWS))
    assert set(timings) >= set(TARGET_VIEWS)


def bench_viewdep_without_reuse(benchmark, engine):
    """Materialize the same views rebuilding dependencies per pipeline (legacy mode)."""
    timings = benchmark(lambda: _independent_pipelines(engine))
    assert set(timings) >= set(TARGET_VIEWS)


def _register_profile_views(engine: GraphEngine) -> None:
    """Per-type profile views whose scope limits maintenance to their type."""
    for entity_type in PROFILED_TYPES:
        def create(context, entity_type=entity_type):
            rows = []
            for subject in engine.triples.subjects():
                facts = engine.triples.facts_about(subject)
                entity = KGEntity.from_triples(subject, facts)
                if entity_type not in entity.types:
                    continue
                name_tokens = sorted({t for name in entity.names for t in tokens(name)})
                rows.append({
                    "subject": subject,
                    "name": entity.primary_name,
                    "fact_count": len(facts),
                    "name_tokens": name_tokens,
                })
            return rows

        def scope(entity_id, entity_type=entity_type):
            return engine.triples.value_of(entity_id, "type") == entity_type

        engine.register_view(ViewDefinition(
            name=f"{entity_type}_profile",
            engine="analytics",
            create=create,
            scope=scope,
            description=f"scoped per-{entity_type} profile rows",
        ))


@pytest.fixture(scope="module")
def maintenance_engine(ontology, bench_store):
    engine = GraphEngine(ontology)
    engine.publish_store(bench_store, source_id="reference")
    engine.register_standard_views()
    _register_profile_views(engine)
    engine.materialize_views()
    return engine


def bench_viewdep_selective_maintenance(benchmark, maintenance_engine, bench_store):
    """Selective vs full maintenance for a <10% single-type delta (VIEWDEP).

    Every selective run flushes the delta of one untimed publish of the
    changed songs.
    """
    engine = maintenance_engine
    subjects = engine.triples.subjects()
    songs = [s for s in subjects if engine.triples.value_of(s, "type") == "song"]
    changed = songs[: max(1, len(subjects) // 20)]
    changed_fraction = len(changed) / len(subjects)
    assert changed_fraction < 0.10, "the delta must stay below 10% of entities"

    def publish_changed():
        engine.publish_subjects(bench_store, changed, source_id="reference")

    full_timings = engine.materialize_views()
    publish_changed()
    selective_timings = engine.update_views()
    # Selective maintenance must rebuild strictly fewer views: the four
    # unscoped shared views plus only the song profile, never the other four
    # type profiles.
    assert len(selective_timings) < len(full_timings)
    assert "song_profile" in selective_timings
    assert "person_profile" not in selective_timings

    # One re-measure on a loss absorbs shared-runner scheduling jitter while
    # keeping the wall-clock claim strict.
    for _ in range(2):
        full_seconds = _best_seconds(engine.materialize_views, 5)
        selective_seconds = _best_seconds(engine.update_views, 5, setup=publish_changed)
        if selective_seconds < full_seconds:
            break
    improvement = (full_seconds - selective_seconds) / full_seconds * 100.0
    skipped = sum(
        stats["skipped_updates"]
        for stats in engine.view_manager.maintenance_stats().values()
    )
    print_table(
        "Selective vs full view maintenance "
        f"({len(changed)} changed entities = {changed_fraction * 100.0:.1f}%)",
        ["configuration", "views_rebuilt", "seconds", "improvement_%"],
        [
            ["full maintenance", len(full_timings), full_seconds, 0.0],
            ["selective maintenance", len(selective_timings), selective_seconds,
             improvement],
            ["cumulative skipped rebuilds", skipped, "", ""],
        ],
    )
    assert selective_seconds < full_seconds, "selectivity must win wall-clock"
    benchmark.pedantic(engine.update_views, setup=publish_changed, rounds=5)


def _chain_definitions(engine: GraphEngine, incremental: bool) -> list[ViewDefinition]:
    """A depth-CHAIN_DEPTH chain of song-row views, each level re-deriving a
    token-weight from its dependency's rows; with ``incremental=True`` every
    level declares an ``apply_delta`` that patches only the journaled rows."""

    def song_scope(entity_id):
        return engine.triples.value_of(entity_id, "type") == "song"

    def base_row(subject):
        name = str(engine.triples.value_of(subject, "name") or "")
        name_tokens = tokens(name)
        return {
            "subject": subject,
            "name": name,
            "weight": float(sum(sum(ord(ch) for ch in token) for token in name_tokens)),
        }

    def transform(row, level):
        reweighted = 0.0
        for token in tokens(row["name"]):
            reweighted += (sum(ord(ch) for ch in token) % (level + 7)) * 0.5
        return {**row, "weight": row["weight"] + reweighted}

    def base_create(context):
        return {
            subject: base_row(subject)
            for subject in engine.triples.subjects()
            if song_scope(subject)
        }

    def base_apply(context, delta):
        artifact = context.artifact("chain_0")
        for subject in delta.changed:
            artifact[subject] = base_row(subject)
        for subject in delta.deleted:
            artifact.pop(subject, None)
        return artifact

    def make_create(level):
        def create(context):
            prev = context.artifact(f"chain_{level - 1}")
            return {subject: transform(row, level) for subject, row in prev.items()}
        return create

    def make_apply(level):
        def apply_delta(context, delta):
            prev = context.artifact(f"chain_{level - 1}")
            artifact = context.artifact(f"chain_{level}")
            for subject in delta.changed:
                row = prev.get(subject)
                if row is None:
                    artifact.pop(subject, None)
                else:
                    artifact[subject] = transform(row, level)
            for subject in delta.deleted:
                artifact.pop(subject, None)
            return artifact
        return apply_delta

    definitions = [ViewDefinition(
        "chain_0", "analytics", create=base_create,
        apply_delta=base_apply if incremental else None, scope=song_scope,
    )]
    for level in range(1, CHAIN_DEPTH + 1):
        definitions.append(ViewDefinition(
            f"chain_{level}", "analytics", create=make_create(level),
            apply_delta=make_apply(level) if incremental else None,
            dependencies=(f"chain_{level - 1}",), scope=song_scope,
        ))
    return definitions


@pytest.fixture(scope="module")
def chain_managers(ontology, bench_store):
    """One closure-rebuild and one apply_delta manager over the same stores,
    each stamping its deltas from its own LSN counter."""
    engine = GraphEngine(ontology)
    engine.publish_store(bench_store, source_id="reference")
    managers, clocks = {}, {}
    for mode, incremental in (("closure", False), ("incremental", True)):
        catalog = ViewCatalog()
        for definition in _chain_definitions(engine, incremental):
            catalog.register(definition)
        clock = clocks[mode] = {"lsn": 0}
        managers[mode] = ViewManager(
            catalog, engine._engine_map(),
            lsn_source=lambda clock=clock: clock["lsn"],
            entity_source=engine.triples.subjects,
        )
        managers[mode].materialize()
    return engine, managers, clocks


def bench_viewdep_incremental_vs_closure(benchmark, chain_managers):
    """apply_delta journal replay vs full closure rebuild on a ≤1% delta."""
    engine, managers, clocks = chain_managers
    subjects = engine.triples.subjects()
    songs = [s for s in subjects if engine.triples.value_of(s, "type") == "song"]
    changed = songs[: max(1, len(subjects) // 100)]
    changed_fraction = len(changed) / len(subjects)
    assert changed_fraction <= 0.01, "the delta must stay within 1% of entities"

    def enqueue_changed(mode):
        """Enqueue *changed* in a freshly stamped delta, untimed."""
        clocks[mode]["lsn"] += 1
        lsn = clocks[mode]["lsn"]
        managers[mode].enqueue(ViewDelta(
            updated=frozenset(changed), first_lsn=lsn, last_lsn=lsn,
        ))

    # Re-measures on a loss absorb shared-runner scheduling jitter while
    # keeping the wall-clock claim strict (the margin here is ~an order of
    # magnitude, so residual flake risk is minimal).
    for _ in range(3):
        closure_seconds = _best_seconds(
            managers["closure"].flush, 5, setup=lambda: enqueue_changed("closure")
        )
        incremental_seconds = _best_seconds(
            managers["incremental"].flush, 5, setup=lambda: enqueue_changed("incremental")
        )
        if incremental_seconds < closure_seconds:
            break
    improvement = (closure_seconds - incremental_seconds) / closure_seconds * 100.0

    # incremental maintenance rebuilt only journal entries: every chain view
    # was created exactly once (materialization) and delta-applied since
    for name, stats in managers["incremental"].maintenance_stats().items():
        assert stats["builds"] == 1, name
        assert stats["delta_applies"] >= 5, name
    # and both strategies converge on identical artifacts
    for level in range(CHAIN_DEPTH + 1):
        name = f"chain_{level}"
        assert managers["incremental"].artifact(name) == managers["closure"].artifact(name)

    print_table(
        "Incremental (apply_delta journals) vs closure rebuild "
        f"(chain depth {CHAIN_DEPTH}, {len(changed)} changed entities = "
        f"{changed_fraction * 100.0:.2f}%)",
        ["configuration", "seconds", "improvement_%"],
        [
            ["full closure rebuild", closure_seconds, 0.0],
            ["incremental apply_delta", incremental_seconds, improvement],
        ],
    )
    assert incremental_seconds < closure_seconds, "journal replay must win wall-clock"
    benchmark.pedantic(
        managers["incremental"].flush, setup=lambda: enqueue_changed("incremental"),
        rounds=5,
    )


def bench_viewdep_improvement_report(benchmark, engine):
    """The headline number: % runtime saved by dependency reuse (paper: 26%)."""
    with_reuse = _best_seconds(lambda: engine.materialize_views(TARGET_VIEWS))
    without_reuse = _best_seconds(lambda: _independent_pipelines(engine))
    improvement = (without_reuse - with_reuse) / without_reuse * 100.0
    print_table(
        "View dependency reuse (§3.2; paper reports a 26% improvement)",
        ["configuration", "seconds", "improvement_%", "paper_improvement_%"],
        [
            ["independent pipelines", without_reuse, 0.0, 0.0],
            ["shared dependency reuse", with_reuse, improvement, 26.0],
        ],
    )
    # Shape claim: reuse must help by a double-digit percentage.
    assert improvement > 10.0
    benchmark(lambda: engine.materialize_views(TARGET_VIEWS))
