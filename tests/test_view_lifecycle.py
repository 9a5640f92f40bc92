"""View lifecycle tests: drop cascades, re-registration, LSN watermarks,
selective maintenance closures, batched flushing, and live serving freshness
(stable feeds on the live engine, view artifacts on a one-replica fleet)."""

import pytest

from repro.engine.graph_engine import GraphEngine
from repro.engine.views import ViewCatalog, ViewDefinition, ViewDelta, ViewManager
from repro.errors import ReplicaUnavailableError, StaleReadError, ViewError
from repro.live.engine import LiveGraphEngine
from repro.model.provenance import Provenance
from repro.model.triples import ExtendedTriple, TripleStore
from repro.serving import Consistency, ServingFleet


def triple(subject, predicate, obj, source="wiki"):
    return ExtendedTriple(subject=subject, predicate=predicate, obj=obj,
                          provenance=Provenance.from_source(source, 0.9))


def make_chain_catalog(calls, dropped=None):
    """base -> shared -> (left, right); creates append to *calls*, drops to *dropped*."""
    dropped = dropped if dropped is not None else []
    catalog = ViewCatalog()

    def register(name, dependencies=(), value=1):
        def create(context):
            calls.append(name)
            for dependency in dependencies:
                context.artifact(dependency)
            return value

        catalog.register(ViewDefinition(
            name, "analytics", create=create, dependencies=dependencies,
            drop=lambda ctx, name=name: dropped.append(name),
        ))

    register("base", value=[1, 2, 3])
    register("shared", dependencies=("base",), value=3)
    register("left", dependencies=("shared",), value=30)
    register("right", dependencies=("shared",), value=4)
    return catalog, dropped


def make_manager(catalog, lsn_source=lambda: 0):
    """A manager over no stores (no entity is stored)."""
    return ViewManager(catalog, engines={}, lsn_source=lsn_source, entity_source=lambda: ())


def updated(ids, lsn):
    """The delta of *ids* updated by the operation at *lsn*."""
    return ViewDelta(updated=frozenset(ids), first_lsn=lsn, last_lsn=lsn)


# ------------------------------------------------------------------ #
# drop cascade
# ------------------------------------------------------------------ #
def test_drop_cascades_invalidation_to_transitive_dependents():
    calls = []
    catalog, dropped = make_chain_catalog(calls)
    manager = make_manager(catalog)
    manager.materialize()
    removed = manager.drop("base")
    assert set(removed) == {"base", "shared", "left", "right"}
    # dependents are dropped first (reverse topological order)
    assert dropped.index("left") < dropped.index("shared")
    assert dropped.index("right") < dropped.index("shared")
    assert dropped.index("shared") < dropped.index("base")
    for name in ("base", "shared", "left", "right"):
        assert not manager.is_materialized(name)
        with pytest.raises(ViewError):
            manager.artifact(name)
    # invalidated dependents keep their counters for observability
    assert manager.states["left"].invalidations == 1


# ------------------------------------------------------------------ #
# skipped-dependency fail-fast
# ------------------------------------------------------------------ #
def test_update_fails_fast_when_dependency_was_never_materialized():
    calls = []
    catalog, _ = make_chain_catalog(calls)
    manager = make_manager(catalog)
    manager.materialize()
    # simulate an operator wiping the dependency's materialization out-of-band
    manager.states["shared"].materialized = False
    manager.states["shared"].artifact = None
    with pytest.raises(ViewError, match="'left'.*shared.*never"):
        manager.enqueue(updated(["kg:e1"], 1))
        manager.flush()


# ------------------------------------------------------------------ #
# re-registration
# ------------------------------------------------------------------ #
def test_reregistration_resets_state_of_view_and_dependents():
    calls = []
    catalog, _ = make_chain_catalog(calls)
    manager = make_manager(catalog)
    manager.materialize()
    assert manager.artifact("shared") == 3
    catalog.register(ViewDefinition("shared", "analytics",
                                    create=lambda ctx: "redefined",
                                    dependencies=("base",)))
    for name in ("shared", "left", "right"):
        assert not manager.is_materialized(name)
        with pytest.raises(ViewError):
            manager.artifact(name)
    assert manager.is_materialized("base")        # untouched by the redefinition
    manager.materialize(["shared"])
    assert manager.artifact("shared") == "redefined"


def test_reregistration_that_closes_a_cycle_is_refused():
    calls = []
    catalog, _ = make_chain_catalog(calls)
    with pytest.raises(ViewError, match="cycle"):
        catalog.register(ViewDefinition("base", "analytics", lambda ctx: 1,
                                        dependencies=("left",)))
    # the failed re-registration must not have corrupted the catalog
    assert catalog.get("base").dependencies == ()
    assert catalog.execution_order(["left"]) == ["base", "shared", "left"]


# ------------------------------------------------------------------ #
# selective maintenance
# ------------------------------------------------------------------ #
def make_scoped_catalog():
    catalog = ViewCatalog()
    catalog.register(ViewDefinition(
        "a_root", "analytics", create=lambda ctx: "a",
        apply_delta=lambda ctx, delta: "a+" + ",".join(sorted(delta.changed)),
        scope=lambda entity_id: entity_id.startswith("a:"),
    ))
    catalog.register(ViewDefinition(
        "b_root", "analytics", create=lambda ctx: "b",
        scope=lambda entity_id: entity_id.startswith("b:"),
    ))
    catalog.register(ViewDefinition(
        "a_child", "analytics",
        create=lambda ctx: ctx.artifact("a_root") + "/child",
        dependencies=("a_root",),
        scope=lambda entity_id: False,      # only transitively affected
    ))
    return catalog


def test_selective_update_rebuilds_only_the_affected_closure():
    catalog = make_scoped_catalog()
    manager = make_manager(catalog)
    manager.materialize()
    manager.enqueue(updated(["a:1"], 1))
    timings = manager.flush()
    assert set(timings) == {"a_root", "a_child"}
    assert manager.artifact("a_root") == "a+a:1"
    assert manager.artifact("a_child") == "a+a:1/child"
    assert manager.artifact("b_root") == "b"
    assert manager.states["b_root"].skipped_updates == 1
    # a full rebuild builds everything, proving strictly more work
    full = manager.materialize()
    assert set(full) == {"a_root", "b_root", "a_child"}
    assert manager.artifact("a_root") == "a"             # through create


# ------------------------------------------------------------------ #
# batched flushing and LSN watermarks
# ------------------------------------------------------------------ #
def test_pending_deltas_accumulate_until_flush():
    clock = {"lsn": 0}
    catalog = make_scoped_catalog()
    manager = make_manager(catalog, lsn_source=lambda: clock["lsn"])
    clock["lsn"] = 1
    manager.materialize()
    assert manager.built_at_lsn("a_root") == 1
    clock["lsn"] = 2
    manager.enqueue(updated(["a:1"], 2))
    clock["lsn"] = 3
    manager.enqueue(updated(["a:2"], 3))
    assert manager.pending_changes() == ["a:1", "a:2"]
    assert manager.lagging_views() == {"a_child": 2, "a_root": 2, "b_root": 2}
    clock["lsn"] = 4
    manager.enqueue(updated(["b:1"], 4))
    assert manager.flushes == 0                    # enqueue never flushes
    timings = manager.flush()
    assert set(timings) == {"a_root", "a_child", "b_root"}
    assert manager.pending_changes() == []
    assert manager.flushes == 1
    assert manager.lagging_views() == {}
    assert manager.built_at_lsn("a_root") == 4


def test_flush_skips_views_already_at_target_lsn():
    clock = {"lsn": 1}
    catalog = make_scoped_catalog()
    manager = make_manager(catalog, lsn_source=lambda: clock["lsn"])
    manager.enqueue(updated(["a:0"], 1))               # before materialization: dropped
    assert manager.pending_changes() == []
    manager.materialize()                          # built at LSN 1
    manager.enqueue(updated(["a:1"], 1))                # delta the build already covers
    assert manager.flush() == {}                   # watermark gate: nothing rebuilt
    assert manager.states["a_root"].skipped_updates == 1


def test_lsn_watermarks_flow_through_graph_engine_metadata(ontology):
    store = TripleStore([
        triple("kg:a1", "type", "music_artist"),
        triple("kg:a1", "name", "Echo Valley"),
        triple("kg:l1", "type", "record_label"),
        triple("kg:l1", "name", "Apex Records"),
    ])
    engine = GraphEngine(ontology)
    engine.publish_store(store, source_id="construction")      # LSN 1
    engine.register_standard_views()
    engine.materialize_views()
    head = engine.log.head_lsn()
    assert engine.view_manager.built_at_lsn("entity_features") == head
    assert engine.view_freshness() == {}

    store.add(triple("kg:a1", "genre", "pop", source="musicdb"))
    engine.publish_subjects(store, ["kg:a1"], source_id="musicdb")   # LSN 2
    new_head = engine.log.head_lsn()
    assert new_head == head + 1
    assert engine.view_manager.pending_changes() == ["kg:a1"]
    assert set(engine.view_freshness()) == {
        "entity_importance", "entity_features", "ranked_entity_index",
        "entity_neighbourhood",
    }
    timings = engine.update_views()               # flush the replay-fed delta
    assert timings
    assert engine.view_freshness() == {}
    assert engine.view_manager.built_at_lsn("entity_features") == new_head
    # store watermarks are untouched by view bookkeeping
    assert engine.minimum_version() == new_head


def test_remove_source_marks_full_refresh(ontology):
    store = TripleStore([
        triple("kg:a1", "type", "music_artist"),
        triple("kg:a1", "name", "Echo Valley"),
        triple("kg:p1", "type", "person", source="fanwiki"),
    ])
    engine = GraphEngine(ontology)
    engine.publish_store(store, source_id="construction")
    engine.register_standard_views()
    engine.materialize_views()
    engine.remove_source("fanwiki")
    timings = engine.update_views()
    assert set(timings) == {"entity_importance", "entity_features",
                            "ranked_entity_index", "entity_neighbourhood"}
    assert engine.view_freshness() == {}


def test_deletions_resolve_through_pre_delete_scope_snapshots(ontology):
    """A deleted entity no longer matches any store-derived scope, but the
    pre-delete scope snapshot remembers the view contained it — the flush
    must maintain exactly that view instead of skipping it (or, as before
    snapshots, widening to every view)."""
    store = TripleStore([
        triple("kg:s1", "type", "song"),
        triple("kg:s1", "name", "First Song"),
        triple("kg:s2", "type", "song"),
        triple("kg:s2", "name", "Second Song"),
        triple("kg:l1", "type", "record_label"),
        triple("kg:l1", "name", "Apex Records"),
    ])
    engine = GraphEngine(ontology)
    engine.publish_store(store, source_id="construction")
    for entity_type, view_name in (("song", "song_list"), ("record_label", "label_list")):
        engine.register_view(ViewDefinition(
            view_name, "analytics",
            create=lambda ctx, entity_type=entity_type: sorted(
                s for s in engine.triples.subjects()
                if engine.triples.value_of(s, "type") == entity_type
            ),
            scope=lambda eid, entity_type=entity_type: (
                engine.triples.value_of(eid, "type") == entity_type
            ),
        ))
    engine.materialize_views()
    assert engine.view_artifact("song_list") == ["kg:s1", "kg:s2"]
    store.remove_subject("kg:s1")
    engine.publish_subjects(store, [], deleted_subjects=["kg:s1"],
                            source_id="construction")
    timings = engine.update_views()
    assert "song_list" in timings                  # not skipped despite the scope
    assert "label_list" not in timings             # ...and the delete stayed selective
    assert engine.view_manager.states["label_list"].skipped_updates == 1
    assert engine.view_artifact("song_list") == ["kg:s2"]
    assert engine.view_freshness() == {}


def test_live_reloads_after_view_redefinition_at_same_lsn(served_engine, replica):
    engine, _ = served_engine
    fleet, node = replica
    engine.register_view(ViewDefinition(
        "tiny", "analytics", create=lambda ctx: [{"subject": "kg:a1", "name": "v1"}],
    ))
    engine.materialize_views(["tiny"])
    assert fleet.serve_view("tiny") == 1
    assert fleet.drain()
    assert node.get("tiny", "kg:a1").name == "v1"
    lsn = node.applied_lsn("tiny")
    # redefine and rebuild without any new log records: same LSN, new data
    engine.register_view(ViewDefinition(
        "tiny", "analytics", create=lambda ctx: [{"subject": "kg:a1", "name": "v2"}],
    ))
    engine.materialize_views(["tiny"])
    assert fleet.drain()
    assert node.get("tiny", "kg:a1").name == "v2"
    assert node.applied_lsn("tiny") == lsn
    assert node.revisions["tiny"] == engine.view_manager.state_revision("tiny")


def test_full_refresh_rebuilds_instead_of_blind_incremental_update(ontology):
    """A source removal reaches apply_delta naming exactly the subjects it
    changed — never an empty change set, never a rebuild."""
    store = TripleStore([
        triple("kg:a1", "type", "music_artist"),
        triple("kg:a1", "name", "Echo Valley"),
        triple("kg:p1", "type", "person", source="fanwiki"),
    ])
    engine = GraphEngine(ontology)
    engine.publish_store(store, source_id="construction")
    apply_calls = []
    engine.register_view(ViewDefinition(
        "subject_count", "analytics",
        create=lambda ctx: len(engine.triples.subjects()),
        apply_delta=lambda ctx, delta: apply_calls.append(delta) or
        len(engine.triples.subjects()),
    ))
    engine.materialize_views()
    assert engine.view_artifact("subject_count") == 2
    record = engine.remove_source("fanwiki")
    engine.update_views()
    assert apply_calls == [ViewDelta(
        deleted=frozenset({"kg:p1"}), first_lsn=record.lsn, last_lsn=record.lsn,
    )]
    assert engine.view_manager.states["subject_count"].builds == 1
    assert engine.view_artifact("subject_count") == 1


def test_deferred_replay_does_not_overstamp_view_watermarks(ontology):
    """Views built from lagging stores must not claim log-head freshness."""
    store = TripleStore([
        triple("kg:a1", "type", "music_artist"),
        triple("kg:a1", "name", "Echo Valley"),
    ])
    engine = GraphEngine(ontology)
    engine.register_view(ViewDefinition(
        "subject_list", "analytics",
        create=lambda ctx: sorted(engine.triples.subjects()),
    ))
    engine.publish_store(store, replay=False)      # LSN 1 appended, no store replay
    engine.materialize_views()
    # the build read empty stores, so it reflects LSN 0, not the log head
    assert engine.view_artifact("subject_list") == []
    assert engine.view_manager.built_at_lsn("subject_list") == 0
    engine.replay()
    timings = engine.update_views()
    assert "subject_list" in timings               # the delta was not skipped
    assert engine.view_artifact("subject_list") == ["kg:a1"]
    assert engine.view_manager.built_at_lsn("subject_list") == 1


def test_failed_flush_preserves_the_pending_delta():
    clock = {"lsn": 1}
    catalog = ViewCatalog()
    boom = {"on": False}

    def create(context):
        if boom["on"]:
            raise RuntimeError("transient store failure")
        return "ok"

    catalog.register(ViewDefinition("fragile", "analytics", create=create))
    manager = make_manager(catalog, lsn_source=lambda: clock["lsn"])
    manager.materialize()
    clock["lsn"] = 2
    manager.enqueue(updated(["kg:e1"], 2))
    boom["on"] = True
    with pytest.raises(RuntimeError):
        manager.flush()
    assert manager.pending_changes() == ["kg:e1"]  # delta survived the failure
    boom["on"] = False
    assert set(manager.flush()) == {"fragile"}
    assert manager.pending_changes() == []


def test_listener_errors_do_not_unwind_replay_or_redeliver(ontology):
    store = TripleStore([
        triple("kg:a1", "type", "music_artist"),
        triple("kg:a1", "name", "Echo Valley"),
    ])
    engine = GraphEngine(ontology)
    seen = []

    def flaky_listener(delta):
        seen.append(delta.last_lsn)
        raise RuntimeError("listener exploded")

    engine.coordinator.add_delta_listener(flaky_listener)
    engine.publish_store(store)                    # replay must not raise
    assert seen == [1]
    assert list(engine.coordinator.listener_errors) == ["lsn=1: listener exploded"]
    engine.replay()                                # no redelivery of LSN 1
    assert seen == [1]


def test_listener_error_log_is_bounded_and_delivery_continues(ontology):
    """A listener failing on every publish keeps only the newest 256 errors,
    and every later record is still delivered to it."""
    store = TripleStore([triple("kg:a1", "type", "music_artist")])
    engine = GraphEngine(ontology)
    seen = []

    def failing_listener(delta):
        seen.append(delta.last_lsn)
        raise RuntimeError("listener exploded")

    engine.coordinator.add_delta_listener(failing_listener)
    for number in range(300):
        store.add(triple("kg:a1", "name", f"Name {number}"))
        engine.publish_subjects(store, ["kg:a1"])
    assert seen == list(range(1, 301))
    errors = engine.coordinator.listener_errors
    assert len(errors) == 256
    assert errors[0] == "lsn=45: listener exploded"
    assert errors[-1] == "lsn=300: listener exploded"


def test_live_reload_removes_rows_that_left_the_artifact(served_engine, replica):
    engine, store = served_engine
    fleet, node = replica
    assert fleet.serve_view("entity_features") > 0
    assert fleet.drain()
    assert node.get("entity_features", "kg:l1") is not None
    store.remove_subject("kg:l1")
    engine.publish_subjects(store, [], deleted_subjects=["kg:l1"],
                            source_id="construction")
    engine.update_views()
    assert fleet.drain()
    assert node.get("entity_features", "kg:l1") is None        # no stale serving
    assert node.get("entity_features", "kg:a1") is not None
    assert node.applied_lsn("entity_features") == engine.log.head_lsn()


def test_drop_view_cascade_via_graph_engine(ontology):
    store = TripleStore([
        triple("kg:a1", "type", "music_artist"),
        triple("kg:a1", "name", "Echo Valley"),
    ])
    engine = GraphEngine(ontology)
    engine.publish_store(store)
    engine.register_standard_views()
    engine.materialize_views()
    removed = engine.drop_view("entity_features")
    assert set(removed) == {"entity_features", "ranked_entity_index",
                            "entity_neighbourhood"}
    with pytest.raises(ViewError):
        engine.view_artifact("entity_neighbourhood")
    assert engine.view_manager.is_materialized("entity_importance")


# ------------------------------------------------------------------ #
# live serving freshness
# ------------------------------------------------------------------ #
@pytest.fixture
def served_engine(ontology):
    store = TripleStore([
        triple("kg:a1", "type", "music_artist"),
        triple("kg:a1", "name", "Echo Valley"),
        triple("kg:l1", "type", "record_label"),
        triple("kg:l1", "name", "Apex Records"),
    ])
    engine = GraphEngine(ontology)
    engine.publish_store(store, source_id="construction")
    engine.register_standard_views()
    engine.materialize_views()
    return engine, store


@pytest.fixture
def replica(served_engine):
    """A one-replica fleet over the served engine's views, and its node."""
    engine, _ = served_engine
    fleet = ServingFleet(engine.view_manager, num_replicas=1).start()
    yield fleet, fleet.replicas["replica-0"]
    fleet.stop()


def test_live_sync_stable_view_skips_unchanged_upstream(served_engine):
    engine, store = served_engine
    live = LiveGraphEngine()
    assert live.sync_stable_view(engine) > 0
    assert live.index.watermark("stable") == engine.minimum_version()
    assert live.sync_stable_view(engine) == 0          # upstream unchanged
    store.add(triple("kg:a1", "genre", "pop", source="musicdb"))
    engine.publish_subjects(store, ["kg:a1"], source_id="musicdb")
    assert live.sync_stable_view(engine) > 0           # LSN advanced: reload


def test_live_sync_with_different_type_filter_is_not_skipped(served_engine):
    engine, _ = served_engine
    live = LiveGraphEngine()
    assert live.sync_stable_view(engine, ["music_artist"]) == 1
    # a different filter at the same upstream version is its own feed
    assert live.sync_stable_view(engine, ["record_label"]) == 1
    assert live.sync_stable_view(engine, ["record_label"]) == 0
    assert live.index.watermark("stable:music_artist") == engine.minimum_version()
    assert live.index.watermark("stable:record_label") == engine.minimum_version()


def _refused_without_trace(fleet, node, view_name: str, before: int) -> None:
    """A view the fleet refused to serve left nothing behind anywhere."""
    assert len(node.index) == before                   # nothing was half-written
    assert not node.serves_view(view_name)
    assert node.index.watermark(f"view:{view_name}") == 0
    assert view_name not in fleet.shipper.shipped_views
    assert view_name not in fleet.journal_store.view_names()
    assert all(report.clean() for report in fleet.audit(repair=False).values())


def test_live_rejects_malformed_rows_without_partial_rewrite(served_engine, replica):
    engine, _ = served_engine
    fleet, node = replica
    fleet.serve_view("entity_features")
    assert fleet.drain()
    engine.register_view(ViewDefinition(
        "broken_rows", "analytics",
        create=lambda ctx: [{"subject": "kg:a1", "name": "ok"}, {"name": "no subject"}],
    ))
    engine.materialize_views(["broken_rows"])
    before = len(node.index)
    with pytest.raises(ViewError, match="subject"):
        fleet.serve_view("broken_rows")
    assert fleet.drain()
    _refused_without_trace(fleet, node, "broken_rows", before)


def test_live_serves_view_artifact_with_watermark_gating(served_engine, replica):
    engine, store = served_engine
    fleet, node = replica
    assert fleet.serve_view("entity_features") > 0
    assert fleet.drain()
    document = node.get("entity_features", "kg:a1")
    assert document is not None
    assert document.name == "Echo Valley"
    head = engine.log.head_lsn()
    assert node.index.is_fresh("view:entity_features", head)
    assert fleet.read("entity_features", "kg:a1",
                      Consistency.read_your_writes(head)) is document
    store.add(triple("kg:a1", "genre", "pop", source="musicdb"))
    engine.publish_subjects(store, ["kg:a1"], source_id="musicdb")
    head = engine.log.head_lsn()
    with pytest.raises(StaleReadError):               # published, not flushed
        fleet.read("entity_features", "kg:a1", Consistency.read_your_writes(head))
    engine.update_views()
    assert fleet.drain()
    fresh = fleet.read("entity_features", "kg:a1", Consistency.read_your_writes(head))
    assert fresh.value("fact_count") == document.value("fact_count") + 1
    assert fleet.status()["lag"] == {"entity_features": {"replica-0": 0}}


def test_live_refuses_artifacts_of_dropped_views(served_engine, replica):
    engine, _ = served_engine
    fleet, node = replica
    fleet.serve_view("entity_features")
    assert fleet.drain()
    engine.drop_view("entity_importance")              # cascades to features
    assert fleet.drain()
    assert node.index.feed_documents("view:entity_features") == set()
    assert not node.serves_view("entity_features")
    with pytest.raises(ReplicaUnavailableError):
        fleet.read("entity_features", "kg:a1")
    with pytest.raises(ViewError):
        fleet.serve_view("entity_features")


def test_live_rejects_non_row_shaped_artifacts(served_engine, replica):
    engine, _ = served_engine
    fleet, node = replica
    before = len(node.index)
    # ranked_entity_index materializes to a document count, not rows
    with pytest.raises(ViewError, match="row-shaped"):
        fleet.serve_view("ranked_entity_index")
    _refused_without_trace(fleet, node, "ranked_entity_index", before)
