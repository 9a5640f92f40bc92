"""View lifecycle tests: one registration per name, LSN watermarks,
selective maintenance closures, batched flushing, and live serving freshness
(view artifacts on a one-replica fleet)."""

import threading
import time

import pytest

from repro.engine.graph_engine import GraphEngine
from repro.engine.views import ViewCatalog, ViewDefinition, ViewDelta, ViewManager
from repro.errors import StaleReadError, ViewError
from repro.model.provenance import Provenance
from repro.model.triples import ExtendedTriple, TripleStore
from repro.serving import Consistency, ServingFleet
from repro.serving import replica as replica_module
from repro.serving.shipping import ShipmentBatch


def triple(subject, predicate, obj, source="wiki"):
    return ExtendedTriple(subject=subject, predicate=predicate, obj=obj,
                          provenance=Provenance.from_source(source, 0.9))


def make_chain_catalog(calls):
    """base -> shared -> (left, right); creates append to *calls*."""
    catalog = ViewCatalog()

    def register(name, dependencies=(), value=1):
        def create(context):
            calls.append(name)
            for dependency in dependencies:
                context.artifact(dependency)
            return value

        catalog.register(ViewDefinition(
            name, "analytics", create=create, dependencies=dependencies,
        ))

    register("base", value=[1, 2, 3])
    register("shared", dependencies=("base",), value=3)
    register("left", dependencies=("shared",), value=30)
    register("right", dependencies=("shared",), value=4)
    return catalog


def make_manager(catalog, lsn_source=lambda: 0):
    """A manager over no stores (no entity is stored)."""
    return ViewManager(catalog, engines={}, lsn_source=lsn_source, entity_source=lambda: ())


def updated(ids, lsn):
    """The delta of *ids* updated by the operation at *lsn*."""
    return ViewDelta(updated=frozenset(ids), first_lsn=lsn, last_lsn=lsn)


# ------------------------------------------------------------------ #
# skipped-dependency fail-fast
# ------------------------------------------------------------------ #
def test_update_fails_fast_when_dependency_was_never_materialized():
    calls = []
    catalog = make_chain_catalog(calls)
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
def test_view_catalog_refuses_reregistration():
    """A registered name keeps its definition: a second registration, with
    or without new dependencies, is refused and changes neither the catalog
    nor any view built from it."""
    calls = []
    catalog = make_chain_catalog(calls)
    manager = make_manager(catalog)
    manager.materialize()
    for dependencies in ((), ("left",)):
        with pytest.raises(ViewError, match="already registered"):
            catalog.register(ViewDefinition("base", "analytics", lambda ctx: "redefined",
                                            dependencies=dependencies))
    assert catalog.get("base").dependencies == ()
    assert catalog.execution_order(["left"]) == ["base", "shared", "left"]
    assert manager.artifact("base") == [1, 2, 3]
    assert all(manager.is_materialized(name) for name in ("base", "shared", "left", "right"))


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


def test_live_reloads_after_view_rebuild_at_same_lsn(served_engine, replica):
    engine, _ = served_engine
    fleet, node = replica
    name = {"value": "v1"}
    engine.register_view(ViewDefinition(
        "tiny", "analytics", create=lambda ctx: [{"subject": "kg:a1", "name": name["value"]}],
    ))
    engine.materialize_views(["tiny"])
    assert fleet.serve_view("tiny") == 1
    assert fleet.drain()
    assert node.get("tiny", "kg:a1").name == "v1"
    lsn = node.applied_lsn("tiny")
    # rebuild without any new log records: same LSN, new data
    name["value"] = "v2"
    engine.materialize_views(["tiny"])
    assert fleet.drain()
    assert node.get("tiny", "kg:a1").name == "v2"
    assert node.applied_lsn("tiny") == lsn


def test_a_dropped_rebuild_snapshot_at_the_same_lsn_resyncs_on_the_next_batch(
    served_engine, monkeypatch
):
    """A full queue drops the snapshot of a rebuild that kept the view's
    LSN, so the next batch's ``prev_lsn`` equals what the replica holds and
    shows no gap.  The drop marks the view: the marked replica seeds no new
    one, and the view's next batch resyncs it as a snapshot."""
    engine, store = served_engine
    monkeypatch.setattr(replica_module, "QUEUE_CAPACITY", 1)
    labels = {"kg:a1": "v1"}

    def row(subject):
        return {"subject": subject, "name": labels.get(subject, subject),
                "facts": len(engine.triples.facts_about(subject))}

    engine.register_view(ViewDefinition(
        "tiny", "analytics",
        create=lambda ctx: {subject: row(subject) for subject in sorted(engine.triples.subjects())},
        apply_delta=lambda ctx, delta: {
            **ctx.artifact("tiny"), **{subject: row(subject) for subject in delta.changed},
        },
    ))
    engine.materialize_views(["tiny"])
    fleet = ServingFleet(engine.view_manager, num_replicas=1).start()
    node = fleet.replicas["replica-0"]
    try:
        fleet.serve_view("tiny")
        assert fleet.drain()
        lsn = node.applied_lsn("tiny")
        # An already-applied batch: the worker skips it as a duplicate.
        duplicate = ShipmentBatch(kind="delta", view_name="tiny", lsn=lsn, prev_lsn=lsn,
                                  delta=ViewDelta(first_lsn=lsn, last_lsn=lsn))
        node._apply_lock.acquire()            # the worker blocks on its next batch
        try:
            node.offer(duplicate)
            deadline = time.monotonic() + 5
            while node._queue.qsize() and time.monotonic() < deadline:
                time.sleep(0.001)              # the worker took it...
            node.offer(duplicate)              # ...and this one fills the queue
            labels["kg:a1"] = "v2"
            engine.materialize_views(["tiny"])
            assert engine.view_manager.built_at_lsn("tiny") == lsn
        finally:
            node._apply_lock.release()
        assert fleet.drain()
        assert node.backpressure_drops == 1 and node.batches_skipped == 2
        assert node.applied_lsn("tiny") == lsn
        assert node.get("tiny", "kg:a1").name == "v1"        # the snapshot was lost
        seeded = fleet.add_replica("replica-1")
        assert seeded.snapshot_resyncs == 1                  # not a copy of replica-0
        assert seeded.get("tiny", "kg:a1").name == "v2"
        store.add(triple("kg:l1", "genre", "jazz"))
        engine.publish_subjects(store, ["kg:l1"], source_id="construction")
        engine.update_views()
        assert fleet.drain()
        assert node.get("tiny", "kg:a1").name == "v2"
        assert node.snapshot_resyncs == 1 and node.gaps_detected == 1
        assert node.applied_lsn("tiny") == engine.view_manager.built_at_lsn("tiny") > lsn
        assert all(report.clean() for report in fleet.audit(repair=False).values())
    finally:
        fleet.stop()


def test_a_rebuild_snapshot_at_the_same_lsn_missed_while_killed_resyncs_on_restart(
    served_engine,
):
    """A replica is killed while a view is rebuilt at an unchanged LSN, so
    the rebuild's snapshot is offered to a dead node.  Its restart catches
    up from the LSN its index holds, the rebuild's, where the journal holds
    nothing: the failed offer marked the view, and the restart resyncs it
    by snapshot."""
    engine, store = served_engine
    labels = {"kg:a1": "v1"}

    def row(subject):
        return {"subject": subject, "name": labels.get(subject, subject),
                "facts": len(engine.triples.facts_about(subject))}

    engine.register_view(ViewDefinition(
        "tiny", "analytics",
        create=lambda ctx: {subject: row(subject) for subject in sorted(engine.triples.subjects())},
        apply_delta=lambda ctx, delta: {
            **ctx.artifact("tiny"), **{subject: row(subject) for subject in delta.changed},
        },
    ))
    engine.materialize_views(["tiny"])
    fleet = ServingFleet(engine.view_manager, num_replicas=1).start()
    node = fleet.replicas["replica-0"]
    try:
        fleet.serve_view("tiny")
        assert fleet.drain()
        lsn = node.applied_lsn("tiny")
        fleet.kill_replica("replica-0")
        labels["kg:a1"] = "v2"
        engine.materialize_views(["tiny"])
        assert engine.view_manager.built_at_lsn("tiny") == lsn
        assert fleet.restart_replica("replica-0") == ["tiny"]
        assert node.snapshot_resyncs == 1
        assert node.get("tiny", "kg:a1").name == "v2"
        store.add(triple("kg:l1", "genre", "jazz"))
        engine.publish_subjects(store, ["kg:l1"], source_id="construction")
        engine.update_views()
        assert fleet.drain()
        assert node.get("tiny", "kg:a1").name == "v2"
        assert node.snapshot_resyncs == 1 and node.gaps_detected == 0
        assert node.applied_lsn("tiny") == engine.view_manager.built_at_lsn("tiny") > lsn
        assert all(report.clean() for report in fleet.audit(repair=False).values())
    finally:
        fleet.stop()


def test_a_rebuild_snapshot_lost_from_a_killed_replicas_queue_resyncs_on_restart(
    served_engine, monkeypatch
):
    """The rebuild's snapshot is queued behind a batch the worker is still
    applying when the replica is killed, so the kill loses it: the view is
    marked, and the restart resyncs it by snapshot."""
    engine, _ = served_engine
    labels = {"kg:a1": "v1"}
    engine.register_view(ViewDefinition(
        "tiny", "analytics",
        create=lambda ctx: {"kg:a1": {"subject": "kg:a1", "name": labels["kg:a1"]}},
    ))
    engine.materialize_views(["tiny"])
    fleet = ServingFleet(engine.view_manager, num_replicas=1).start()
    node = fleet.replicas["replica-0"]
    try:
        fleet.serve_view("tiny")
        assert fleet.drain()
        lsn = node.applied_lsn("tiny")
        held = ShipmentBatch(kind="delta", view_name="tiny", lsn=lsn, prev_lsn=lsn,
                             delta=ViewDelta(first_lsn=lsn, last_lsn=lsn))
        release = threading.Event()
        apply = replica_module.ReplicaNode._apply

        def apply_held_last(self, batch, *args, **kwargs):
            if batch is held:
                release.wait(5)
            return apply(self, batch, *args, **kwargs)

        monkeypatch.setattr(replica_module.ReplicaNode, "_apply", apply_held_last)
        node.offer(held)
        labels["kg:a1"] = "v2"
        engine.materialize_views(["tiny"])     # its snapshot queues behind `held`
        assert engine.view_manager.built_at_lsn("tiny") == lsn
        killer = threading.Thread(target=fleet.kill_replica, args=("replica-0",))
        killer.start()
        deadline = time.monotonic() + 5
        while node.alive and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        killer.join(timeout=10)
        assert not node.alive and node.get("tiny", "kg:a1").name == "v1"
        assert fleet.restart_replica("replica-0") == ["tiny"]
        assert node.snapshot_resyncs == 1
        assert node.get("tiny", "kg:a1").name == "v2"
        assert all(report.clean() for report in fleet.audit(repair=False).values())
    finally:
        fleet.stop()


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


def test_live_rejects_non_row_shaped_artifacts(served_engine, replica):
    engine, _ = served_engine
    fleet, node = replica
    before = len(node.index)
    # ranked_entity_index materializes to a document count, not rows
    with pytest.raises(ViewError, match="row-shaped"):
        fleet.serve_view("ranked_entity_index")
    _refused_without_trace(fleet, node, "ranked_entity_index", before)
