"""Replicated serving fleet: journals, shipping, replicas, routing.

Covers the serving subsystem end to end: the in-memory delta journal
(merging, compaction, gap signalling), journal shipping to the fleet's
replica map, asynchronous replica apply with gap-triggered resync, crash/restart
catch-up through the journal, and LSN-aware read routing under the three
consistency levels.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.engine.views import ViewCatalog, ViewDefinition, ViewDelta, ViewManager
from repro.errors import (
    JournalGapError,
    ReplicaUnavailableError,
    ServingError,
    StaleReadError,
    ViewError,
)
from repro.live.index import LiveIndex
from repro.serving import replica as replica_module
from repro.serving import (
    Consistency,
    JournalStore,
    ReplicaNode,
    ServingFleet,
    ShardRouter,
    stable_hash,
)


# ------------------------------------------------------------------ #
# harness: a tiny row view over a mutable model store
# ------------------------------------------------------------------ #
def make_primary():
    """A one-view primary: ``rows`` maintained through apply_delta."""
    store: dict[str, int] = {}
    clock = {"lsn": 1}
    catalog = ViewCatalog()

    def create(context):
        return {e: {"subject": e, "value": v} for e, v in store.items()}

    def apply_delta(context, delta: ViewDelta):
        artifact = dict(context.artifact("rows"))
        for eid in delta.changed:
            artifact[eid] = {"subject": eid, "value": store[eid]}
        for eid in delta.deleted:
            artifact.pop(eid, None)
        return artifact

    catalog.register(ViewDefinition(
        "rows", "analytics", create=create, apply_delta=apply_delta,
        scope=lambda eid: eid in store,
    ))
    manager = ViewManager(
        catalog, engines={},
        lsn_source=lambda: clock["lsn"], entity_source=lambda: list(store),
    )
    return store, clock, manager


def put(store, clock, manager, eid, value, added=False):
    is_new = added or eid not in store
    store[eid] = value
    clock["lsn"] += 1
    manager.enqueue(delta(
        added=[eid] if is_new else [], updated=[] if is_new else [eid],
        first_lsn=clock["lsn"], last_lsn=clock["lsn"],
    ))


def remove(store, clock, manager, eid):
    store.pop(eid, None)
    clock["lsn"] += 1
    manager.enqueue(delta(deleted=[eid], first_lsn=clock["lsn"], last_lsn=clock["lsn"]))


def delta(added=(), updated=(), deleted=(), first_lsn=1, last_lsn=1):
    return ViewDelta(
        added=frozenset(added), updated=frozenset(updated),
        deleted=frozenset(deleted), first_lsn=first_lsn, last_lsn=last_lsn,
    )


# ------------------------------------------------------------------ #
# journal store
# ------------------------------------------------------------------ #
class TestJournalStore:
    def test_append_and_deltas_since_merge(self):
        store = JournalStore()
        store.append_delta("v", delta(added=["a"], first_lsn=1, last_lsn=1))
        store.append_delta("v", delta(updated=["a"], added=["b"], first_lsn=2, last_lsn=2))
        store.append_delta("v", delta(deleted=["b"], first_lsn=3, last_lsn=3))
        merged = store.deltas_since("v", 0)
        assert merged.added == frozenset({"a"})
        assert merged.deleted == frozenset({"b"})
        assert store.deltas_since("v", 2).deleted == frozenset({"b"})
        assert store.deltas_since("v", 3).is_empty()
        assert store.high_water_mark("v") == 3
        assert store.deltas_since("unknown", 0) is None

    def test_truncate_raises_gap_below_floor(self):
        store = JournalStore()
        store.append_delta("v", delta(added=["a"], first_lsn=1, last_lsn=1))
        store.record_truncate("v", lsn=5)
        with pytest.raises(JournalGapError) as excinfo:
            store.deltas_since("v", 3)
        assert excinfo.value.view_name == "v"
        assert excinfo.value.floor_lsn == 5
        assert store.deltas_since("v", 5).is_empty()

    def test_segment_rolling_and_compaction_aware_truncation(self):
        store = JournalStore()
        for lsn in range(1, 8):
            store.append_delta("v", delta(added=[f"e{lsn}"], first_lsn=lsn, last_lsn=lsn))
        assert store.stats()["v"]["records"] == 7
        # every consumer reached LSN 4: the four deltas at or below it drop
        assert store.truncate_below("v", 4) == 4
        assert store.stats()["v"]["records"] == 3
        assert store.floor_lsn("v") == 4
        assert store.deltas_since("v", 4).added == frozenset({"e5", "e6", "e7"})
        with pytest.raises(JournalGapError):
            store.deltas_since("v", 3)
        # past the newest delta: history empties, the floor stops at LSN 7
        assert store.truncate_below("v", 100) == 3
        assert store.stats()["v"] == {"records": 0, "floor_lsn": 7, "high_water_mark": 7}
        assert store.deltas_since("v", 7).is_empty()

    def test_empty_delta_and_bad_segment_size_rejected(self):
        with pytest.raises(ServingError):
            JournalStore().append_delta("v", delta())


# ------------------------------------------------------------------ #
# shipping and replicas
# ------------------------------------------------------------------ #
class TestShippingAndReplicas:
    def test_flush_ships_deltas_and_replicas_converge(self):
        store, clock, manager = make_primary()
        store.update({"a": 1, "b": 2})
        manager.materialize()
        fleet = ServingFleet(manager, num_replicas=3).start()
        assert fleet.serve_view("rows") == 2
        put(store, clock, manager, "a", 10)
        put(store, clock, manager, "c", 3, added=True)
        remove(store, clock, manager, "b")
        manager.flush()
        assert fleet.drain()
        for node in fleet.replicas.values():
            assert node.index.feed_documents("view:rows") == {"rows:a", "rows:c"}
            assert node.get("rows", "a").value("value") == 10
            assert node.get("rows", "b") is None
            assert node.applied_lsn("rows") == clock["lsn"]
            # catch-up rode the journal: exactly one snapshot (the initial ship)
            assert node.snapshot_resyncs == 0
        assert manager.states["rows"].builds == 1
        fleet.stop()

    def test_dead_replica_does_not_block_the_bus(self):
        store, clock, manager = make_primary()
        store["a"] = 1
        manager.materialize()
        fleet = ServingFleet(manager, num_replicas=2).start()
        fleet.serve_view("rows")
        fleet.kill_replica("replica-0")
        put(store, clock, manager, "a", 2)
        manager.flush()
        assert fleet.drain()
        assert fleet.replicas["replica-1"].get("rows", "a").value("value") == 2
        assert fleet.shipper.delivery_errors   # the dead replica was counted, not fatal
        fleet.stop()

    def test_status_counts_every_failed_delivery_past_the_error_log(self):
        """Regression: ``status()["delivery_errors"]`` read the length of the
        bounded error log, so it stopped counting at 256."""
        store, clock, manager = make_primary()
        store["a"] = 0
        manager.materialize()
        fleet = ServingFleet(manager, num_replicas=1).start()
        fleet.serve_view("rows")
        assert fleet.drain()
        fleet.kill_replica("replica-0")
        for value in range(1, 301):
            put(store, clock, manager, "a", value)
            manager.flush()
        assert fleet.status()["batches_published"] == 301
        assert len(fleet.shipper.delivery_errors) == 256  # the log stays bounded
        assert fleet.status()["delivery_errors"] == 300
        fleet.stop()

    def test_backpressure_drop_heals_through_gap_resync(self, monkeypatch):
        store, clock, manager = make_primary()
        store["a"] = 1
        manager.materialize()
        replicas = {}
        from repro.serving.shipping import JournalShipper
        shipper = JournalShipper(manager, replicas, JournalStore())
        monkeypatch.setattr(replica_module, "QUEUE_CAPACITY", 1)
        node = ReplicaNode("r0", resync_source=shipper)
        replicas[node.name] = node
        node.start()
        shipper.ship_view("rows")
        # stall the worker so the tiny queue overflows
        node._apply_lock.acquire()
        try:
            for value in (2, 3, 4):
                put(store, clock, manager, "a", value)
                manager.flush()
        finally:
            node._apply_lock.release()
        assert node.backpressure_drops >= 1
        node.drain()                       # apply whatever survived the overflow
        assert node.applied_lsn("rows") < clock["lsn"]
        # the next shipped batch does not extend what the replica applied
        # (its predecessor was dropped): gap detection must trigger a resync
        put(store, clock, manager, "a", 5)
        manager.flush()
        node.drain()
        deadline = time.monotonic() + 5
        while node.applied_lsn("rows") < clock["lsn"] and time.monotonic() < deadline:
            time.sleep(0.005)
        assert node.gaps_detected >= 1
        assert node.get("rows", "a").value("value") == 5
        assert node.applied_lsn("rows") == clock["lsn"]
        node.stop()

    def test_drain_on_a_wedged_replica_times_out_on_time_and_parks_no_thread(self):
        store, clock, manager = make_primary()
        store["a"] = 1
        manager.materialize()
        fleet = ServingFleet(manager, num_replicas=1).start()
        fleet.serve_view("rows")
        assert fleet.drain()
        node = fleet.replicas["replica-0"]
        threads_before = threading.active_count()
        # wedge the worker mid-apply: it blocks on the lock a query would hold
        node._apply_lock.acquire()
        try:
            put(store, clock, manager, "a", 2)
            manager.flush()
            for _ in range(3):
                started = time.monotonic()
                assert node.drain(timeout=0.05) is False
                assert 0.05 <= time.monotonic() - started < 1.0
            assert threading.active_count() == threads_before
        finally:
            node._apply_lock.release()
        # once unwedged, the same call wakes as soon as the batch is applied
        assert node.drain(timeout=5.0) is True
        assert node.applied_lsn("rows") == clock["lsn"]
        fleet.stop()

    def test_rebuild_ships_snapshot_not_delta(self):
        store, clock, manager = make_primary()
        store["a"] = 1
        manager.materialize()
        fleet = ServingFleet(manager, num_replicas=1).start()
        fleet.serve_view("rows")
        snapshots_before = fleet.shipper.snapshots_shipped
        store["b"] = 2
        clock["lsn"] += 1
        manager.materialize()                          # from scratch: unknown extent
        assert fleet.drain()
        assert fleet.shipper.snapshots_shipped == snapshots_before + 1
        node = fleet.replicas["replica-0"]
        assert node.index.feed_documents("view:rows") == {"rows:a", "rows:b"}
        fleet.stop()

    def test_crash_restart_catches_up_from_persisted_journal(self):
        store, clock, manager = make_primary()
        store.update({"a": 1, "b": 2})
        manager.materialize()
        fleet = ServingFleet(manager, num_replicas=3).start()
        fleet.serve_view("rows")
        assert fleet.drain()
        # crash replica-1, then keep flushing deltas it will miss
        fleet.kill_replica("replica-1")
        put(store, clock, manager, "a", 11)
        put(store, clock, manager, "c", 3, added=True)
        remove(store, clock, manager, "b")
        manager.flush()
        assert fleet.drain()
        builds_before = manager.states["rows"].builds
        caught_up = fleet.restart_replica("replica-1")
        assert caught_up == ["rows"]
        node = fleet.replicas["replica-1"]
        assert node.applied_lsn("rows") == clock["lsn"]
        assert node.index.feed_documents("view:rows") == {"rows:a", "rows:c"}
        assert node.get("rows", "a").value("value") == 11
        # journal replay, not artifact rebuild: no create ran, no snapshot shipped
        assert manager.states["rows"].builds == builds_before == 1
        assert node.snapshot_resyncs == 0
        fleet.stop()

    def test_running_fleet_compacts_what_every_replica_applied(self):
        """Each journaled delta truncates the view's history at the lowest
        LSN a replica's index holds, so a drained fleet keeps the newest
        deltas only, not one per flush."""
        store, clock, manager = make_primary()
        store["a"] = 0
        manager.materialize()
        fleet = ServingFleet(manager, num_replicas=3).start()
        fleet.serve_view("rows")
        assert fleet.drain()
        for value in range(1, 51):
            put(store, clock, manager, "a", value)
            manager.flush()
            assert fleet.drain()
        journal = fleet.status()["journal"]["rows"]
        assert journal["records"] <= 2
        assert journal["high_water_mark"] == clock["lsn"]
        fleet.stop()

    def test_crashed_replica_pins_the_history_it_catches_up_from(self):
        store, clock, manager = make_primary()
        store["a"] = 0
        manager.materialize()
        fleet = ServingFleet(manager, num_replicas=3).start()
        fleet.serve_view("rows")
        assert fleet.drain()
        fleet.kill_replica("replica-1")
        node = fleet.replicas["replica-1"]
        resyncs_before = node.snapshot_resyncs
        for value in range(1, 11):
            put(store, clock, manager, "a", value)
            manager.flush()
            assert fleet.drain()
        assert fleet.status()["journal"]["rows"]["records"] == 10
        assert fleet.restart_replica("replica-1") == ["rows"]
        assert node.snapshot_resyncs == resyncs_before       # a journal delta, no snapshot
        assert node.applied_lsn("rows") == clock["lsn"]
        assert node.get("rows", "a").value("value") == 10
        put(store, clock, manager, "a", 11)
        manager.flush()
        assert fleet.drain()
        assert fleet.status()["journal"]["rows"]["records"] <= 2
        fleet.stop()

    def test_restart_snapshot_resyncs_when_journal_compacted_past_checkpoint(self):
        store, clock, manager = make_primary()
        store["a"] = 1
        manager.materialize()
        fleet = ServingFleet(manager, num_replicas=2).start()
        journal = fleet.journal_store
        fleet.serve_view("rows")
        assert fleet.drain()
        fleet.kill_replica("replica-1")
        for value in (2, 3, 4):
            put(store, clock, manager, "a", value)
            manager.flush()
        assert fleet.drain()
        # fleet.shipper.compact_journals() is safe for a crashed replica: the LSN
        # its index holds floors it, so after compaction its catch-up delta
        # is still answerable and all three deltas are kept.
        assert fleet.shipper.compact_journals() == {}
        applied = fleet.replicas["replica-1"].applied_lsn("rows")
        assert journal.deltas_since("rows", applied).updated == {"a"}
        assert journal.stats()["rows"]["records"] == 3
        # force-truncate past its applied LSN to model an operator
        # compacting a long-dead replica away — the resulting staleness must
        # surface as an explicit gap, not a diff
        assert journal.truncate_below(
            "rows", fleet.replicas["replica-0"].applied_lsn("rows")
        ) == 3
        with pytest.raises(JournalGapError):
            journal.deltas_since("rows", fleet.replicas["replica-1"].applied_lsn("rows"))
        fleet.restart_replica("replica-1")
        node = fleet.replicas["replica-1"]
        assert node.snapshot_resyncs == 1               # resynced, explicitly
        assert node.get("rows", "a").value("value") == 4
        assert node.applied_lsn("rows") == clock["lsn"]
        fleet.stop()

    def test_restart_after_view_drop_unserves_instead_of_crashing(self):
        """Regression: a restart can name a view the primary has not
        materialized (a new primary process has not built it yet); the
        replica's restart must not abort on it: the catch-up answers with a
        drop batch, not a ViewError from artifact()."""
        store, clock, manager = make_primary()
        store["a"] = 1
        manager.materialize()
        fleet = ServingFleet(manager, num_replicas=1).start()
        fleet.serve_view("rows")
        assert fleet.drain()
        fleet.stop()
        # a new primary process: "rows" is registered but not yet built
        store, clock, manager = make_primary()
        fleet = ServingFleet(manager, num_replicas=1)
        with pytest.raises(ViewError):
            fleet.serve_view("rows")               # nothing built to ship
        node = fleet.replicas["replica-0"]
        assert node.restart(["rows"]) == ["rows"]
        assert not node.serves_view("rows")
        assert node.applied_lsn("rows") == 0
        assert node.index.feed_documents("view:rows") == set()
        fleet.stop()

    def test_restart_in_a_new_process_snapshots_instead_of_trusting_its_checkpoint(self):
        """Regression: a new primary process can build a view with other
        content at the very LSN a replica of the same name served.  A fresh
        node holds no copy, so its restart catches up through a snapshot and
        serves exactly the primary's rows; an empty journal delta at the old
        LSN would be skipped as a duplicate, and the node would serve no rows
        while claiming the primary's LSN."""
        store, clock, manager = make_primary()
        store["a"] = 1
        manager.materialize()
        fleet = ServingFleet(manager, num_replicas=1).start()
        fleet.serve_view("rows")
        assert fleet.drain()
        assert fleet.replicas["replica-0"].applied_lsn("rows") == 1
        fleet.stop()
        # a new primary process builds "rows" with other content, also at LSN 1
        store, clock, manager = make_primary()
        store["b"] = 2
        manager.materialize()
        assert manager.built_at_lsn("rows") == 1
        fleet = ServingFleet(manager, num_replicas=1)
        fleet.serve_view("rows")                   # the fresh node is not up yet
        node = fleet.replicas["replica-0"]
        assert node.restart(["rows"]) == ["rows"]
        assert node.snapshot_resyncs == 1
        assert node.batches_skipped == 0
        assert node.applied_lsn("rows") == 1
        assert node.index.feed_documents("view:rows") == {"rows:b"}
        assert node.get("rows", "b").value("value") == 2
        fleet.stop()

    def test_stopped_fleet_detaches_from_the_manager(self):
        """Regression: stop() must detach the shipper — a stopped fleet kept
        journaling and publishing on every later flush."""
        store, clock, manager = make_primary()
        store["a"] = 1
        manager.materialize()
        fleet = ServingFleet(manager, num_replicas=1).start()
        fleet.serve_view("rows")
        assert fleet.drain()
        fleet.stop()
        published = fleet.status()["batches_published"]
        put(store, clock, manager, "a", 2)
        manager.flush()
        assert fleet.status()["batches_published"] == published
        assert not manager.journal_listeners
        assert not fleet.shipper.delivery_errors

    def test_a_fleet_registers_one_journal_listener(self):
        """The shipper is the fleet's only journal listener: it offers each
        batch and compacts the journal itself, so no second listener has to
        run after it in registration order."""
        store, clock, manager = make_primary()
        store["a"] = 1
        manager.materialize()
        before = list(manager.journal_listeners)
        fleet = ServingFleet(manager, num_replicas=2)
        added = [listener for listener in manager.journal_listeners
                 if listener not in before]
        assert added == [fleet.shipper._on_journal_event]
        assert fleet.router.replicas is fleet.replicas
        assert fleet.shipper.replicas is fleet.replicas
        fleet.stop()
        assert manager.journal_listeners == before

    def test_late_joining_replica_is_seeded_before_owning_reads(self):
        """Regression: a replica added after serve_view owns key ranges
        immediately — without seeding, its empty index answered routed reads
        with false misses until some future delta happened to ship."""
        store, clock, manager = make_primary()
        for i in range(10):
            store[f"e{i}"] = i
        manager.materialize()
        fleet = ServingFleet(manager, num_replicas=2).start()
        fleet.serve_view("rows")
        assert fleet.drain()
        fleet.add_replica("replica-9")
        for i in range(10):
            document = fleet.read("rows", f"e{i}", Consistency.any())
            assert document is not None, f"false miss for e{i}"
        assert fleet.replicas["replica-9"].serves_view("rows")
        fleet.stop()

    def test_a_flush_landing_while_a_replica_seeds_applies_on_top_of_its_copy(
        self, monkeypatch
    ):
        """A replica joining a serving fleet starts from a copy of a current
        peer's index.  It is in the replica map before it seeds, so a flush
        that lands right after the copy is taken is queued on it and applies
        on top of the copy: no snapshot, no gap."""
        store, clock, manager = make_primary()
        store.update({"a": 1, "b": 2})
        manager.materialize()
        fleet = ServingFleet(manager, num_replicas=1).start()
        fleet.serve_view("rows")
        assert fleet.drain()
        copy = LiveIndex.copy
        copies = []

        def copy_then_flush(index):
            copied = copy(index)
            if not copies:
                put(store, clock, manager, "a", 10)
                put(store, clock, manager, "c", 3, added=True)
                manager.flush()
            copies.append(copied)
            return copied

        monkeypatch.setattr(LiveIndex, "copy", copy_then_flush)
        node = fleet.add_replica("replica-1")
        assert len(copies) == 1
        assert fleet.drain()
        assert node.applied_lsn("rows") == clock["lsn"]
        assert {s: node.get("rows", s).value("value") for s in "abc"} == {
            "a": 10, "b": 2, "c": 3,
        }
        assert node.snapshot_resyncs == 0 and node.gaps_detected == 0
        assert node.batches_applied == 1              # the flush; the copy is no batch
        assert all(report.clean() for report in fleet.audit(repair=False).values())
        fleet.stop()

    def test_a_peer_with_a_batch_queued_past_the_join_lsn_seeds_by_copy(self, monkeypatch):
        """A flush lands after the new replica joined, while ``start_from``
        holds the peer's apply lock: its batch waits queued on the peer,
        which still holds the view at the join LSN.  The new replica was
        offered that batch too, so it copies the peer and applies the batch
        on top: no snapshot, no gap."""
        store, clock, manager = make_primary()
        store.update({"a": 1, "b": 2})
        manager.materialize()
        fleet = ServingFleet(manager, num_replicas=1).start()
        fleet.serve_view("rows")
        assert fleet.drain()
        peer = fleet.replicas["replica-0"]
        joined_at = clock["lsn"]
        current_at = ReplicaNode._current_at
        checked = []

        def flush_then_check(node, lsns):
            if not checked:
                put(store, clock, manager, "a", 10)
                manager.flush()
                assert peer._queue.unfinished_tasks == 1       # queued, not applied
                assert peer.applied_lsn("rows") == joined_at == lsns["rows"]
            checked.append(node.name)
            return current_at(node, lsns)

        monkeypatch.setattr(ReplicaNode, "_current_at", flush_then_check)
        node = fleet.add_replica("replica-1")
        assert checked == ["replica-0"]
        assert fleet.drain()
        assert node.snapshot_resyncs == 0 and node.gaps_detected == 0
        assert node.applied_lsn("rows") == clock["lsn"] > joined_at
        assert {s: node.get("rows", s).value("value") for s in "ab"} == {"a": 10, "b": 2}
        assert all(report.clean() for report in fleet.audit(repair=False).values())
        fleet.stop()

    def test_a_peer_with_a_snapshot_queued_seeds_no_copy(self):
        """A view rebuilt at its shipped LSN ships a snapshot at that LSN;
        while the peer has it queued, its index holds the old rows at the
        join LSN, and a copy would keep them, since no later batch shows the
        change.  The new replica snapshot-resyncs instead."""
        store, clock, manager = make_primary()
        store.update({"a": 1, "b": 2})
        manager.materialize()
        fleet = ServingFleet(manager, num_replicas=1).start()
        fleet.serve_view("rows")
        assert fleet.drain()
        peer = fleet.replicas["replica-0"]
        lsn = peer.applied_lsn("rows")
        with peer._apply_lock:                 # its worker cannot apply the snapshot
            store["a"] = 100
            manager.materialize()              # from scratch, at the same LSN
            assert manager.built_at_lsn("rows") == lsn
            node = fleet.add_replica("replica-1")
            assert peer.get("rows", "a").value("value") == 1
        assert node.snapshot_resyncs == 1
        assert node.get("rows", "a").value("value") == 100
        assert fleet.drain()
        assert peer.get("rows", "a").value("value") == 100
        assert all(report.clean() for report in fleet.audit(repair=False).values())
        fleet.stop()

    def test_replicas_joining_while_a_writer_flushes_converge(self):
        """Stress: four replicas join one by one while a writer thread
        flushes, with a short switch interval; each seeds from a copy or a
        snapshot, and every one ends equal to the primary."""
        store, clock, manager = make_primary()
        store.update({f"e{i}": i for i in range(20)})
        manager.materialize()
        fleet = ServingFleet(manager, num_replicas=1).start()
        fleet.serve_view("rows")
        assert fleet.drain()
        stop = threading.Event()

        def writer():
            value = 100
            while not stop.is_set():
                put(store, clock, manager, f"e{value % 20}", value)
                manager.flush()
                value += 1

        thread = threading.Thread(target=writer)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            thread.start()
            for index in range(1, 5):
                fleet.add_replica(f"replica-{index}")
        finally:
            stop.set()
            thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert fleet.drain()
        for node in fleet.replicas.values():
            assert node.applied_lsn("rows") == clock["lsn"], node.name
            assert {s: node.get("rows", s).value("value") for s in store} == store
            assert not node.apply_errors
        assert all(report.clean() for report in fleet.audit(repair=False).values())
        fleet.stop()

    def test_a_replica_whose_only_peer_is_killed_seeds_by_snapshot(self):
        """A killed peer is not current, though its index holds the shipped
        LSN: the new replica falls back to a snapshot resync."""
        store, clock, manager = make_primary()
        store.update({"a": 1, "b": 2})
        manager.materialize()
        fleet = ServingFleet(manager, num_replicas=1).start()
        fleet.serve_view("rows")
        assert fleet.drain()
        fleet.kill_replica("replica-0")
        assert fleet.replicas["replica-0"].applied_lsn("rows") == clock["lsn"]
        node = fleet.add_replica("replica-1")
        assert node.snapshot_resyncs == 1 and node.batches_applied == 1
        assert node.applied_lsn("rows") == clock["lsn"]
        assert node.index.feed_documents("view:rows") == {"rows:a", "rows:b"}
        fleet.stop()

    def test_journal_persist_failure_resyncs_the_chain_via_snapshot(self):
        """Regression: a delta the store failed to record must not be
        silently skipped in shipping — the chain would extend every replica's
        applied LSN past changes they never saw.  The shipper snapshots."""
        store, clock, manager = make_primary()
        store["a"] = 1
        manager.materialize()
        fleet = ServingFleet(manager, num_replicas=1).start()
        journal = fleet.journal_store
        fleet.serve_view("rows")
        assert fleet.drain()
        broken = {"armed": True}
        real_append = journal.append_delta

        def failing_append(view_name, delta_):
            if broken["armed"]:
                broken["armed"] = False
                raise ServingError("disk full")
            return real_append(view_name, delta_)

        journal.append_delta = failing_append
        put(store, clock, manager, "a", 2)
        manager.flush()                       # listener error is swallowed...
        assert manager.journal_listener_errors
        assert fleet.drain()
        node = fleet.replicas["replica-0"]
        # ...but the replica was resynced by snapshot, not silently skipped
        assert node.get("rows", "a").value("value") == 2
        assert node.applied_lsn("rows") == clock["lsn"]
        put(store, clock, manager, "a", 3)    # the healed chain keeps working
        manager.flush()
        assert fleet.drain()
        assert node.get("rows", "a").value("value") == 3
        fleet.stop()

    def test_replica_watermarks_read_from_the_replicas(self):
        store, clock, manager = make_primary()
        store["a"] = 1
        manager.materialize()
        fleet = ServingFleet(manager, num_replicas=2).start()
        fleet.serve_view("rows")
        put(store, clock, manager, "a", 2)
        manager.flush()
        assert fleet.drain()
        for name in ("replica-0", "replica-1"):
            assert fleet.replicas[name].applied_lsn("rows") == clock["lsn"]
        assert fleet.lag() == {"rows": {"replica-0": 0, "replica-1": 0}}
        clock["lsn"] += 2                     # the head moves on, unshipped
        assert fleet.lag() == {"rows": {"replica-0": 2, "replica-1": 2}}
        fleet.stop()


# ------------------------------------------------------------------ #
# routing
# ------------------------------------------------------------------ #
class FakeReplica:
    """A minimal routable node with a settable applied LSN."""

    def __init__(self, name, applied=0, alive=True):
        self.name = name
        self._applied = applied
        self.alive = alive
        self.docs = {}

    def applied_lsn(self, view_name):
        return self._applied

    def serves_view(self, view_name):
        return True

    def get(self, view_name, subject):
        return self.docs.get(f"{view_name}:{subject}")


class TestShardRouter:
    def test_owners_rotate_the_sorted_names_and_spread_first_place(self):
        # insertion order is irrelevant
        router = ShardRouter({name: FakeReplica(name) for name in ("r2", "r0", "r1")},
                             lambda: 0)
        names = ["r0", "r1", "r2"]
        firsts = set()
        for key in (f"kg:e{i}" for i in range(300)):
            start = stable_hash(key) % 3
            assert router.owners(key) == names[start:] + names[:start]
            firsts.add(router.owners(key)[0])
        assert firsts == set(names)                          # every replica leads somewhere

    def test_removing_a_replica_keeps_the_others_relative_order(self):
        replicas = {f"r{i}": FakeReplica(f"r{i}") for i in range(4)}
        keys = [f"kg:e{i}" for i in range(100)]
        before = {key: ShardRouter(replicas, lambda: 0).owners(key) for key in keys}
        del replicas["r2"]
        router = ShardRouter(replicas, lambda: 0)
        for key in keys:
            after = router.owners(key)
            assert sorted(after) == ["r0", "r1", "r3"]
            # the survivors' cyclic order is the one they had before
            survivors = [name for name in before[key] if name != "r2"]
            rotation = survivors.index(after[0])
            assert after == survivors[rotation:] + survivors[:rotation]

    def test_consistency_levels_gate_replicas(self):
        fresh = FakeReplica("fresh", applied=10)
        stale = FakeReplica("stale", applied=4)
        for node in (fresh, stale):
            node.docs["v:x"] = object()
        router = ShardRouter({"fresh": fresh, "stale": stale}, lambda: 10)
        assert router.satisfies(stale, "v", Consistency.any())
        assert not router.satisfies(stale, "v", Consistency.bounded_staleness(2))
        assert router.satisfies(stale, "v", Consistency.bounded_staleness(6))
        assert not router.satisfies(stale, "v", Consistency.read_your_writes(5))
        assert router.satisfies(fresh, "v", Consistency.read_your_writes(10))

    def test_read_falls_back_and_raises_honestly(self):
        fresh = FakeReplica("fresh", applied=10)
        stale = FakeReplica("stale", applied=4)
        fresh.docs["v:x"] = "fresh-doc"
        stale.docs["v:x"] = "stale-doc"
        replicas = {"fresh": fresh, "stale": stale}
        router = ShardRouter(replicas, lambda: 10)
        # read_your_writes(10): only the fresh replica qualifies, whoever owns x
        assert router.read("v", "x", Consistency.read_your_writes(10)) == "fresh-doc"
        with pytest.raises(StaleReadError):
            router.read("v", "x", Consistency.read_your_writes(11))
        fresh.alive = False
        stale.alive = False
        with pytest.raises(ReplicaUnavailableError):
            router.read("v", "x")
        replicas.clear()
        with pytest.raises(ReplicaUnavailableError):
            router.read("v", "x")

    def test_fleet_read_fails_like_a_query_through_the_one_placement_walk(self):
        """Point reads share the queries' walk: same typed errors, same counters.

        ``read`` of a view no live replica serves used to raise
        ``StaleReadError("no replica satisfies any ...")`` even at
        ``Consistency.any()``, and its ``StaleReadError`` carried no
        ``lagging`` map.
        """
        store, clock, manager = make_primary()
        store.update({"e1": 1, "e2": 2})
        manager.materialize()
        fleet = ServingFleet(manager, num_replicas=2).start()
        try:
            fleet.serve_view("rows")
            assert fleet.drain()
            # live replicas, none of which serves the view: unavailable, not stale
            assert all(node.alive for node in fleet.replicas.values())
            for read in (
                lambda: fleet.read("never_served", "e1"),
                lambda: fleet.read("never_served", "e1", Consistency.any()),
                lambda: fleet.query("MATCH view_row RETURN value", "never_served"),
            ):
                with pytest.raises(ReplicaUnavailableError, match="never_served"):
                    read()
            assert fleet.router.consistency_rejections == 0
            # replicas that serve it but lag: stale, naming each one and its lag
            put(store, clock, manager, "e1", 10)              # enqueued, not flushed
            ahead = Consistency.read_your_writes(clock["lsn"])
            for read in (
                lambda: fleet.read("rows", "e1", ahead),
                lambda: fleet.query("MATCH view_row RETURN value", "rows", ahead),
            ):
                before = fleet.router.consistency_rejections
                with pytest.raises(StaleReadError) as excinfo:
                    read()
                assert set(excinfo.value.lagging) == set(fleet.replicas)
                assert all(lag >= 1 for lag in excinfo.value.lagging.values())
                assert fleet.router.consistency_rejections == before + 2
            assert fleet.status()["consistency_rejections"] == 4
            # a fallback is counted where it happens, whoever asked
            preferred = fleet.router.owners("e2")[0]
            fleet.kill_replica(preferred)
            assert fleet.read("rows", "e2").value("value") == 2
            assert fleet.router.fallback_reads == 1
        finally:
            fleet.stop()

    def test_routed_reads_while_primary_flushes(self):
        """Acceptance: a 3-replica fleet serves reads during primary flushes."""
        store, clock, manager = make_primary()
        for i in range(20):
            store[f"e{i}"] = i
        manager.materialize()
        fleet = ServingFleet(manager, num_replicas=3).start()
        fleet.serve_view("rows")
        assert fleet.drain()
        stop = threading.Event()
        errors: list[Exception] = []

        def reader():
            while not stop.is_set():
                try:
                    fleet.read("rows", "e1", Consistency.any())
                except Exception as exc:  # noqa: BLE001 - collected for the assert
                    errors.append(exc)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for round_ in range(15):
                put(store, clock, manager, f"e{round_ % 20}", 100 + round_)
                manager.flush()
        finally:
            stop.set()
            thread.join()
        assert fleet.drain()
        assert not errors
        assert fleet.read(
            "rows", "e1", Consistency.read_your_writes(manager.built_at_lsn("rows"))
        ).value("value") in (1, 101)  # e1 updated in round 1
        assert fleet.router.reads_routed > 0
        fleet.stop()


# ------------------------------------------------------------------ #
# catch-up: explicit journal-gap resync and the catch-up stamp
# ------------------------------------------------------------------ #
def test_live_view_feed_counts_journal_gap_resyncs():
    """A replica that missed a from-scratch rebuild finds the journal
    truncated past its applied LSN — an explicit gap — and resyncs
    from a snapshot; one that missed only journaled deltas catches up by
    delta."""
    store, clock, manager = make_primary()
    store.update({"a": 1, "b": 2})
    manager.materialize()
    fleet = ServingFleet(manager, num_replicas=1).start()
    node = fleet.replicas["replica-0"]
    try:
        assert fleet.serve_view("rows") == 2
        assert fleet.drain()
        fleet.kill_replica("replica-0")
        store["c"] = 3
        clock["lsn"] += 1
        manager.materialize()
        with pytest.raises(JournalGapError):
            fleet.journal_store.deltas_since("rows", node.applied_lsn("rows"))
        fleet.restart_replica("replica-0")
        assert node.snapshot_resyncs == 1
        assert node.index.feed_documents("view:rows") == {"rows:a", "rows:b", "rows:c"}
        # while a journal-covered catch-up stays incremental
        fleet.kill_replica("replica-0")
        put(store, clock, manager, "a", 9)
        manager.flush()
        fleet.restart_replica("replica-0")
        assert node.resyncs == 2
        assert node.status()["snapshot_resyncs"] == 1
        assert node.get("rows", "a").value("value") == 9
        assert node.applied_lsn("rows") == clock["lsn"]
    finally:
        fleet.stop()


def test_catchup_racing_an_unhandled_append_does_not_skip_that_flush():
    """Regression: a resync that lands after a flush committed but before the
    shipper handled its ``append`` event read a journal without that delta,
    yet was stamped with the manager's new watermark — the flush's own batch
    then looked like a duplicate and was skipped, and the replica served the
    old row under a satisfied ``read_your_writes``.  A catch-up batch is
    stamped with what the shipper has journaled and published."""
    store, clock, manager = make_primary()
    store["a"] = 1
    manager.materialize()
    racing = {}

    def resync_before_the_shipper(event):
        if event.kind == "append" and "node" in racing:
            racing["node"].resync("rows")

    manager.add_journal_listener(resync_before_the_shipper)   # runs first
    fleet = ServingFleet(manager, num_replicas=1).start()
    try:
        fleet.serve_view("rows")
        assert fleet.drain()
        node = racing["node"] = fleet.replicas["replica-0"]
        put(store, clock, manager, "a", 100)
        manager.flush()
        assert fleet.drain()
        assert node.resyncs == 1
        assert node.applied_lsn("rows") == clock["lsn"]
        assert node.get("rows", "a").value("value") == 100
        fresh = Consistency.read_your_writes(clock["lsn"])
        assert fleet.read("rows", "a", fresh).value("value") == 100
        assert all(report.clean() for report in fleet.audit(repair=False).values())
    finally:
        fleet.stop()


def test_compaction_keeps_deltas_above_the_lsn_and_gaps_a_replica_below_it():
    """``truncate_below(view, lsn)`` drops exactly the deltas at or below
    *lsn*: a replica at *lsn* still catches up by a journal delta, and one
    below it meets the ``JournalGapError`` and catches up by a snapshot."""
    store, clock, manager = make_primary()
    store["a"] = 0
    manager.materialize()
    fleet = ServingFleet(manager, num_replicas=3).start()
    journal = fleet.journal_store
    behind, at_floor = fleet.replicas["replica-1"], fleet.replicas["replica-2"]

    def write(*values):
        for value in values:
            put(store, clock, manager, "a", value)
            manager.flush()
        assert fleet.drain()

    try:
        fleet.serve_view("rows")
        assert fleet.drain()
        fleet.kill_replica("replica-1")
        write(1, 2)
        floor = clock["lsn"]
        fleet.kill_replica("replica-2")
        write(3, 4)
        assert behind.applied_lsn("rows") < floor == at_floor.applied_lsn("rows")

        assert journal.truncate_below("rows", floor) == 2
        assert journal.floor_lsn("rows") == floor
        assert [d.last_lsn for d in journal._deltas["rows"]] == [floor + 1, floor + 2]

        snapshots = at_floor.snapshot_resyncs
        assert fleet.restart_replica("replica-2") == ["rows"]
        assert at_floor.snapshot_resyncs == snapshots    # rode a journal delta
        assert at_floor.applied_lsn("rows") == clock["lsn"]
        assert at_floor.get("rows", "a").value("value") == 4

        with pytest.raises(JournalGapError):
            journal.deltas_since("rows", behind.applied_lsn("rows"))
        snapshots = behind.snapshot_resyncs
        assert behind.restart() == ["rows"]            # the views its index serves
        assert behind.snapshot_resyncs == snapshots + 1
        assert behind.applied_lsn("rows") == clock["lsn"]
        assert behind.get("rows", "a").value("value") == 4
    finally:
        fleet.stop()
