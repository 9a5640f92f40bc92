"""Replicated serving fleet: journals, shipping, replicas, routing.

Covers the serving subsystem end to end: durable segmented journal storage
(persistence, recovery, compaction-aware truncation, gap signalling),
journal shipping over the replication bus, asynchronous replica apply with
gap-triggered resync, crash/restart catch-up from persisted journals, and
LSN-aware read routing under the three consistency levels.
"""

from __future__ import annotations

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
from repro.serving import (
    Consistency,
    FileJournalBackend,
    InMemoryJournalBackend,
    JournalRecord,
    JournalStore,
    ReplicaNode,
    ReplicationBus,
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
        store.append_delta("v", 1, delta(added=["a"], first_lsn=1, last_lsn=1))
        store.append_delta("v", 1, delta(updated=["a"], added=["b"], first_lsn=2, last_lsn=2))
        store.append_delta("v", 1, delta(deleted=["b"], first_lsn=3, last_lsn=3))
        merged = store.deltas_since("v", 0)
        assert merged.added == frozenset({"a"})
        assert merged.deleted == frozenset({"b"})
        assert store.deltas_since("v", 2).deleted == frozenset({"b"})
        assert store.deltas_since("v", 3).is_empty()
        assert store.high_water_mark("v") == 3
        assert store.deltas_since("unknown", 0) is None

    def test_truncate_raises_gap_below_floor(self):
        store = JournalStore()
        store.append_delta("v", 1, delta(added=["a"], first_lsn=1, last_lsn=1))
        store.record_truncate("v", 1, lsn=5)
        with pytest.raises(JournalGapError) as excinfo:
            store.deltas_since("v", 3)
        assert excinfo.value.view_name == "v"
        assert excinfo.value.floor_lsn == 5
        assert store.deltas_since("v", 5).is_empty()

    def test_segment_rolling_and_compaction_aware_truncation(self):
        store = JournalStore(segment_records=2)
        for lsn in range(1, 8):
            store.append_delta("v", 1, delta(added=[f"e{lsn}"], first_lsn=lsn, last_lsn=lsn))
        assert store.stats()["v"]["segments"] == 4
        # every consumer reached LSN 4: the first two whole segments drop
        assert store.truncate_below("v", 4) == 2
        assert store.floor_lsn("v") == 4
        assert store.deltas_since("v", 4).added == frozenset({"e5", "e6", "e7"})
        with pytest.raises(JournalGapError):
            store.deltas_since("v", 3)
        # the active (last) segment is never dropped
        assert store.truncate_below("v", 100) == 1
        assert store.stats()["v"]["segments"] == 1

    def test_revision_change_drops_stale_history(self):
        store = JournalStore()
        store.append_delta("v", 1, delta(added=["a"], first_lsn=1, last_lsn=1))
        store.append_delta("v", 2, delta(added=["b"], first_lsn=2, last_lsn=2))
        assert store.revision_of("v") == 2
        assert store.deltas_since("v", 0).added == frozenset({"b"})

    def test_file_backend_recovery_across_restart(self, tmp_path):
        backend = FileJournalBackend(tmp_path, fsync=True)
        store = JournalStore(backend, segment_records=2)
        for lsn in range(1, 6):
            store.append_delta("song_rows", 3, delta(added=[f"e{lsn}"],
                                                     first_lsn=lsn, last_lsn=lsn))
        store.truncate_below("song_rows", 2)
        store.save_replica_checkpoint("replica-0", {"song_rows": 4}, {"song_rows": 3})

        # a new process: fresh store over the same directory
        recovered = JournalStore(FileJournalBackend(tmp_path), segment_records=2)
        assert recovered.recovered_records > 0
        assert recovered.revision_of("song_rows") == 3
        assert recovered.floor_lsn("song_rows") == 2
        assert recovered.deltas_since("song_rows", 4).added == frozenset({"e5"})
        with pytest.raises(JournalGapError):
            recovered.deltas_since("song_rows", 1)
        applied, revisions = recovered.load_replica_checkpoint("replica-0")
        assert applied == {"song_rows": 4}
        assert revisions == {"song_rows": 3}

    def test_persisted_line_format_is_stable(self, tmp_path):
        """A journal directory outlives the code that wrote it: the JSON line
        a record persists as, and the delta a line recovers to, stay fixed."""
        store = JournalStore(FileJournalBackend(tmp_path))
        store.append_delta("v", 1, delta(added=["b", "a"], updated=["u"], deleted=["c"],
                                         first_lsn=1, last_lsn=2))
        store.record_truncate("w", 3, lsn=4)
        backend = FileJournalBackend(tmp_path)
        assert backend.read_segment("v", 1) == [
            '{"added": ["a", "b"], "deleted": ["c"], "first_lsn": 1, "kind": "delta", '
            '"last_lsn": 2, "revision": 1, "updated": ["u"], "view": "v"}'
        ]
        assert backend.read_segment("w", 1) == [
            '{"added": [], "deleted": [], "first_lsn": 4, "kind": "truncate", '
            '"last_lsn": 4, "revision": 3, "updated": [], "view": "w"}'
        ]
        for line in backend.read_segment("v", 1) + backend.read_segment("w", 1):
            assert JournalRecord.from_json(line).to_json() == line
        recovered = JournalStore(backend)
        assert recovered.deltas_since("v", 0) == delta(
            added=["a", "b"], updated=["u"], deleted=["c"], first_lsn=1, last_lsn=2
        )
        assert recovered.floor_lsn("w") == 4 and recovered.revision_of("w") == 3

    def test_file_backend_keeps_dot_prefixed_view_names_apart(self, tmp_path):
        """Regression: a view named 'a.b' must not shadow view 'a' in the
        segment-file namespace (the dot also separates the segment id)."""
        store = JournalStore(FileJournalBackend(tmp_path))
        store.append_delta("rows", 1, delta(added=["x"], first_lsn=1, last_lsn=1))
        store.append_delta("rows.v2", 1, delta(added=["y"], first_lsn=1, last_lsn=1))
        recovered = JournalStore(FileJournalBackend(tmp_path))
        assert recovered.view_names() == ["rows", "rows.v2"]
        assert recovered.deltas_since("rows", 0).added == frozenset({"x"})
        assert recovered.deltas_since("rows.v2", 0).added == frozenset({"y"})

    def test_a_dropped_replica_checkpoint_is_gone_on_either_backend(self, tmp_path):
        for backend in (InMemoryJournalBackend(), FileJournalBackend(tmp_path)):
            store = JournalStore(backend)
            store.save_replica_checkpoint("replica-1", {"v": 3}, {"v": 1})
            store.drop_replica_checkpoint("replica-1")
            assert JournalStore(backend).load_replica_checkpoint("replica-1") == ({}, {})
            backend.drop_checkpoint("replica:replica-1")      # absent: a no-op

    def test_in_memory_backend_survives_store_restart(self):
        backend = InMemoryJournalBackend()
        store = JournalStore(backend)
        store.append_delta("v", 1, delta(added=["a"], first_lsn=1, last_lsn=1))
        restarted = JournalStore(backend)
        assert restarted.deltas_since("v", 0).added == frozenset({"a"})

    def test_empty_delta_and_bad_segment_size_rejected(self):
        with pytest.raises(ServingError):
            JournalStore(segment_records=0)
        with pytest.raises(ServingError):
            JournalStore().append_delta("v", 1, delta())


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
        assert fleet.bus.delivery_errors   # the dead replica was counted, not fatal
        fleet.stop()

    def test_backpressure_drop_heals_through_gap_resync(self):
        store, clock, manager = make_primary()
        store["a"] = 1
        manager.materialize()
        bus = ReplicationBus()
        from repro.serving.shipping import JournalShipper
        shipper = JournalShipper(manager, bus, JournalStore())
        node = ReplicaNode("r0", queue_capacity=1, resync_source=shipper)
        bus.subscribe(node)
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

    def test_crash_restart_catches_up_from_persisted_journal(self, tmp_path):
        journal = JournalStore(FileJournalBackend(tmp_path))
        store, clock, manager = make_primary()
        store.update({"a": 1, "b": 2})
        manager.materialize()
        fleet = ServingFleet(manager, num_replicas=3, journal_store=journal).start()
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

    def test_restart_snapshot_resyncs_when_journal_compacted_past_checkpoint(self):
        journal = JournalStore(segment_records=1)
        store, clock, manager = make_primary()
        store["a"] = 1
        manager.materialize()
        fleet = ServingFleet(manager, num_replicas=2, journal_store=journal).start()
        fleet.serve_view("rows")
        assert fleet.drain()
        fleet.kill_replica("replica-1")
        for value in (2, 3, 4):
            put(store, clock, manager, "a", value)
            manager.flush()
        assert fleet.drain()
        # fleet.compact_journals() is checkpoint-safe: the crashed replica's
        # applied LSN floors it, so after compaction its catch-up delta is
        # still answerable (only the ship-time truncate marker may drop).
        fleet.compact_journals()
        applied = fleet.replicas["replica-1"].applied_lsn("rows")
        assert journal.deltas_since("rows", applied) is not None
        # force-truncate past its checkpoint to model an operator compacting
        # a long-dead replica away — the resulting staleness must surface as
        # an explicit gap, not a diff
        journal.truncate_below("rows", fleet.replicas["replica-0"].applied_lsn("rows"))
        with pytest.raises(JournalGapError):
            journal.deltas_since("rows", fleet.replicas["replica-1"].applied_lsn("rows"))
        fleet.restart_replica("replica-1")
        node = fleet.replicas["replica-1"]
        assert node.snapshot_resyncs == 1               # resynced, explicitly
        assert node.get("rows", "a").value("value") == 4
        assert node.applied_lsn("rows") == clock["lsn"]
        fleet.stop()

    def test_restart_after_view_drop_unserves_instead_of_crashing(self, tmp_path):
        """Regression: a replica checkpoint can name a view the primary has
        not materialized (a new primary process has not built it yet); the
        replica's restart must not abort on it: the catch-up answers with a
        drop batch, not a ViewError from artifact()."""
        store, clock, manager = make_primary()
        store["a"] = 1
        manager.materialize()
        fleet = ServingFleet(
            manager, num_replicas=1, journal_store=JournalStore(FileJournalBackend(tmp_path))
        ).start()
        fleet.serve_view("rows")
        assert fleet.drain()
        fleet.stop()
        # a new primary process: "rows" is registered but not yet built
        store, clock, manager = make_primary()
        journal = JournalStore(FileJournalBackend(tmp_path))
        assert journal.load_replica_checkpoint("replica-0")[0] == {"rows": 1}
        fleet = ServingFleet(manager, num_replicas=1, journal_store=journal)
        with pytest.raises(ViewError):
            fleet.serve_view("rows")               # nothing built to ship
        node = fleet.replicas["replica-0"]
        assert node.restart() == ["rows"]
        assert not node.serves_view("rows")
        assert node.applied_lsn("rows") == 0
        assert node.index.feed_documents("view:rows") == set()
        assert journal.load_replica_checkpoint("replica-0") == ({}, {})
        fleet.stop()

    def test_stopped_fleet_detaches_from_the_manager(self):
        """Regression: stop() must detach the shipper — a stopped fleet kept
        persisting and publishing on every later flush."""
        store, clock, manager = make_primary()
        store["a"] = 1
        manager.materialize()
        fleet = ServingFleet(manager, num_replicas=1).start()
        fleet.serve_view("rows")
        assert fleet.drain()
        fleet.stop()
        published = fleet.bus.batches_published
        put(store, clock, manager, "a", 2)
        manager.flush()
        assert fleet.bus.batches_published == published
        assert not manager.journal_listeners
        assert not fleet.bus.delivery_errors

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

    def test_journal_persist_failure_resyncs_the_chain_via_snapshot(self):
        """Regression: a delta the store failed to persist must not be
        silently skipped on the bus — the chain would extend every replica's
        applied LSN past changes they never saw.  The shipper snapshots."""
        journal = JournalStore()
        store, clock, manager = make_primary()
        store["a"] = 1
        manager.materialize()
        fleet = ServingFleet(manager, num_replicas=1, journal_store=journal).start()
        fleet.serve_view("rows")
        assert fleet.drain()
        broken = {"armed": True}
        real_append = journal.append_delta

        def failing_append(view_name, revision, delta_):
            if broken["armed"]:
                broken["armed"] = False
                raise ServingError("disk full")
            return real_append(view_name, revision, delta_)

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

    def test_remove_replica_forgets_checkpoint_and_watermarks(self):
        store, clock, manager = make_primary()
        store["a"] = 1
        manager.materialize()
        fleet = ServingFleet(manager, num_replicas=2).start()
        fleet.serve_view("rows")
        assert fleet.drain()
        assert fleet.replicas["replica-1"].applied_lsn("rows") > 0
        assert set(fleet.lag()["rows"]) == {"replica-0", "replica-1"}
        fleet.remove_replica("replica-1")
        assert "replica-1" not in fleet.replicas
        assert fleet.router.healthy_replicas() == ["replica-0"]
        assert fleet.lag() == {"rows": {"replica-0": 0}}
        assert fleet.journal_store.load_replica_checkpoint("replica-1") == ({}, {})
        put(store, clock, manager, "a", 2)    # shipping continues without it
        manager.flush()
        assert fleet.drain()
        assert fleet.replicas["replica-0"].get("rows", "a").value("value") == 2
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
        router = ShardRouter(lambda: 0)
        for name in ("r2", "r0", "r1"):                      # insertion order is irrelevant
            router.add_replica(FakeReplica(name))
        names = ["r0", "r1", "r2"]
        firsts = set()
        for key in (f"kg:e{i}" for i in range(300)):
            start = stable_hash(key) % 3
            assert router.owners(key) == names[start:] + names[:start]
            firsts.add(router.owners(key)[0])
        assert firsts == set(names)                          # every replica leads somewhere

    def test_removing_a_replica_keeps_the_others_relative_order(self):
        router = ShardRouter(lambda: 0)
        for i in range(4):
            router.add_replica(FakeReplica(f"r{i}"))
        keys = [f"kg:e{i}" for i in range(100)]
        before = {key: router.owners(key) for key in keys}
        router.remove_replica("r2")
        for key in keys:
            after = router.owners(key)
            assert sorted(after) == ["r0", "r1", "r3"]
            # the survivors' cyclic order is the one they had before
            survivors = [name for name in before[key] if name != "r2"]
            rotation = survivors.index(after[0])
            assert after == survivors[rotation:] + survivors[:rotation]

    def test_consistency_levels_gate_replicas(self):
        router = ShardRouter(lambda: 10)
        fresh = FakeReplica("fresh", applied=10)
        stale = FakeReplica("stale", applied=4)
        for node in (fresh, stale):
            node.docs["v:x"] = object()
            router.add_replica(node)
        assert router.satisfies(stale, "v", Consistency.any())
        assert not router.satisfies(stale, "v", Consistency.bounded_staleness(2))
        assert router.satisfies(stale, "v", Consistency.bounded_staleness(6))
        assert not router.satisfies(stale, "v", Consistency.read_your_writes(5))
        assert router.satisfies(fresh, "v", Consistency.read_your_writes(10))

    def test_read_falls_back_and_raises_honestly(self):
        router = ShardRouter(lambda: 10)
        fresh = FakeReplica("fresh", applied=10)
        stale = FakeReplica("stale", applied=4)
        fresh.docs["v:x"] = "fresh-doc"
        stale.docs["v:x"] = "stale-doc"
        router.add_replica(fresh)
        router.add_replica(stale)
        # read_your_writes(10): only the fresh replica qualifies, whoever owns x
        assert router.read("v", "x", Consistency.read_your_writes(10)) == "fresh-doc"
        with pytest.raises(StaleReadError):
            router.read("v", "x", Consistency.read_your_writes(11))
        fresh.alive = False
        stale.alive = False
        with pytest.raises(ReplicaUnavailableError):
            router.read("v", "x")
        router.remove_replica("fresh")
        router.remove_replica("stale")
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
    """A replica that missed a from-scratch rebuild finds the persisted
    journal truncated past its applied LSN — an explicit gap — and resyncs
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
    stamped with what the shipper has persisted and published."""
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
