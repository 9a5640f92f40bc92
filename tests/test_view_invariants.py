"""Property-based view-invariant suite (seeded operation sequences).

Random interleavings of enqueue / flush / delete / revive /
re-materialize are replayed against a model store, and after every flush the
suite asserts the four core invariants of incremental view maintenance:

1. **Equivalence** — every materialized artifact equals a from-scratch
   rebuild from current store state, whether it was maintained through
   ``apply_delta`` or ``create``.
2. **Monotonicity** — a view's ``built_at_lsn`` never moves backwards.
3. **No ghosts** — no view serves rows for deleted entities.
4. **Accounting** — skip counters plus rebuild counters sum to the total
   maintenance decisions the flushes made.
5. **Journal sufficiency** — a replica that keeps ``alpha_rows`` current by
   pulling catch-ups from the ``JournalStore`` alone serves exactly
   what a fresh snapshot load serves, and every catch-up rides a delta
   unless the view was rebuilt in between — although the
   journal names only the rows that changed: writes that leave a row as it
   was (the ``touch`` op) are journaled as nothing.

The sequence count is controlled by ``--runs-seeded`` (default 25; the bare
flag, as used in CI, runs 200).  The same module hosts the flush-order and
failure-semantics tests and the no-op-deletion regression tests.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.engine.graph_engine import GraphEngine
from repro.engine.views import ViewCatalog, ViewDefinition, ViewDelta, ViewManager
from repro.errors import JournalGapError, StaleReadError
from repro.live.index import document_checksum
from repro.model.provenance import Provenance
from repro.model.triples import ExtendedTriple, TripleStore
from repro.serving import (
    Consistency,
    FrontDoor,
    JournalShipper,
    JournalStore,
    ReplicaNode,
    ServingFleet,
)


# The op_seed / live_seed / fleet_seed fixtures are parametrized by the
# repo-level conftest.py from --runs-seeded (with proportional caps on the
# heavyweight suites).

# ------------------------------------------------------------------ #
# model harness
# ------------------------------------------------------------------ #
def delta_at(lsn, added=(), updated=(), deleted=()):
    """The delta of the one operation at log position *lsn*."""
    return ViewDelta(
        added=frozenset(added), updated=frozenset(updated), deleted=frozenset(deleted),
        first_lsn=lsn, last_lsn=lsn,
    )


TYPES = ("alpha", "beta", "gamma")


class ModelStore:
    """Tiny mutable entity store the harness views read from."""

    def __init__(self):
        self.entities: dict[str, dict] = {}   # id -> {"type": str, "value": int}

    def subjects(self):
        return list(self.entities)

    def of_type(self, entity_type):
        return sorted(
            eid for eid, fields in self.entities.items()
            if fields["type"] == entity_type
        )


def _row(store: ModelStore, eid: str) -> dict:
    return {"subject": eid, "value": store.entities[eid]["value"]}


def _typed_rows(store: ModelStore, entity_type: str) -> dict:
    return {eid: _row(store, eid) for eid in store.of_type(entity_type)}


def build_harness(store: ModelStore, with_unscoped=False):
    """Register the harness views and return (catalog, manager).

    ``alpha_rows`` maintains through ``apply_delta`` trusting the delta's
    classification, ``beta_rows`` through ``apply_delta`` re-reading each
    named entity's membership from the store (both journal append path),
    ``gamma_rows`` through ``create`` only (journal truncate path), and
    ``pair_index`` depends on the first two with an always-false scope
    (transitive path).
    """
    catalog = ViewCatalog()

    def scope_for(entity_type):
        def scope(eid, entity_type=entity_type):
            fields = store.entities.get(eid)
            return fields is not None and fields["type"] == entity_type
        return scope

    def alpha_create(context):
        return _typed_rows(store, "alpha")

    def alpha_apply(context, delta: ViewDelta):
        artifact = dict(context.artifact("alpha_rows"))
        for eid in delta.changed:
            artifact[eid] = _row(store, eid)
        for eid in delta.deleted:
            artifact.pop(eid, None)
        return artifact

    catalog.register(ViewDefinition(
        "alpha_rows", "analytics", create=alpha_create, apply_delta=alpha_apply,
        scope=scope_for("alpha"),
    ))

    def beta_create(context):
        return _typed_rows(store, "beta")

    def beta_apply(context, delta: ViewDelta):
        artifact = dict(context.artifact("beta_rows"))
        for eid in delta.changed | delta.deleted:
            fields = store.entities.get(eid)
            if fields is not None and fields["type"] == "beta":
                artifact[eid] = _row(store, eid)
            else:
                artifact.pop(eid, None)
        return artifact

    catalog.register(ViewDefinition(
        "beta_rows", "analytics", create=beta_create, apply_delta=beta_apply,
        scope=scope_for("beta"),
    ))

    catalog.register(ViewDefinition(
        "gamma_rows", "analytics",
        create=lambda ctx: _typed_rows(store, "gamma"),
        scope=scope_for("gamma"),
    ))

    catalog.register(ViewDefinition(
        "pair_index", "analytics",
        create=lambda ctx: {
            "alpha": sorted(ctx.artifact("alpha_rows")),
            "beta": sorted(ctx.artifact("beta_rows")),
        },
        dependencies=("alpha_rows", "beta_rows"),
        scope=lambda eid: False,
    ))

    if with_unscoped:
        catalog.register(ViewDefinition(
            "total_count", "analytics",
            create=lambda ctx: len(store.entities),
        ))

    clock = {"lsn": 0}
    manager = ViewManager(
        catalog, engines={},
        lsn_source=lambda: clock["lsn"],
        entity_source=store.subjects,
    )
    return catalog, manager, clock


def expected_artifact(store: ModelStore, name: str):
    if name == "alpha_rows":
        return _typed_rows(store, "alpha")
    if name == "beta_rows":
        return _typed_rows(store, "beta")
    if name == "gamma_rows":
        return _typed_rows(store, "gamma")
    if name == "pair_index":
        return {"alpha": store.of_type("alpha"), "beta": store.of_type("beta")}
    if name == "total_count":
        return len(store.entities)
    raise AssertionError(f"no expectation for view {name!r}")


def served_digests(node: ReplicaNode, view_name: str) -> dict[str, str]:
    """Document id → content digest of everything *node* serves for a view."""
    return {
        doc_id: document_checksum(node.index.get(doc_id))
        for doc_id in node.index.feed_documents(f"view:{view_name}")
    }


def appended(events, view_name: str, after_lsn: int) -> ViewDelta:
    """Net delta of the ``append`` events *view_name* committed after an LSN."""
    net = ViewDelta(first_lsn=after_lsn, last_lsn=after_lsn)
    for event in events:
        if event.kind == "append" and event.view_name == view_name and event.lsn > after_lsn:
            net = net.merge(event.delta)
    return net


class JournalConsumer:
    """A replica of one row view kept current from the journal alone.

    It is in no replica map, so no batch is offered to it: after every
    flush it pulls one catch-up batch
    (``ReplicaNode.resync``), which the shipper answers from its
    ``JournalStore`` — a delta while the journal's history reaches back to the
    replica's LSN, a snapshot otherwise.
    """

    def __init__(self, manager, name):
        self.manager, self.name = manager, name
        self.shipper = JournalShipper(manager, {}, JournalStore())
        self.shipper.ship_view(name)
        self.node = ReplicaNode(f"{name}-consumer", resync_source=self.shipper)
        self.builds = None       # the view's builds at the last catch-up

    def catch_up(self):
        manager, name, node = self.manager, self.name, self.node
        snapshots, applied = node.snapshot_resyncs, node.applied_lsn(name)
        node.resync(name)
        state = manager.states[name]
        if state.builds == self.builds and applied > 0:
            # not rebuilt since the last catch-up (and not
            # still at LSN 0, which reads as "never applied"): a delta
            assert node.snapshot_resyncs == snapshots, name
        self.builds = state.builds
        assert node.applied_lsn(name) == state.built_at_lsn
        fresh = ReplicaNode("fresh", resync_source=self.shipper)
        fresh.resync(name)                      # a new replica: snapshot load
        assert served_digests(node, name) == served_digests(fresh, name)


def check_invariants(store, catalog, manager, watermark_history, consumer=None):
    if consumer is not None:
        # 5. the journal alone keeps a replica equal to a fresh snapshot load
        consumer.catch_up()
    for name in catalog.names():
        if not manager.is_materialized(name):
            continue
        state = manager.states[name]
        # 1. incremental artifact ≡ from-scratch rebuild
        assert manager.artifact(name) == expected_artifact(store, name), name
        # 3. no view serves rows for deleted entities
        if name.endswith("_rows"):
            assert set(manager.artifact(name)) <= set(store.entities), name
        # 2. built_at_lsn monotone
        assert state.built_at_lsn >= watermark_history.get(name, 0), name
        watermark_history[name] = state.built_at_lsn
    # 4. skip + rebuild counters account for every maintenance decision
    assert manager.maintenance_decisions == (
        manager.maintenance_skips + manager.maintenance_rebuilds
    )


# ------------------------------------------------------------------ #
# the seeded property suite
# ------------------------------------------------------------------ #
def test_random_op_sequences_preserve_view_invariants(op_seed):
    rng = random.Random(op_seed)
    store = ModelStore()
    catalog, manager, clock = build_harness(store, with_unscoped=op_seed % 2 == 1)
    counter = 0
    graveyard: list[str] = []               # deleted ids eligible for revival
    for _ in range(rng.randint(3, 8)):      # initial population
        counter += 1
        store.entities[f"e{counter}"] = {"type": rng.choice(TYPES), "value": counter}
    manager.materialize()
    watermark_history: dict[str, int] = {}
    consumer = JournalConsumer(manager, "alpha_rows")
    expected_decisions = 0

    def enqueue(changed=(), deleted=(), added=()):
        clock["lsn"] += 1
        manager.enqueue(delta_at(
            clock["lsn"], added=added, updated=set(changed) - set(added), deleted=deleted,
        ))

    for _ in range(rng.randint(25, 45)):
        op = rng.choices(
            ["add", "update", "touch", "retype", "delete", "revive", "flush",
             "rematerialize"],
            weights=[18, 18, 10, 10, 15, 8, 25, 8],
        )[0]
        if op == "add":
            counter += 1
            eid = f"e{counter}"
            store.entities[eid] = {"type": rng.choice(TYPES), "value": counter}
            enqueue([eid], added=[eid])
        elif op == "revive" and graveyard:
            # re-add a previously deleted id, possibly within the same batch
            # as its deletion — the pending fold must net it to "added"
            eid = graveyard.pop(rng.randrange(len(graveyard)))
            counter += 1
            store.entities[eid] = {"type": rng.choice(TYPES), "value": counter}
            enqueue([eid], added=[eid])
        elif op == "update" and store.entities:
            eid = rng.choice(sorted(store.entities))
            store.entities[eid]["value"] += 1
            enqueue([eid])
        elif op == "touch" and store.entities:
            # a write to a field no view reads: every row it reaches is
            # recomputed to what it already was
            eid = rng.choice(sorted(store.entities))
            store.entities[eid]["popularity"] = rng.random()
            enqueue([eid])
        elif op == "retype" and store.entities:
            eid = rng.choice(sorted(store.entities))
            store.entities[eid]["type"] = rng.choice(TYPES)
            enqueue([eid])
        elif op == "delete" and store.entities:
            eid = rng.choice(sorted(store.entities))
            del store.entities[eid]
            graveyard.append(eid)
            enqueue(deleted=[eid])
        elif op == "flush":
            if manager.pending_changes():
                expected_decisions += sum(
                    1 for n in catalog.names() if manager.is_materialized(n)
                )
            manager.flush()
            check_invariants(store, catalog, manager, watermark_history, consumer)
        elif op == "rematerialize":
            manager.materialize()
            check_invariants(store, catalog, manager, watermark_history, consumer)

    # drain whatever is still pending, then check everything one last time
    if manager.pending_changes():
        expected_decisions += sum(
            1 for n in catalog.names() if manager.is_materialized(n)
        )
    manager.flush()
    manager.materialize()
    check_invariants(store, catalog, manager, watermark_history, consumer)
    assert manager.maintenance_decisions == expected_decisions


def test_delete_then_readd_in_one_batch_nets_to_added():
    """Regression: the pending fold must resurrect a deleted-then-re-added
    entity as net-added, not drop it as net-deleted (which made apply_delta
    views lose the re-added row)."""
    store = ModelStore()
    store.entities["x"] = {"type": "alpha", "value": 1}
    store.entities["y"] = {"type": "alpha", "value": 2}
    catalog, manager, clock = build_harness(store)
    manager.materialize()
    events = []
    manager.add_journal_listener(events.append)
    del store.entities["x"]
    clock["lsn"] = 2
    manager.enqueue(delta_at(2, deleted={"x"}))
    store.entities["x"] = {"type": "alpha", "value": 99}     # re-ingested
    clock["lsn"] = 3
    manager.enqueue(delta_at(3, added={"x"}))
    manager.flush()
    assert manager.artifact("alpha_rows") == _typed_rows(store, "alpha")
    assert manager.artifact("alpha_rows")["x"]["value"] == 99
    # the append reports it as net-changed for serving-layer consumers (the
    # projection calls it "updated": the un-flushed delete means the view's
    # artifact still held x's row, so the serving copy sees a replace)
    delta = appended(events, "alpha_rows", 1)
    assert "x" in delta.changed and "x" not in delta.deleted


def test_mis_scoped_apply_delta_dependent_rebuilds_instead_of_going_stale():
    """A transitively affected apply_delta view whose own projection is empty
    must fall back to create: an empty-delta apply would silently keep a
    stale artifact while the watermark advances."""
    store = ModelStore()
    store.entities["a1"] = {"type": "alpha", "value": 1}
    catalog = ViewCatalog()
    clock = {"lsn": 1}

    def scope_alpha(eid):
        fields = store.entities.get(eid)
        return fields is not None and fields["type"] == "alpha"

    catalog.register(ViewDefinition(
        "alpha_rows", "analytics",
        create=lambda ctx: _typed_rows(store, "alpha"), scope=scope_alpha,
    ))
    def total(ctx):
        return sum(r["value"] for r in ctx.artifact("alpha_rows").values())

    catalog.register(ViewDefinition(
        "alpha_total", "analytics", create=total,
        # deliberately mis-scoped: its rows derive from alpha entities but
        # the scope admits nothing, so projections are always empty
        apply_delta=lambda ctx, delta: ctx.artifact("alpha_total"),
        dependencies=("alpha_rows",), scope=lambda eid: False,
    ))
    # same hazard for a builder that recomputes the artifact: it would be
    # right, but its empty projection would journal "nothing changed"
    catalog.register(ViewDefinition(
        "alpha_total_recomputed", "analytics", create=total,
        apply_delta=lambda ctx, delta: total(ctx),
        dependencies=("alpha_rows",), scope=lambda eid: False,
    ))
    manager = ViewManager(catalog, engines={}, lsn_source=lambda: clock["lsn"],
                          entity_source=store.subjects)
    manager.materialize()
    assert manager.artifact("alpha_total") == 1
    events = []
    manager.add_journal_listener(events.append)
    store.entities["a1"]["value"] = 100
    clock["lsn"] = 2
    manager.enqueue(delta_at(2, updated={"a1"}))
    manager.flush()
    for name in ("alpha_total", "alpha_total_recomputed"):
        assert manager.artifact(name) == 100                 # rebuilt, not stale
        assert manager.states[name].builds == 2
        assert manager.states[name].delta_applies == 0
        # consumers are told to resync rather than handed a delta that lies
        assert [e.kind for e in events if e.view_name == name] == ["truncate"]


def test_failed_flush_restore_respects_reentrant_readds():
    """A reentrant re-add observed during a failing flush must survive the
    delta restore as net-added — not be clobbered back to net-deleted."""
    store = ModelStore()
    store.entities["x"] = {"type": "alpha", "value": 1}
    catalog, manager, clock = build_harness(store)
    trap = {"armed": False}

    def booby_trapped_create(context):
        if trap["armed"]:
            trap["armed"] = False
            # a reentrant observer re-ingests the entity mid-flush...
            store.entities["x"] = {"type": "alpha", "value": 99}
            clock["lsn"] += 1
            manager.enqueue(delta_at(clock["lsn"], added={"x"}))
            raise RuntimeError("store hiccup")
        return len(store.entities)

    catalog.register(ViewDefinition("trap", "analytics", create=booby_trapped_create))
    manager.materialize()
    del store.entities["x"]
    clock["lsn"] += 1
    manager.enqueue(delta_at(clock["lsn"], deleted={"x"}))
    trap["armed"] = True
    with pytest.raises(RuntimeError, match="store hiccup"):
        manager.flush()
    assert "x" in manager.pending_changes()
    manager.flush()
    assert manager.artifact("alpha_rows") == _typed_rows(store, "alpha")
    assert manager.artifact("alpha_rows")["x"]["value"] == 99


def test_failed_flush_restore_nets_a_reentrant_update_of_a_deleted_id_to_added():
    """The restore folds reentrant events onto the failed batch as enqueue
    would: an id the batch deleted and a reentrant observer then reports
    changed (not classified as added) comes back, instead of staying
    deleted while the store holds it again."""
    store = ModelStore()
    store.entities["x"] = {"type": "alpha", "value": 1}
    catalog, manager, clock = build_harness(store)
    trap = {"armed": False}

    def booby_trapped_create(context):
        if trap["armed"]:
            trap["armed"] = False
            store.entities["x"] = {"type": "alpha", "value": 99}
            clock["lsn"] += 1
            manager.enqueue(delta_at(clock["lsn"], updated={"x"}))
            raise RuntimeError("store hiccup")
        return len(store.entities)

    catalog.register(ViewDefinition("trap", "analytics", create=booby_trapped_create))
    manager.materialize()
    del store.entities["x"]
    clock["lsn"] += 1
    manager.enqueue(delta_at(clock["lsn"], deleted={"x"}))
    trap["armed"] = True
    with pytest.raises(RuntimeError, match="store hiccup"):
        manager.flush()
    manager.flush()
    assert manager.artifact("alpha_rows") == _typed_rows(store, "alpha")
    assert manager.artifact("alpha_rows")["x"]["value"] == 99


def test_update_of_an_id_deleted_in_the_batch_nets_to_added():
    """An update of an id the pending batch holds as deleted folds to
    added, so the view keeps the row the store holds again."""
    store = ModelStore()
    store.entities["x"] = {"type": "alpha", "value": 1}
    store.entities["y"] = {"type": "alpha", "value": 2}
    catalog, manager, clock = build_harness(store)
    manager.materialize()
    events = []
    manager.add_journal_listener(events.append)
    del store.entities["x"]
    clock["lsn"] = 2
    manager.enqueue(delta_at(2, deleted={"x"}))
    store.entities["x"] = {"type": "alpha", "value": 99}
    clock["lsn"] = 3
    manager.enqueue(delta_at(3, updated={"x"}))
    manager.flush()
    assert manager.artifact("alpha_rows") == _typed_rows(store, "alpha")
    assert manager.artifact("alpha_rows")["x"]["value"] == 99
    delta = appended(events, "alpha_rows", 1)
    assert "x" in delta.changed and "x" not in delta.deleted
    assert manager.built_at_lsn("alpha_rows") == 3


def test_merge_keeps_the_lowest_nonzero_first_lsn():
    """A later delta without an LSN range (0) leaves ``first_lsn`` alone."""
    early = ViewDelta(added=frozenset({"a"}), first_lsn=3, last_lsn=5)
    unstamped = ViewDelta(updated=frozenset({"b"}))
    assert early.merge(unstamped).first_lsn == 3
    assert unstamped.merge(early).first_lsn == 3
    assert early.merge(ViewDelta(first_lsn=2, last_lsn=2)).first_lsn == 2
    assert early.merge(unstamped).last_lsn == 5


def _net_class(previous: str | None, event: str) -> str:
    """One entity's net class after one more event — the fold stated per id."""
    if event == "updated" and previous in ("added", "deleted"):
        return "added"      # still new, or back after its deletion
    return event


def test_pending_batch_is_the_merge_fold_of_its_events(op_seed):
    """After any interleaving of enqueue and flush, the
    delta a flush hands on — added, updated, deleted, first_lsn, last_lsn —
    is the ``ViewDelta.merge`` fold of the events since the last flush, and
    a flush that fails restores ``batch.merge(reentrant)``: the failed batch
    with whatever observers enqueued during the failing call on top."""
    rng = random.Random(7000 + op_seed)
    universe = [f"e{index}" for index in range(6)]
    clock = {"lsn": 1}
    calls: list = []
    trap: dict = {"reentrant": None}

    def probe(kind, delta=None):
        calls.append((kind, delta))
        reentrant, trap["reentrant"] = trap["reentrant"], None
        if reentrant is not None:
            for event in reentrant:
                send(event)
            raise RuntimeError("probe down")
        return {"calls": len(calls)}

    catalog = ViewCatalog()
    catalog.register(ViewDefinition(
        "probe", "analytics",
        create=lambda ctx: probe("create"),
        apply_delta=lambda ctx, delta: probe("delta", delta),
    ))
    manager = ViewManager(catalog, engines={}, lsn_source=lambda: clock["lsn"],
                          entity_source=lambda: ())
    manager.materialize()
    calls.clear()
    pending = ViewDelta()          # the merge fold of the events since the last flush
    classes: dict[str, str] = {}   # the same fold, entity by entity

    def random_event() -> ViewDelta:
        clock["lsn"] += 1
        changed = set(rng.sample(universe, rng.randint(0, 3)))
        added = {eid for eid in changed if rng.random() < 0.4}
        return ViewDelta(
            added=frozenset(added), updated=frozenset(changed - added),
            deleted=frozenset(rng.sample(universe, rng.randint(0, 2))),
            first_lsn=clock["lsn"], last_lsn=clock["lsn"],
        )

    def send(event: ViewDelta) -> None:
        manager.enqueue(event)

    def fold(event: ViewDelta) -> None:
        nonlocal pending
        pending = pending.merge(event)
        for name in ("added", "updated", "deleted"):
            for eid in getattr(event, name):
                classes[eid] = _net_class(classes.get(eid), name)

    def flush_through(fail: bool) -> None:
        nonlocal pending
        if pending.is_empty():
            # an empty delta affects no view: nothing to flush (no call)
            assert manager.flush() == {} and not calls
            return
        reentrant = [random_event() for _ in range(rng.randint(0, 2))] if fail else None
        for name in ("added", "updated", "deleted"):
            assert getattr(pending, name) == {e for e, c in classes.items() if c == name}
        built_before = manager.built_at_lsn("probe")
        trap["reentrant"] = reentrant
        if fail:
            with pytest.raises(RuntimeError, match="probe down"):
                manager.flush()
        else:
            manager.flush()
        assert calls.pop() == ("delta", pending)
        assert not calls
        if fail:
            assert manager.built_at_lsn("probe") == built_before
            for event in reentrant:
                fold(event)
            assert manager.pending_changes() == sorted(classes)
        else:
            assert manager.built_at_lsn("probe") == pending.last_lsn
            assert manager.pending_changes() == []
            pending = ViewDelta()
            classes.clear()

    for _ in range(rng.randint(30, 50)):
        op = rng.choices(["enqueue", "flush"], weights=[45, 35])[0]
        if op == "enqueue":
            event = random_event()
            send(event)
            fold(event)
            assert manager.pending_changes() == sorted(classes)
        else:
            flush_through(fail=rng.random() < 0.3)
    flush_through(fail=False)
    assert manager.pending_changes() == []


def test_delta_journal_merge_and_compaction_semantics():
    journal = JournalStore()
    for lsn in range(1, 8):
        journal.append_delta("v", ViewDelta(
            added=frozenset({f"e{lsn}"}),
            deleted=frozenset({f"e{lsn - 1}"}) if lsn > 1 else frozenset(),
            first_lsn=lsn, last_lsn=lsn,
        ))
    merged = journal.deltas_since("v", 0)
    # net effect: only the last added entity survives, everything prior deleted
    assert merged.added == frozenset({"e7"})
    assert merged.deleted == frozenset({f"e{i}" for i in range(1, 7)})
    # compaction drops exactly the deltas at or below the LSN and never
    # hands out a partial merge
    assert journal.truncate_below("v", 4) == 4
    assert journal.stats()["v"]["records"] == 3
    with pytest.raises(JournalGapError):
        journal.deltas_since("v", 3)
    merged = journal.deltas_since("v", 4)
    assert merged.added == frozenset({"e7"})
    assert merged.deleted == frozenset({"e4", "e5", "e6"})
    # history below the floor is refused after a rebuild's truncation
    journal.record_truncate("v", lsn=10)
    with pytest.raises(JournalGapError):
        journal.deltas_since("v", 9)
    assert journal.deltas_since("v", 10).is_empty()
    assert journal.high_water_mark("v") == 10


# ------------------------------------------------------------------ #
# end-to-end: a serving replica consumes per-view journal deltas
# ------------------------------------------------------------------ #
def _triple(subject, predicate, obj, source="wiki"):
    return ExtendedTriple(subject=subject, predicate=predicate, obj=obj,
                          provenance=Provenance.from_source(source, 0.9))


def _register_song_rows(engine: GraphEngine) -> None:
    def rows_for(subjects):
        rows = []
        for subject in subjects:
            rows.append({
                "subject": subject,
                "name": str(engine.triples.value_of(subject, "name") or ""),
                "plays": engine.triples.value_of(subject, "plays") or 0,
            })
        return rows

    def create(context):
        subjects = [s for s in engine.triples.subjects()
                    if engine.triples.value_of(s, "type") == "song"]
        return sorted(rows_for(subjects), key=lambda row: row["subject"])

    def apply_delta(context, delta: ViewDelta):
        by_subject = {row["subject"]: row for row in context.artifact("song_rows")}
        for subject, row in zip(sorted(delta.changed), rows_for(sorted(delta.changed))):
            by_subject[subject] = row
        for subject in delta.deleted:
            by_subject.pop(subject, None)
        return [by_subject[s] for s in sorted(by_subject)]

    engine.register_view(ViewDefinition(
        "song_rows", "analytics", create=create, apply_delta=apply_delta,
        scope=lambda eid: engine.triples.value_of(eid, "type") == "song",
    ))


def test_live_delta_consumption_matches_full_reload(live_seed, ontology):
    rng = random.Random(1000 + live_seed)
    source = TripleStore()
    engine = GraphEngine(ontology)
    _register_song_rows(engine)

    songs: list[str] = []
    counter = 0

    def add_song():
        nonlocal counter
        counter += 1
        subject = f"kg:s{counter}"
        source.add(_triple(subject, "type", "song"))
        source.add(_triple(subject, "name", f"Song {counter}"))
        source.add(_triple(subject, "plays", counter))
        songs.append(subject)
        engine.publish_subjects(source, [subject])

    def update_song():
        subject = rng.choice(songs)
        source.remove_subject(subject)
        source.add(_triple(subject, "type", "song"))
        source.add(_triple(subject, "name", f"Song {subject[-1]}*"))
        source.add(_triple(subject, "plays", rng.randint(1, 100)))
        engine.publish_subjects(source, [subject])

    def delete_song():
        subject = songs.pop(rng.randrange(len(songs)))
        source.remove_subject(subject)
        engine.publish_subjects(source, [], deleted_subjects=[subject])

    def add_other():
        nonlocal counter
        counter += 1
        subject = f"kg:x{counter}"
        source.add(_triple(subject, "type", "label"))
        source.add(_triple(subject, "name", f"Label {counter}"))
        engine.publish_subjects(source, [subject])

    for _ in range(rng.randint(2, 4)):
        add_song()
    add_other()
    engine.materialize_views()
    fleet = ServingFleet(engine.view_manager, num_replicas=1).start()
    node = fleet.replicas["replica-0"]
    try:
        assert fleet.serve_view("song_rows") == len(songs)

        for _ in range(rng.randint(6, 12)):
            op = rng.choices(["add", "update", "delete", "other"],
                             weights=[30, 35, 20, 15])[0]
            if op == "add":
                add_song()
            elif op == "update" and songs:
                update_song()
            elif op == "delete" and songs:
                delete_song()
            else:
                add_other()
            if rng.random() < 0.6:
                engine.update_views()
                assert fleet.drain()
                # a fresh replica snapshot-loading the artifact must agree exactly
                reference = ReplicaNode("reference", resync_source=fleet.shipper)
                reference.resync("song_rows")
                assert served_digests(node, "song_rows") == (
                    served_digests(reference, "song_rows")
                )
                assert set(served_digests(node, "song_rows")) == {
                    f"song_rows:{s}" for s in songs
                }

        engine.update_views()
        assert fleet.drain()
        assert node.applied_lsn("song_rows") == engine.view_manager.built_at_lsn("song_rows")
        # the apply_delta view was never rebuilt wholesale after materialization,
        # so every catch-up after the first load rode the journal
        assert engine.view_manager.states["song_rows"].builds == 1
        assert fleet.shipper.snapshots_shipped == 1
        assert node.gaps_detected == node.snapshot_resyncs == 0
        assert node.batches_applied >= 2
    finally:
        fleet.stop()


def test_source_removal_reaches_a_served_view_as_a_delta(ontology):
    """A source removal is an ordinary publish: the served view takes one
    incremental apply naming the subjects the source touched, no snapshot
    ships, and the replica serves exactly the primary's artifact."""
    source = TripleStore([
        _triple("kg:s1", "type", "song"),
        _triple("kg:s1", "name", "Blue River"),
        _triple("kg:s1", "plays", 7, source="fanwiki"),
        _triple("kg:s2", "type", "song", source="fanwiki"),
        _triple("kg:s2", "name", "Fan Song", source="fanwiki"),
        _triple("kg:s3", "type", "song"),
        _triple("kg:s3", "name", "Golden Echo", source="fanwiki"),
        _triple("kg:s3", "name", "Golden Echo"),
        _triple("kg:s3", "plays", 3),
    ])
    engine = GraphEngine(ontology)
    _register_song_rows(engine)
    engine.publish_store(source)
    engine.materialize_views()
    fleet = ServingFleet(engine.view_manager, num_replicas=1).start()
    node = fleet.replicas["replica-0"]
    try:
        assert fleet.serve_view("song_rows") == 3
        assert fleet.drain()
        snapshots = fleet.shipper.snapshots_shipped
        events = []
        engine.view_manager.add_journal_listener(events.append)
        record = engine.remove_source("fanwiki")
        engine.update_views()
        assert fleet.drain()

        # kg:s3 keeps its row but lost fanwiki's provenance: still touched
        assert [(e.kind, e.delta) for e in events] == [("append", ViewDelta(
            updated=frozenset({"kg:s1", "kg:s3"}), deleted=frozenset({"kg:s2"}),
            first_lsn=record.lsn, last_lsn=record.lsn,
        ))]
        state = engine.view_manager.states["song_rows"]
        assert (state.builds, state.delta_applies) == (1, 1)
        assert fleet.shipper.snapshots_shipped == snapshots
        assert node.snapshot_resyncs == node.gaps_detected == 0
        assert node.applied_lsn("song_rows") == record.lsn
        assert engine.view_artifact("song_rows") == [
            {"subject": "kg:s1", "name": "Blue River", "plays": 0},
            {"subject": "kg:s3", "name": "Golden Echo", "plays": 3},
        ]
        # the replica, kept by the delta alone, equals a snapshot of the artifact
        reference = ReplicaNode("reference", resync_source=fleet.shipper)
        reference.resync("song_rows")
        assert served_digests(node, "song_rows") == served_digests(reference, "song_rows")
        assert set(served_digests(node, "song_rows")) == {"song_rows:kg:s1", "song_rows:kg:s3"}
        assert node.get("song_rows", "kg:s1").value("plays") == 0
    finally:
        fleet.stop()


# ------------------------------------------------------------------ #
# flush order and failure semantics
# ------------------------------------------------------------------ #
def _branch_catalog(events, fail_on=()):
    """Two independent branches: (a_root -> a_child) and (b_root -> b_child).

    Every maintenance step appends ``(view, phase)`` to *events*, so a test
    reads the order the flush ran them in."""
    catalog = ViewCatalog()

    def recording(name, result):
        def run(context, delta):
            events.append((name, "start"))
            if name in fail_on:
                events.append((name, "fail"))
                raise RuntimeError(f"{name} branch down")
            events.append((name, "end"))
            return result
        return run

    def child_create(branch):
        def create(context):
            events.append((f"{branch}_child", "start"))
            artifact = context.artifact(f"{branch}_root") + "/child"
            events.append((f"{branch}_child", "end"))
            return artifact
        return create

    for branch in ("a", "b"):
        catalog.register(ViewDefinition(
            f"{branch}_root", "analytics",
            create=lambda ctx, branch=branch: f"{branch}0",
            apply_delta=recording(f"{branch}_root", f"{branch}1"),
            scope=lambda eid, branch=branch: eid.startswith(f"{branch}:"),
        ))
        catalog.register(ViewDefinition(
            f"{branch}_child", "analytics",
            create=child_create(branch),
            dependencies=(f"{branch}_root",),
            scope=lambda eid: False,
        ))
    return catalog


def test_parallel_flush_overlaps_branches_without_reordering_dependencies():
    """Independent branches both flush — one view at a time, antichain by
    antichain — and no dependent starts before its dependency committed."""
    events: list = []
    catalog = _branch_catalog(events)
    clock = {"lsn": 1}
    manager = ViewManager(catalog, engines={}, lsn_source=lambda: clock["lsn"],
                          entity_source=lambda: ())
    manager.materialize()
    events.clear()
    clock["lsn"] = 2
    manager.enqueue(delta_at(2, updated={"a:1", "b:1"}))
    timings = manager.flush()
    assert set(timings) == {"a_root", "a_child", "b_root", "b_child"}
    # antichain by antichain, sorted within one: both roots, then both children
    assert [name for name, phase in events if phase == "start"] == [
        "a_root", "b_root", "a_child", "b_child",
    ]
    for branch in ("a", "b"):
        # a dependent never starts before its dependency committed
        assert events.index((f"{branch}_root", "end")) < events.index(
            (f"{branch}_child", "start")
        )
    assert manager.artifact("a_child") == "a1/child"
    assert manager.artifact("b_child") == "b1/child"


def test_failing_branch_restores_delta_without_corrupting_sibling_journal():
    events: list = []
    fail_on = {"a_root"}                     # mutable: healed mid-test
    catalog = _branch_catalog(events, fail_on=fail_on)
    clock = {"lsn": 1}
    manager = ViewManager(catalog, engines={}, lsn_source=lambda: clock["lsn"],
                          entity_source=lambda: ())
    manager.materialize()
    journal_events = []
    manager.add_journal_listener(journal_events.append)
    clock["lsn"] = 2
    manager.enqueue(delta_at(2, updated={"a:1", "b:1"}))
    with pytest.raises(RuntimeError, match="a_root branch down"):
        manager.flush()
    # the failing branch restored the whole pending delta...
    assert manager.pending_changes() == ["a:1", "b:1"]
    assert manager.built_at_lsn("a_root") == 1
    assert manager.states["a_child"].builds == 1            # blocked, never ran
    assert not [e for e in journal_events if e.view_name.startswith("a_")]
    # ...while the sibling branch committed atomically: artifact, watermark
    # and its append event all advanced together
    assert manager.artifact("b_root") == "b1"
    assert manager.built_at_lsn("b_root") == 2
    assert appended(journal_events, "b_root", 1).changed == frozenset({"b:1"})
    # the retry maintains only the failed branch; the sibling skips by watermark
    fail_on.clear()
    retry = manager.flush()
    assert set(retry) == {"a_root", "a_child"}
    assert manager.pending_changes() == []
    assert manager.artifact("a_child") == "a1/child"
    assert manager.built_at_lsn("a_root") == 2
    assert manager.states["b_root"].skipped_updates == 1
    assert manager.maintenance_decisions == (
        manager.maintenance_skips + manager.maintenance_rebuilds
    )


# ------------------------------------------------------------------ #
# regression: deletions resolve through pre-delete scope snapshots
# ------------------------------------------------------------------ #
def test_deletion_outside_every_scope_is_a_noop_flush():
    store = ModelStore()
    store.entities["a1"] = {"type": "alpha", "value": 1}
    store.entities["g1"] = {"type": "gamma", "value": 2}
    catalog = ViewCatalog()
    clock = {"lsn": 1}

    def scope_alpha(eid):
        fields = store.entities.get(eid)
        return fields is not None and fields["type"] == "alpha"

    catalog.register(ViewDefinition(
        "alpha_rows", "analytics",
        create=lambda ctx: _typed_rows(store, "alpha"), scope=scope_alpha,
    ))
    catalog.register(ViewDefinition(
        "alpha_index", "analytics",
        create=lambda ctx: sorted(ctx.artifact("alpha_rows")),
        dependencies=("alpha_rows",), scope=lambda eid: False,
    ))
    manager = ViewManager(catalog, engines={}, lsn_source=lambda: clock["lsn"],
                          entity_source=store.subjects)
    manager.materialize()
    # delete the gamma entity: it sits in no view's scope snapshot
    del store.entities["g1"]
    clock["lsn"] = 2
    manager.enqueue(delta_at(2, deleted={"g1"}))
    timings = manager.flush()
    assert timings == {}                                     # the no-op, proven...
    assert manager.states["alpha_rows"].skipped_updates == 1   # ...by the skip
    assert manager.states["alpha_index"].skipped_updates == 1  # counters
    assert manager.maintenance_skips == 2
    assert manager.maintenance_rebuilds == 0
    assert manager.flushes == 1
    assert manager.built_at_lsn("alpha_rows") == 2           # watermark advanced
    # deleting a snapshot member, by contrast, maintains exactly that branch
    del store.entities["a1"]
    clock["lsn"] = 3
    manager.enqueue(delta_at(3, deleted={"a1"}))
    timings = manager.flush()
    assert set(timings) == {"alpha_rows", "alpha_index"}
    assert manager.artifact("alpha_rows") == {}


# ------------------------------------------------------------------ #
# replicated mode: seeded sequences over a serving fleet
# ------------------------------------------------------------------ #
def _alpha_feed_converged(manager, fleet) -> None:
    """Every live replica serves exactly the primary's current artifact.

    The artifact — not the raw model store — is the replication contract:
    changes enqueued but not yet flushed are invisible to the primary's own
    artifact and must be invisible to replicas too (the core invariant suite
    separately proves artifact ≡ store at every flush).
    """
    artifact = manager.artifact("alpha_rows")
    expected_ids = {f"alpha_rows:{eid}" for eid in artifact}
    target_lsn = manager.built_at_lsn("alpha_rows")
    for node in fleet.replicas.values():
        if not node.alive:
            continue
        assert node.index.feed_documents("view:alpha_rows") == expected_ids
        for eid, row in artifact.items():
            document = node.get("alpha_rows", eid)
            assert document is not None
            assert document.value("value") == row["value"]
        assert node.applied_lsn("alpha_rows") == target_lsn


def test_replicated_fleet_sequences_converge_and_honor_consistency(fleet_seed):
    """Random add/update/touch/retype/delete/kill/restart interleavings: after
    every drained flush the fleet converges on the primary's rows *and its
    watermark* — also when the flush carried only ``touch`` writes, which
    change no served row and ship as watermark-only batches —, read-your-
    writes at the primary watermark always succeeds, and a crashed replica
    restarted from the journal catches up without a primary-side
    rebuild."""
    rng = random.Random(9000 + fleet_seed)
    store = ModelStore()
    catalog, manager, clock = build_harness(store)
    counter = 0
    for _ in range(rng.randint(3, 6)):
        counter += 1
        store.entities[f"e{counter}"] = {"type": rng.choice(TYPES), "value": counter}
    manager.materialize()
    fleet = ServingFleet(manager, num_replicas=3).start()
    fleet.serve_view("alpha_rows")
    assert fleet.drain()
    builds_baseline = manager.states["alpha_rows"].builds
    killed: list[str] = []

    def enqueue(changed=(), deleted=(), added=()):
        clock["lsn"] += 1
        manager.enqueue(delta_at(
            clock["lsn"], added=added, updated=set(changed) - set(added), deleted=deleted,
        ))

    try:
        for _ in range(rng.randint(15, 30)):
            op = rng.choices(
                ["add", "update", "touch", "retype", "delete", "flush", "kill", "restart"],
                weights=[20, 20, 15, 10, 12, 25, 6, 7],
            )[0]
            if op == "add":
                counter += 1
                eid = f"e{counter}"
                store.entities[eid] = {"type": rng.choice(TYPES), "value": counter}
                enqueue([eid], added=[eid])
            elif op == "update" and store.entities:
                eid = rng.choice(sorted(store.entities))
                store.entities[eid]["value"] += 100
                enqueue([eid])
            elif op == "touch" and store.entities:
                # popularity-only write: a no-op for every served row
                eid = rng.choice(sorted(store.entities))
                store.entities[eid]["popularity"] = rng.random()
                enqueue([eid])
            elif op == "retype" and store.entities:
                eid = rng.choice(sorted(store.entities))
                store.entities[eid]["type"] = rng.choice(TYPES)
                enqueue([eid])
            elif op == "delete" and store.entities:
                eid = rng.choice(sorted(store.entities))
                del store.entities[eid]
                enqueue(deleted=[eid])
            elif op == "flush":
                manager.flush()
                assert fleet.drain()
                _alpha_feed_converged(manager, fleet)
            elif op == "kill" and len(killed) < 2:      # keep one replica alive
                name = rng.choice(sorted(set(fleet.replicas) - set(killed)))
                fleet.kill_replica(name)
                killed.append(name)
            elif op == "restart" and killed:
                name = killed.pop(rng.randrange(len(killed)))
                fleet.restart_replica(name)
                _alpha_feed_converged(manager, fleet)

        # drain everything and bring crashed replicas back
        manager.flush()
        assert fleet.drain()
        while killed:
            fleet.restart_replica(killed.pop())
        _alpha_feed_converged(manager, fleet)
        assert all(report.clean() for report in fleet.audit(repair=False).values())

        # catch-up never forced a primary-side rebuild: create ran only once
        assert manager.states["alpha_rows"].builds == builds_baseline == 1

        # read-your-writes at the primary watermark holds on every entity
        watermark = manager.built_at_lsn("alpha_rows")
        for eid in store.of_type("alpha"):
            document = fleet.read(
                "alpha_rows", eid, Consistency.read_your_writes(watermark)
            )
            assert document is not None
            assert document.value("value") == store.entities[eid]["value"]

        # bounded staleness: zero lag is satisfiable after a drained flush...
        if store.of_type("alpha"):
            eid = store.of_type("alpha")[0]
            assert fleet.read(
                "alpha_rows", eid, Consistency.bounded_staleness(0)
            ) is not None
            # ...and unsatisfiable while an un-flushed delta lags every replica
            store.entities[eid]["value"] += 1
            enqueue([eid])
            with pytest.raises(StaleReadError):
                fleet.read("alpha_rows", eid, Consistency.bounded_staleness(0))
            assert fleet.read(
                "alpha_rows", eid,
                Consistency.bounded_staleness(clock["lsn"]),
            ) is not None
            manager.flush()
            assert fleet.drain()
            assert fleet.read(
                "alpha_rows", eid, Consistency.bounded_staleness(0)
            ).value("value") == store.entities[eid]["value"]
    finally:
        fleet.stop()


def test_engine_deletion_outside_scopes_skips_all_views(ontology):
    source = TripleStore([
        _triple("kg:s1", "type", "song"),
        _triple("kg:s1", "name", "First Song"),
        _triple("kg:l1", "type", "label"),
        _triple("kg:l1", "name", "Apex"),
    ])
    engine = GraphEngine(ontology)
    engine.publish_store(source, source_id="construction")
    engine.register_view(ViewDefinition(
        "song_list", "analytics",
        create=lambda ctx: sorted(
            s for s in engine.triples.subjects()
            if engine.triples.value_of(s, "type") == "song"
        ),
        scope=lambda eid: engine.triples.value_of(eid, "type") == "song",
    ))
    engine.materialize_views()
    source.remove_subject("kg:l1")
    engine.publish_subjects(source, [], deleted_subjects=["kg:l1"],
                            source_id="construction")
    timings = engine.update_views()
    assert timings == {}                       # before snapshots: widened flush
    assert engine.view_manager.states["song_list"].skipped_updates == 1
    assert engine.view_freshness() == {}       # watermark still advanced
    assert engine.view_artifact("song_list") == ["kg:s1"]


# ------------------------------------------------------------------ #
# output-row cut-off: unchanged rows stop at the journal
# ------------------------------------------------------------------ #
def _two_view_primary():
    """``value_rows`` and ``pop_rows``: two apply_delta views over the same
    entities, each reading one field the other does not."""
    store = ModelStore()
    for index in range(1, 5):
        store.entities[f"e{index}"] = {"type": "alpha", "value": index, "popularity": 0}
    catalog = ViewCatalog()

    def row_view(name, field):
        def row_of(eid):
            return {"subject": eid, "name": f"Entity {eid}", "types": ["alpha"],
                    field: store.entities[eid][field]}

        def create(context):
            return {eid: row_of(eid) for eid in sorted(store.entities)}

        def apply_delta(context, delta: ViewDelta):
            artifact = dict(context.artifact(name))
            for eid in delta.changed:
                artifact[eid] = row_of(eid)
            for eid in delta.deleted:
                artifact.pop(eid, None)
            return artifact

        catalog.register(ViewDefinition(name, "analytics", create=create,
                                        apply_delta=apply_delta))

    row_view("value_rows", "value")
    row_view("pop_rows", "popularity")
    clock = {"lsn": 1}
    manager = ViewManager(catalog, engines={},
                          lsn_source=lambda: clock["lsn"], entity_source=store.subjects)
    return store, manager, clock


def test_unchanged_rows_are_cut_off_before_journal_ship_and_apply():
    """A write that changes ``popularity`` only reaches ``value_rows`` as a
    recomputed-but-identical row: nothing is journaled for it, the manager
    counts a no-op and emits ``advance`` (not ``append``), replicas move
    their watermark without touching a document, and the front door keeps
    the view's cached result — while ``pop_rows``, whose row did change,
    takes the whole append → ship → apply → invalidate path."""
    store, manager, clock = _two_view_primary()
    manager.materialize()
    fleet = ServingFleet(manager, num_replicas=3).start()
    door = FrontDoor(fleet)
    door.registry.register("acme", views={"value_rows", "pop_rows"})
    events = []
    manager.add_journal_listener(events.append)
    text = "MATCH alpha RETURN name"

    def write(eid, **fields):
        store.entities[eid].update(fields)
        clock["lsn"] += 1
        manager.enqueue(delta_at(clock["lsn"], updated={eid}))
        manager.flush()
        assert fleet.drain()
        return clock["lsn"]

    async def ask(view):
        return await door.query("acme", text, view)

    try:
        fleet.serve_views(["value_rows", "pop_rows"])
        assert fleet.drain()
        served_before = {
            name: node.get("value_rows", "e1") for name, node in fleet.replicas.items()
        }
        asyncio.run(ask("value_rows"))
        asyncio.run(ask("pop_rows"))
        events.clear()
        persisted = fleet.journal_store.stats()["value_rows"]["records"]
        shipped_before = fleet.shipper.batches_shipped

        lsn = write("e1", popularity=7)

        # events and the journal
        assert sorted((e.kind, e.view_name) for e in events) == [
            ("advance", "value_rows"), ("append", "pop_rows"),
        ]
        assert manager.noop_maintenance == 1
        assert manager.delta_rows_journaled == 1            # pop_rows' one row
        assert manager.incremental_applies == 2 and manager.full_rebuilds == 0
        assert fleet.journal_store.stats()["value_rows"]["records"] == persisted
        assert fleet.journal_store.deltas_since("value_rows", lsn - 1).is_empty()
        assert fleet.journal_store.deltas_since("pop_rows", lsn - 1).updated == {"e1"}
        assert manager.built_at_lsn("value_rows") == lsn
        # replicas: the watermark moved, the documents did not
        assert fleet.shipper.batches_shipped == shipped_before + 2
        for name, node in fleet.replicas.items():
            assert node.applied_lsn("value_rows") == lsn
            assert node.applied_lsn("pop_rows") == lsn
            assert node.get("value_rows", "e1") is served_before[name]
            assert node.get("pop_rows", "e1").value("popularity") == 7
        document = fleet.read("value_rows", "e1", Consistency.read_your_writes(lsn))
        assert document.value("value") == 1
        # front door: value_rows' cached answer survives, pop_rows' does not
        assert asyncio.run(ask("value_rows")).from_cache
        assert not asyncio.run(ask("pop_rows")).from_cache
        assert door.view_invalidations == 1

        # a crashed replica misses a no-op flush and a real one, then
        # restarts from the LSN its index holds, through the journal
        fleet.kill_replica("replica-0")
        write("e2", popularity=3)
        lsn = write("e2", value=20, popularity=4)
        fleet.restart_replica("replica-0")
        assert fleet.drain()
        for node in fleet.replicas.values():
            for view in ("value_rows", "pop_rows"):
                assert node.applied_lsn(view) == lsn
                assert node.index.feed_documents(f"view:{view}") == {
                    f"{view}:{eid}" for eid in store.entities
                }
            assert node.get("value_rows", "e2").value("value") == 20
            assert node.get("pop_rows", "e2").value("popularity") == 4
        assert all(report.clean() for report in fleet.audit(repair=False).values())
    finally:
        door.close()
        fleet.stop()


def test_cut_off_leaves_other_artifact_shapes_to_their_input_delta():
    """Only a subject → row mapping returned as a *new* dict is compared row
    by row.  A builder that patches the previous dict in place leaves nothing
    to compare against, and a dict that is not keyed by its rows' subjects
    (an aggregate) has no rows to compare: both keep journaling the
    scope-projected input delta."""
    store = ModelStore()
    store.entities["e1"] = {"type": "alpha", "value": 1}
    catalog = ViewCatalog()

    def in_place(context, delta):
        artifact = context.artifact("patched_rows")
        for eid in delta.changed:
            artifact[eid] = _row(store, eid)
        return artifact

    catalog.register(ViewDefinition(
        "patched_rows", "analytics",
        create=lambda ctx: {eid: _row(store, eid) for eid in store.entities},
        apply_delta=in_place,
    ))
    catalog.register(ViewDefinition(
        "totals", "analytics",
        create=lambda ctx: {"count": len(store.entities)},
        apply_delta=lambda ctx, delta: {"count": len(store.entities)},
    ))
    clock = {"lsn": 1}
    manager = ViewManager(catalog, engines={}, lsn_source=lambda: clock["lsn"],
                          entity_source=store.subjects)
    manager.materialize()
    events = []
    manager.add_journal_listener(events.append)
    store.entities["e1"]["popularity"] = 5          # no row changes anywhere
    clock["lsn"] = 2
    manager.enqueue(delta_at(2, updated={"e1"}))
    manager.flush()
    assert sorted((e.kind, e.view_name) for e in events) == [
        ("append", "patched_rows"), ("append", "totals"),
    ]
    for name in ("patched_rows", "totals"):
        assert appended(events, name, 1).updated == {"e1"}
    assert manager.noop_maintenance == 0
