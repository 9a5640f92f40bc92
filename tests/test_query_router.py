"""Distributed KGQ execution and anti-entropy audits over the replica fleet.

The routing contract: a KGQ executed through the ``QueryRouter`` over N
replicas returns results *identical* to primary-side execution of the same
plan over the same view feed (rows, order, ``candidates_examined``) —
property-tested over seeded operation sequences (adds, updates, retypes,
deletes, flushes, replica kills and restarts).  One placement rule decides
where a query runs: the whole plan goes to the first owner of its query text
that is alive, serves the view and satisfies the consistency level, with
honest ``StaleReadError``\\ s that name the lagging replicas; a replica dying
mid-query hands the call to the next eligible owner.

The anti-entropy contract: injected divergence (corrupted rows, lost rows,
ghost rows) is detected by the checksum audit down to the exact subjects and
repaired by a targeted repair batch — never a primary-side rebuild, never a
full snapshot — and a lagging live replica is repaired through the
journal-replay catch-up path.  The seeded divergence soak
(``test_anti_entropy_soak_detects_and_repairs_random_divergence``) is the
suite the nightly workflow runs at 5x depth.

Sequence counts follow ``--runs-seeded`` (see ``conftest.py``); the heavier
fleet-backed properties are capped the same way the replicated invariant
suite caps ``fleet_seed``.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.engine.views import (
    ViewCatalog,
    ViewDefinition,
    ViewDelta,
    ViewManager,
    combine_checksums,
    row_checksum,
)
from repro.errors import (
    ReplicaDivergenceError,
    ReplicaUnavailableError,
    StaleReadError,
    ViewError,
)
from repro.live.executor import QueryExecutor
from repro.live.index import LiveIndex, document_checksum, view_row_document
from repro.live.kgq import parse
from repro.live.planner import QueryPlanner
from repro.serving import (
    Consistency,
    InMemoryJournalBackend,
    JournalStore,
    ServingFleet,
)


# The qr_seed / ae_seed fixtures are parametrized by the repo-level
# conftest.py from --runs-seeded (with proportional caps: the routed-query
# sequences spin up fleet worker threads, the divergence soak audits full
# checksum maps per round).

# ------------------------------------------------------------------ #
# harness: a queryable row view over a mutable model store
# ------------------------------------------------------------------ #
def delta_at(lsn, added=(), updated=(), deleted=()):
    """The delta of the one operation at log position *lsn*."""
    return ViewDelta(
        added=frozenset(added), updated=frozenset(updated), deleted=frozenset(deleted),
        first_lsn=lsn, last_lsn=lsn,
    )


TYPES = ("alpha", "beta")


class QueryModel:
    """Mutable entity store whose rows carry names, values, and types."""

    def __init__(self):
        self.entities: dict[str, dict] = {}

    def row(self, eid: str) -> dict:
        fields = self.entities[eid]
        return {
            "subject": eid,
            "name": f"Entity {eid}",
            "value": fields["value"],
            "types": [fields["type"]],
        }

    def subjects(self):
        return list(self.entities)


def build_query_harness(model: QueryModel):
    """One apply_delta-maintained row view over *model* plus its manager."""
    catalog = ViewCatalog()

    def create(context):
        return {eid: model.row(eid) for eid in sorted(model.entities)}

    def apply_delta(context, delta: ViewDelta):
        artifact = dict(context.artifact("profile_rows"))
        for eid in delta.changed:
            artifact[eid] = model.row(eid)
        for eid in delta.deleted:
            artifact.pop(eid, None)
        return artifact

    catalog.register(ViewDefinition(
        "profile_rows", "analytics", create=create, apply_delta=apply_delta,
    ))
    clock = {"lsn": 1}
    manager = ViewManager(
        catalog, engines={},
        lsn_source=lambda: clock["lsn"], entity_source=model.subjects,
    )
    return catalog, manager, clock


def start_fleet(manager, num_replicas=3):
    fleet = ServingFleet(
        manager, num_replicas=num_replicas,
        journal_store=JournalStore(InMemoryJournalBackend()),
    ).start()
    fleet.serve_view("profile_rows")
    assert fleet.drain()
    return fleet


#: The query battery every equivalence check runs — index seeds, type scans,
#: traversal filters, CONTAINS, comparisons, projections, and limits.
QUERY_BATTERY = (
    'MATCH alpha RETURN name, value',
    'MATCH beta RETURN name, value',
    'MATCH alpha WHERE value > 5 RETURN name, value',
    'MATCH beta WHERE value < 50 RETURN value LIMIT 3',
    'MATCH alpha WHERE name CONTAINS "1" RETURN *',
    'MATCH alpha WHERE name = "Entity e01" RETURN value',
    'MATCH beta WHERE value != 2 RETURN name LIMIT 4',
)


def primary_results(manager, queries=QUERY_BATTERY):
    """Execute the battery primary-side over a fresh feed of the artifact."""
    index = LiveIndex()
    lsn = manager.built_at_lsn("profile_rows")
    index.replace_feed(
        "view:profile_rows",
        (view_row_document("profile_rows", "view:profile_rows", row, lsn)
         for row in manager.artifact("profile_rows").values()),
        lsn,
    )
    executor = QueryExecutor(index)
    planner = QueryPlanner()
    results = {}
    for text in queries:
        result = executor.execute(planner.plan(parse(text)))
        results[text] = (rows_of(result), result.candidates_examined)
    return results


def rows_of(result):
    return [(row.entity_id, row.values) for row in result.rows]


def assert_fleet_matches_primary(fleet, manager, consistency=None):
    for text, (rows, examined) in primary_results(manager).items():
        if consistency is None:
            result = fleet.query(text, "profile_rows")
        else:
            result = fleet.query(text, "profile_rows", consistency)
        assert rows_of(result) == rows, text
        assert result.candidates_examined == examined, text


def seed_model(model, rng, count=None):
    n = count if count is not None else rng.randint(8, 20)
    for i in range(n):
        model.entities[f"e{i:02d}"] = {
            "type": rng.choice(TYPES), "value": rng.randint(0, 99),
        }
    return n


# ------------------------------------------------------------------ #
# the core property: distributed execution ≡ primary execution
# ------------------------------------------------------------------ #
def test_distributed_query_matches_primary_over_seeded_sequences(qr_seed):
    rng = random.Random(31000 + qr_seed)
    model = QueryModel()
    counter = seed_model(model, rng)
    _, manager, clock = build_query_harness(model)
    manager.materialize()
    fleet = start_fleet(manager)
    killed: list[str] = []

    def enqueue(changed=(), deleted=(), added=()):
        clock["lsn"] += 1
        manager.enqueue(delta_at(
            clock["lsn"], added=added, updated=set(changed) - set(added), deleted=deleted,
        ))

    try:
        for _ in range(rng.randint(10, 25)):
            op = rng.choices(
                ["add", "update", "retype", "delete", "flush", "kill", "restart"],
                weights=[20, 20, 10, 12, 25, 6, 7],
            )[0]
            if op == "add":
                counter += 1
                eid = f"e{counter:02d}"
                model.entities[eid] = {"type": rng.choice(TYPES),
                                       "value": rng.randint(0, 99)}
                enqueue([eid], added=[eid])
            elif op == "update" and model.entities:
                eid = rng.choice(sorted(model.entities))
                model.entities[eid]["value"] += 100
                enqueue([eid])
            elif op == "retype" and model.entities:
                eid = rng.choice(sorted(model.entities))
                model.entities[eid]["type"] = rng.choice(TYPES)
                enqueue([eid])
            elif op == "delete" and model.entities:
                eid = rng.choice(sorted(model.entities))
                del model.entities[eid]
                enqueue(deleted=[eid])
            elif op == "flush":
                manager.flush()
                assert fleet.drain()
                assert_fleet_matches_primary(fleet, manager)
            elif op == "kill" and len(killed) < 2:      # keep one replica alive
                name = rng.choice(sorted(set(fleet.replicas) - set(killed)))
                fleet.kill_replica(name)
                killed.append(name)
            elif op == "restart" and killed:
                fleet.restart_replica(killed.pop(rng.randrange(len(killed))))

        manager.flush()
        assert fleet.drain()
        # equivalence holds with whatever subset of replicas is still alive...
        assert_fleet_matches_primary(fleet, manager)
        while killed:
            fleet.restart_replica(killed.pop())
        # ...and, once everyone is back, under read-your-writes at the
        # primary watermark
        watermark = manager.built_at_lsn("profile_rows")
        assert_fleet_matches_primary(
            fleet, manager, Consistency.read_your_writes(watermark)
        )
        stats = fleet.query_router.stats()
        assert stats["queries_routed"] > 0
        # kills between queries are seen at placement: one call per query
        assert stats["fragments_dispatched"] == stats["queries_routed"]
        assert stats["fragment_retries"] == 0
    finally:
        fleet.stop()


def test_consistency_enforcement_names_the_lagging_replica():
    model = QueryModel()
    seed_model(model, random.Random(3), count=10)
    _, manager, clock = build_query_harness(model)
    manager.materialize()
    fleet = start_fleet(manager)
    try:
        watermark = manager.built_at_lsn("profile_rows")
        result = fleet.query("MATCH alpha RETURN value", "profile_rows",
                             Consistency.read_your_writes(watermark))
        assert result.candidates_examined >= 0
        # an unflushed write lags every replica: bounded_staleness(0) must
        # refuse, naming each lagging replica and its lag
        model.entities["e00"]["value"] = 777
        clock["lsn"] += 1
        manager.enqueue(delta_at(clock["lsn"], updated={"e00"}))
        with pytest.raises(StaleReadError) as excinfo:
            fleet.query("MATCH alpha RETURN value", "profile_rows",
                        Consistency.bounded_staleness(0))
        assert set(excinfo.value.lagging) == set(fleet.replicas)
        assert all(lag >= 1 for lag in excinfo.value.lagging.values())
        assert any(name in str(excinfo.value) for name in fleet.replicas)
        # a relaxed bound still serves; after the flush drains, zero lag does
        assert fleet.query("MATCH alpha RETURN value", "profile_rows",
                           Consistency.bounded_staleness(1)).rows is not None
        manager.flush()
        assert fleet.drain()
        assert_fleet_matches_primary(fleet, manager, Consistency.bounded_staleness(0))
    finally:
        fleet.stop()


def test_dead_fleet_and_unserved_view_raise_honestly():
    model = QueryModel()
    seed_model(model, random.Random(5), count=6)
    _, manager, _ = build_query_harness(model)
    manager.materialize()
    fleet = start_fleet(manager)
    try:
        with pytest.raises(ReplicaUnavailableError):
            fleet.query("MATCH alpha RETURN value", "never_served")
        for name in list(fleet.replicas):
            fleet.kill_replica(name)
        with pytest.raises(ReplicaUnavailableError):
            fleet.query("MATCH alpha RETURN value", "profile_rows")
    finally:
        fleet.stop()


# ------------------------------------------------------------------ #
# the one placement rule: one query, one replica
# ------------------------------------------------------------------ #
PLACED_QUERIES = (
    "MATCH alpha RETURN name, value",
    "MATCH alpha REACH part_of* RETURN name",
)


def answering_replicas(fleet, run):
    """Names of the replicas whose ``local_queries`` moved while *run* ran."""
    before = {name: node.local_queries for name, node in fleet.replicas.items()}
    run()
    return sorted(
        name for name, node in fleet.replicas.items()
        if node.local_queries != before[name]
    )


def chosen_replica(fleet, text):
    (name,) = answering_replicas(fleet, lambda: fleet.query(text, "profile_rows"))
    return name


def placement_fleet(seed, count=12):
    model = QueryModel()
    seed_model(model, random.Random(seed), count=count)
    _, manager, clock = build_query_harness(model)
    manager.materialize()
    return model, manager, clock, start_fleet(manager)


@pytest.mark.parametrize("text", PLACED_QUERIES)
def test_each_routed_query_makes_exactly_one_replica_call(text):
    _, _, _, fleet = placement_fleet(41)
    try:
        router = fleet.query_router
        dispatched = router.fragments_dispatched
        answered = answering_replicas(fleet, lambda: fleet.query(text, "profile_rows"))
        assert len(answered) == 1
        assert fleet.replicas[answered[0]].local_queries == 1
        assert router.fragments_dispatched == dispatched + 1
        assert router.stats()["reach_rounds"] == 0
        # the same text lands on the same replica while membership holds
        assert {chosen_replica(fleet, text) for _ in range(4)} == set(answered)
        assert router.explain(text, "profile_rows")[-1] == (
            f"Replica({answered[0]}, view=profile_rows)"
        )
    finally:
        fleet.stop()


def test_distinct_query_texts_spread_over_every_replica():
    _, _, _, fleet = placement_fleet(43)
    try:
        chosen = {
            chosen_replica(fleet, f"MATCH alpha WHERE value > {i} RETURN name")
            for i in range(64)
        }
        assert chosen == set(fleet.replicas)
    finally:
        fleet.stop()


def test_replica_death_mid_query_is_answered_by_the_next_owner():
    _, manager, _, fleet = placement_fleet(11, count=40)
    try:
        text = "MATCH alpha RETURN name, value"
        victim_name = chosen_replica(fleet, text)
        victim = fleet.replicas[victim_name]
        original = victim.query

        def dying(*args, **kwargs):
            fleet.kill_replica(victim_name)    # crash between placement and execution
            return original(*args, **kwargs)

        victim.query = dying
        results = []
        answered = answering_replicas(
            fleet, lambda: results.append(fleet.query(text, "profile_rows"))
        )
        assert fleet.query_router.fragment_retries == 1
        assert len(answered) == 1 and answered[0] != victim_name
        assert answered[0] == fleet.router.owners(text)[1]
        rows, _ = primary_results(manager, (text,))[text]
        assert rows_of(results[0]) == rows
    finally:
        fleet.stop()


def test_read_your_writes_skips_a_lagging_preferred_owner():
    model, manager, clock, fleet = placement_fleet(47)
    try:
        text = "MATCH alpha RETURN name, value"
        preferred = chosen_replica(fleet, text)
        # the preferred owner misses the next flush: it lags, the others do not
        fleet.kill_replica(preferred)
        model.entities["e00"]["value"] = 777
        clock["lsn"] += 1
        manager.enqueue(delta_at(clock["lsn"], updated={"e00"}))
        manager.flush()
        assert fleet.drain()
        watermark = manager.built_at_lsn("profile_rows")
        lagging = fleet.replicas[preferred]
        lagging.resync_source = None            # come back without catching up
        fleet.restart_replica(preferred)
        assert lagging.alive and lagging.applied_lsn("profile_rows") < watermark
        fresh = Consistency.read_your_writes(watermark)
        answered = answering_replicas(
            fleet, lambda: fleet.query(text, "profile_rows", fresh)
        )
        assert len(answered) == 1 and answered[0] != preferred
        # counted once, by the walk reads and queries share
        assert fleet.router.consistency_rejections >= 1
        assert fleet.router.fallback_reads >= 1
        assert "consistency_rejections" not in fleet.query_router.stats()
        # any-consistency still prefers the ring's first owner
        assert chosen_replica(fleet, text) == preferred
        # when every replica lags, the error names every one of them
        with pytest.raises(StaleReadError) as excinfo:
            fleet.query(text, "profile_rows", Consistency.read_your_writes(watermark + 5))
        assert set(excinfo.value.lagging) == set(fleet.replicas)
    finally:
        fleet.stop()


def test_replica_query_runs_a_compiled_plan_without_planning():
    _, manager, _, fleet = placement_fleet(53)
    try:
        node = fleet.replicas["replica-0"]
        text = "MATCH alpha WHERE value > 5 RETURN name, value"
        plan = QueryPlanner().plan(parse(text))

        def refuses(query):
            raise AssertionError("a compiled plan must not be planned again")

        node.planner.plan = refuses
        result = node.query(plan, "profile_rows")
        assert (rows_of(result), result.candidates_examined) == \
            primary_results(manager, (text,))[text]
        # a replica keeps no result cache: the repeat is executed again
        executed = node.executor.queries_executed
        repeat = node.query(plan, "profile_rows")
        assert node.executor.queries_executed == executed + 1
        assert not repeat.from_cache
        assert (rows_of(repeat), repeat.candidates_examined) == \
            (rows_of(result), result.candidates_examined)
    finally:
        fleet.stop()


def test_the_router_keeps_no_plan_cache_and_never_replans_a_plan():
    model = QueryModel()
    seed_model(model, random.Random(13), count=6)
    _, manager, _ = build_query_harness(model)
    manager.materialize()
    fleet = start_fleet(manager)
    try:
        router = fleet.query_router
        calls = {"plans": 0}
        original = router.planner.plan

        def counting(query):
            calls["plans"] += 1
            return original(query)

        router.planner.plan = counting
        text = "MATCH alpha RETURN name, value"
        # a text is parsed and planned per call; the repeats agree row for row
        first = router.execute(text, "profile_rows")
        second = router.execute(text, "profile_rows")
        assert calls["plans"] == 2
        assert rows_of(first) == rows_of(second) == primary_results(manager, (text,))[text][0]
        assert not first.from_cache and not second.from_cache
        # below the door nothing caches results: fleet.query always executes
        repeats = [fleet.query(text, "profile_rows") for _ in range(2)]
        assert all(rows_of(result) == rows_of(first) for result in repeats)
        assert not any(result.from_cache for result in repeats)
        # the same holds for both sides of a join
        joins = [
            fleet.join(text, "profile_rows", "MATCH beta RETURN name, value",
                       "profile_rows", "value", "value", how="left")
            for _ in range(2)
        ]
        assert rows_of(joins[0]) == rows_of(joins[1])
        planned = calls["plans"]
        assert planned == 2 + 2 + 4
        # a precompiled plan passes through: never parsed, never planned again
        plan = router.compile(text)
        assert calls["plans"] == planned + 1
        assert router.compile(plan) is plan
        assert rows_of(router.execute(plan, "profile_rows")) == rows_of(first)
        assert rows_of(router.execute_join(
            plan, "profile_rows", router.compile("MATCH beta RETURN name, value"),
            "profile_rows", "value", "value", how="left",
        )) == rows_of(joins[0])
        assert calls["plans"] == planned + 2
        assert not any("plan_cache" in key for key in router.stats())
    finally:
        fleet.stop()


def test_replica_local_query_surface_matches_primary():
    model = QueryModel()
    seed_model(model, random.Random(17), count=12)
    _, manager, _ = build_query_harness(model)
    manager.materialize()
    fleet = start_fleet(manager, num_replicas=1)
    try:
        node = fleet.replicas["replica-0"]
        expected = primary_results(manager)
        for text, (rows, _) in expected.items():
            result = node.query(text, view_name="profile_rows")
            assert rows_of(result) == rows
        assert node.local_queries == len(expected)
        node.kill()
        with pytest.raises(ReplicaUnavailableError):
            node.query("MATCH alpha RETURN value", view_name="profile_rows")
    finally:
        fleet.stop()


# ------------------------------------------------------------------ #
# anti-entropy: checksum audits, divergence detection, targeted repair
# ------------------------------------------------------------------ #
def corrupt_row(node, view_name, subject, value):
    """Swap a corrupted copy of one served document into *node* only.

    Replicas share the documents a batch decodes to, so writing to the held
    document in place would corrupt every replica at once.
    """
    document = node.get(view_name, subject)
    node.index.replace(dataclasses.replace(document, facts={**document.facts, "value": [value]}))


def assert_others_match_primary(fleet, manager, view_name, victim):
    """Every replica but *victim* serves exactly the primary's checksums."""
    feed = f"view:{view_name}"
    expected = {
        subject: document_checksum(view_row_document(view_name, feed, row, 0))
        for subject, row in manager.view_rows_snapshot(view_name)[2].items()
    }
    for name, node in fleet.replicas.items():
        if name != victim:
            assert node.checksum_divergence(view_name, expected) == ([], [], []), name


def inject_divergence(node, view_name, rng, subjects):
    """Corrupt one replica three ways; returns the subjects per failure mode."""
    feed = f"view:{view_name}"
    pool = [s for s in subjects if node.get(view_name, s) is not None]
    rng.shuffle(pool)
    corrupted = pool[0] if pool else None
    lost = pool[1] if len(pool) > 1 else None
    if corrupted is not None:
        corrupt_row(node, view_name, corrupted, 987654)
    if lost is not None:
        node.index.delete(f"{view_name}:{lost}")
    ghost = f"ghost{rng.randint(0, 99):02d}"
    node.index.apply_feed_delta(
        feed,
        [view_row_document(view_name, feed,
                           {"subject": ghost, "name": "Ghost", "value": -1},
                           node.applied_lsn(view_name))],
        [],
        node.applied_lsn(view_name),
    )
    return corrupted, lost, ghost


def test_audit_detects_exact_subjects_and_repair_converges():
    model = QueryModel()
    seed_model(model, random.Random(23), count=12)
    _, manager, _ = build_query_harness(model)
    manager.materialize()
    fleet = start_fleet(manager)
    try:
        clean = fleet.audit(repair=False)
        assert clean["profile_rows"].clean()
        node = fleet.replicas["replica-2"]
        corrupted, lost, ghost = inject_divergence(
            node, "profile_rows", random.Random(1), sorted(model.entities)
        )
        assert_others_match_primary(fleet, manager, "profile_rows", "replica-2")
        report = fleet.auditor.audit_view("profile_rows")
        audits = {audit.replica: audit for audit in report.replicas}
        assert audits["replica-0"].status == "ok"
        assert audits["replica-1"].status == "ok"
        diverged = audits["replica-2"]
        assert diverged.status == "diverged"
        assert diverged.mismatched == (corrupted,)
        assert diverged.missing == (lost,)
        assert diverged.extra == (ghost,)
        # raise_on_divergence pages instead of papering over
        with pytest.raises(ReplicaDivergenceError) as excinfo:
            fleet.audit(repair=False, raise_on_divergence=True)
        assert "replica-2" in str(excinfo.value)
        # targeted repair rewrites exactly the diverged rows
        builds_before = manager.states["profile_rows"].builds
        repaired = fleet.auditor.repair(report)
        assert repaired == {"replica-2": 3}
        assert fleet.audit(repair=False)["profile_rows"].clean()
        assert node.divergence_repairs == 1
        assert node.snapshot_resyncs == 0                     # never a snapshot
        assert manager.states["profile_rows"].builds == builds_before
        # the last audit report carries the audited digest, stamped with its
        # snapshot LSN, and it is the same canonical row-level digest
        # ViewManager.view_digest computes — never a second digest flavor
        last = fleet.auditor.last_reports["profile_rows"]
        lsn, digest = last.primary_lsn, last.digest
        assert lsn == manager.built_at_lsn("profile_rows")
        _, _, rows = manager.view_rows_snapshot("profile_rows")
        assert digest == combine_checksums(
            {subject: row_checksum(row) for subject, row in rows.items()}
        )
        assert digest == manager.view_digest("profile_rows")
        # distributed queries see the repaired rows, not the corruption
        assert_fleet_matches_primary(fleet, manager)
    finally:
        fleet.stop()


def test_repair_is_stamped_at_the_audited_snapshot_not_the_live_head():
    """A flush landing between audit and repair must not be masked: the
    repair batch carries the snapshot LSN, and a replica that already
    applied past the snapshot refuses the stale repair outright."""
    model = QueryModel()
    seed_model(model, random.Random(43), count=8)
    _, manager, clock = build_query_harness(model)
    manager.materialize()
    fleet = start_fleet(manager)
    try:
        node = fleet.replicas["replica-0"]
        victim = sorted(model.entities)[0]
        corrupt_row(node, "profile_rows", victim, 31337)
        assert_others_match_primary(fleet, manager, "profile_rows", "replica-0")
        report = fleet.auditor.audit_view("profile_rows")
        assert {audit.replica for audit in report.diverged()} == {"replica-0"}
        # a flush lands AFTER the audit and reaches every replica
        other = sorted(model.entities)[1]
        model.entities[other]["value"] = 4000
        clock["lsn"] += 1
        manager.enqueue(delta_at(clock["lsn"], updated={other}))
        manager.flush()
        assert fleet.drain()
        # the now-stale repair is refused, not force-applied over newer state
        assert fleet.auditor.repair(report) == {}
        assert fleet.auditor.stale_repairs_skipped == 1
        assert node.divergence_repairs == 0
        # the post-flush row was never regressed, and a fresh audit pass
        # still sees (and now repairs) the original divergence
        assert node.get("profile_rows", other).value("value") == 4000
        fresh = fleet.auditor.audit_view("profile_rows")
        assert {audit.replica for audit in fresh.diverged()} == {"replica-0"}
        fleet.auditor.repair(fresh)
        assert fleet.audit(repair=False)["profile_rows"].clean()
        assert_fleet_matches_primary(fleet, manager)
    finally:
        fleet.stop()


def test_stale_revision_replica_is_resynced_not_skipped():
    """A replica stuck on an older state lineage at the same LSN (a missed
    redefinition snapshot) is lagging — it must be resynced, never parked
    as 'ahead' while serving old-definition rows forever."""
    model = QueryModel()
    seed_model(model, random.Random(47), count=8)
    _, manager, _ = build_query_harness(model)
    manager.materialize()
    fleet = start_fleet(manager)
    try:
        node = fleet.replicas["replica-1"]
        victim = sorted(model.entities)[0]
        # simulate a missed redefinition: older revision, stale row content
        node.revisions["profile_rows"] -= 1
        corrupt_row(node, "profile_rows", victim, -1)
        assert_others_match_primary(fleet, manager, "profile_rows", "replica-1")
        report = fleet.auditor.audit_view("profile_rows")
        assert {audit.replica for audit in report.lagging()} == {"replica-1"}
        fleet.auditor.repair(report)
        # the revision mismatch makes catch-up answer a full snapshot
        assert node.snapshot_resyncs == 1
        assert fleet.audit(repair=False)["profile_rows"].clean()
        assert_fleet_matches_primary(fleet, manager)
    finally:
        fleet.stop()


def test_lagging_replica_repaired_through_journal_replay():
    model = QueryModel()
    seed_model(model, random.Random(29), count=8)
    _, manager, clock = build_query_harness(model)
    manager.materialize()
    fleet = start_fleet(manager)
    try:
        # crash one replica, ship a delta it misses, then bring the process
        # back WITHOUT the restart catch-up — a live-but-lagging replica
        fleet.kill_replica("replica-1")
        model.entities["e00"]["value"] = 555
        clock["lsn"] += 1
        manager.enqueue(delta_at(clock["lsn"], updated={"e00"}))
        manager.flush()
        assert fleet.drain()
        node = fleet.replicas["replica-1"]
        node.start()
        assert node.applied_lsn("profile_rows") < manager.built_at_lsn("profile_rows")
        report = fleet.auditor.audit_view("profile_rows")
        lagging = {audit.replica for audit in report.lagging()}
        assert lagging == {"replica-1"}
        fleet.auditor.repair(report)
        assert fleet.auditor.catchup_resyncs == 1
        assert node.snapshot_resyncs == 0                     # journal replay
        assert node.applied_lsn("profile_rows") == manager.built_at_lsn("profile_rows")
        assert fleet.audit(repair=False)["profile_rows"].clean()
    finally:
        fleet.stop()


def test_periodic_auditor_repairs_in_background():
    model = QueryModel()
    seed_model(model, random.Random(37), count=8)
    _, manager, _ = build_query_harness(model)
    manager.materialize()
    fleet = start_fleet(manager)
    try:
        node = fleet.replicas["replica-0"]
        inject_divergence(node, "profile_rows", random.Random(2),
                          sorted(model.entities))
        fleet.start_anti_entropy(0.02)
        assert fleet.auditor.running
        deadline = 100
        import time
        while deadline and fleet.auditor.rows_repaired == 0:
            time.sleep(0.02)
            deadline -= 1
        assert fleet.auditor.rows_repaired >= 1
        assert fleet.audit(repair=False)["profile_rows"].clean()
    finally:
        fleet.stop()
    assert not fleet.auditor.running


def test_anti_entropy_soak_detects_and_repairs_random_divergence(ae_seed):
    """Seeded soak: random mutations + random divergence injections every
    round; the audit must detect exactly the injected replica, repair must
    converge the fleet, and no repair may fall back to snapshots or force a
    primary-side rebuild.  The nightly workflow runs this at 5x depth."""
    rng = random.Random(67000 + ae_seed)
    model = QueryModel()
    counter = seed_model(model, rng)
    _, manager, clock = build_query_harness(model)
    manager.materialize()
    fleet = start_fleet(manager)
    builds_baseline = manager.states["profile_rows"].builds
    try:
        for _ in range(rng.randint(3, 6)):
            # mutate and flush a little
            for _ in range(rng.randint(1, 4)):
                op = rng.choice(["add", "update", "delete"])
                if op == "add":
                    counter += 1
                    eid = f"e{counter:02d}"
                    model.entities[eid] = {"type": rng.choice(TYPES),
                                           "value": rng.randint(0, 99)}
                    clock["lsn"] += 1
                    manager.enqueue(delta_at(clock["lsn"], added={eid}))
                elif op == "update" and model.entities:
                    eid = rng.choice(sorted(model.entities))
                    model.entities[eid]["value"] += 7
                    clock["lsn"] += 1
                    manager.enqueue(delta_at(clock["lsn"], updated={eid}))
                elif op == "delete" and model.entities:
                    eid = rng.choice(sorted(model.entities))
                    del model.entities[eid]
                    clock["lsn"] += 1
                    manager.enqueue(delta_at(clock["lsn"], deleted={eid}))
            manager.flush()
            assert fleet.drain()
            # inject divergence into one replica, audit, verify, repair
            victim = rng.choice(sorted(fleet.replicas))
            node = fleet.replicas[victim]
            injected = inject_divergence(node, "profile_rows", rng,
                                         sorted(model.entities))
            assert_others_match_primary(fleet, manager, "profile_rows", victim)
            report = fleet.auditor.audit_view("profile_rows")
            flagged = {audit.replica for audit in report.diverged()}
            assert victim in flagged
            expected_subjects = {s for s in injected if s is not None}
            found = {audit.replica: set(audit.diverged_subjects)
                     for audit in report.diverged()}
            assert found[victim] == expected_subjects
            fleet.auditor.repair(report)
            assert fleet.audit(repair=False)["profile_rows"].clean()
            # convergence is real: distributed queries equal primary again
            assert_fleet_matches_primary(fleet, manager)
        assert manager.states["profile_rows"].builds == builds_baseline
        assert all(node.snapshot_resyncs == 0 for node in fleet.replicas.values())
        assert fleet.auditor.divergences_detected >= 3
    finally:
        fleet.stop()


# ------------------------------------------------------------------ #
# view row checksums (primary-side surface)
# ------------------------------------------------------------------ #
def test_view_checksums_row_shape_and_metadata_lifecycle():
    model = QueryModel()
    seed_model(model, random.Random(41), count=5)
    catalog, manager, _ = build_query_harness(model)
    manager.materialize()
    lsn, revision, rows = manager.view_rows_snapshot("profile_rows")
    assert lsn == manager.built_at_lsn("profile_rows")
    assert revision == manager.state_revision("profile_rows")
    assert set(rows) == set(model.entities)
    checksums = {subject: row_checksum(row) for subject, row in rows.items()}
    # order-independent and content-sensitive
    some = sorted(model.entities)[0]
    row = dict(manager.artifact("profile_rows")[some])
    assert row_checksum(row) == checksums[some]
    assert row_checksum(dict(reversed(list(row.items())))) == checksums[some]
    row["value"] = object()                    # non-JSON values stringify
    assert row_checksum(row) != checksums[some]
    # the snapshot's rows are copies: hashing them never races the artifact
    rows[some]["value"] = -1
    assert manager.artifact("profile_rows")[some]["value"] != -1
    digest = manager.view_digest("profile_rows")
    assert digest == combine_checksums(checksums)
    # the digest is a pure read of the rows: asking again changes nothing
    assert manager.view_digest("profile_rows") == digest
    # a dropped view has no rows left to digest
    manager.drop("profile_rows")
    with pytest.raises(ViewError):
        manager.view_digest("profile_rows")
    # non-row-shaped artifacts refuse row checksums
    catalog.register(ViewDefinition("scalar", "analytics", create=lambda ctx: 42))
    manager.materialize(["scalar"])
    with pytest.raises(ViewError):
        manager.view_rows_snapshot("scalar")
    with pytest.raises(ViewError):
        manager.view_digest("scalar")


def test_document_checksum_ignores_version_but_not_content():
    row = {"subject": "e1", "name": "One", "value": 5, "types": ["alpha"]}
    a = view_row_document("v", "view:v", row, 10)
    b = view_row_document("v", "view:v", dict(row), 99)     # different LSN stamp
    assert document_checksum(a) == document_checksum(b)
    changed = dict(row, value=6)
    c = view_row_document("v", "view:v", changed, 10)
    assert document_checksum(a) != document_checksum(c)
