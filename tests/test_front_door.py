"""The multi-tenant front door: admission, isolation, deadlines, metrics.

The admission contract: every refusal is typed and carries ``retry_after``
— the token bucket refuses sustained overrate (boundaries tested on a fake
clock), the bounded queue sheds lowest-priority-first (never anything more
important than the arrival), and deadlines are honored at arrival, while
queued, and at dispatch.  Queue depth never exceeds its capacity.

The isolation contract, property-tested over seeded two-tenant sequences on
a live fleet: a tenant only ever receives rows from its own KG slice, a
query outside the slice or against a forbidden view is refused at *plan*
time, and result caches are per-tenant objects — the same query text cached
by one tenant never produces a cache hit for another.  Shipped deltas
invalidate exactly the affected view's caches.

Sequence counts follow ``--runs-seeded`` (``fd_seed``, capped like the
other fleet-backed suites — see ``conftest.py``).
"""

from __future__ import annotations

import asyncio
import random
import threading

import pytest

from repro import SagaPlatform
from repro.engine.views import ViewCatalog, ViewDefinition, ViewDelta, ViewManager
from repro.errors import (
    DeadlineExceededError,
    FrontDoorError,
    LiveGraphError,
    OverloadedError,
    TenantIsolationError,
)
from repro.live.executor import QueryResult, QueryResultRow
from repro.live.planner import QueryPlanner
from repro.model.entity import SourceEntity
from repro.serving import (
    AdmissionQueue,
    FrontDoor,
    InMemoryJournalBackend,
    JournalStore,
    Priority,
    ServingFleet,
    TokenBucket,
)
from repro.serving.frontdoor.admission import Waiter
from repro.serving.frontdoor.tenancy import QueryCache
from repro.serving.replica import ReplicaNode


# ------------------------------------------------------------------ #
# harness: a typed row view over a mutable model, served by a fleet
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


def seed_model(model: QueryModel, rng: random.Random, prefix_types=True, count=None):
    """Populate *model*; subjects carry their type's initial as a prefix."""
    n = count if count is not None else rng.randint(8, 20)
    for i in range(n):
        kind = rng.choice(TYPES)
        eid = f"{kind[0]}{i:02d}" if prefix_types else f"e{i:02d}"
        model.entities[eid] = {"type": kind, "value": rng.randint(0, 99)}
    return n


class FakeClock:
    """A hand-cranked monotonic clock for refill/deadline boundary tests."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ------------------------------------------------------------------ #
# stubs: a blockable single-view "fleet" for deterministic admission tests
# ------------------------------------------------------------------ #
#: A REACH plan runs on a door worker, so a gated one can hold the only slot
#: while the event loop keeps admitting, queueing and shedding.
SLOT_HOLDER = "MATCH alpha REACH part_of* TO alpha RETURN name"


class StubQueryRouter:
    """Executes instantly (or blocks on *gate*) and records dispatch order and
    the thread each plan ran on; a query text in *failing* raises."""

    def __init__(self, gate: threading.Event | None = None):
        self.planner = QueryPlanner()
        self.gate = gate
        self.failing: set[str] = set()
        self.executed: list[str] = []
        self.threads: dict[str, threading.Thread] = {}
        self._lock = threading.Lock()

    def execute(self, plan, view_name, consistency):
        text = plan.query.render()
        if self.gate is not None:
            assert self.gate.wait(timeout=10.0), "stub gate never opened"
        with self._lock:
            self.executed.append(text)
            self.threads[text] = threading.current_thread()
        if text in self.failing:
            raise RuntimeError(f"stub failure for {text!r}")
        return QueryResult(rows=[QueryResultRow("view:v:e1", {"name": "Entity e1"})])

    def stats(self):
        return {"queries_routed": float(len(self.executed))}


class StubManager:
    def __init__(self):
        self.listeners = []

    def add_journal_listener(self, listener):
        self.listeners.append(listener)

    def remove_journal_listener(self, listener):
        self.listeners.remove(listener)


class StubFleet:
    """Just enough fleet surface for the FrontDoor: router and manager."""

    def __init__(self, gate: threading.Event | None = None):
        self.query_router = StubQueryRouter(gate)
        self.manager = StubManager()


def make_door(gate=None, **kwargs) -> FrontDoor:
    door = FrontDoor(StubFleet(gate), **kwargs)
    door.registry.register("acme", views={"profile_rows"}, entity_types={"alpha"})
    return door


# ------------------------------------------------------------------ #
# token bucket: refill boundaries on a fake clock
# ------------------------------------------------------------------ #
def test_token_bucket_refill_boundaries():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=2, clock=clock)
    # the burst drains exactly, then refusal quotes the next-token time
    assert bucket.try_acquire() == 0.0
    assert bucket.try_acquire() == 0.0
    assert bucket.try_acquire() == pytest.approx(0.5)
    # partial refill is still a refusal, with a shrunken retry_after
    clock.advance(0.25)
    assert bucket.try_acquire() == pytest.approx(0.25)
    assert bucket.tokens == pytest.approx(0.5)
    # crossing the one-token boundary exactly admits
    clock.advance(0.25)
    assert bucket.try_acquire() == 0.0
    assert bucket.tokens == pytest.approx(0.0)
    # refill is capped at the burst no matter how long the idle gap
    clock.advance(3600.0)
    assert bucket.tokens == pytest.approx(2.0)
    assert bucket.try_acquire() == 0.0
    assert bucket.try_acquire() == 0.0
    assert bucket.try_acquire() > 0.0
    assert bucket.acquired == 5 and bucket.rejected == 3


def test_token_bucket_validation():
    with pytest.raises(FrontDoorError):
        TokenBucket(rate=0.0, burst=5)
    with pytest.raises(FrontDoorError):
        TokenBucket(rate=1.0, burst=0)


# ------------------------------------------------------------------ #
# admission queue: bounded, lowest-priority-first shedding
# ------------------------------------------------------------------ #
def test_admission_queue_sheds_lowest_priority_first():
    clock = FakeClock()
    queue = AdmissionQueue(capacity=2, clock=clock)
    batch = Waiter(priority=int(Priority.BATCH), seq=1, tenant_id="t")
    normal = Waiter(priority=int(Priority.NORMAL), seq=2, tenant_id="t")
    assert queue.offer(batch, 0.1) is None
    assert queue.offer(normal, 0.1) is None
    assert queue.depth == 2
    # an INTERACTIVE arrival displaces the BATCH waiter, not the NORMAL one
    interactive = Waiter(priority=int(Priority.INTERACTIVE), seq=3, tenant_id="t")
    displaced = queue.offer(interactive, 0.1)
    assert displaced is batch and batch.shed
    assert queue.depth == 2
    # an equal-priority arrival cannot displace anything: typed refusal
    late_normal = Waiter(priority=int(Priority.NORMAL), seq=4, tenant_id="t")
    with pytest.raises(OverloadedError) as excinfo:
        queue.offer(late_normal, 0.37)
    assert excinfo.value.retry_after == pytest.approx(0.37)
    # pop order is priority-then-arrival, tombstones are skipped silently
    first, expired = queue.pop_ready()
    assert first is interactive and expired == []
    second, _ = queue.pop_ready()
    assert second is normal
    assert queue.pop_ready() == (None, [])
    assert queue.stats()["sheds"] == 1
    assert queue.max_depth == 2     # boundedness held throughout


def test_admission_queue_expires_stale_waiters_on_pop():
    clock = FakeClock()
    queue = AdmissionQueue(capacity=4, clock=clock)
    stale = Waiter(priority=0, seq=1, tenant_id="t", deadline=1.0)
    fresh = Waiter(priority=1, seq=2, tenant_id="t", deadline=10.0)
    queue.offer(stale, 0.1)
    queue.offer(fresh, 0.1)
    clock.advance(2.0)
    waiter, expired = queue.pop_ready()
    assert waiter is fresh
    assert expired == [stale] and stale.expired
    assert queue.expirations == 1
    with pytest.raises(FrontDoorError):
        AdmissionQueue(capacity=0)


# ------------------------------------------------------------------ #
# the request path: deadlines, rate limits, shed ordering
# ------------------------------------------------------------------ #
def test_deadline_already_expired_on_arrival_burns_no_token():
    door = make_door()
    try:
        async def scenario():
            with pytest.raises(DeadlineExceededError):
                await door.query("acme", "MATCH alpha RETURN name",
                                 "profile_rows", deadline=0.0)
            with pytest.raises(DeadlineExceededError):
                await door.query("acme", "MATCH alpha RETURN name",
                                 "profile_rows", deadline=-5.0)
        asyncio.run(scenario())
        state = door.registry.get("acme")
        # the deadline gate precedes the bucket: no token was spent or refused
        assert state.bucket.acquired == 0 and state.bucket.rejected == 0
        snapshot = door.metrics.tenant_snapshot("acme")
        assert snapshot["deadline_exceeded"] == 2
        assert snapshot["admitted"] == 0
    finally:
        door.close()


def test_rate_limit_refusal_is_typed_and_quotes_retry_after():
    door = FrontDoor(StubFleet())
    door.registry.register("busy", views={"profile_rows"}, rate=1.0, burst=1)
    try:
        async def scenario():
            result = await door.query("busy", "MATCH alpha RETURN name", "profile_rows")
            assert not result.from_cache
            with pytest.raises(OverloadedError) as excinfo:
                await door.query("busy", "MATCH alpha RETURN value", "profile_rows")
            assert excinfo.value.retry_after > 0.0
        asyncio.run(scenario())
        snapshot = door.metrics.tenant_snapshot("busy")
        assert snapshot["rate_limited"] == 1
        assert snapshot["completed"] == 1
    finally:
        door.close()


def test_shed_ordering_under_mixed_priorities():
    """With one worker and a 2-deep queue: BATCH is displaced by INTERACTIVE,
    an equal-priority arrival is refused, and the queue drains in priority
    order once the slot frees."""
    gate = threading.Event()
    door = make_door(gate, max_concurrency=1, queue_capacity=2)
    q_running = SLOT_HOLDER     # a REACH plan: held on a worker, not the loop
    q_batch = "MATCH alpha RETURN value"
    q_batch2 = "MATCH alpha RETURN name, value"
    q_interactive = "MATCH alpha RETURN *"
    q_refused = "MATCH alpha RETURN name LIMIT 1"
    try:
        async def scenario():
            running = asyncio.create_task(door.query(
                "acme", q_running, "profile_rows", use_cache=False))
            await asyncio.sleep(0.05)       # occupies the only worker (gated)
            batch = asyncio.create_task(door.query(
                "acme", q_batch, "profile_rows",
                priority=Priority.BATCH, use_cache=False))
            await asyncio.sleep(0.05)
            batch2 = asyncio.create_task(door.query(
                "acme", q_batch2, "profile_rows",
                priority=Priority.BATCH, use_cache=False))
            await asyncio.sleep(0.05)
            assert door.queue.depth == 2
            # arrival 1: INTERACTIVE displaces the newest BATCH waiter
            interactive = asyncio.create_task(door.query(
                "acme", q_interactive, "profile_rows",
                priority=Priority.INTERACTIVE, use_cache=False))
            await asyncio.sleep(0.05)
            assert door.queue.depth == 2    # bounded: still at capacity
            # arrival 2: BATCH cannot displace NORMAL-or-better -> refused
            with pytest.raises(OverloadedError) as refusal:
                await door.query("acme", q_refused, "profile_rows",
                                 priority=Priority.BATCH, use_cache=False)
            assert refusal.value.retry_after > 0.0
            shed_result = await asyncio.gather(batch2, return_exceptions=True)
            assert isinstance(shed_result[0], OverloadedError)
            gate.set()
            results = await asyncio.gather(running, batch, interactive)
            assert all(isinstance(r, QueryResult) for r in results)
        asyncio.run(scenario())
        # dispatch order: the running query, then INTERACTIVE before BATCH
        assert door.fleet.query_router.executed == [
            SLOT_HOLDER,
            "MATCH alpha RETURN *",
            "MATCH alpha RETURN value",
        ]
        snapshot = door.metrics.tenant_snapshot("acme")
        assert snapshot["shed"] == 2            # one displaced + one refused
        assert snapshot["completed"] == 3
        assert door.queue.max_depth <= door.queue.capacity
    finally:
        gate.set()
        door.close()


def test_deadline_while_queued_is_refused_and_slot_not_leaked():
    gate = threading.Event()
    door = make_door(gate, max_concurrency=1, queue_capacity=4)
    try:
        async def scenario():
            running = asyncio.create_task(door.query(
                "acme", SLOT_HOLDER, "profile_rows", use_cache=False))
            await asyncio.sleep(0.05)
            with pytest.raises(DeadlineExceededError):
                await door.query("acme", "MATCH alpha RETURN value",
                                 "profile_rows", deadline=0.1, use_cache=False)
            gate.set()
            await running
            # the freed slot was retired, not leaked to the dead waiter
            follow_up = await door.query(
                "acme", "MATCH alpha RETURN *", "profile_rows", use_cache=False)
            assert not follow_up.from_cache
        asyncio.run(scenario())
        snapshot = door.metrics.tenant_snapshot("acme")
        assert snapshot["deadline_exceeded"] == 1
        assert snapshot["completed"] == 2
        assert door._in_flight == 0
    finally:
        gate.set()
        door.close()


# ------------------------------------------------------------------ #
# where a plan runs: MATCH inline on the loop, REACH on the pool
# ------------------------------------------------------------------ #
def test_match_runs_on_the_loop_thread_and_reach_on_a_worker():
    door = make_door()
    match = "MATCH alpha RETURN name"
    try:
        async def scenario():
            await door.query("acme", match, "profile_rows")
            await door.query("acme", SLOT_HOLDER, "profile_rows")
            return threading.current_thread()

        loop_thread = asyncio.run(scenario())
        threads = door.fleet.query_router.threads
        assert threads[match] is loop_thread
        assert threads[SLOT_HOLDER] is not loop_thread
        assert threads[SLOT_HOLDER].name.startswith("frontdoor")
        snapshot = door.stats()
        assert snapshot["executed_inline"] == 1
        assert snapshot["executed_pooled"] == 1
    finally:
        door.close()


def test_inline_match_requests_yield_between_requests():
    """Two clients issuing MATCH requests back to back alternate: each inline
    request yields the loop once, so neither client runs all of its
    requests before the other gets one in."""
    door = make_door()
    texts = {
        "a": ["MATCH alpha RETURN name", "MATCH alpha RETURN value",
              "MATCH alpha RETURN *"],
        "b": ["MATCH alpha RETURN name LIMIT 1", "MATCH alpha RETURN value LIMIT 1",
              "MATCH alpha RETURN * LIMIT 1"],
    }
    try:
        async def client(name):
            for text in texts[name]:
                await door.query("acme", text, "profile_rows", use_cache=False)

        async def scenario():
            await asyncio.gather(client("a"), client("b"))

        asyncio.run(scenario())
        expected = [text for pair in zip(texts["a"], texts["b"]) for text in pair]
        assert door.fleet.query_router.executed == expected
        assert door.stats()["executed_inline"] == 6
    finally:
        door.close()


def test_inline_match_that_raises_counts_an_execution_error_and_frees_the_slot():
    door = make_door(max_concurrency=1)
    failing = "MATCH alpha RETURN value"
    door.fleet.query_router.failing.add(failing)
    try:
        async def scenario():
            with pytest.raises(RuntimeError, match="stub failure"):
                await door.query("acme", failing, "profile_rows")
            assert door._in_flight == 0
            # the only slot came back: the next request is admitted and served
            follow_up = await door.query("acme", "MATCH alpha RETURN name", "profile_rows")
            assert not follow_up.from_cache

        asyncio.run(scenario())
        snapshot = door.metrics.tenant_snapshot("acme")
        assert snapshot["execution_errors"] == 1
        assert snapshot["completed"] == 1
        assert door.stats()["in_flight"] == 0
    finally:
        door.close()


def test_front_door_constructor_and_registry_validation():
    with pytest.raises(FrontDoorError):
        FrontDoor(StubFleet(), max_concurrency=0)
    with pytest.raises(FrontDoorError):
        FrontDoor(StubFleet(), default_deadline=0.0)
    door = FrontDoor(StubFleet())
    try:
        door.registry.register("acme", views={"v"})
        with pytest.raises(FrontDoorError):
            door.registry.register("acme", views={"v"})     # duplicate
        with pytest.raises(FrontDoorError):
            door.registry.register("", views={"v"})
        with pytest.raises(FrontDoorError):
            door.registry.register("bad", views={"v"}, plan_cache_size=0)
        with pytest.raises(FrontDoorError):
            door.registry.register("bad", views={"v"}, result_cache_size=0)
        with pytest.raises(FrontDoorError):
            door.registry.get("nobody")
        async def scenario():
            with pytest.raises(FrontDoorError):
                await door.query("nobody", "MATCH alpha RETURN name", "v")
        asyncio.run(scenario())
    finally:
        door.close()


# ------------------------------------------------------------------ #
# tenant isolation: plan-time enforcement and per-tenant caches
# ------------------------------------------------------------------ #
def test_isolation_enforced_at_plan_time():
    door = make_door()     # tenant "acme": view profile_rows, types {alpha}
    try:
        async def scenario():
            # a view outside the allowed set is a hard boundary
            with pytest.raises(TenantIsolationError):
                await door.query("acme", "MATCH alpha RETURN name", "secret_view")
            # an entity type outside the slice is refused at compile time
            with pytest.raises(TenantIsolationError):
                await door.query("acme", "MATCH beta RETURN name", "profile_rows")
        asyncio.run(scenario())
        # nothing was dispatched to the fleet
        assert door.fleet.query_router.executed == []
        snapshot = door.metrics.tenant_snapshot("acme")
        assert snapshot["isolation_rejections"] == 2
        assert door.registry.stats()["acme"]["isolation_rejections"] == 2
    finally:
        door.close()


def test_result_caches_never_hit_across_tenants():
    """Two tenants sharing a view and a slice run the *same* query text; each
    tenant's first execution is a miss — the other's cached rows are
    unreachable."""
    door = FrontDoor(StubFleet())
    door.registry.register("one", views={"profile_rows"}, entity_types={"alpha"})
    door.registry.register("two", views={"profile_rows"}, entity_types={"alpha"})
    text = "MATCH alpha RETURN name"
    try:
        async def scenario():
            first = await door.query("one", text, "profile_rows")
            repeat = await door.query("one", text, "profile_rows")
            other = await door.query("two", text, "profile_rows")
            assert not first.from_cache
            assert repeat.from_cache
            assert not other.from_cache     # no cross-tenant cache hit
        asyncio.run(scenario())
        assert len(door.fleet.query_router.executed) == 2   # one per tenant
        assert door.metrics.tenant_snapshot("one")["cache_hits"] == 1
        assert door.metrics.tenant_snapshot("two")["cache_hits"] == 0
    finally:
        door.close()


def test_consistency_level_is_part_of_the_result_cache_key():
    from repro.serving import Consistency

    door = make_door()
    text = "MATCH alpha RETURN name"
    try:
        async def scenario():
            await door.query("acme", text, "profile_rows")
            bounded = await door.query(
                "acme", text, "profile_rows",
                consistency=Consistency.bounded_staleness(0))
            assert not bounded.from_cache   # stricter level must re-execute
        asyncio.run(scenario())
        assert len(door.fleet.query_router.executed) == 2
    finally:
        door.close()


def test_journal_events_invalidate_only_the_affected_view():
    class Event:
        def __init__(self, kind, view_name):
            self.kind = kind
            self.view_name = view_name

    door = FrontDoor(StubFleet())
    door.registry.register("acme", views={"profile_rows", "other_view"},
                           entity_types={"alpha"})
    text = "MATCH alpha RETURN name"
    (listener,) = door.manager.listeners
    try:
        async def warm(view):
            await door.query("acme", text, view)

        asyncio.run(warm("profile_rows"))
        asyncio.run(warm("other_view"))
        # a watermark-only advance invalidates nothing
        listener(Event("advance", "profile_rows"))
        assert door.view_invalidations == 0
        # an append drops exactly the affected view's caches
        listener(Event("append", "profile_rows"))
        assert door.view_invalidations == 1

        async def recheck():
            stale = await door.query("acme", text, "profile_rows")
            fresh = await door.query("acme", text, "other_view")
            assert not stale.from_cache     # invalidated
            assert fresh.from_cache         # untouched view kept serving
        asyncio.run(recheck())
        assert door.registry.stats()["acme"]["result_invalidations"] == 1
    finally:
        door.close()
    # close() detached the listener
    assert door.manager.listeners == []


# ------------------------------------------------------------------ #
# seeded property: two tenants on a live fleet, zero leaks
# ------------------------------------------------------------------ #
def test_two_tenant_isolation_over_seeded_sequences(fd_seed):
    """Over random mutate/flush/query interleavings on a real fleet, every
    row a tenant receives belongs to its own slice, cross-slice queries are
    refused at plan time, and the front door's answers match direct fleet
    execution."""
    rng = random.Random(47000 + fd_seed)
    model = QueryModel()
    counter = seed_model(model, rng)
    _, manager, clock = build_query_harness(model)
    manager.materialize()
    fleet = start_fleet(manager)
    door = FrontDoor(fleet, max_concurrency=4)
    door.registry.register("team-alpha", views={"profile_rows"},
                           entity_types={"alpha"})
    door.registry.register("team-beta", views={"profile_rows"},
                           entity_types={"beta"})
    batteries = {
        "team-alpha": (
            "MATCH alpha RETURN name, value",
            "MATCH alpha WHERE value > 5 RETURN name, value",
            'MATCH alpha WHERE name CONTAINS "1" RETURN *',
        ),
        "team-beta": (
            "MATCH beta RETURN name, value",
            "MATCH beta WHERE value < 50 RETURN value LIMIT 3",
            "MATCH beta WHERE value != 2 RETURN name LIMIT 4",
        ),
    }
    slices = {"team-alpha": "alpha", "team-beta": "beta"}

    def enqueue(changed=(), deleted=(), added=()):
        clock["lsn"] += 1
        manager.enqueue(delta_at(
            clock["lsn"], added=added, updated=set(changed) - set(added), deleted=deleted,
        ))

    async def scenario():
        nonlocal counter
        for _ in range(rng.randint(6, 12)):
            op = rng.choices(["add", "update", "delete", "serve"],
                             weights=[15, 20, 10, 55])[0]
            if op == "add":
                counter += 1
                kind = rng.choice(TYPES)
                eid = f"{kind[0]}{counter:02d}"
                model.entities[eid] = {"type": kind, "value": rng.randint(0, 99)}
                enqueue([eid], added=[eid])
            elif op == "update" and model.entities:
                eid = rng.choice(sorted(model.entities))
                model.entities[eid]["value"] += 100
                enqueue([eid])
            elif op == "delete" and model.entities:
                eid = rng.choice(sorted(model.entities))
                del model.entities[eid]
                enqueue(deleted=[eid])
            if op != "serve":
                manager.flush()
                assert fleet.drain()
                continue
            tenant = rng.choice(sorted(batteries))
            text = rng.choice(batteries[tenant])
            result = await door.query(tenant, text, "profile_rows")
            # every returned row lives inside the tenant's KG slice
            kind = slices[tenant]
            for row in result.rows:
                subject = row.entity_id.rsplit(":", 1)[-1]
                assert model.entities[subject]["type"] == kind, (tenant, text)
                assert subject.startswith(kind[0])
            # the front door answers exactly what the fleet answers
            direct = fleet.query(text, "profile_rows")
            assert [(r.entity_id, r.values) for r in result.rows] == \
                   [(r.entity_id, r.values) for r in direct.rows], (tenant, text)
            # the other tenant's battery is refused at plan time
            other = next(t for t in batteries if t != tenant)
            with pytest.raises(TenantIsolationError):
                await door.query(tenant, rng.choice(batteries[other]),
                                 "profile_rows")

    try:
        asyncio.run(scenario())
        snapshot = door.stats()
        assert snapshot["shed"] == 0 and snapshot["rate_limited"] == 0
        assert snapshot["completed"] == snapshot["admitted"]
        assert door.queue.max_depth <= door.queue.capacity
        # cross-tenant cache hits are structurally impossible: each tenant's
        # hit count never exceeds its own completions
        for tenant, tenant_stats in snapshot["tenants"].items():
            assert tenant_stats["cache_hits"] <= tenant_stats["completed"]
    finally:
        door.close()
        fleet.stop()


# ------------------------------------------------------------------ #
# observability: stats shape
# ------------------------------------------------------------------ #
def test_stats_snapshot():
    door = FrontDoor(StubFleet())
    door.registry.register("acme", views={"profile_rows"}, entity_types={"alpha"})
    try:
        async def scenario():
            await door.query("acme", "MATCH alpha RETURN name", "profile_rows")
            await door.query("acme", "MATCH alpha RETURN name", "profile_rows")
        asyncio.run(scenario())
        snapshot = door.stats()
        assert snapshot["requests"] == 2
        assert snapshot["completed"] == 2
        assert snapshot["cache_hits"] == 1
        assert snapshot["latency"]["count"] == 2
        assert snapshot["latency"]["p99_ms"] >= snapshot["latency"]["p50_ms"]
        assert snapshot["in_flight"] == 0
        assert snapshot["max_in_flight"] == 1
        assert snapshot["executed_inline"] == 1     # the repeat was a cache hit
        assert snapshot["executed_pooled"] == 0
        assert snapshot["queue"]["depth"] == 0
        assert snapshot["tenants"]["acme"]["admitted"] == 2
        assert snapshot["tenant_caches"]["acme"]["plan_cache_hits"] == 1
        assert "queries_routed" in snapshot["query_router"]
        # a pure read: asking again changes nothing
        assert door.stats() == snapshot
    finally:
        door.close()


def test_latency_histogram_percentiles_are_monotone_and_bounded():
    from repro.serving import LatencyHistogram, ServingMetrics

    histogram = LatencyHistogram()
    assert histogram.percentile(99.0) == 0.0
    samples = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]
    for value in samples:
        histogram.observe(value)
    p50 = histogram.percentile(50.0)
    p95 = histogram.percentile(95.0)
    p99 = histogram.percentile(99.0)
    assert 0.0 < p50 <= p95 <= p99 <= histogram.max_ms
    snapshot = histogram.snapshot()
    assert snapshot["count"] == 10
    assert snapshot["max_ms"] == pytest.approx(256.0)
    with pytest.raises(ValueError):
        ServingMetrics().count("t", "not_an_outcome")


# ------------------------------------------------------------------ #
# the result cache: validation, eviction accounting, unaliased rows
# ------------------------------------------------------------------ #
def test_query_cache_rejects_nonpositive_capacity_and_counts_evictions():
    with pytest.raises(LiveGraphError):
        QueryCache(capacity=0)
    with pytest.raises(LiveGraphError):
        QueryCache(capacity=-3)
    cache = QueryCache(capacity=2)
    cache.put("a", [QueryResultRow("e1", {"v": 1})])
    cache.put("b", [QueryResultRow("e2", {"v": 2})])
    assert cache.evictions == 0
    cache.put("c", [QueryResultRow("e3", {"v": 3})])
    assert cache.evictions == 1
    assert cache.get("a") is None       # "a" was the LRU entry pushed out
    assert cache.get("c") is not None


def test_cache_hits_return_unaliased_rows():
    cache = QueryCache()
    rows = [QueryResultRow("e1", {"name": "Ada", "value": 1})]
    cache.put("k", rows)
    # A caller scribbling over the rows it stored must not poison later hits …
    rows[0].values["name"] = "CORRUPTED"
    rehit = cache.get("k")
    assert rehit[0].values["name"] == "Ada"
    # … and neither must a caller mutating a row served *from* the cache.
    rehit[0].values["value"] = 999
    assert cache.get("k")[0].values == {"name": "Ada", "value": 1}


def test_door_cache_hits_survive_callers_mutating_their_rows():
    door = make_door()
    text = "MATCH alpha RETURN name"
    try:
        async def scenario():
            first = await door.query("acme", text, "profile_rows")
            first.rows[0].values["name"] = "CORRUPTED"
            rehit = await door.query("acme", text, "profile_rows")
            assert rehit.from_cache
            assert rehit.rows[0].values == {"name": "Entity e1"}
            rehit.rows[0].values["name"] = "CORRUPTED"
            again = await door.query("acme", text, "profile_rows")
            assert again.from_cache
            assert again.rows[0].values == {"name": "Entity e1"}
        asyncio.run(scenario())
        assert len(door.fleet.query_router.executed) == 1
    finally:
        door.close()


# ------------------------------------------------------------------ #
# a request resolves its tenant once: offboarding cannot lose its rows
# ------------------------------------------------------------------ #
def test_tenant_removed_while_its_request_is_on_a_worker_still_gets_rows(monkeypatch):
    """``registry.remove`` during an in-flight request used to make the
    closing ``store_rows`` raise ``FrontDoorError("unknown tenant")`` after
    the query had run and been counted ``completed`` — the rows were lost."""
    model = QueryModel()
    seed_model(model, random.Random(31), count=10)
    _, manager, _ = build_query_harness(model)
    manager.materialize()
    fleet = start_fleet(manager)
    text = "MATCH alpha REACH part_of* TO alpha RETURN name, value"   # runs on a worker
    expected = [(row.entity_id, row.values) for row in fleet.query(text, "profile_rows").rows]
    on_worker, release = threading.Event(), threading.Event()
    replica_query = ReplicaNode.query

    def held_query(self, *args, **kwargs):
        on_worker.set()
        assert release.wait(timeout=10.0), "the test never released the replica"
        return replica_query(self, *args, **kwargs)

    monkeypatch.setattr(ReplicaNode, "query", held_query)
    door = FrontDoor(fleet, max_concurrency=1)
    door.registry.register("acme", views={"profile_rows"})
    try:
        async def scenario():
            loop = asyncio.get_running_loop()
            request = asyncio.ensure_future(door.query("acme", text, "profile_rows"))
            assert await loop.run_in_executor(None, on_worker.wait, 10.0)
            door.registry.remove("acme")            # offboarded mid-request
            release.set()
            return await asyncio.wait_for(request, timeout=10.0)

        result = asyncio.run(scenario())
        assert expected and [(row.entity_id, row.values) for row in result.rows] == expected
        assert door.metrics.tenant_snapshot("acme")["completed"] == 1
        assert door.stats()["in_flight"] == 0       # the slot came back
        with pytest.raises(FrontDoorError, match="unknown tenant"):
            asyncio.run(door.query("acme", text, "profile_rows"))
    finally:
        release.set()
        door.close()
        fleet.stop()


# ------------------------------------------------------------------ #
# platform wiring: the fleet serves before start_serving_fleet returns
# ------------------------------------------------------------------ #
def test_first_query_after_fleet_start_finds_replicas_serving(monkeypatch):
    """A slow replica apply must delay the start, not fail the first query."""
    platform = SagaPlatform()
    platform.graph_engine.register_standard_views()
    platform.graph_engine.materialize_views()
    platform.register_source("musicdb")
    platform.ingest_snapshot("musicdb", [
        SourceEntity(
            entity_id=f"musicdb:artist/{i}", entity_type="music_artist",
            properties={"name": name}, source_id="musicdb", trust=0.8,
        )
        for i, name in enumerate(["Echo Valley", "Blue Harbor"])
    ])
    platform.graph_engine.update_views()

    apply = ReplicaNode._apply

    def slow_apply(self, *args, **kwargs):
        threading.Event().wait(0.05)
        return apply(self, *args, **kwargs)

    monkeypatch.setattr(ReplicaNode, "_apply", slow_apply)
    fleet = platform.start_serving_fleet(views=["entity_features"], num_replicas=3)
    try:
        assert all(node.serves_view("entity_features") for node in fleet.replicas.values())
        door = platform.start_front_door()
        door.registry.register("app", views={"entity_features"})
        result = asyncio.run(
            door.query("app", "MATCH music_artist RETURN name", "entity_features")
        )
        assert len(result.rows) == 2
    finally:
        platform.stop_serving_fleet()
