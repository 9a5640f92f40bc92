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
import copy
import pickle
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
from repro.live.executor import QueryResult, QueryResultRow, RowValues
from repro.live.planner import QueryPlanner
from repro.model.entity import SourceEntity
from repro.serving import (
    AdmissionQueue,
    FrontDoor,
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
    fleet = ServingFleet(manager, num_replicas=num_replicas).start()
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
# stubs: a single-view "fleet" for deterministic admission tests
# ------------------------------------------------------------------ #
#: A REACH plan: it runs inline on the event loop like a MATCH plan.
REACH_TEXT = "MATCH alpha REACH part_of* TO alpha RETURN name"


class StubQueryRouter:
    """Executes instantly and records dispatch order and the thread each plan
    ran on; a query text in *failing* raises."""

    def __init__(self):
        self.planner = QueryPlanner()
        self.failing: set[str] = set()
        self.executed: list[str] = []
        self.threads: dict[str, threading.Thread] = {}

    def execute(self, plan, view_name, consistency):
        text = plan.query.render()
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

    def __init__(self):
        self.query_router = StubQueryRouter()
        self.manager = StubManager()


def make_door(**kwargs) -> FrontDoor:
    door = FrontDoor(StubFleet(), **kwargs)
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


def test_a_discarded_waiter_leaves_a_tombstone_and_counts_as_expired():
    """The door discards a queued waiter whose own wait timed out or was
    cancelled before a slot reached it."""
    queue = AdmissionQueue(capacity=2)
    gone = Waiter(priority=0, seq=1, tenant_id="t")
    kept = Waiter(priority=1, seq=2, tenant_id="t")
    queue.offer(gone, 0.1)
    queue.offer(kept, 0.1)
    assert queue.discard(gone) is True
    assert queue.depth == 1 and gone.expired and queue.expirations == 1
    assert queue.discard(gone) is False           # already left the queue
    assert queue.pop_ready() == (kept, [])
    assert queue.discard(kept) is False           # granted, not queued


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
    """With one slot and a 2-deep queue: requests arriving while the running
    one holds its slot through its post-execution yield queue; BATCH is
    displaced by INTERACTIVE, an equal-priority arrival is refused, and the
    queue drains in priority order once the slot frees."""
    door = make_door(max_concurrency=1, queue_capacity=2)
    q_running = REACH_TEXT
    q_batch = "MATCH alpha RETURN value"
    q_batch2 = "MATCH alpha RETURN name, value"
    q_interactive = "MATCH alpha RETURN *"
    q_refused = "MATCH alpha RETURN name LIMIT 1"
    depths: list[int] = []
    try:
        def request(text, priority=Priority.NORMAL):
            return door.query("acme", text, "profile_rows",
                              priority=priority, use_cache=False)

        async def queue_depth():
            depths.append(door.queue.depth)

        async def scenario():
            # gather starts each coroutine in order within one loop turn: the
            # first runs and yields holding the only slot, the rest arrive
            return await asyncio.gather(
                request(q_running),
                request(q_batch, Priority.BATCH),
                request(q_batch2, Priority.BATCH),
                queue_depth(),
                # INTERACTIVE displaces the newest BATCH waiter
                request(q_interactive, Priority.INTERACTIVE),
                queue_depth(),
                # BATCH cannot displace NORMAL-or-better -> refused
                request(q_refused, Priority.BATCH),
                return_exceptions=True,
            )

        running, batch, shed, _, interactive, _, refused = asyncio.run(scenario())
        assert depths == [2, 2]                 # full, and bounded at capacity
        assert isinstance(shed, OverloadedError)
        assert isinstance(refused, OverloadedError)
        assert refused.retry_after > 0.0
        assert all(isinstance(r, QueryResult) for r in (running, batch, interactive))
        # dispatch order: the running query, then INTERACTIVE before BATCH
        assert door.fleet.query_router.executed == [q_running, q_interactive, q_batch]
        snapshot = door.metrics.tenant_snapshot("acme")
        assert snapshot["shed"] == 2            # one displaced + one refused
        assert snapshot["completed"] == 3
        assert door.queue.max_depth <= door.queue.capacity
    finally:
        door.close()


def test_deadline_while_queued_is_refused_and_slot_not_leaked():
    """A request queued behind the running one's yield expires there when the
    clock passes its deadline: it is refused, never dispatched, and the slot
    it would have taken is retired rather than leaked."""
    clock = FakeClock(100.0)
    door = make_door(max_concurrency=1, queue_capacity=4, clock=clock)
    queued = "MATCH alpha RETURN value"
    try:
        async def expire_queued():
            assert door.queue.depth == 1
            clock.advance(0.5)                  # past the queued deadline

        async def scenario():
            running, refused, _ = await asyncio.gather(
                door.query("acme", REACH_TEXT, "profile_rows", use_cache=False),
                door.query("acme", queued, "profile_rows", deadline=0.1,
                           use_cache=False),
                expire_queued(),
                return_exceptions=True,
            )
            assert isinstance(running, QueryResult)
            assert isinstance(refused, DeadlineExceededError)
            # the freed slot was retired, not leaked to the dead waiter
            follow_up = await asyncio.wait_for(door.query(
                "acme", "MATCH alpha RETURN *", "profile_rows", use_cache=False), 10.0)
            assert not follow_up.from_cache
        asyncio.run(scenario())
        assert queued not in door.fleet.query_router.executed
        snapshot = door.metrics.tenant_snapshot("acme")
        assert snapshot["deadline_exceeded"] == 1
        assert snapshot["completed"] == 2
        assert door._in_flight == 0
    finally:
        door.close()


@pytest.mark.parametrize("deadline", [None, 10.0])
def test_a_cancelled_queued_request_leaks_no_slot(deadline):
    """A queued request cancelled by its caller leaves the queue: the slot
    the running request frees goes to the next arrival, not to the
    cancelled one."""
    door = make_door(max_concurrency=1, queue_capacity=4)
    queued = "MATCH alpha RETURN value"
    try:
        async def scenario():
            # tasks start in creation order: the first holds the only slot
            running = asyncio.ensure_future(door.query(
                "acme", REACH_TEXT, "profile_rows", use_cache=False))
            waiting = asyncio.ensure_future(door.query(
                "acme", queued, "profile_rows", deadline=deadline, use_cache=False))

            async def cancel_waiting():
                assert door.queue.depth == 1
                waiting.cancel()

            await asyncio.gather(running, cancel_waiting())
            await asyncio.gather(waiting, return_exceptions=True)
            assert waiting.cancelled()
            follow_up = await asyncio.wait_for(door.query(
                "acme", "MATCH alpha RETURN *", "profile_rows", use_cache=False), 10.0)
            assert not follow_up.from_cache
        asyncio.run(scenario())
        assert queued not in door.fleet.query_router.executed
        assert door._in_flight == 0 and door.queue.depth == 0
    finally:
        door.close()


def test_queued_requests_that_leave_before_a_slot_reaches_them_free_the_queue():
    """A queued request whose deadline fires in real time, and one its caller
    cancels, both leave the admission queue while the only slot is still
    held: the queue is empty, both count as expirations, and the freed slot
    goes to the next arrival rather than to either of them."""
    door = make_door(max_concurrency=1, queue_capacity=4)
    timed_out, cancelled = "MATCH alpha RETURN value", "MATCH alpha RETURN name"
    try:
        async def scenario():
            # the test itself holds the only slot for as long as it likes
            await door._acquire_slot(Priority.NORMAL, None, "acme")
            expiring = asyncio.ensure_future(door.query(
                "acme", timed_out, "profile_rows", deadline=0.05, use_cache=False))
            waiting = asyncio.ensure_future(door.query(
                "acme", cancelled, "profile_rows", use_cache=False))
            await asyncio.sleep(0)
            assert door.queue.depth == 2
            (refused,) = await asyncio.gather(expiring, return_exceptions=True)
            assert isinstance(refused, DeadlineExceededError)
            assert door.queue.depth == 1
            waiting.cancel()
            await asyncio.gather(waiting, return_exceptions=True)
            assert waiting.cancelled()
            assert door.queue.depth == 0
            assert door.queue.expirations == 2
            door._release_slot()
            assert door._in_flight == 0
            follow_up = await asyncio.wait_for(door.query(
                "acme", "MATCH alpha RETURN *", "profile_rows", use_cache=False), 10.0)
            assert not follow_up.from_cache
        asyncio.run(scenario())
        assert door.fleet.query_router.executed == ["MATCH alpha RETURN *"]
        assert door._in_flight == 0 and door.queue.depth == 0
        assert door.metrics.tenant_snapshot("acme")["deadline_exceeded"] == 1
    finally:
        door.close()


# ------------------------------------------------------------------ #
# where a plan runs: every plan inline on the loop
# ------------------------------------------------------------------ #
def test_match_and_reach_run_on_the_loop_thread():
    door = make_door()
    match = "MATCH alpha RETURN name"
    try:
        async def scenario():
            await door.query("acme", match, "profile_rows")
            await door.query("acme", REACH_TEXT, "profile_rows")
            return threading.current_thread(), [t.name for t in threading.enumerate()]

        loop_thread, names = asyncio.run(scenario())
        threads = door.fleet.query_router.threads
        assert threads[match] is loop_thread
        assert threads[REACH_TEXT] is loop_thread
        assert not [name for name in names if name.startswith("frontdoor")]
        assert door.stats()["executed"] == 2
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
        assert door.stats()["executed"] == 6
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


def test_result_cache_counters_survive_an_invalidation():
    """An invalidation used to drop the view's cache with its counters, and a
    lookup with no cache yet counted no miss."""
    class Event:
        kind, view_name = "append", "profile_rows"

    door = make_door()
    text = "MATCH alpha RETURN name"
    (listener,) = door.manager.listeners
    try:
        async def scenario():
            assert not (await door.query("acme", text, "profile_rows")).from_cache
            assert (await door.query("acme", text, "profile_rows")).from_cache
            listener(Event())
            assert not (await door.query("acme", text, "profile_rows")).from_cache
        asyncio.run(scenario())
        caches = door.stats()["tenant_caches"]["acme"]
        assert caches["result_cache_hits"] == 1
        assert caches["result_cache_misses"] == 2
        assert caches["result_invalidations"] == 1
    finally:
        door.close()


# ------------------------------------------------------------------ #
# the shape cache: each query shape parsed once, literals bound per request
# ------------------------------------------------------------------ #
def test_texts_of_one_shape_each_get_their_own_rows():
    model = QueryModel()
    for eid, value in (("a00", 10), ("a01", 20), ("b00", 30)):
        model.entities[eid] = {"type": "alpha" if eid.startswith("a") else "beta", "value": value}
    _, manager, _ = build_query_harness(model)
    manager.materialize()
    fleet = start_fleet(manager)
    door = FrontDoor(fleet)
    door.registry.register("acme", views={"profile_rows"})
    template = 'MATCH alpha WHERE name = "Entity {}" RETURN name, value'
    try:
        async def scenario():
            first = await door.query("acme", template.format("a00"), "profile_rows")
            cached = await door.query("acme", template.format("a00"), "profile_rows")
            other = await door.query("acme", template.format("a01"), "profile_rows")
            return first, cached, other

        first, cached, other = asyncio.run(scenario())
        assert [row.values for row in first.rows] == [{"name": "Entity a00", "value": 10}]
        assert cached.from_cache and cached.rows[0].values == first.rows[0].values
        assert not other.from_cache     # one shape, other literals: another result
        assert [row.values for row in other.rows] == [{"name": "Entity a01", "value": 20}]
        caches = door.stats()["tenant_caches"]["acme"]
        assert (caches["plan_cache_misses"], caches["plan_cache_hits"]) == (1, 2)
    finally:
        door.close()
        fleet.stop()


def test_texts_of_one_shape_parse_once():
    door = make_door()
    texts = [f"MATCH alpha WHERE value > {n} RETURN name LIMIT {n + 1}" for n in range(6)]
    try:
        async def scenario():
            for text in texts:
                assert not (await door.query("acme", text, "profile_rows")).from_cache
        asyncio.run(scenario())
        caches = door.stats()["tenant_caches"]["acme"]
        assert caches["plan_cache_misses"] == 1
        assert caches["plan_cache_hits"] == len(texts) - 1
        # every request planned its own literals
        assert door.fleet.query_router.executed == [
            f"MATCH alpha WHERE value > {n} RETURN name LIMIT {n + 1}" for n in range(6)
        ]
    finally:
        door.close()


def test_every_text_of_an_out_of_slice_shape_is_refused():
    door = make_door()     # tenant "acme": types {alpha}
    refused = [f"MATCH beta WHERE value > {n} RETURN name" for n in range(4)]
    refused.append('MATCH alpha WHERE name = "x" REACH part_of+ RETURN name')   # no TO type
    try:
        async def scenario():
            for text in refused:
                with pytest.raises(TenantIsolationError):
                    await door.query("acme", text, "profile_rows")
            served = await door.query("acme", "MATCH alpha WHERE value < 3 RETURN name",
                                      "profile_rows")
            assert served.rows
        asyncio.run(scenario())
        assert door.registry.stats()["acme"]["isolation_rejections"] == len(refused)
        assert door.metrics.tenant_snapshot("acme")["isolation_rejections"] == len(refused)
        assert door.fleet.query_router.executed == ["MATCH alpha WHERE value < 3 RETURN name"]
    finally:
        door.close()


@pytest.mark.parametrize("text", [
    "MATCH alpha WHERE name = ?",
    'MATCH alpha RETURN name LIMIT "5"',
    'MATCH alpha WHERE name = "x" LIMIT 5 trailing',
    "MATCH alpha WHERE value > 1 2",
    'CALL HeadOfState("x"',
    'CALL HeadOfState(?)',
])
def test_a_malformed_text_fails_as_its_own_parse_does(text):
    from repro.errors import KGQSyntaxError
    from repro.live.kgq import parse

    door = make_door()
    try:
        with pytest.raises(KGQSyntaxError) as parsed:
            parse(text)
        with pytest.raises(KGQSyntaxError) as served:
            asyncio.run(door.query("acme", text, "profile_rows"))
        assert str(served.value) == str(parsed.value)
        assert door.fleet.query_router.executed == []
    finally:
        door.close()


def test_a_pre_parsed_query_bypasses_the_result_cache():
    from repro.live.kgq import parse

    door = make_door()
    query = parse("MATCH alpha RETURN name")
    try:
        async def scenario():
            for _ in range(2):
                assert not (await door.query("acme", query, "profile_rows")).from_cache
        asyncio.run(scenario())
        assert len(door.fleet.query_router.executed) == 2
    finally:
        door.close()


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
        assert snapshot["executed"] == 1            # the repeat was a cache hit
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
    # A hit returns the stored row objects themselves, in a new list …
    hit = cache.get("k")
    assert hit == rows and hit is not rows
    assert hit[0] is rows[0]
    # … so the guarantee is structural: a stored or served row refuses writes …
    for row in (rows[0], hit[0]):
        with pytest.raises(TypeError):
            row.values["name"] = "CORRUPTED"
        with pytest.raises(TypeError):
            row.values.update(value=999)
        with pytest.raises(TypeError):
            del row.values["value"]
        with pytest.raises(AttributeError):
            row.witness = (("e1", "knows", "e2"),)
    # … and clearing or growing a returned list, or the stored one, changes
    # only that list.
    hit.clear()
    rows.append(QueryResultRow("e2", {"name": "Bob"}))
    rehit = cache.get("k")
    assert [(row.entity_id, row.values) for row in rehit] == [("e1", {"name": "Ada", "value": 1})]
    rehit.append(QueryResultRow("e3"))
    assert len(cache.get("k")) == 1


def test_result_rows_are_values_that_copy_and_pickle():
    witness = (("e1", "knows", "e2"),)
    row = QueryResultRow("e2", {"name": "Bob", "tags": ["a", "b"]}, witness)
    for twin in (copy.copy(row), copy.deepcopy(row), pickle.loads(pickle.dumps(row))):
        assert twin == row and twin.witness == witness
        assert type(twin.values) is RowValues
        assert list(twin.values) == ["name", "tags"]
        with pytest.raises(TypeError):
            twin.values["name"] = "CORRUPTED"
    writable = dict(row.values)
    writable["name"] = "Robert"
    assert row.values["name"] == "Bob"


def test_door_cache_hits_survive_callers_mutating_their_rows():
    door = make_door()
    text = "MATCH alpha RETURN name"
    try:
        async def scenario():
            first = await door.query("acme", text, "profile_rows")
            with pytest.raises(TypeError):
                first.rows[0].values["name"] = "CORRUPTED"
            first.rows.clear()
            rehit = await door.query("acme", text, "profile_rows")
            assert rehit.from_cache
            assert rehit.rows[0].values == {"name": "Entity e1"}
            with pytest.raises(TypeError):
                rehit.rows[0].values["name"] = "CORRUPTED"
            rehit.rows.append(QueryResultRow("view:v:e2", {"name": "Entity e2"}))
            again = await door.query("acme", text, "profile_rows")
            assert again.from_cache
            assert [row.values for row in again.rows] == [{"name": "Entity e1"}]
            # a hit serves the executor's own row objects, uncopied
            assert again.rows[0] is rehit.rows[0]
        asyncio.run(scenario())
        assert len(door.fleet.query_router.executed) == 1
    finally:
        door.close()


def test_result_cache_hits_make_no_plan_call(monkeypatch):
    door = make_door()
    planner = door.fleet.query_router.planner
    calls: list[object] = []
    plan = planner.plan
    monkeypatch.setattr(planner, "plan", lambda query: calls.append(query) or plan(query))
    try:
        async def scenario():
            await door.query("acme", 'MATCH alpha WHERE value = 1 RETURN name', "profile_rows")
            assert len(calls) == 1          # the shape's miss plans once, to scope-check
            for _ in range(5):
                hit = await door.query("acme", 'MATCH alpha WHERE value = 1 RETURN name', "profile_rows")
                assert hit.from_cache
            assert len(calls) == 1          # five result-cache hits plan nothing
            # a shape hit whose result misses plans once, on the miss
            await door.query("acme", 'MATCH alpha WHERE value = 2 RETURN name', "profile_rows")
            assert len(calls) == 2
        asyncio.run(scenario())
        caches = door.registry.stats()["acme"]
        assert caches["plan_cache_hits"] == 6 and caches["plan_cache_misses"] == 1
        assert caches["result_cache_hits"] == 5 and caches["result_cache_misses"] == 2
    finally:
        door.close()


# ------------------------------------------------------------------ #
# a request resolves its tenant once: offboarding cannot lose its rows
# ------------------------------------------------------------------ #
def test_tenant_removed_while_its_request_holds_a_slot_still_gets_rows():
    """``registry.remove`` during an in-flight request used to make the
    closing ``store_rows`` raise ``FrontDoorError("unknown tenant")`` after
    the query had run and been counted ``completed`` — the rows were lost.
    The tenant is removed while the request yields after it ran, still
    holding the only slot."""
    model = QueryModel()
    seed_model(model, random.Random(31), count=10)
    _, manager, _ = build_query_harness(model)
    manager.materialize()
    fleet = start_fleet(manager)
    text = "MATCH alpha REACH part_of* TO alpha RETURN name, value"
    expected = [(row.entity_id, row.values) for row in fleet.query(text, "profile_rows").rows]
    door = FrontDoor(fleet, max_concurrency=1)
    door.registry.register("acme", views={"profile_rows"})
    try:
        async def offboard():
            # the request ran and holds its slot through the yield
            assert door.stats()["executed"] == 1 and door._in_flight == 1
            door.registry.remove("acme")        # offboarded mid-request

        async def scenario():
            result, _ = await asyncio.gather(
                door.query("acme", text, "profile_rows"), offboard())
            return result

        result = asyncio.run(scenario())
        assert expected and [(row.entity_id, row.values) for row in result.rows] == expected
        assert door.metrics.tenant_snapshot("acme")["completed"] == 1
        assert door.stats()["in_flight"] == 0       # the slot came back
        with pytest.raises(FrontDoorError, match="unknown tenant"):
            asyncio.run(door.query("acme", text, "profile_rows"))
    finally:
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
