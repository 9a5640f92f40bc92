"""The multi-tenant asyncio front door over the serving fleet.

:class:`FrontDoor` is the request layer the paper's "millions of users" hit:
an asyncio surface accepting per-tenant KGQ requests with deadlines and
priority classes, executing the fleet's synchronous routed query
(:meth:`~repro.serving.fleet.ServingFleet.query`), and refusing work
honestly when saturated.  One request flows through:

1. **tenancy** — the tenant is resolved once, on arrival, and the query
   compiled through the tenant's own shape cache (the only plan cache on the
   read path: a text's literals are lifted out, its shape is parsed once,
   and each request binds its literals; a bound query is planned only when
   the result cache misses), with the view and entity-type boundary
   enforced at plan time
   (:class:`~repro.serving.frontdoor.tenancy.TenantRegistry`);
2. **admission** — deadline-already-expired check, per-tenant token bucket,
   then either a free slot or the bounded priority queue; refusals
   raise typed :class:`~repro.errors.OverloadedError` /
   :class:`~repro.errors.DeadlineExceededError` carrying ``retry_after``
   (:mod:`~repro.serving.frontdoor.admission`);
3. **serving** — per-tenant result cache, keyed by the text's shape, its
   literals and the consistency level, and invalidated per view when the
   primary commits a delta; a hit returns the executor's own immutable rows
   in a new list, unplanned and uncopied.  Else the plan runs on one
   replica of the fleet.  The per-tenant caches are the read path's only
   result cache (replicas cache nothing), so a cross-tenant hit is
   structurally impossible.  Every plan, MATCH and REACH, runs inline on
   the event loop (a worker thread would hold the one interpreter lock for
   the whole plan anyway); the door then yields once (``asyncio.sleep(0)``)
   still holding the slot, so other threads get the lock and arrivals meet
   the concurrency gate;
4. **observability** — every outcome and served latency streams into
   :class:`~repro.serving.frontdoor.metrics.ServingMetrics`, surfaced by
   :meth:`FrontDoor.stats`.

Deadlines bound *waiting*, not execution: a dispatched request runs to
completion (the synchronous fleet call cannot be cancelled mid-query), but
it can never sit in the queue past its deadline and an expired request is
never dispatched.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable

from repro.errors import (
    DeadlineExceededError,
    FrontDoorError,
    OverloadedError,
    TenantIsolationError,
)
from repro.live.executor import QueryResult
from repro.live.planner import PhysicalPlan
from repro.serving.frontdoor.admission import (
    AdmissionQueue,
    Priority,
    Waiter,
    deadline_error,
)
from repro.serving.frontdoor.metrics import ServingMetrics
from repro.serving.frontdoor.tenancy import TenantRegistry
from repro.serving.router import ANY, Consistency

#: Journal-event kinds that change a view's served content.  ``advance`` is a
#: watermark-only event (a flush that proved the view unaffected) — cached
#: results stay valid through it.
_CONTENT_EVENTS = frozenset({"append", "truncate"})


class FrontDoor:
    """Admission-controlled, tenant-isolated asyncio serving surface.

    *fleet* supplies the query router (``fleet.query_router``) and
    the primary view manager whose journal events drive per-view cache
    invalidation (``fleet.manager``); *registry* scopes tenants.  All
    coroutine methods must be driven from one event loop.  Every plan runs
    on that loop, and each request yields once after it ran, still holding
    its slot.  ``max_concurrency`` in-flight requests is the global
    concurrency gate, then the bounded queue, then load shedding.
    """

    def __init__(
        self,
        fleet,
        registry: TenantRegistry | None = None,
        max_concurrency: int = 8,
        queue_capacity: int = 64,
        default_deadline: float | None = None,
        clock: Callable[[], float] | None = None,
        retry_after_floor: float = 0.05,
    ) -> None:
        if max_concurrency <= 0:
            raise FrontDoorError("the front door needs at least one slot")
        if default_deadline is not None and default_deadline <= 0:
            raise FrontDoorError("the default deadline must be positive seconds")
        self.fleet = fleet
        self.query_router = fleet.query_router
        self.manager = fleet.manager
        self._clock = clock if clock is not None else time.monotonic
        self.registry = registry if registry is not None else TenantRegistry(clock=self._clock)
        self.max_concurrency = max_concurrency
        self.default_deadline = default_deadline
        self.retry_after_floor = retry_after_floor
        self.metrics = ServingMetrics()
        self.queue = AdmissionQueue(queue_capacity, clock=self._clock)
        self._in_flight = 0
        self._max_in_flight = 0
        self.executed = 0
        self._seq = 0
        self._ewma_service_s = 0.01     # drain estimate seed; updated per completion
        self._closed = False
        self.view_invalidations = 0
        # Shipped deltas invalidate per-tenant result caches per view; the
        # listener fires on the same committed journal events the shipper
        # consumes, from maintenance threads (the registry is thread-safe).
        self._journal_listener = self._on_journal_event
        self.manager.add_journal_listener(self._journal_listener)

    # -------------------------------------------------------------- #
    # the request path
    # -------------------------------------------------------------- #
    async def query(
        self,
        tenant_id: str,
        query,
        view_name: str,
        consistency: Consistency = ANY,
        priority: Priority = Priority.NORMAL,
        deadline: float | None = None,
        use_cache: bool = True,
    ) -> QueryResult:
        """Serve one tenant KGQ over the fleet, under admission control.

        *deadline* is relative seconds (``None`` falls back to the door's
        ``default_deadline``); an already-expired deadline is refused before
        it can consume tokens or a slot.  *use_cache* switches the tenant's
        result cache, the read path's only one: ``False`` neither reads nor
        fills it, and neither does a pre-parsed query, which has no text to
        key it by.  Raises
        :class:`~repro.errors.TenantIsolationError` for boundary violations,
        :class:`~repro.errors.OverloadedError` (with ``retry_after``) for
        rate-limit and shed refusals, and
        :class:`~repro.errors.DeadlineExceededError` for expired requests.
        Fleet-side errors (stale reads, dead replicas) propagate unchanged
        after being counted.
        """
        if self._closed:
            raise FrontDoorError("the front door is closed")
        state = self.registry.get(tenant_id)
        self.metrics.count(tenant_id, "requests")
        arrived = self._clock()

        try:
            self.registry.ensure_view_allowed(state, view_name)
            plan, identity = self.registry.compile(state, query, self.query_router.planner)
        except TenantIsolationError:
            self.metrics.count(tenant_id, "isolation_rejections")
            raise

        effective = deadline if deadline is not None else self.default_deadline
        if effective is not None and effective <= 0:
            self.metrics.count(tenant_id, "deadline_exceeded")
            raise deadline_error(tenant_id, "already expired on arrival")
        absolute_deadline = arrived + effective if effective is not None else None

        wait = state.bucket.try_acquire()
        if wait > 0.0:
            self.metrics.count(tenant_id, "rate_limited")
            raise OverloadedError(
                f"tenant {tenant_id!r} exceeded its request rate "
                f"({state.profile.rate}/s, burst {state.profile.burst})",
                retry_after=max(wait, self.retry_after_floor),
            )

        use_cache = use_cache and identity is not None
        if use_cache:
            cache_key = (*identity, consistency)
            rows = self.registry.cached_rows(state, view_name, cache_key)
            if rows is not None:
                latency_ms = (self._clock() - arrived) * 1000.0
                self.metrics.count(tenant_id, "admitted")
                self.metrics.count(tenant_id, "completed")
                self.metrics.count(tenant_id, "cache_hits")
                self.metrics.observe_latency(tenant_id, latency_ms)
                return QueryResult(rows=rows, latency_ms=latency_ms, from_cache=True)

        if not isinstance(plan, PhysicalPlan):
            plan = self.query_router.planner.plan(plan)     # a shape hit, bound
        try:
            await self._acquire_slot(priority, absolute_deadline, tenant_id)
        except OverloadedError:
            self.metrics.count(tenant_id, "shed")
            raise
        except DeadlineExceededError:
            self.metrics.count(tenant_id, "deadline_exceeded")
            raise

        self.metrics.count(tenant_id, "admitted")
        try:
            if absolute_deadline is not None and self._clock() > absolute_deadline:
                self.metrics.count(tenant_id, "deadline_exceeded")
                raise deadline_error(tenant_id, "before dispatch")
            self.executed += 1
            started_execution = self._clock()
            try:
                result = self.query_router.execute(plan, view_name, consistency)
            except Exception:
                self.metrics.count(tenant_id, "execution_errors")
                raise
            elapsed = self._clock() - started_execution
            self._ewma_service_s = 0.8 * self._ewma_service_s + 0.2 * elapsed
            # The request never let go of the interpreter lock: yield once, or
            # the writer and replica-apply threads each wait out the forced
            # switch interval at every hand-off between requests.  The slot is
            # held through the yield, so arrivals meanwhile queue or shed.
            await asyncio.sleep(0)
        finally:
            self._release_slot()

        latency_ms = (self._clock() - arrived) * 1000.0
        self.metrics.count(tenant_id, "completed")
        self.metrics.observe_latency(tenant_id, latency_ms)
        if use_cache:
            self.registry.store_rows(state, view_name, cache_key, result.rows)
        return result

    # -------------------------------------------------------------- #
    # the concurrency gate
    # -------------------------------------------------------------- #
    async def _acquire_slot(
        self, priority: Priority, deadline: float | None, tenant_id: str
    ) -> None:
        """Take a slot, queueing (bounded, deadline-aware) when busy."""
        if self._in_flight < self.max_concurrency:
            self._in_flight += 1
            self._max_in_flight = max(self._max_in_flight, self._in_flight)
            return
        loop = asyncio.get_running_loop()
        self._seq += 1
        waiter = Waiter(
            priority=int(priority),
            seq=self._seq,
            tenant_id=tenant_id,
            deadline=deadline,
            future=loop.create_future(),
        )
        displaced = self.queue.offer(waiter, self._drain_estimate())
        if displaced is not None:
            future = displaced.future
            if future is not None and not future.done():
                future.set_exception(OverloadedError(
                    f"tenant {displaced.tenant_id!r}: request shed from the "
                    f"admission queue by a higher-priority arrival",
                    retry_after=self._drain_estimate(),
                ))
        remaining = None if deadline is None else deadline - self._clock()
        try:
            await asyncio.wait_for(asyncio.shield(waiter.future), timeout=remaining)
        except (asyncio.TimeoutError, asyncio.CancelledError) as exc:
            future = waiter.future
            if future.done() and not future.cancelled() and future.exception() is None:
                # The slot was granted in the same instant the wait ended:
                # hand it straight to the next waiter instead of leaking it.
                self._release_slot()
            else:
                self.queue.discard(waiter)
                future.cancel()
            if isinstance(exc, asyncio.CancelledError):
                raise
            raise deadline_error(tenant_id, "while queued for admission") from None

    def _release_slot(self) -> None:
        """Hand the freed slot to the best live waiter, or retire it."""
        while True:
            waiter, expired = self.queue.pop_ready(self._clock())
            for dead in expired:
                # The waiter's own query() counts the refusal it raises.
                future = dead.future
                if future is not None and not future.done():
                    future.set_exception(
                        deadline_error(dead.tenant_id, "while queued for admission")
                    )
            if waiter is None:
                self._in_flight -= 1
                return
            future = waiter.future
            if future is not None and not future.done():
                future.set_result(None)     # slot transferred, in_flight unchanged
                return
            # The waiter timed out or was cancelled concurrently; try the next.

    def _drain_estimate(self) -> float:
        """Expected seconds until a shed/refused request could be admitted."""
        backlog = self.queue.depth + 1
        estimate = backlog * self._ewma_service_s * self._in_flight / self.max_concurrency
        return max(estimate, self.retry_after_floor)

    # -------------------------------------------------------------- #
    # invalidation
    # -------------------------------------------------------------- #
    def _on_journal_event(self, event) -> None:
        if event.kind in _CONTENT_EVENTS:
            self.view_invalidations += self.registry.invalidate_view(event.view_name)

    # -------------------------------------------------------------- #
    # observability and lifecycle
    # -------------------------------------------------------------- #
    def stats(self) -> dict[str, object]:
        """One self-describing snapshot of the whole serving funnel.

        Combines the metrics layer (per-tenant counters, latency
        percentiles), the saturation gauges (queue depth / high-water mark,
        in-flight), the count of executed plans, the registry's
        plan- and result-cache counters, and the query router's dispatch and
        join stats.
        """
        return {
            **self.metrics.snapshot(),
            "in_flight": self._in_flight,
            "max_in_flight": self._max_in_flight,
            "executed": self.executed,
            "max_concurrency": self.max_concurrency,
            "queue": self.queue.stats(),
            "view_invalidations": self.view_invalidations,
            "tenant_caches": self.registry.stats(),
            "query_router": self.query_router.stats(),
        }

    def close(self) -> None:
        """Detach from the view manager and refuse new requests.

        Idempotent.  Requests already admitted or queued are still served
        while a loop drives them — close from outside the event loop after
        request traffic stopped.
        """
        if self._closed:
            return
        self._closed = True
        self.manager.remove_journal_listener(self._journal_listener)
