"""Tenant scoping: allowed views, KG slices, and per-tenant caches.

A tenant is scoped twice, and both boundaries are enforced at *plan* time —
before any replica sees the plan:

* **views** — the set of served views the tenant may query.  A request
  naming any other view raises :class:`~repro.errors.TenantIsolationError`;
  one tenant's query can never touch another tenant's views.
* **entity types** — the tenant's slice of the KG.  KGQ's restricted
  expressiveness makes a plan's type scope decidable statically
  (:func:`repro.live.planner.plan_scope`), so a MATCH outside the slice is
  refused at compile time, not filtered after execution.

Caches are strictly per tenant — separate objects, so a cross-tenant cache
hit is structurally impossible, not merely key-disambiguated:

* a **shape LRU**: a text's string and number literals are lifted out
  (:func:`repro.live.kgq.lift_literals`), and the rest, its *shape*, keys a
  parsed :class:`~repro.live.kgq.QueryShape`.  Templated texts that differ
  only in their literals parse once.  A shape is scope-checked *before*
  insertion — the MATCH and ``TO`` types are part of it — so a cached shape
  is a proven-safe shape; every request binds its literals into it, and
  the bound query is planned only when the result cache misses;
* **result caches**, one :class:`QueryCache` per ``(tenant, view)``, keyed
  by ``(shape, literals, consistency)`` and invalidated per view when the
  primary commits (and the fleet ships) a delta for that view — a tenant
  only ever re-reads its own freshly-invalidated cache, never another
  tenant's.  They are the read path's only result cache: replicas and their
  executors execute every plan they are handed.  An entry holds the
  executor's own immutable rows and a hit shares them, copying nothing.
  Their hit, miss and eviction counters live on the tenant, so an
  invalidation keeps them.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Hashable, Iterable
from dataclasses import dataclass
from typing import Callable

from repro.errors import (
    FrontDoorError,
    KGQPlanError,
    KGQSyntaxError,
    LiveGraphError,
    TenantIsolationError,
)
from repro.live.executor import QueryResultRow
from repro.live.kgq import CallQuery, Query, QueryShape, lift_literals, parse, parse_shape
from repro.live.planner import PhysicalPlan, QueryPlanner, ensure_plan_within_types
from repro.serving.frontdoor.admission import TokenBucket


class QueryCache:
    """Tiny LRU cache of result rows.

    An entry holds the executor's own rows as a tuple, and a hit returns a
    new list of those same row objects: nothing is copied.  A row is an
    immutable value (:class:`~repro.live.executor.QueryResultRow`, whose
    ``values`` refuse writes), so no caller can poison a later hit — writing
    to a row raises, and clearing or appending to a returned list changes
    only that list.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise LiveGraphError("the query cache needs positive capacity")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, tuple[QueryResultRow, ...]] = OrderedDict()
        self.evictions = 0

    def get(self, key: Hashable) -> list[QueryResultRow] | None:
        """Cached rows for *key* (a new list of the stored rows), refreshing
        recency."""
        rows = self._entries.get(key)
        if rows is None:
            return None
        self._entries.move_to_end(key)
        return list(rows)

    def put(self, key: Hashable, rows: Iterable[QueryResultRow]) -> None:
        """Hold *rows* for *key*, evicting the least-recently-used."""
        self._entries[key] = tuple(rows)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's isolation boundary and admission budget.

    ``entity_types=None`` grants the whole KG slice (every type); an empty
    frozenset forbids all typed queries.  ``rate``/``burst`` parameterize the
    tenant's token bucket (requests per second, burst size).
    """

    tenant_id: str
    views: frozenset[str]
    entity_types: frozenset[str] | None = None
    rate: float = 100.0
    burst: float = 50.0
    plan_cache_size: int = 128
    result_cache_size: int = 256


class _TenantState:
    """Runtime state: bucket, shape LRU, per-view result caches, counters."""

    def __init__(self, profile: TenantProfile, clock: Callable[[], float]) -> None:
        self.profile = profile
        self.bucket = TokenBucket(profile.rate, profile.burst, clock=clock)
        self.shapes: OrderedDict[str, QueryShape] = OrderedDict()
        self.result_caches: dict[str, QueryCache] = {}
        self.plan_hits = 0
        self.plan_misses = 0
        # Result-cache counters outlive the per-view caches they count.
        self.result_hits = 0
        self.result_misses = 0
        self.result_evictions = 0
        self.result_invalidations = 0
        self.isolation_rejections = 0


class TenantRegistry:
    """The tenant catalog the front door admits and scopes requests against.

    Thread-safe: the front door's event loop resolves tenants and caches
    results while view-maintenance threads fire invalidation events.
    """

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock = clock if clock is not None else time.monotonic
        self._tenants: dict[str, _TenantState] = {}
        self._lock = threading.Lock()

    # -------------------------------------------------------------- #
    # membership
    # -------------------------------------------------------------- #
    def register(
        self,
        tenant_id: str,
        views: frozenset[str] | set[str] | tuple[str, ...] | list[str],
        entity_types: frozenset[str] | set[str] | tuple[str, ...] | list[str] | None = None,
        rate: float = 100.0,
        burst: float = 50.0,
        plan_cache_size: int = 128,
        result_cache_size: int = 256,
    ) -> TenantProfile:
        """Onboard *tenant_id* with its allowed views, KG slice, and budget."""
        if not tenant_id:
            raise FrontDoorError("tenant id must be non-empty")
        if plan_cache_size <= 0:
            raise FrontDoorError("tenant plan cache needs positive capacity")
        if result_cache_size <= 0:
            raise FrontDoorError("tenant result cache needs positive capacity")
        profile = TenantProfile(
            tenant_id=tenant_id,
            views=frozenset(views),
            entity_types=None if entity_types is None else frozenset(entity_types),
            rate=rate,
            burst=burst,
            plan_cache_size=plan_cache_size,
            result_cache_size=result_cache_size,
        )
        with self._lock:
            if tenant_id in self._tenants:
                raise FrontDoorError(f"tenant {tenant_id!r} is already registered")
            self._tenants[tenant_id] = _TenantState(profile, self._clock)
        return profile

    def remove(self, tenant_id: str) -> None:
        """Offboard a tenant; its caches and budget vanish with it."""
        with self._lock:
            self._tenants.pop(tenant_id, None)

    def get(self, tenant_id: str) -> _TenantState:
        """The runtime state of *tenant_id*; unknown tenants are refused.

        A request resolves its tenant once, on arrival, and hands the state
        to the methods below: a tenant removed while its request is in flight
        still gets its answer (the orphaned state is simply dropped after).
        """
        with self._lock:
            state = self._tenants.get(tenant_id)
        if state is None:
            raise FrontDoorError(f"unknown tenant {tenant_id!r}")
        return state

    # -------------------------------------------------------------- #
    # plan-time enforcement
    # -------------------------------------------------------------- #
    def ensure_view_allowed(self, state: _TenantState, view_name: str) -> None:
        """Refuse a view outside the tenant's allowed set (hard boundary)."""
        if view_name not in state.profile.views:
            state.isolation_rejections += 1
            raise TenantIsolationError(
                f"tenant {state.profile.tenant_id!r} is not allowed to query "
                f"view {view_name!r} (allowed: {sorted(state.profile.views)})"
            )

    def compile(
        self, state: _TenantState, query: object, planner: QueryPlanner
    ) -> tuple[PhysicalPlan | Query | CallQuery, tuple[str, tuple[str, ...]] | None]:
        """Compile *query* through the tenant's own shape cache, scope-checked.

        Returns what to run and, for a text, its ``(shape, literals)`` — the
        text's identity for result caching.  A text is lifted
        (:func:`~repro.live.kgq.lift_literals`) and its shape looked up in
        the per-tenant LRU.  A hit binds the literals and returns the bound
        query unplanned: the caller plans it (about 20 µs) only when the
        result cache misses, so the planner alone still chooses each seed
        and a result-cache hit plans nothing.  A miss parses the shape once,
        plans the bound query and returns the plan; the shape becomes
        visible only after that plan was validated against the tenant's
        entity-type slice.  The types it checks are part of the shape, so a
        shape hit is proven-safe and never re-validates.  Syntax and bind
        refusals raise here, on a hit or a miss.  Pre-parsed queries plan
        and validate directly and have no identity (``None``).
        """
        if not isinstance(query, str):
            plan = query if isinstance(query, PhysicalPlan) else planner.plan(query)
            self._validate(state, plan)
            return plan, None
        shape, literals = lift_literals(query)
        with self._lock:
            parsed = state.shapes.get(shape)
            if parsed is not None:
                state.shapes.move_to_end(shape)
                state.plan_hits += 1
            else:
                state.plan_misses += 1
        if parsed is not None:
            return parsed.bind(literals), (shape, literals)
        try:
            parsed = parse_shape(shape)
        except KGQSyntaxError:
            parse(query)        # raises the error the client's own text has
            raise
        plan = planner.plan(parsed.bind(literals))
        self._validate(state, plan)
        with self._lock:
            state.shapes[shape] = parsed
            while len(state.shapes) > state.profile.plan_cache_size:
                state.shapes.popitem(last=False)
        return plan, (shape, literals)

    def _validate(self, state: _TenantState, plan: PhysicalPlan) -> None:
        try:
            ensure_plan_within_types(plan, state.profile.entity_types)
        except KGQPlanError as exc:
            state.isolation_rejections += 1
            raise TenantIsolationError(
                f"tenant {state.profile.tenant_id!r}: {exc}"
            ) from None

    # -------------------------------------------------------------- #
    # per-tenant result caches
    # -------------------------------------------------------------- #
    def cached_rows(
        self, state: _TenantState, view_name: str, key: Hashable
    ) -> list[QueryResultRow] | None:
        """The tenant's cached rows for *key* on *view_name* (None on miss)."""
        with self._lock:
            cache = state.result_caches.get(view_name)
            rows = None if cache is None else cache.get(key)
            if rows is None:
                state.result_misses += 1
            else:
                state.result_hits += 1
            return rows

    def store_rows(
        self, state: _TenantState, view_name: str, key: Hashable, rows: list[QueryResultRow]
    ) -> None:
        """Cache *rows* under the tenant's own cache for *view_name*."""
        with self._lock:
            cache = state.result_caches.get(view_name)
            if cache is None:
                cache = QueryCache(capacity=state.profile.result_cache_size)
                state.result_caches[view_name] = cache
            evicted = cache.evictions
            cache.put(key, rows)
            state.result_evictions += cache.evictions - evicted

    def invalidate_view(self, view_name: str) -> int:
        """Drop every tenant's result cache for *view_name*; returns tenants hit.

        Called when the primary commits (and the fleet ships) a delta for the
        view.  Only caches for that view are dropped — each tenant's other
        views keep serving — and only tenants that had actually cached
        results for it are counted.
        """
        invalidated = 0
        with self._lock:
            for state in self._tenants.values():
                cache = state.result_caches.pop(view_name, None)
                if cache is not None:
                    state.result_invalidations += 1
                    invalidated += 1
        return invalidated

    # -------------------------------------------------------------- #
    # introspection
    # -------------------------------------------------------------- #
    def stats(self) -> dict[str, dict[str, object]]:
        """Per-tenant cache and isolation counters."""
        with self._lock:
            report = {}
            for tenant_id, state in sorted(self._tenants.items()):
                report[tenant_id] = {
                    "plan_cache_hits": state.plan_hits,
                    "plan_cache_misses": state.plan_misses,
                    "result_cache_hits": state.result_hits,
                    "result_cache_misses": state.result_misses,
                    "result_cache_evictions": state.result_evictions,
                    "result_invalidations": state.result_invalidations,
                    "isolation_rejections": state.isolation_rejections,
                    "bucket_acquired": state.bucket.acquired,
                    "bucket_rejected": state.bucket.rejected,
                }
        return report
