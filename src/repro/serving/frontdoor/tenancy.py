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

* a **compiled-plan LRU** keyed by query text; plans are validated against
  the tenant's scope *before* insertion, so a cached plan is a proven-safe
  plan;
* **result caches**, one :class:`QueryCache` per ``(tenant, view)``,
  invalidated per view when the primary commits (and the fleet ships) a
  delta for that view — a tenant only ever re-reads its own
  freshly-invalidated cache, never another tenant's.  They are the read
  path's only result cache: replicas and their executors execute every
  plan they are handed.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.errors import FrontDoorError, KGQPlanError, LiveGraphError, TenantIsolationError
from repro.live.executor import QueryResultRow
from repro.live.kgq import parse
from repro.live.planner import PhysicalPlan, QueryPlanner, ensure_plan_within_types
from repro.serving.frontdoor.admission import TokenBucket


class QueryCache:
    """Tiny LRU cache of result rows keyed by query text.

    Rows are defensively copied on both :meth:`put` and :meth:`get` (the
    ``values`` dict of every row), so a caller mutating a returned row can
    never poison later cache hits and a caller mutating its input rows after
    ``put`` cannot corrupt the cached entry.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise LiveGraphError("the query cache needs positive capacity")
        self.capacity = capacity
        self._entries: OrderedDict[str, list[QueryResultRow]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def _copy_rows(rows: list[QueryResultRow]) -> list[QueryResultRow]:
        # Witnesses are immutable tuples, so sharing them across copies is safe.
        return [
            QueryResultRow(entity_id=row.entity_id, values=dict(row.values), witness=row.witness)
            for row in rows
        ]

    def get(self, key: str) -> list[QueryResultRow] | None:
        """Cached rows for *key* (fresh copies), refreshing recency."""
        rows = self._entries.get(key)
        if rows is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return self._copy_rows(rows)

    def put(self, key: str, rows: list[QueryResultRow]) -> None:
        """Insert copies of *rows* for *key*, evicting the least-recently-used."""
        self._entries[key] = self._copy_rows(rows)
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
    """Runtime state: bucket, plan LRU, per-view result caches, counters."""

    def __init__(self, profile: TenantProfile, clock: Callable[[], float]) -> None:
        self.profile = profile
        self.bucket = TokenBucket(profile.rate, profile.burst, clock=clock)
        self.plans: OrderedDict[str, PhysicalPlan] = OrderedDict()
        self.result_caches: dict[str, QueryCache] = {}
        self.plan_hits = 0
        self.plan_misses = 0
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
    ) -> PhysicalPlan:
        """Compile *query* through the tenant's own plan cache, scope-checked.

        Query text hits the per-tenant LRU; pre-parsed queries plan directly.
        Every plan — cached or fresh — was validated against the tenant's
        entity-type slice before it became visible, so a cache hit is a
        proven-safe plan and never re-validates.
        """
        if not isinstance(query, str):
            plan = query if isinstance(query, PhysicalPlan) else planner.plan(query)
            self._validate(state, plan)
            return plan
        with self._lock:
            plan = state.plans.get(query)
            if plan is not None:
                state.plans.move_to_end(query)
                state.plan_hits += 1
                return plan
            state.plan_misses += 1
        plan = planner.plan(parse(query))
        self._validate(state, plan)
        with self._lock:
            state.plans[query] = plan
            while len(state.plans) > state.profile.plan_cache_size:
                state.plans.popitem(last=False)
        return plan

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
        self, state: _TenantState, view_name: str, key: str
    ) -> list[QueryResultRow] | None:
        """The tenant's cached rows for *key* on *view_name* (None on miss)."""
        with self._lock:
            cache = state.result_caches.get(view_name)
            if cache is None:
                return None
            return cache.get(key)

    def store_rows(
        self, state: _TenantState, view_name: str, key: str, rows: list[QueryResultRow]
    ) -> None:
        """Cache *rows* under the tenant's own cache for *view_name*."""
        with self._lock:
            cache = state.result_caches.get(view_name)
            if cache is None:
                cache = QueryCache(capacity=state.profile.result_cache_size)
                state.result_caches[view_name] = cache
            cache.put(key, rows)

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
                caches = state.result_caches.values()
                report[tenant_id] = {
                    "plan_cache_hits": state.plan_hits,
                    "plan_cache_misses": state.plan_misses,
                    "result_cache_hits": sum(cache.hits for cache in caches),
                    "result_cache_misses": sum(cache.misses for cache in caches),
                    "result_cache_evictions": sum(cache.evictions for cache in caches),
                    "result_invalidations": state.result_invalidations,
                    "isolation_rejections": state.isolation_rejections,
                    "bucket_acquired": state.bucket.acquired,
                    "bucket_rejected": state.bucket.rejected,
                }
        return report
