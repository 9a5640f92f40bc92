"""Whole-query KGQ execution over the replica fleet: one query, one replica.

Every replica holds a full copy of each view it serves, so the
:class:`QueryRouter` never splits a request.  A KGQ is placed like a point
read of its own text: the router asks
:meth:`ShardRouter.eligible(plan.query.render(), (view,), consistency)
<repro.serving.router.ShardRouter.eligible>` — the serving tier's one
placement rule — and runs the **whole** plan — MATCH pipeline or REACH
expansion — on the first replica it yields
(:meth:`~repro.serving.replica.ReplicaNode.query`).  Hashing the query text
only spreads distinct queries over the fleet: no replica keeps state keyed
by placement (results are cached once, per tenant, at the front door).

A cross-view join is one request too: it is placed by its left side's text
on a replica that serves both views and meets the consistency level on both,
and that replica runs both sides and the join
(:meth:`~repro.serving.replica.ReplicaNode.join`) at one state of its index.
The same walk serves plain queries and joins, so they skip stale replicas,
count fallbacks and raise :class:`~repro.errors.StaleReadError` /
:class:`~repro.errors.ReplicaUnavailableError` exactly as
:meth:`ShardRouter.read <repro.serving.router.ShardRouter.read>` does.

A replica that dies *between* placement and execution is handled the same
way: the call is re-dispatched to the next eligible owner (counted in
``fragment_retries``), so a crash mid-query degrades to a retried call,
never to a lost result.

The router keeps no plan cache: parsing and planning a text costs tens of
microseconds, callers that repeat texts at volume (the front door) hand it
compiled plans from their per-tenant LRUs, and a
:class:`~repro.live.planner.PhysicalPlan` passes through untouched.
"""

from __future__ import annotations

import time

from repro.errors import KGQPlanError, ReplicaUnavailableError, ServingError
from repro.live.executor import QueryResult
from repro.live.kgq import CallQuery, Query, default_virtual_operators, parse
from repro.live.planner import PhysicalPlan, QueryPlanner
from repro.serving.router import ANY, Consistency, ShardRouter


class QueryRouter:
    """KGQ execution over the fleet, each query placed whole on one replica."""

    def __init__(self, router: ShardRouter, planner: QueryPlanner | None = None) -> None:
        self.router = router
        self.planner = planner or QueryPlanner(default_virtual_operators())
        self.queries_routed = 0
        self.fragments_dispatched = 0        # replica calls that answered
        self.fragment_retries = 0            # re-dispatches after a mid-query death
        self.reach_queries = 0               # routed plans with a REACH stage
        self.join_queries = 0                # cross-view joins through execute_join

    def compile(self, query: str | Query | CallQuery | PhysicalPlan) -> PhysicalPlan:
        """Parse (a text) and plan *query*; no cache, tens of microseconds.

        An already-compiled :class:`PhysicalPlan` passes through untouched —
        the front door compiles through per-tenant plan caches and must not
        re-plan per execution.
        """
        if isinstance(query, PhysicalPlan):
            return query
        return self.planner.plan(parse(query) if isinstance(query, str) else query)

    # -------------------------------------------------------------- #
    # placement (per execution: membership and lag move constantly)
    # -------------------------------------------------------------- #
    def _dispatch(
        self,
        key: str,
        view_names: tuple[str, ...],
        consistency: Consistency,
        call,
    ):
        """Run *call(node)* on the first eligible owner of *key* that answers.

        A :class:`~repro.errors.ReplicaUnavailableError` from the chosen node
        (it died between placement and execution) counts one
        ``fragment_retries`` and moves on to the next eligible owner.
        """
        for node in self.router.eligible(key, view_names, consistency):
            try:
                result = call(node)
            except ReplicaUnavailableError:
                self.fragment_retries += 1
            else:
                self.fragments_dispatched += 1
                return result

    # -------------------------------------------------------------- #
    # execution
    # -------------------------------------------------------------- #
    def execute(
        self,
        query: str | Query | CallQuery | PhysicalPlan,
        view_name: str,
        consistency: Consistency = ANY,
        use_cache: bool = True,
    ) -> QueryResult:
        """Run *query* over the fleet's copy of *view_name* on one replica.

        The compiled plan is placed like a point read of its own text and
        runs whole — MATCH pipeline or REACH expansion — through
        :meth:`~repro.serving.replica.ReplicaNode.query`, so rows, ordering,
        ``candidates_examined`` and REACH witnesses are exactly what
        primary-side execution of the plan returns.  A replica dying
        mid-query is answered by the next eligible owner.  ``latency_ms`` is
        the wall-clock of the routed call.  *use_cache* is accepted and
        ignored: no replica caches results.
        """
        started = time.perf_counter()
        plan = self.compile(query)
        self.queries_routed += 1
        if plan.reach is not None:
            self.reach_queries += 1
        result = self._dispatch(
            plan.query.render(), (view_name,), consistency,
            lambda node: node.query(plan, view_name),
        )
        result.latency_ms = (time.perf_counter() - started) * 1000.0
        return result

    def execute_join(
        self,
        left_query: str | Query | CallQuery | PhysicalPlan,
        left_view: str,
        right_query: str | Query | CallQuery | PhysicalPlan,
        right_view: str,
        left_key: str,
        right_key: str,
        how: str = "inner",
        consistency: Consistency = ANY,
        limit: int | None = None,
    ) -> QueryResult:
        """Join two views' query results on one replica, identical to primary.

        The join is placed once, by its left side's text, on the first
        replica that serves **both** views and meets *consistency* on both,
        and runs whole there
        (:meth:`~repro.serving.replica.ReplicaNode.join`): both sides execute
        inside one hold of that replica's apply lock, so they read one
        replica state, and the rows join through
        :func:`~repro.live.executor.join_results` — the primary-side
        reference itself — on ``left_key == right_key`` (both must be
        projected columns).  A replica dying mid-join hands the whole join to
        the next eligible owner.  Side queries must be plain MATCH pipelines
        without LIMIT (:class:`~repro.errors.KGQPlanError` otherwise) — bound
        the joined result with *limit*.
        """
        started = time.perf_counter()
        if how not in ("inner", "left"):
            raise ServingError(f"unsupported join type {how!r}")
        left_plan = self._join_side_plan(left_query, "left")
        right_plan = self._join_side_plan(right_query, "right")
        self.join_queries += 1
        result = self._dispatch(
            left_plan.query.render(), (left_view, right_view), consistency,
            lambda node: node.join(
                left_plan, left_view, right_plan, right_view,
                left_key, right_key, how, limit,
            ),
        )
        result.latency_ms = (time.perf_counter() - started) * 1000.0
        return result

    def _join_side_plan(
        self, query: str | Query | CallQuery | PhysicalPlan, side: str
    ) -> PhysicalPlan:
        """Compile and validate one join side's plan."""
        plan = self.compile(query)
        if plan.reach is not None:
            raise KGQPlanError(
                f"the {side} side of a distributed join must be a plain MATCH "
                "pipeline, not a REACH query"
            )
        if plan.limit is not None:
            raise KGQPlanError(
                f"the {side} side of a distributed join must not carry LIMIT — "
                "bound the joined result with execute_join(limit=...)"
            )
        return plan

    def explain(self, query: str | Query | CallQuery, view_name: str) -> list[str]:
        """EXPLAIN-style rendering: the plan plus the replica it would run on."""
        plan = self.compile(query)
        node = next(self.router.eligible(plan.query.render(), (view_name,), ANY))
        return [*plan.explain(), f"Replica({node.name}, view={view_name})"]

    # -------------------------------------------------------------- #
    # introspection
    # -------------------------------------------------------------- #
    def stats(self) -> dict[str, float]:
        """Operational counters of the distributed query path.

        Placement counters (fallbacks, consistency rejections) belong to the
        :class:`ShardRouter` whose walk counts them, for reads and queries
        alike.
        """
        return {
            "queries_routed": self.queries_routed,
            "fragments_dispatched": self.fragments_dispatched,
            "fragment_retries": self.fragment_retries,
            "reach_queries": self.reach_queries,
            # Nothing routes in rounds any more; bench_e2e/layers.py reads the key.
            "reach_rounds": 0,
            "join_queries": self.join_queries,
            # Nothing re-partitions rows any more; bench_e2e/layers.py reads the key.
            "join_rows_shuffled": 0,
        }
