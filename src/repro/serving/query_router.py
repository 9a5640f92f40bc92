"""Whole-query KGQ execution over the replica fleet: one query, one replica.

Every replica holds a full copy of each view it serves, so the
:class:`QueryRouter` never splits a plan.  A KGQ is placed like a point read
of its own text: the router asks
:meth:`ShardRouter.eligible(plan.query.render(), view, consistency, dead)
<repro.serving.router.ShardRouter.eligible>` — the serving tier's one
placement rule — and runs the **whole** plan — MATCH pipeline or REACH
expansion — on the first replica it yields
(:meth:`~repro.serving.replica.ReplicaNode.query`).  Hashing the query text
spreads distinct queries over the fleet and keeps repeats of one text on one
replica, so its result cache stays warm.

The same walk serves plain queries, both sides of a cross-view join, the
broadcast probe, and the per-key owners of a shuffle join, so they skip
stale replicas, count fallbacks and raise
:class:`~repro.errors.StaleReadError` /
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
from repro.live.executor import (
    QueryResult,
    QueryResultRow,
    canonical_join_key,
    finalize_joined_rows,
    projected_join_key,
)
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
        self.broadcast_joins = 0             # joins that shipped the small side
        self.shuffle_joins = 0               # joins re-partitioned by key hash
        self.join_rows_broadcast = 0         # build rows shipped to the probing replica
        self.join_rows_shuffled = 0          # rows re-partitioned to key owners

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
        view_name: str,
        consistency: Consistency,
        dead: set[str],
        call,
    ):
        """Run *call(node)* on the first eligible owner of *key* that answers.

        A :class:`~repro.errors.ReplicaUnavailableError` from the chosen node
        (it died between placement and execution) adds it to *dead* — so the
        later steps of the same query skip it too —, counts one
        ``fragment_retries`` and moves on to the next eligible owner.
        """
        for node in self.router.eligible(key, view_name, consistency, dead):
            try:
                result = call(node)
            except ReplicaUnavailableError:
                dead.add(node.name)
                self.fragment_retries += 1
            else:
                self.fragments_dispatched += 1
                return result

    def _run_plan(
        self,
        plan: PhysicalPlan,
        view_name: str,
        consistency: Consistency,
        dead: set[str],
        use_cache: bool,
    ) -> QueryResult:
        """Run the whole *plan* on the replica its query text places it on."""
        return self._dispatch(
            plan.query.render(), view_name, consistency, dead,
            lambda node: node.query(plan, view_name, use_cache=use_cache),
        )

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
        the wall-clock of the routed call.
        """
        started = time.perf_counter()
        plan = self.compile(query)
        self.queries_routed += 1
        if plan.reach is not None:
            self.reach_queries += 1
        result = self._run_plan(plan, view_name, consistency, set(), use_cache)
        result.latency_ms = (time.perf_counter() - started) * 1000.0
        return result

    # -------------------------------------------------------------- #
    # distributed cross-view joins (broadcast / shuffle)
    # -------------------------------------------------------------- #
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
        strategy: str = "auto",
        broadcast_threshold: int = 64,
        limit: int | None = None,
        use_cache: bool = True,
    ) -> QueryResult:
        """Join two views' query results replica-side, result-identical to primary.

        Executes *right_query* over *right_view* and *left_query* over
        *left_view*, then joins the row sets on
        ``left_key == right_key`` (both must be projected columns; key
        equality is :func:`~repro.live.executor.canonical_join_key`) exactly
        as :func:`~repro.live.executor.join_results` would on the primary.
        The right side always runs first, whole, on the replica its text
        places it on; the join itself then takes one of two shapes:

        * **broadcast** — when the right side is small
          (``≤ broadcast_threshold`` rows, or ``strategy="broadcast"``) its
          rows are shipped to the one replica that runs the left plan, which
          probes them locally
          (:meth:`~repro.serving.replica.ReplicaNode.join_broadcast`) — the
          left side never materializes at the router;
        * **shuffle** — otherwise the left side is gathered too, both sides
          are re-partitioned by their canonical join-key value, each key
          going to the first eligible replica among the key's ring owners,
          and each replica joins the share it owns
          (:meth:`~repro.serving.replica.ReplicaNode.join_partition`), so
          per-replica join work is ~1/R of the primary-side join.

        Every replica call goes through the same placement rule as
        :meth:`execute`: *consistency* is checked on the replica chosen, and
        a replica dying mid-join hands its step to the next eligible owner.
        Side queries must be plain MATCH pipelines without LIMIT
        (:class:`~repro.errors.KGQPlanError` otherwise) — bound the joined
        result with *limit*.
        """
        started = time.perf_counter()
        if how not in ("inner", "left"):
            raise ServingError(f"unsupported join type {how!r}")
        if strategy not in ("auto", "broadcast", "shuffle"):
            raise ServingError(
                f"unknown join strategy {strategy!r}; "
                "use 'auto', 'broadcast', or 'shuffle'"
            )
        left_plan = self._join_side_plan(left_query, "left")
        right_plan = self._join_side_plan(right_query, "right")
        self.join_queries += 1
        dead: set[str] = set()
        right_result = self._run_plan(right_plan, right_view, consistency, dead, use_cache)
        examined = right_result.candidates_examined
        if strategy == "broadcast" or (
            strategy == "auto" and len(right_result.rows) <= broadcast_threshold
        ):
            self.broadcast_joins += 1
            self.join_rows_broadcast += len(right_result.rows)
            probed = self._dispatch(
                left_plan.query.render(), left_view, consistency, dead,
                lambda node: node.join_broadcast(
                    left_plan, left_view, right_result.rows,
                    left_key, right_key, how, use_cache=use_cache,
                ),
            )
            joined = probed.rows
            examined += probed.candidates_examined
        else:
            self.shuffle_joins += 1
            left_result = self._run_plan(left_plan, left_view, consistency, dead, use_cache)
            examined += left_result.candidates_examined
            joined = self._shuffle_join(
                left_view, consistency, dead,
                left_result.rows, right_result.rows, left_key, right_key, how,
            )
        return QueryResult(
            rows=finalize_joined_rows(joined, limit),
            latency_ms=(time.perf_counter() - started) * 1000.0,
            from_cache=False,
            candidates_examined=examined,
        )

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

    def _shuffle_join(
        self,
        view_name: str,
        consistency: Consistency,
        dead: set[str],
        left_rows: list[QueryResultRow],
        right_rows: list[QueryResultRow],
        left_key: str,
        right_key: str,
        how: str,
    ) -> list[QueryResultRow]:
        """Re-partition both sides by canonical join key and join per owner.

        Rows are grouped by canonical key, so both sides' rows with equal
        join keys always land on the same owner and no match can be split.
        An owner dying mid-join has its keys placed again over the
        survivors.
        """
        groups: dict[str, tuple[list[QueryResultRow], list[QueryResultRow]]] = {}
        for side, rows, column in ((0, left_rows, left_key), (1, right_rows, right_key)):
            for row in rows:
                key = canonical_join_key(projected_join_key(row, column))
                groups.setdefault(key, ([], []))[side].append(row)
        joined: list[QueryResultRow] = []
        pending = list(groups)
        while pending:
            by_owner: dict[str, list[str]] = {}
            for key in pending:
                owner = next(self.router.eligible(key, view_name, consistency, dead))
                by_owner.setdefault(owner.name, []).append(key)
            pending = []
            for name, keys in sorted(by_owner.items()):
                lefts = [row for key in keys for row in groups[key][0]]
                rights = [row for key in keys for row in groups[key][1]]
                try:
                    joined.extend(self.router.replicas[name].join_partition(
                        lefts, rights, left_key, right_key, how
                    ))
                except ReplicaUnavailableError:
                    dead.add(name)
                    self.fragment_retries += 1
                    pending.extend(keys)
                else:
                    self.fragments_dispatched += 1
                    self.join_rows_shuffled += len(lefts) + len(rights)
        return joined

    def explain(self, query: str | Query | CallQuery, view_name: str) -> list[str]:
        """EXPLAIN-style rendering: the plan plus the replica it would run on."""
        plan = self.compile(query)
        node = next(self.router.eligible(plan.query.render(), view_name, ANY, ()))
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
            "broadcast_joins": self.broadcast_joins,
            "shuffle_joins": self.shuffle_joins,
            "join_rows_broadcast": self.join_rows_broadcast,
            "join_rows_shuffled": self.join_rows_shuffled,
        }
