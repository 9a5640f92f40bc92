"""Whole-query KGQ execution over the replica fleet: one query, one replica.

Every replica holds a full copy of each view it serves, so the
:class:`QueryRouter` never splits a plan.  A KGQ is compiled **once** (plans
are cached by query text) and placed like a point read of its own text: the
router walks :meth:`ShardRouter.owners(plan.query.render())
<repro.serving.router.ShardRouter.owners>` and runs the **whole** plan —
MATCH pipeline or REACH expansion — on the first replica that is alive,
serves the view and satisfies the requested
:class:`~repro.serving.router.Consistency` level
(:meth:`~repro.serving.replica.ReplicaNode.query`).  Hashing the query text
spreads distinct queries over the fleet and keeps repeats of one text on one
replica, so its result cache stays warm.

That one placement rule (:meth:`QueryRouter._eligible_owners`) serves plain
queries, both sides of a cross-view join, the broadcast probe, and the
per-key owners of a shuffle join.  Replicas that fail the consistency check
are skipped for the next owner on the ring — exactly the fallback walk a
point read performs — and when no live replica can legally serve the view
the router raises an honest :class:`~repro.errors.StaleReadError` that names
each lagging replica and how far it lags, or
:class:`~repro.errors.ReplicaUnavailableError` when no live replica serves
the view at all.

A replica that dies *between* placement and execution is handled the same
way: the call is re-dispatched to the next eligible owner (counted in
``fragment_retries``), so a crash mid-query degrades to a retried call,
never to a lost result.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

from repro.errors import (
    KGQPlanError,
    ReplicaUnavailableError,
    ServingError,
    StaleReadError,
)
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
    """Compile-once KGQ execution, each query placed whole on one replica."""

    def __init__(
        self,
        router: ShardRouter,
        planner: QueryPlanner | None = None,
        plan_cache_size: int = 256,
    ) -> None:
        if plan_cache_size <= 0:
            raise ServingError("the query router's plan cache needs capacity")
        self.router = router
        self.planner = planner or QueryPlanner(default_virtual_operators())
        self.plan_cache_size = plan_cache_size
        self._plans: OrderedDict[str, PhysicalPlan] = OrderedDict()
        # Queries are served concurrently; the LRU's get/move/evict sequence
        # must not interleave across threads (a racing eviction would turn a
        # cache hit into a KeyError).
        self._plans_lock = threading.Lock()
        self.queries_routed = 0
        self.fragments_dispatched = 0        # replica calls that answered
        self.fragment_retries = 0            # re-dispatches after a mid-query death
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0           # text compiles that had to plan
        self.plan_cache_evictions = 0        # LRU entries pushed out by capacity
        self.consistency_rejections = 0      # replicas skipped for staleness
        self.reach_queries = 0               # routed plans with a REACH stage
        self.join_queries = 0                # cross-view joins through execute_join
        self.broadcast_joins = 0             # joins that shipped the small side
        self.shuffle_joins = 0               # joins re-partitioned by key hash
        self.join_rows_broadcast = 0         # build rows shipped to the probing replica
        self.join_rows_shuffled = 0          # rows re-partitioned to key owners

    # -------------------------------------------------------------- #
    # compilation (once per query text)
    # -------------------------------------------------------------- #
    def compile(self, query: str | Query | CallQuery | PhysicalPlan) -> PhysicalPlan:
        """Compile *query* to a physical plan, caching by query text.

        Pre-parsed queries plan without touching the cache (their text is not
        authoritative), and an already-compiled :class:`PhysicalPlan` passes
        through untouched — the front door compiles through per-tenant plan
        caches and must not re-plan per execution.
        """
        if isinstance(query, PhysicalPlan):
            return query
        if not isinstance(query, str):
            return self.planner.plan(query)
        with self._plans_lock:
            plan = self._plans.get(query)
            if plan is not None:
                self._plans.move_to_end(query)
                self.plan_cache_hits += 1
                return plan
            self.plan_cache_misses += 1
        plan = self.planner.plan(parse(query))
        with self._plans_lock:
            self._plans[query] = plan
            while len(self._plans) > self.plan_cache_size:
                self._plans.popitem(last=False)
                self.plan_cache_evictions += 1
        return plan

    # -------------------------------------------------------------- #
    # placement (per execution: membership and lag move constantly)
    # -------------------------------------------------------------- #
    def _eligible_owners(
        self, key: str, view_name: str, consistency: Consistency, dead: set[str]
    ):
        """The one placement rule: *key*'s owners that may serve, in ring order.

        Walks :meth:`ShardRouter.owners` exactly as a point read of *key*
        would and yields each replica that is alive, not in *dead* (the
        replicas that already failed this query), serves *view_name* and
        satisfies *consistency*.  The walk never just ends: once no owner is
        left it raises :class:`~repro.errors.StaleReadError` — naming every
        lagging replica and its lag in log positions — when live servers
        were skipped for staleness, and
        :class:`~repro.errors.ReplicaUnavailableError` when no live replica
        serves the view at all.
        """
        lagging: dict[str, int] = {}
        for name in self.router.owners(key):
            node = self.router.replicas.get(name)
            if (
                name in dead
                or node is None
                or not node.alive
                or not node.serves_view(view_name)
            ):
                continue
            if self.router.satisfies(node, view_name, consistency):
                yield node
            else:
                self.consistency_rejections += 1
                head = self.router.head_lsn_source()
                lagging[name] = max(0, head - node.applied_lsn(view_name))
        if not lagging:
            raise ReplicaUnavailableError(
                f"no live replica serves view {view_name!r}; cannot run the query"
            )
        worst = max(lagging, key=lambda name: lagging[name])
        raise StaleReadError(
            f"no replica satisfies {consistency.level} for view {view_name!r}: "
            f"replica {worst!r} lags the head by {lagging[worst]} LSNs "
            f"(lagging: {lagging}, head LSN {self.router.head_lsn_source()})",
            lagging=lagging,
        )

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
        for node in self._eligible_owners(key, view_name, consistency, dead):
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
                owner = next(self._eligible_owners(key, view_name, consistency, dead))
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
        node = next(self._eligible_owners(plan.query.render(), view_name, ANY, set()))
        return [*plan.explain(), f"Replica({node.name}, view={view_name})"]

    # -------------------------------------------------------------- #
    # introspection
    # -------------------------------------------------------------- #
    def stats(self) -> dict[str, float]:
        """Operational counters of the distributed query path.

        ``plan_cache_hit_ratio`` is hits over text compiles (0.0 before the
        first); pre-parsed and precompiled queries bypass the cache and count
        in neither term.
        """
        compiles = self.plan_cache_hits + self.plan_cache_misses
        return {
            "queries_routed": self.queries_routed,
            "fragments_dispatched": self.fragments_dispatched,
            "fragment_retries": self.fragment_retries,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "plan_cache_evictions": self.plan_cache_evictions,
            "plan_cache_hit_ratio": (
                self.plan_cache_hits / compiles if compiles else 0.0
            ),
            "consistency_rejections": self.consistency_rejections,
            "reach_queries": self.reach_queries,
            # Nothing routes in rounds any more; bench_e2e/layers.py reads the key.
            "reach_rounds": 0,
            "join_queries": self.join_queries,
            "broadcast_joins": self.broadcast_joins,
            "shuffle_joins": self.shuffle_joins,
            "join_rows_broadcast": self.join_rows_broadcast,
            "join_rows_shuffled": self.join_rows_shuffled,
        }
