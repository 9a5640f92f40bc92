"""Per-layer metrics of the traced run.

Three sources, all outside the program:

* the spans the harness recorded around public calls (write path: one span
  per layer and cycle; read path: one per request);
* the layers' own public counters, read once the phases are over;
* a replay of the first requests of client 0 one layer down at a time —
  ``FrontDoor.query`` with caches off → ``query_router.execute`` of the
  compiled plan → primary-side ``QueryExecutor.execute`` over a ``LiveIndex``
  loaded from the same artifact → ``parse`` + ``QueryPlanner.plan`` — on one
  thread, so the difference between two neighbours is the upper one's own
  cost per request.
"""

from __future__ import annotations

import asyncio
import statistics
import time

from bench_e2e import harness

_WRITE_LAYERS = (
    "ingestion.run", "construction.consume", "engine.publish", "views.flush", "shipping.drain",
)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _own_cost(upper_ms: list[float], lower_ms: list[float]) -> float:
    """What a layer adds per request over the layer below it: the median of
    the per-request differences of two replays (never below zero)."""
    return max(0.0, _median([upper - lower for upper, lower in zip(upper_ms, lower_ms)]))


def _median_cycle(tracer) -> tuple[dict[str, float], float]:
    """The layer spans (ms) of the median freshness cycle, and the share of
    a cycle its layer spans cover (median over cycles).

    Medians taken layer by layer would not add up to the median cycle when
    cycles differ in make-up; the spans of the cycle in the middle do.  With
    an even count it is the mean of the two middle cycles, as the median is.
    """
    cycles: dict[int, dict[str, float]] = {}
    for index, span in enumerate(tracer.spans):
        if span[0] == "fresh.cycle":
            cycles[index] = {"fresh.cycle": (span[2] - span[1]) * 1000.0}
    for span in tracer.spans:
        if span[0] in _WRITE_LAYERS and span[3] in cycles:
            cycles[span[3]][span[0]] = (span[2] - span[1]) * 1000.0
    if not cycles:
        return dict.fromkeys(_WRITE_LAYERS, 0.0), 0.0
    ordered = sorted(cycles.values(), key=lambda cycle: cycle["fresh.cycle"])
    middle = ordered[(len(ordered) - 1) // 2:len(ordered) // 2 + 1]
    layers = {
        name: _mean([cycle.get(name, 0.0) for cycle in middle]) for name in _WRITE_LAYERS
    }
    coverage = _median([
        sum(cycle.get(name, 0.0) for name in _WRITE_LAYERS) / cycle["fresh.cycle"]
        for cycle in ordered
    ])
    return layers, coverage


def _replay(serving, primary, requests, limit: int) -> dict[str, float]:
    """Replay up to *limit* KGQ requests one layer down at a time."""
    sample = [request for request in requests if request[0] == "kgq"][:limit]
    router = serving.fleet.query_router
    clock = time.perf_counter

    plan_ms, plans = [], []
    for _, _, text in sample:
        started = clock()
        plans.append(primary.plan(text))
        plan_ms.append((clock() - started) * 1000.0)

    for (_, view, _), plan in zip(sample[:5], plans):      # loads the feeds, untimed
        primary.execute(plan, view)
    live_ms, rpq_ms, candidates, rows = [], [], 0, 0
    for (_, view, _), plan in zip(sample, plans):
        started = clock()
        result = primary.execute(plan, view)
        took = (clock() - started) * 1000.0
        live_ms.append(took)
        if plan.reach is not None:
            rpq_ms.append(took)
        candidates += result.candidates_examined
        rows += len(result.rows)

    router_ms = []
    for (_, view, _), plan in zip(sample, plans):
        started = clock()
        router.execute(plan, view, use_cache=False)
        router_ms.append((clock() - started) * 1000.0)

    async def through_the_door() -> list[float]:
        took = []
        for _, view, text in sample:
            started = clock()
            await serving.door.query(harness.TENANTS[0], text, view, use_cache=False)
            took.append((clock() - started) * 1000.0)
        return took

    door_ms = asyncio.run(through_the_door())
    evaluators = [executor.rpq for executor in primary.executors.values()]
    interval_hits = sum(rpq.interval_hits for rpq in evaluators)
    product_runs = sum(rpq.product_runs for rpq in evaluators)
    return {
        "frontdoor.self_ms": _own_cost(door_ms, router_ms),
        "query_router.execute_ms": _mean(router_ms),
        "query_router.self_ms": _own_cost(router_ms, live_ms),
        "live.plan_ms": _mean(plan_ms),
        "live.execute_ms": _mean(live_ms),
        "live.candidates_per_row": _ratio(candidates, rows),
        "live.rpq_ms": _mean(rpq_ms),
        "live.rpq_interval_share": _ratio(interval_hits, interval_hits + product_runs),
    }


def read_counters(serving, write_stats) -> dict[str, float]:
    """The layers' own public counters, as per-layer metrics.

    Read when the last timed phase ends: the correctness checks and the
    replay go through the same layers and would move them.
    """
    engine = serving.platform.graph_engine
    fleet = serving.fleet
    views = engine.view_manager.stats()
    door = serving.door.stats()
    routed = fleet.query_router.stats()
    caches = door["tenant_caches"].values()
    plan_hits = sum(cache["plan_cache_hits"] for cache in caches)
    plan_misses = sum(cache["plan_cache_misses"] for cache in caches)
    replicas = list(fleet.replicas.values())
    return {
        "ingestion.entities_in": write_stats.entities_in,
        "construction.linked_added": write_stats.linked_added,
        "construction.facts_added": write_stats.facts_added,
        "construction.plans_replanned": write_stats.plans_replanned,
        "engine.operations_published": engine.stats.operations_published,
        "views.full_rebuilds": views["full_rebuilds"],
        "views.incremental_applies": views["incremental_applies"],
        "views.delta_rows_journaled": views["delta_rows_journaled"],
        "views.noop_maintenance": views["noop_maintenance"],
        "shipping.batches_shipped": fleet.shipper.batches_shipped,
        "shipping.snapshots_shipped": fleet.shipper.snapshots_shipped,
        "replica.batches_applied": sum(node.batches_applied for node in replicas),
        "replica.snapshot_resyncs": sum(node.snapshot_resyncs for node in replicas),
        "replica.gaps_detected": sum(node.gaps_detected for node in replicas),
        "replica.backpressure_drops": sum(node.backpressure_drops for node in replicas),
        "serving.replica_rss_mb": serving.replica_rss_mb,
        # From the door's own outcome counters: a tenant cache dropped by an
        # invalidation takes its hit counters with it.
        "frontdoor.result_cache_hit_ratio": _ratio(door["cache_hits"], door["completed"]),
        "frontdoor.plan_cache_hit_ratio": _ratio(plan_hits, plan_hits + plan_misses),
        "frontdoor.view_invalidations": door["view_invalidations"],
        "frontdoor.shed": door["shed"],
        "frontdoor.rate_limited": door["rate_limited"],
        "frontdoor.deadline_exceeded": door["deadline_exceeded"],
        "query_router.fragments_per_query": _ratio(
            routed["fragments_dispatched"], routed["queries_routed"]
        ),
        "query_router.reach_rounds_per_query": _ratio(
            routed["reach_rounds"], routed["reach_queries"]
        ),
        "query_router.join_rows_shuffled": routed["join_rows_shuffled"],
        "query_router.fragment_retries": routed["fragment_retries"],
    }


def collect(
    serving, primary, tracer, counters: dict[str, float], logs, requests, replay_requests: int,
    consume_seconds: list[float], health: dict,
) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json, by name."""
    cycle, coverage = _median_cycle(tracer)
    latencies_ms = sorted(
        value * 1000.0
        for log in logs for value in log.latency_s if value != harness.NOT_A_SAMPLE
    )
    metrics = {
        **counters,
        "ingestion.run_ms": cycle["ingestion.run"],
        "construction.consume_ms": cycle["construction.consume"],
        "construction.bootstrap_consume_s": _median(consume_seconds),
        "engine.publish_ms": cycle["engine.publish"],
        "views.flush_ms": cycle["views.flush"],
        "shipping.drain_ms": cycle["shipping.drain"],
        "frontdoor.query_ms": _mean(latencies_ms),
        "frontdoor.p99_ms": harness.percentile(latencies_ms, 0.99),
        "router.read_us": _ratio(
            sum(log.read_s for log in logs) * 1e6, sum(log.reads for log in logs)
        ),
        "trace.spans": len(tracer.spans),
        "trace.write_span_coverage": coverage,
    }
    metrics.update(_replay(serving, primary, requests, replay_requests))
    health["span_cost_us"] = round(tracer.span_cost_us(), 3)
    return metrics
