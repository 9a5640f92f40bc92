"""LIVELAT — live KG query latency (§4.2 / §6.1).

The production live graph engine answers billions of queries per day while
holding 95th-percentile latencies in the tens-of-milliseconds band.  We cannot
reproduce the fleet, but the design properties that make that possible — index
seeds instead of scans, bounded traversal, caching, sharded in-memory
indexes — are all in this reproduction, so the benchmark checks that a
production-style query mix (point lookups, traversals, intents, score queries)
over the live index stays within an interactive p95 budget on a laptop.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_table, write_bench_json
from repro.live import Intent, LiveGraphEngine
from repro.ml.nerd import NERDService

P95_BUDGET_MS = 20.0


@pytest.fixture(scope="module")
def live_engine(bench_store, ontology, bench_live_events):
    nerd = NERDService.from_store(bench_store, ontology)
    engine = LiveGraphEngine(resolution_service=nerd)
    engine.load_stable_view(bench_store)
    engine.ingest_events(bench_live_events)
    return engine


@pytest.fixture(scope="module")
def query_mix(bench_world):
    """A production-style mix of KGQ queries."""
    countries = bench_world.of_type("country")[:6]
    cities = bench_world.of_type("city")[:6]
    artists = bench_world.of_type("music_artist")[:10]
    teams = bench_world.of_type("sports_team")[:6]
    queries: list[str] = []
    for country in countries:
        queries.append(f'MATCH country WHERE name = "{country.name}" RETURN head_of_state.name')
    for city in cities:
        queries.append(f'MATCH city WHERE name = "{city.name}" RETURN mayor.name, located_in.name')
    for artist in artists:
        queries.append(f'MATCH music_artist WHERE name = "{artist.name}" '
                       f"RETURN birth_place.name, record_label.name")
    for team in teams:
        queries.append(f'MATCH sports_game WHERE home_team.name CONTAINS "{team.name}" '
                       f"RETURN name, home_score, away_score, game_status")
    queries.append('MATCH stock WHERE stock_price > 10 RETURN ticker, stock_price LIMIT 5')
    queries.append('MATCH flight WHERE flight_status = "landed" RETURN name LIMIT 5')
    return queries


def bench_livelat_query_mix(benchmark, live_engine, query_mix):
    """Uncached execution of the full query mix (one pass)."""
    def run_mix():
        results = []
        for text in query_mix:
            results.append(live_engine.query(text, use_cache=False))
        return results

    results = benchmark(run_mix)
    answered = sum(1 for result in results if result.rows)
    assert answered / len(results) > 0.6


def bench_livelat_point_lookup(benchmark, live_engine, bench_world):
    """Single point-lookup query latency (the hot path for entity cards)."""
    artist = bench_world.of_type("music_artist")[0]
    text = f'MATCH music_artist WHERE name = "{artist.name}" RETURN birth_place.name'
    result = benchmark(lambda: live_engine.query(text, use_cache=False))
    assert result.rows


def bench_livelat_intent_answering(benchmark, live_engine, bench_world):
    """Intent routing + execution latency (question answering path)."""
    country = bench_world.of_type("country")[0]

    def answer():
        live_engine.context.clear()
        return live_engine.answer_intent(Intent("LeaderOf", (country.name,)))

    answer_value = benchmark(answer)
    assert answer_value.answer is not None


def bench_livelat_p95_report(benchmark, live_engine, query_mix):
    """The headline number: p50/p95/p99 latency over a sustained query workload."""
    # latencies_ms is the executor's bounded recent-query window (the sample
    # the percentiles are over); queries_executed counts for its whole life.
    live_engine.executor.latencies_ms.clear()
    already_executed = live_engine.executor.queries_executed
    live_engine.executor.invalidate_cache()
    rounds = 8
    for round_index in range(rounds):
        for text in query_mix:
            # Alternate cached and uncached executions like a real mixed load.
            live_engine.query(text, use_cache=(round_index % 2 == 1))
    p50 = live_engine.executor.latency_percentile(50)
    p95 = live_engine.executor.latency_percentile(95)
    p99 = live_engine.executor.latency_percentile(99)
    queries_executed = live_engine.executor.queries_executed - already_executed
    stats = live_engine.stats()
    print_table(
        "Live KG query latency (paper: p95 < ~20 ms on production workloads)",
        ["metric", "value"],
        [
            ["queries executed", queries_executed],
            ["documents indexed", stats["documents"]],
            ["cache hit count", stats["cache_hits"]],
            ["p50 latency (ms)", p50],
            ["p95 latency (ms)", p95],
            ["p99 latency (ms)", p99],
            ["p95 budget (ms)", P95_BUDGET_MS],
        ],
    )
    # Merge the serving percentiles into the executor benchmark's summary so
    # one artifact carries both the strategy speedups (KGQEXEC sections) and
    # the end-to-end latency they buy.
    write_bench_json("BENCH_KGQEXEC.json", {
        "serving_latency": {
            "queries_executed": queries_executed,
            "documents_indexed": stats["documents"],
            "cache_hits": stats["cache_hits"],
            "p50_ms": p50,
            "p95_ms": p95,
            "p99_ms": p99,
            "p95_budget_ms": P95_BUDGET_MS,
        },
    })
    assert p95 < P95_BUDGET_MS
    benchmark(lambda: live_engine.query(query_mix[0]))
