"""Multi-tenant front door example: admission, isolation, serving metrics.

Builds a Saga platform, starts a three-replica serving fleet over an
incrementally maintained profile view, and opens the multi-tenant asyncio
front door over it (see docs/frontdoor.md):

* two tenants scoped to disjoint KG slices (songs vs people) sharing one
  served view — cross-slice queries are refused at *plan* time;
* per-tenant admission: a token-bucket rate limit with an honest
  ``retry_after``, and deadline refusals before any work is wasted;
* per-tenant result caches invalidated by shipped deltas;
* the serving-metrics snapshot (latency percentiles, admission counters)
  read from ``FrontDoor.stats()``.

Run with:  python examples/front_door.py
"""

from __future__ import annotations

import asyncio

from repro import SagaPlatform
from repro.datagen import WorldConfig, default_source_suite, generate_world
from repro.engine.views import ViewDefinition, ViewDelta
from repro.errors import DeadlineExceededError, OverloadedError, TenantIsolationError
from repro.model.provenance import Provenance
from repro.model.triples import ExtendedTriple, TripleStore


def register_entity_profile(engine) -> None:
    """An apply_delta profile view whose rows carry each entity's types."""

    def row_for(subject):
        return {
            "subject": subject,
            "name": str(engine.triples.value_of(subject, "name") or ""),
            "fact_count": engine.triples.fact_count(subject),
            "types": [str(engine.triples.value_of(subject, "type") or "")],
        }

    def create(context):
        return {s: row_for(s) for s in engine.triples.subjects()}

    def apply_delta(context, delta: ViewDelta):
        artifact = dict(context.artifact("entity_profile"))
        for subject in delta.changed:
            artifact[subject] = row_for(subject)
        for subject in delta.deleted:
            artifact.pop(subject, None)
        return artifact

    engine.register_view(ViewDefinition(
        "entity_profile", "analytics", create=create, apply_delta=apply_delta,
        description="typed per-entity profile rows for tenant-scoped serving",
    ))


async def serve_traffic(platform: SagaPlatform) -> None:
    door = platform.front_door
    engine = platform.graph_engine

    # -------------------------------------------------------------- #
    # Tenant-scoped serving: each tenant sees only its own KG slice.
    # -------------------------------------------------------------- #
    print("\n== tenant-scoped queries over one shared view ==")
    for tenant, text in (
        ("music-app", "MATCH song RETURN name, fact_count"),
        ("people-app", "MATCH person RETURN name, fact_count"),
    ):
        result = await door.query(tenant, text, "entity_profile")
        print(f"  {tenant:<11} {text!r:<42} -> {len(result.rows)} rows, "
              f"{result.latency_ms:.2f} ms")

    print("\n== the isolation boundary is enforced at plan time ==")
    try:
        await door.query("music-app", "MATCH person RETURN name", "entity_profile")
    except TenantIsolationError as exc:
        print(f"  music-app asking for people -> {type(exc).__name__}: {exc}")

    # -------------------------------------------------------------- #
    # Honest refusals: rate limits quote a backoff, deadlines refuse
    # before wasting a worker.
    # -------------------------------------------------------------- #
    print("\n== admission control refuses honestly ==")
    for attempt in range(4):
        try:
            await door.query("burst-bot", "MATCH song RETURN name", "entity_profile",
                             use_cache=False)
            print(f"  burst-bot request {attempt + 1}: admitted")
        except OverloadedError as exc:
            print(f"  burst-bot request {attempt + 1}: {type(exc).__name__} "
                  f"(retry_after={exc.retry_after:.2f}s)")
    try:
        await door.query("music-app", "MATCH song RETURN name", "entity_profile",
                         deadline=0.0)
    except DeadlineExceededError as exc:
        print(f"  zero-deadline request -> {type(exc).__name__}: {exc}")

    # -------------------------------------------------------------- #
    # Per-tenant caches ride shipped deltas.
    # -------------------------------------------------------------- #
    print("\n== per-tenant result caches, invalidated by shipped deltas ==")
    text = "MATCH song RETURN name, fact_count"
    repeat = await door.query("music-app", text, "entity_profile")
    print(f"  repeat before ingest -> from_cache={repeat.from_cache}")
    # The hotfix source adds a fact to one song, so its profile row changes
    # (republishing unchanged content would only advance the watermark and
    # keep the cache).
    subject = next(s for s in sorted(engine.triples.subjects())
                   if engine.triples.value_of(s, "type") == "song")
    hotfix = TripleStore(engine.triples.facts_about(subject))
    hotfix.add(ExtendedTriple(subject, "genre", "hotfix-pop",
                              provenance=Provenance.from_source("hotfix", 0.9)))
    engine.publish_subjects(hotfix, [subject], source_id="hotfix")
    engine.update_views()                       # flush ships the delta
    platform.fleet.drain()
    after = await door.query("music-app", text, "entity_profile")
    print(f"  repeat after ingest  -> from_cache={after.from_cache} "
          "(the shipped delta dropped the tenant's cache)")
    assert not after.from_cache


def main() -> None:
    world = generate_world(WorldConfig(seed=42))
    platform = SagaPlatform()
    for source in default_source_suite(world)[:2]:
        platform.register_source(source.source_id)
        platform.ingest_snapshot(source.source_id, source.entities)
    engine = platform.graph_engine
    register_entity_profile(engine)
    engine.materialize_views()
    print(f"KG ready: {engine.triples.entity_count()} entities, "
          f"head LSN {engine.minimum_version()}")

    platform.start_serving_fleet(views=["entity_profile"], num_replicas=3)
    door = platform.start_front_door(max_concurrency=4, queue_capacity=16)
    door.registry.register("music-app", views={"entity_profile"},
                           entity_types={"song", "album"})
    door.registry.register("people-app", views={"entity_profile"},
                           entity_types={"person"})
    door.registry.register("burst-bot", views={"entity_profile"},
                           entity_types={"song"}, rate=1.0, burst=2)

    asyncio.run(serve_traffic(platform))

    # -------------------------------------------------------------- #
    # Observability: one snapshot, read from the door that counts it.
    # -------------------------------------------------------------- #
    stats = door.stats()
    print("\n== serving metrics ==")
    print(f"  requests={stats['requests']} completed={stats['completed']} "
          f"cache_hits={stats['cache_hits']} rate_limited={stats['rate_limited']} "
          f"isolation_rejections={stats['isolation_rejections']}")
    latency = stats["latency"]
    print(f"  latency: p50={latency['p50_ms']:.2f} ms "
          f"p95={latency['p95_ms']:.2f} ms p99={latency['p99_ms']:.2f} ms")
    print(f"  tenants={sorted(stats['tenants'])}")

    platform.stop_serving_fleet()
    print("\nfront door and fleet stopped cleanly")


if __name__ == "__main__":
    main()
