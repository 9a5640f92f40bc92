"""Replicated serving example: journal shipping, crash recovery, routed reads.

Builds a Saga platform, materializes the standard view graph plus an
incrementally maintained profile view, and starts a three-replica serving
fleet over both, its delta journals held in memory (see docs/serving.md):

* routed point reads under the three consistency levels
  (``any`` / ``bounded_staleness`` / ``read_your_writes``);
* incremental journal shipping while the KG keeps ingesting;
* a replica crash, missed deltas, and a restart that catches up by
  journal replay — no view artifact is rebuilt;
* fleet introspection: lag matrix, read placement, journal records.

Run with:  python examples/replicated_serving.py
"""

from __future__ import annotations

from repro import SagaPlatform
from repro.datagen import WorldConfig, default_source_suite, generate_world
from repro.engine.views import ViewDefinition, ViewDelta
from repro.errors import StaleReadError
from repro.serving import Consistency


def register_entity_profile(engine) -> None:
    """An incrementally maintained (apply_delta) profile view.

    Unlike the create-only standard views — whose rebuilds truncate the
    journal, forcing snapshot resyncs — an ``apply_delta`` view keeps its
    journal intact, so crashed replicas recover by journal replay.
    """

    def row_for(subject):
        facts = engine.triples.facts_about(subject)
        return {
            "subject": subject,
            "name": str(engine.triples.value_of(subject, "name") or ""),
            "fact_count": len(facts),
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
        description="incrementally maintained per-entity profile rows",
    ))


def main() -> None:
    world = generate_world(WorldConfig(seed=42))
    platform = SagaPlatform()
    suite = default_source_suite(world)
    for source in suite[:2]:
        platform.register_source(source.source_id)
        platform.ingest_snapshot(source.source_id, source.entities)
    engine = platform.graph_engine
    engine.register_standard_views()
    register_entity_profile(engine)
    engine.materialize_views()
    print(f"KG ready: {engine.triples.entity_count()} entities, "
          f"{len(engine.view_catalog)} views, head LSN {engine.minimum_version()}")

    fleet = platform.start_serving_fleet(
        views=["entity_features", "entity_profile"], num_replicas=3,
    )
    fleet.drain()
    subject = sorted(engine.triples.subjects())[0]
    watermark = engine.view_manager.built_at_lsn("entity_profile")
    print("\n== routed reads over 3 replicas ==")
    for consistency, label in (
        (Consistency.any(), "any"),
        (Consistency.bounded_staleness(0), "bounded_staleness(0)"),
        (Consistency.read_your_writes(watermark), f"read_your_writes({watermark})"),
    ):
        document = fleet.read("entity_profile", subject, consistency)
        print(f"  {label:<24} -> {document.entity_id} "
              f"(fact_count={document.value('fact_count')})")

    # ------------------------------------------------------------ #
    # Crash one replica, keep ingesting, restart it.
    # ------------------------------------------------------------ #
    print("\n== crash and journal-replay recovery ==")
    fleet.kill_replica("replica-1")
    print(f"  replica-1 crashed; healthy: {fleet.router.healthy_replicas()}")
    for source in suite[2:3]:
        platform.register_source(source.source_id)
        platform.ingest_snapshot(source.source_id, source.entities)
    engine.update_views()                       # flush ships the delta
    fleet.drain()
    print(f"  ingested {suite[2].source_id} while replica-1 was down; "
          f"lag: {fleet.lag()['entity_profile']}")
    builds_before = engine.view_manager.states["entity_profile"].builds
    caught_up = fleet.restart_replica("replica-1")
    node = fleet.replicas["replica-1"]
    print(f"  replica-1 restarted from the journals: caught up {caught_up} "
          f"to applied LSN {node.applied_lsn('entity_profile')}")
    print(f"  resyncs={node.resyncs}, snapshot resyncs={node.snapshot_resyncs} — "
          "the create-only entity_features view truncates its journal on "
          "rebuild (snapshot), entity_profile rode the journal; "
          f"entity_profile builds unchanged: "
          f"{engine.view_manager.states['entity_profile'].builds == builds_before}")

    # A reader that just wrote demands its write; a lagging fleet answers
    # honestly with StaleReadError until the flush is drained.
    engine.publish_subjects(engine.triples, [subject], source_id="hotfix")
    head = engine.minimum_version()
    try:
        fleet.read("entity_profile", subject, Consistency.read_your_writes(head))
    except StaleReadError as exc:
        print(f"\n  read_your_writes({head}) before flush -> {type(exc).__name__} "
              "(honest staleness)")
    engine.update_views()
    fleet.drain()
    document = fleet.read("entity_profile", subject, Consistency.read_your_writes(head))
    print(f"  read_your_writes({head}) after drain  -> {document.entity_id}")

    # ------------------------------------------------------------ #
    # Introspection.
    # ------------------------------------------------------------ #
    status = fleet.status()
    subjects = sorted(engine.triples.subjects())[:6]
    print("\n== fleet introspection ==")
    print(f"  served views:   {status['served_views']}")
    print(f"  healthy:        {status['healthy_replicas']}")
    print(f"  batches:        {status['batches_published']} published, "
          f"{status['reads_routed']} reads routed")
    print(f"  journal:        {status['journal']['entity_profile']}")
    placement = {s: fleet.router.owners(s)[0] for s in subjects}
    print(f"  placement:      {placement}")
    print(f"  compacted:      {fleet.shipper.compact_journals()} deltas dropped")
    platform.stop_serving_fleet()


if __name__ == "__main__":
    main()
