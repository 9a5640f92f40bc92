"""Distributed KGQ execution: one query, one replica of the serving fleet.

Builds a Saga platform, materializes an incrementally maintained profile
view, starts a three-replica serving fleet, and drives the distributed query
path (see docs/serving.md):

* routed KGQ: the whole plan placed by the hash of its query text on one
  replica that holds a full copy of the view (``platform.fleet.query``);
* consistency enforcement on the replica chosen (``any`` /
  ``bounded_staleness`` / ``read_your_writes``) with honest
  ``StaleReadError`` naming the laggards;
* a crash of the replica the query lands on — the next owner in the
  query's preference order answers it;
* an anti-entropy audit catching injected divergence and repairing it with
  a targeted repair batch (no snapshot, no primary-side rebuild).

Run with:  python examples/distributed_query.py
"""

from __future__ import annotations

from repro import SagaPlatform
from repro.datagen import WorldConfig, default_source_suite, generate_world
from repro.engine.views import ViewDefinition, ViewDelta
from repro.errors import StaleReadError
from repro.serving import Consistency


def register_entity_profile(engine) -> None:
    """An incrementally maintained (apply_delta) profile view with types."""

    def row_for(subject):
        facts = engine.triples.facts_about(subject)
        entity_type = engine.triples.value_of(subject, "type")
        return {
            "subject": subject,
            "name": str(engine.triples.value_of(subject, "name") or ""),
            "fact_count": len(facts),
            "types": [str(entity_type)] if entity_type else [],
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
        description="typed per-entity profile rows for distributed queries",
    ))


def main() -> None:
    world = generate_world(WorldConfig(seed=42))
    platform = SagaPlatform()
    suite = default_source_suite(world)
    for source in suite[:2]:
        platform.register_source(source.source_id)
        platform.ingest_snapshot(source.source_id, source.entities)
    engine = platform.graph_engine
    register_entity_profile(engine)
    engine.materialize_views()
    print(f"KG ready: {engine.triples.entity_count()} entities, "
          f"head LSN {engine.minimum_version()}")

    fleet = platform.start_serving_fleet(views=["entity_profile"], num_replicas=3)
    fleet.drain()
    watermark = engine.view_manager.built_at_lsn("entity_profile")

    # ------------------------------------------------------------ #
    # Routed KGQs under the three consistency levels.
    # ------------------------------------------------------------ #
    query = 'MATCH song WHERE fact_count > 8 RETURN name, fact_count'
    print(f"\n== one of 3 replicas answers: {query} ==")
    for consistency, label in (
        (Consistency.any(), "any"),
        (Consistency.bounded_staleness(0), "bounded_staleness(0)"),
        (Consistency.read_your_writes(watermark), f"read_your_writes({watermark})"),
    ):
        result = fleet.query(query, "entity_profile", consistency)
        print(f"  {label:<24} -> {len(result.rows)} rows, "
              f"{result.candidates_examined} candidates examined, "
              f"{result.latency_ms:.2f} ms")
    for line in fleet.query_router.explain(query, "entity_profile"):
        print(f"    {line}")

    # The router caches no plans: a caller that repeats a text compiles it
    # once and hands the plan over (what the front door does per tenant).
    plan = fleet.query_router.compile(query)
    routed = platform.fleet.query(plan, "entity_profile")
    print(f"  platform.fleet.query(plan) -> {len(routed.rows)} rows "
          f"(identical row order: "
          f"{[r.entity_id for r in routed.rows[:2]]} ...)")

    # ------------------------------------------------------------ #
    # Honest staleness: an unflushed write lags every replica.
    # ------------------------------------------------------------ #
    subject = sorted(engine.triples.subjects())[0]
    engine.publish_subjects(engine.triples, [subject], source_id="hotfix")
    try:
        fleet.query(query, "entity_profile", Consistency.bounded_staleness(0))
    except StaleReadError as exc:
        print(f"\n  bounded_staleness(0) before flush -> StaleReadError "
              f"(lagging: {exc.lagging})")
    engine.update_views()
    fleet.drain()
    result = fleet.query(query, "entity_profile", Consistency.bounded_staleness(0))
    print(f"  bounded_staleness(0) after drain  -> {len(result.rows)} rows")

    # ------------------------------------------------------------ #
    # Crash the replica this query lands on: the next owner answers.
    # ------------------------------------------------------------ #
    print("\n== replica crash during distributed queries ==")
    placement_key = plan.query.render()
    preferred = fleet.router.owners(placement_key)[0]
    fleet.kill_replica(preferred)
    result = fleet.query(query, "entity_profile")
    print(f"  {preferred} down; {fleet.query_router.explain(query, 'entity_profile')[-1]} "
          f"answered {len(result.rows)} rows "
          f"(healthy: {fleet.router.healthy_replicas()})")
    fleet.restart_replica(preferred)

    # ------------------------------------------------------------ #
    # Anti-entropy: inject divergence, audit, repair — targeted.
    # ------------------------------------------------------------ #
    print("\n== anti-entropy audit and targeted repair ==")
    node = fleet.replicas["replica-2"]
    victim_subject = sorted(engine.view_manager.artifact("entity_profile"))[0]
    node.get("entity_profile", victim_subject).facts["fact_count"] = [999999]
    report = fleet.auditor.audit_view("entity_profile")
    for audit in report.diverged():
        print(f"  audit: {audit.replica} diverged on {audit.mismatched} "
              f"(checked {report.rows_checked} rows at LSN {report.primary_lsn})")
    repaired = fleet.auditor.repair(report)
    clean = fleet.audit(repair=False)["entity_profile"].clean()
    print(f"  repaired rows per replica: {repaired}; fleet clean: {clean}; "
          f"snapshot resyncs: {node.snapshot_resyncs} (targeted, not snapshot)")

    # ------------------------------------------------------------ #
    # Introspection.
    # ------------------------------------------------------------ #
    status = fleet.status()
    print("\n== fleet introspection ==")
    print(f"  query_router:  {status['query_router']}")
    print(f"  anti_entropy:  {status['anti_entropy']}")
    audited = fleet.auditor.last_reports["entity_profile"]
    print(f"  view digest:   {audited.digest} (audited at LSN {audited.primary_lsn})")
    platform.stop_serving_fleet()


if __name__ == "__main__":
    main()
