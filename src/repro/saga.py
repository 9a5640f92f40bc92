"""The Saga platform facade (Figure 1).

:class:`SagaPlatform` wires the individual subsystems into the end-to-end
platform the paper describes: source ingestion pipelines feed the incremental
knowledge-construction pipeline, whose output is published to the Graph Engine
(the polystore serving layer); the engine's views are shipped to a replicated
serving fleet behind a multi-tenant front door.  The Graph Engine's view
manager is the one consumer of the operation log's deltas.  The NERD service
(:class:`~repro.ml.nerd.NERDService`) and the Live Graph engine
(:class:`~repro.live.LiveGraphEngine`) are built by their caller over a KG
store, such as ``platform.graph_engine.triples``.

The facade is intentionally thin: every subsystem remains usable on its own
(and is exercised independently in tests and benchmarks), but examples and
downstream users get a one-object entry point::

    platform = SagaPlatform()
    platform.register_source("musicdb")
    platform.ingest_snapshot("musicdb", entities)
    platform.graph_engine.search("Billie Eilish")
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ConstructionBatchError, IngestionError, ServingError
from repro.construction.pipeline import KnowledgeConstructionPipeline
from repro.construction.incremental import ConstructionReport
from repro.engine.graph_engine import GraphEngine
from repro.ingestion.alignment import AlignmentConfig
from repro.ingestion.pipeline import IngestionHub, IngestionPipeline, IngestionResult
from repro.model.entity import SourceEntity
from repro.model.ontology import Ontology, default_ontology
from repro.serving.fleet import ServingFleet
from repro.serving.frontdoor import FrontDoor, TenantRegistry


@dataclass
class SagaMetrics:
    """Aggregate platform metrics surfaced by :meth:`SagaPlatform.metrics`."""

    facts: int = 0
    entities: int = 0
    sources: int = 0
    payloads_consumed: int = 0
    engine_operations: int = 0
    store_freshness: dict[str, int] = field(default_factory=dict)
    relative_growth: dict[str, float] = field(default_factory=dict)


class SagaPlatform:
    """End-to-end knowledge construction and serving platform.

    A snapshot enters the KG one way.  :meth:`ingest_batch` and
    :meth:`ingest_snapshot` only build their ingestion results; one private path commits them through
    :meth:`~repro.construction.pipeline.KnowledgeConstructionPipeline.consume_many`
    and publishes every report, a failed commit's included.  A batch fails
    with :class:`~repro.errors.ConstructionBatchError`; a call that ingests
    one snapshot re-raises its commit's own exception, which carries the
    failed report as ``construction_report``.
    """

    def __init__(self, ontology: Ontology | None = None) -> None:
        self.ontology = ontology or default_ontology()
        self.ingestion = IngestionHub(self.ontology)
        self.construction = KnowledgeConstructionPipeline(self.ontology)
        self.graph_engine = GraphEngine(self.ontology)
        self._fleet: ServingFleet | None = None
        self._front_door: FrontDoor | None = None

    # -------------------------------------------------------------- #
    # source onboarding and ingestion
    # -------------------------------------------------------------- #
    def register_source(
        self, source_id: str, alignment: AlignmentConfig | None = None
    ) -> IngestionPipeline:
        """Register (self-serve onboard) a new data source."""
        return self.ingestion.register_source(source_id, alignment)

    def ingest_snapshot(
        self,
        source_id: str,
        entities: Sequence[SourceEntity],
        timestamp: int | None = None,
        publish: bool = True,
    ) -> ConstructionReport:
        """Ingest one snapshot of a source end-to-end.

        Runs the source's ingestion pipeline (alignment, delta computation,
        export) and commits the delta as a one-element :meth:`ingest_batch`
        does, with one difference: a failed commit re-raises its own
        exception, whose ``construction_report`` is the failed report,
        instead of a :class:`~repro.errors.ConstructionBatchError`.
        """
        result = self.ingestion.get(source_id).run_entities(entities, timestamp=timestamp)
        return self._ingest_one(result, publish)

    def ingest_batch(
        self,
        snapshots: Sequence[tuple[str, Sequence[SourceEntity]]],
        timestamp: int | None = None,
        publish: bool = True,
    ) -> list[ConstructionReport]:
        """Ingest several sources' snapshots as one construction batch.

        Every source's ingestion pipeline runs first (alignment, delta
        computation, export); the resulting deltas then commit one at a time
        in snapshot order through
        :meth:`~repro.construction.pipeline.KnowledgeConstructionPipeline.consume_many`,
        and each commit's classified entity delta is published straight into
        the Graph Engine's journals.  A failing source does not abort the
        batch: the other sources are fused *and published*, and so is
        whatever the failed commit fused before it raised; then the
        :class:`~repro.errors.ConstructionBatchError` (which carries every
        report) propagates, whatever the batch's size.  Only the sources
        whose commit succeeded advance their consumed snapshot.  Each source
        may appear once per batch: every delta is computed before the first
        commit, against the snapshot the KG had consumed.
        """
        source_ids = [source_id for source_id, _ in snapshots]
        if len(set(source_ids)) != len(source_ids):
            raise IngestionError(f"a batch takes one snapshot per source, got {source_ids}")
        results = [
            self.ingestion.get(source_id).run_entities(entities, timestamp=timestamp)
            for source_id, entities in snapshots
        ]
        return self._ingest(results, publish)

    def _ingest(self, results: list[IngestionResult], publish: bool) -> list[ConstructionReport]:
        """Commit *results* and publish every report, failed ones included.

        The one path from ingestion results into the KG.  A commit that
        raised part-way still says what it fused, and the served KG must
        not fall behind the constructed one, so a failed batch is published
        before its :class:`~repro.errors.ConstructionBatchError` propagates.
        """
        try:
            reports = self.construction.consume_many(results)
        except ConstructionBatchError as exc:
            if publish:
                for report in exc.reports:
                    self._publish_report(report)
            raise
        if publish:
            for report in reports:
                self._publish_report(report)
        return reports

    def _ingest_one(self, result: IngestionResult, publish: bool) -> ConstructionReport:
        """:meth:`_ingest` of one snapshot; a failure raises the commit's own
        exception (carrying ``construction_report``), not the batch error."""
        try:
            return self._ingest([result], publish)[0]
        except ConstructionBatchError as exc:
            ((_, failure),) = exc.failures
        raise failure

    def _publish_report(self, report: ConstructionReport) -> None:
        """Publish one commit's classified entity delta to the Graph Engine.

        Construction already classified its effect at fusion-commit time
        (:class:`~repro.construction.incremental.EntityDelta`), so the engine
        receives added / updated / deleted subjects directly — deletions
        included — and the coordinator journals them without re-diffing any
        store.
        """
        delta = report.entity_delta
        changed = [*delta.added, *delta.updated]
        self.graph_engine.publish_subjects(
            self.construction.store,
            changed,
            source_id=report.source_id,
            deleted_subjects=delta.deleted,
            added_subjects=delta.added,
        )

    # -------------------------------------------------------------- #
    # replicated serving fleet
    # -------------------------------------------------------------- #
    @property
    def fleet(self) -> ServingFleet | None:
        """The replicated serving fleet, when one has been started."""
        return self._fleet

    def start_serving_fleet(
        self,
        views: Sequence[str] = (),
        num_replicas: int = 3,
    ) -> ServingFleet:
        """Start a replicated serving fleet over the Graph Engine's views.

        The fleet ships every named materialized row-shaped view to
        *num_replicas* live replicas, journals their deltas in memory, and
        routes reads with the same LSN currency the engine's metadata store
        uses.  The snapshots go to ``replica-0`` alone; once it has applied
        them, every further replica starts from a copy of its index
        (:meth:`~repro.serving.fleet.ServingFleet.add_replica`), so the
        postings and adjacency rows are built once.  It returns once every
        live replica serves every named view
        (:class:`~repro.errors.ServingError` when one does not in time), so
        the first query cannot arrive before the snapshots have.  Served
        views are read through the fleet itself — ``fleet.read`` for one row,
        ``fleet.query`` / ``fleet.join`` for KGQs (one query, one replica).
        Periodic checksum audits start with ``fleet.start_anti_entropy``.
        """
        if self._fleet is not None:
            raise ServingError("a serving fleet is already running; stop it first")
        # replica-0 alone (ServingFleet refuses fewer than one replica).
        fleet = ServingFleet(
            self.graph_engine.view_manager, num_replicas=min(num_replicas, 1)
        ).start()
        try:
            fleet.serve_views(views)
            # The snapshots apply asynchronously; a caller that queries the
            # moment this returns must find every replica serving.
            fleet.drain()
            for index in range(1, num_replicas):
                fleet.add_replica(f"replica-{index}")
            fleet.start()       # with no view shipped, add_replica starts none
            waiting = sorted(
                f"{name}/{view}"
                for name, node in fleet.replicas.items() if node.alive
                for view in views if not node.serves_view(view)
            )
            if waiting:
                raise ServingError(
                    f"replicas did not apply their initial snapshots in time: {waiting}"
                )
        except Exception:
            # Atomic start: an unshippable view (unmaterialized, not
            # row-shaped) must not leave replica threads and a journal
            # listener behind — and must not block a corrected retry.
            fleet.stop()
            raise
        self._fleet = fleet
        return self._fleet

    def stop_serving_fleet(self) -> None:
        """Drain and stop the serving fleet (no-op when none is running).

        An attached front door is closed first: the request surface must
        stop admitting before the fleet it queries disappears.
        """
        if self._fleet is None:
            return
        self.stop_front_door()
        self._fleet.drain()
        self._fleet.stop()
        self._fleet = None

    # -------------------------------------------------------------- #
    # multi-tenant front door
    # -------------------------------------------------------------- #
    @property
    def front_door(self) -> FrontDoor | None:
        """The multi-tenant request front door, when one has been started."""
        return self._front_door

    def start_front_door(
        self,
        registry: TenantRegistry | None = None,
        max_concurrency: int = 8,
        queue_capacity: int = 64,
        default_deadline: float | None = None,
    ) -> FrontDoor:
        """Start the multi-tenant asyncio front door over the running fleet.

        Requires :meth:`start_serving_fleet` to have been called: the front
        door admits per-tenant KGQ requests (token buckets, a bounded
        priority admission queue, deadlines) and executes them through the
        fleet's query router (every plan inline on the event loop);
        ``front_door.stats()`` reports its serving
        metrics.  Tenants are onboarded through ``front_door.registry.register(...)``.
        """
        if self._fleet is None:
            raise ServingError("start a serving fleet before the front door")
        if self._front_door is not None:
            raise ServingError("a front door is already running; stop it first")
        self._front_door = FrontDoor(
            self._fleet,
            registry=registry,
            max_concurrency=max_concurrency,
            queue_capacity=queue_capacity,
            default_deadline=default_deadline,
        )
        return self._front_door

    def stop_front_door(self) -> None:
        """Close the front door (no-op when none is running)."""
        if self._front_door is None:
            return
        self._front_door.close()
        self._front_door = None

    # -------------------------------------------------------------- #
    # metrics
    # -------------------------------------------------------------- #
    def metrics(self) -> SagaMetrics:
        """Aggregate platform metrics."""
        construction_metrics = self.construction.metrics()
        return SagaMetrics(
            facts=self.graph_engine.triples.fact_count(),
            entities=self.graph_engine.triples.entity_count(),
            sources=int(construction_metrics["sources_consumed"]),
            payloads_consumed=int(construction_metrics["payloads_consumed"]),
            engine_operations=self.graph_engine.stats.operations_published,
            store_freshness=self.graph_engine.freshness(),
            relative_growth=dict(construction_metrics["relative_growth"]),
        )
