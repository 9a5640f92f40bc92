"""The Saga platform facade (Figure 1).

:class:`SagaPlatform` wires the individual subsystems into the end-to-end
platform the paper describes: source ingestion pipelines feed the incremental
knowledge-construction pipeline, whose output is published to the Graph Engine
(the polystore serving layer); the NERD service is built over the engine's KG
and powers both object resolution and semantic annotation; and the Live Graph
engine serves the union of a stable-KG view with streaming sources under
interactive latencies.  Like the engine's stores, views and replicas, the NERD
entity view and the live graph's stable feed follow the operation log: each
registers with the engine's coordinator when first used and applies every
LSN-stamped delta from then on.

The facade is intentionally thin: every subsystem remains usable on its own
(and is exercised independently in tests and benchmarks), but examples and
downstream users get a one-object entry point::

    platform = SagaPlatform()
    platform.register_source("musicdb")
    platform.ingest_snapshot("musicdb", entities)
    platform.graph_engine.search("Billie Eilish")
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import ConstructionBatchError, IngestionError, ServingError
from repro.construction.pipeline import KnowledgeConstructionPipeline
from repro.construction.incremental import ConstructionReport
from repro.datagen.streams import LiveEvent
from repro.engine.graph_engine import GraphEngine
from repro.engine.importance import compute_importance
from repro.engine.views import ViewDelta
from repro.ingestion.alignment import AlignmentConfig
from repro.ingestion.pipeline import IngestionHub, IngestionPipeline, IngestionResult
from repro.live.engine import LiveGraphEngine
from repro.ml.nerd.service import NERDService
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
        self._nerd: NERDService | None = None
        self._live: LiveGraphEngine | None = None
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
    # ML services
    # -------------------------------------------------------------- #
    @property
    def nerd(self) -> NERDService:
        """The NERD service over the current KG.

        Built on first use; from then on it follows the log as one more
        delta listener of the Graph Engine's coordinator.
        """
        if self._nerd is None:
            self._nerd = NERDService.from_store(
                self.graph_engine.triples,
                ontology=self.ontology,
                importance={
                    entity_id: score.score
                    for entity_id, score in self.graph_engine.importance_scores().items()
                },
            )
            self.graph_engine.coordinator.add_delta_listener(self._apply_nerd_delta)
        return self._nerd

    def _apply_nerd_delta(self, delta: ViewDelta) -> None:
        """NERD's delta listener: structural importance is global (a new
        in-edge moves every PageRank), so each delta recomputes it once and
        hands NERD the fresh aggregate scores with the delta."""
        scores = compute_importance(self.graph_engine.triples)
        self._nerd.apply_delta(
            delta, importance={entity_id: score.score for entity_id, score in scores.items()}
        )

    def annotate(self, text: str) -> list:
        """Semantic annotation of free text with KG entities (§6.3)."""
        return self.nerd.annotate(text)

    # -------------------------------------------------------------- #
    # live graph
    # -------------------------------------------------------------- #
    @property
    def live(self) -> LiveGraphEngine:
        """The live graph engine over the stable KG and the streaming feeds.

        Built on first use, when the whole stable KG is loaded; from then on
        its stable feed follows the log as one more delta listener of the
        Graph Engine's coordinator.
        """
        if self._live is None:
            engine = self.graph_engine
            live = LiveGraphEngine(resolution_service=self.nerd)
            live.load_stable_view(engine.triples, version=engine.minimum_version())
            engine.coordinator.add_delta_listener(
                functools.partial(live.apply_stable_delta, engine.triples)
            )
            self._live = live
        return self._live

    def ingest_live_events(self, events: Iterable[LiveEvent]) -> int:
        """Feed streaming events into the live graph."""
        return self.live.ingest_events(events)

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
        uses.  It returns once every live replica serves every named view
        (:class:`~repro.errors.ServingError` when one does not in time), so
        the first query cannot arrive before the snapshots have.  Served
        views are read through the fleet itself — ``fleet.read`` for one row,
        ``fleet.query`` / ``fleet.join`` for KGQs (one query, one replica).
        Periodic checksum audits start with ``fleet.start_anti_entropy``.
        """
        if self._fleet is not None:
            raise ServingError("a serving fleet is already running; stop it first")
        fleet = ServingFleet(
            self.graph_engine.view_manager, num_replicas=num_replicas
        ).start()
        try:
            fleet.serve_views(views)
            # The snapshots apply asynchronously; a caller that queries the
            # moment this returns must find every replica serving.
            fleet.drain()
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
