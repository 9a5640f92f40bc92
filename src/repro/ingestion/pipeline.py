"""The source ingestion pipeline: Import → Transform → Align → Delta → Export.

One :class:`IngestionPipeline` per upstream source, assembled from the
pluggable components in this package (Figure 3 of the paper).  Engineers
onboard a new source by providing an importer, a transformer configuration,
and an alignment config — the pipeline machinery is shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import IngestionError
from repro.ingestion.alignment import AlignmentConfig, AlignmentReport, OntologyAligner
from repro.ingestion.delta import DeltaComputer
from repro.ingestion.export import ExportedDelta, export_delta
from repro.ingestion.importers import Importer, Row
from repro.ingestion.transform import EntityTransformer, IntegrityReport
from repro.model.delta import SourceDelta
from repro.model.entity import SourceEntity
from repro.model.ontology import Ontology


@dataclass
class IngestionResult:
    """Everything produced by one run of an ingestion pipeline.

    The run only *peeks* at its delta: the source's consumed snapshot stays
    where it was until :meth:`commit` is called, which the construction
    pipeline does once the KG has committed :attr:`delta`.
    """

    source_id: str
    entities: list[SourceEntity]
    delta: SourceDelta
    exported: ExportedDelta
    integrity: IntegrityReport
    alignment: AlignmentReport
    timestamp: int = 0
    delta_computer: DeltaComputer | None = field(default=None, repr=False, compare=False)

    def commit(self) -> None:
        """Advance the source's consumed snapshot to this run's entities."""
        if self.delta_computer is not None:
            self.delta_computer.commit(self.source_id, self.entities, self.timestamp)

    def summary(self) -> dict[str, object]:
        """Compact run summary for logging and tests."""
        return {
            "source_id": self.source_id,
            "entities": len(self.entities),
            "integrity_rejected": self.integrity.rejected,
            "delta": self.delta.summary(),
            "exported_triples": self.exported.triple_count(),
        }


class IngestionPipeline:
    """Config-driven ingestion pipeline for one data source."""

    def __init__(
        self,
        source_id: str,
        ontology: Ontology,
        transformer: EntityTransformer | None = None,
        alignment: AlignmentConfig | None = None,
        delta_computer: DeltaComputer | None = None,
    ) -> None:
        self.source_id = source_id
        self.ontology = ontology
        self.transformer = transformer or EntityTransformer(source_id=source_id)
        self.alignment = alignment or AlignmentConfig(source_id=source_id)
        self.aligner = OntologyAligner(ontology, self.alignment)
        self.delta_computer = delta_computer or DeltaComputer(ontology=ontology)
        self._runs = 0

    # -------------------------------------------------------------- #
    # running over raw rows or an importer
    # -------------------------------------------------------------- #
    def run(self, importer: Importer, timestamp: int | None = None) -> IngestionResult:
        """Run the full pipeline over an importer's payload."""
        rows = importer.read()
        return self.run_rows(rows, timestamp=timestamp)

    def run_rows(self, rows: Iterable[Row], timestamp: int | None = None) -> IngestionResult:
        """Run the pipeline over already-imported rows."""
        entities, integrity = self.transformer.transform(rows)
        return self._finish(entities, integrity, timestamp)

    def run_entities(
        self, entities: Sequence[SourceEntity], timestamp: int | None = None
    ) -> IngestionResult:
        """Run alignment + delta + export over pre-built entity records.

        Used when an upstream team already produces entity-centric payloads
        (and by the synthetic data generator in tests and benchmarks).
        """
        integrity = IntegrityReport(total=len(entities), passed=len(entities))
        return self._finish(list(entities), integrity, timestamp)

    def _finish(
        self,
        entities: list[SourceEntity],
        integrity: IntegrityReport,
        timestamp: int | None,
    ) -> IngestionResult:
        if not entities and integrity.total:
            raise IngestionError(
                f"source {self.source_id!r}: every entity was rejected by "
                f"integrity checks ({integrity.violations[:3]}...)"
            )
        aligned, alignment_report = self.aligner.align(entities)
        self._runs += 1
        effective_timestamp = timestamp if timestamp is not None else self._runs
        delta = self.delta_computer.peek(
            self.source_id, aligned, timestamp=effective_timestamp
        )
        exported = export_delta(delta)
        return IngestionResult(
            source_id=self.source_id,
            entities=aligned,
            delta=delta,
            exported=exported,
            integrity=integrity,
            alignment=alignment_report,
            timestamp=effective_timestamp,
            delta_computer=self.delta_computer,
        )


@dataclass
class IngestionHub:
    """Registry of per-source pipelines (the "source ingestion platform").

    Pipelines for different sources are independent, which is what lets the
    production system run them in parallel; here the platform runs them one
    after another (``SagaPlatform.ingest_batch``), refusing a batch that
    names a source twice.
    """

    ontology: Ontology
    pipelines: dict[str, IngestionPipeline] = field(default_factory=dict)

    def register(self, pipeline: IngestionPipeline) -> IngestionPipeline:
        """Register a pipeline under its source id."""
        self.pipelines[pipeline.source_id] = pipeline
        return pipeline

    def register_source(
        self,
        source_id: str,
        transformer: EntityTransformer | None = None,
        alignment: AlignmentConfig | None = None,
    ) -> IngestionPipeline:
        """Create and register a pipeline for *source_id* with shared defaults."""
        pipeline = IngestionPipeline(
            source_id=source_id,
            ontology=self.ontology,
            transformer=transformer,
            alignment=alignment,
        )
        return self.register(pipeline)

    def get(self, source_id: str) -> IngestionPipeline:
        """Return the pipeline registered for *source_id*."""
        try:
            return self.pipelines[source_id]
        except KeyError:
            raise IngestionError(f"no ingestion pipeline registered for {source_id!r}") from None
