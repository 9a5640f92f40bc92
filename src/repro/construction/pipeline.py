"""Multi-source knowledge construction pipeline (Figures 4 and 5).

:class:`KnowledgeConstructionPipeline` coordinates ingestion results from
many sources into a single KG.  Per the paper, each source's processing
before fusion is independent and fusion is the synchronization point; here
a batch commits one delta at a time, in input order, on the calling thread,
so a batch produces exactly what consuming its payloads one by one does.
The pipeline records growth history (facts / entities over time), the
measurement behind Figure 12 — growth points are stamped with a logical
clock at commit time, so the series depends only on commit order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.construction.incremental import ConstructionReport, IncrementalConstructor
from repro.construction.matching import MatcherRegistry
from repro.errors import ConstructionBatchError
from repro.ingestion.pipeline import IngestionResult
from repro.model.delta import SourceDelta
from repro.model.ontology import Ontology
from repro.model.triples import TripleStore


@dataclass
class GrowthPoint:
    """KG size after consuming one payload (one point of Figure 12)."""

    timestamp: int
    source_id: str
    fact_count: int
    entity_count: int


@dataclass
class GrowthHistory:
    """Time series of KG size used to reproduce Figure 12."""

    points: list[GrowthPoint] = field(default_factory=list)

    def record(self, timestamp: int, source_id: str, store: TripleStore) -> GrowthPoint:
        """Append a growth point for the current store size."""
        point = GrowthPoint(
            timestamp=timestamp,
            source_id=source_id,
            fact_count=store.fact_count(),
            entity_count=store.entity_count(),
        )
        self.points.append(point)
        return point

    def relative_growth(self) -> dict[str, float]:
        """Fact and entity growth relative to the first recorded point."""
        if not self.points:
            return {"facts": 1.0, "entities": 1.0}
        first, last = self.points[0], self.points[-1]
        return {
            "facts": last.fact_count / max(first.fact_count, 1),
            "entities": last.entity_count / max(first.entity_count, 1),
        }

    def series(self) -> list[dict[str, object]]:
        """Plain-dict series for reporting."""
        return [
            {
                "timestamp": point.timestamp,
                "source_id": point.source_id,
                "facts": point.fact_count,
                "entities": point.entity_count,
            }
            for point in self.points
        ]


class KnowledgeConstructionPipeline:
    """End-to-end construction over ingestion results from many sources."""

    def __init__(
        self,
        ontology: Ontology,
        store: TripleStore | None = None,
        matchers: MatcherRegistry | None = None,
        constructor: IncrementalConstructor | None = None,
    ) -> None:
        self.ontology = ontology
        if constructor is not None:
            self.constructor = constructor
        else:
            self.constructor = IncrementalConstructor(ontology, store=store, matchers=matchers)
        self.growth = GrowthHistory()
        self.reports: list[ConstructionReport] = []
        self._clock = 0

    @property
    def store(self) -> TripleStore:
        """The KG triple store being constructed."""
        return self.constructor.store

    @property
    def link_table(self) -> dict[str, str]:
        """Source entity id → KG id mapping accumulated so far."""
        return self.constructor.link_table

    # -------------------------------------------------------------- #
    # consumption APIs
    # -------------------------------------------------------------- #
    def consume_delta(self, delta: SourceDelta) -> ConstructionReport:
        """Consume one source delta and record KG growth at its commit.

        A commit that raises propagates its own exception, which carries
        the failed report as ``construction_report``.
        """
        report = self.constructor.consume(delta)
        self._record_commit(report)
        return report

    def consume_many(
        self, payloads: Iterable[SourceDelta | IngestionResult]
    ) -> list[ConstructionReport]:
        """Consume a batch of payloads, one delta at a time in payload order.

        This is the one loop that commits ingestion results: each delta
        commits through :meth:`consume_delta`, and an
        :class:`~repro.ingestion.pipeline.IngestionResult` advances its
        source's consumed snapshot only after its commit succeeded, so the
        same snapshot ingested again retries the whole delta.  A failing
        payload does not abort the batch: the remaining sources keep fusing,
        and a :class:`~repro.errors.ConstructionBatchError` carrying every
        report is raised after the batch.  A failed report has its ``error``
        set and classifies whatever its commit fused before failing.
        """
        reports: list[ConstructionReport] = []
        failures: list[tuple[str, Exception]] = []
        for payload in payloads:
            delta = payload.delta if isinstance(payload, IngestionResult) else payload
            try:
                report = self.consume_delta(delta)
            except Exception as exc:  # noqa: BLE001 - per-source failure isolation
                report = exc.construction_report
                failures.append((delta.source_id, exc))
            else:
                if isinstance(payload, IngestionResult):
                    payload.commit()
            reports.append(report)
        if failures:
            raise ConstructionBatchError(reports, failures)
        return reports

    def _record_commit(self, report: ConstructionReport) -> None:
        """Stamp one commit on the growth clock (commit order).

        Called by :meth:`consume_delta` right after each successful commit,
        never at consumption start, so the Figure 12 series depends only on
        commit order.  Failed payloads consume no clock tick.
        """
        self._clock += 1
        report.commit_clock = self._clock
        self.reports.append(report)
        self.growth.record(self._clock, report.source_id, self.store)

    # -------------------------------------------------------------- #
    # stats
    # -------------------------------------------------------------- #
    def metrics(self) -> dict[str, object]:
        """Aggregate construction metrics across every consumed payload."""
        return {
            "facts": self.store.fact_count(),
            "entities": self.store.entity_count(),
            "sources_consumed": len({report.source_id for report in self.reports}),
            "payloads_consumed": len(self.reports),
            "new_entities": sum(report.new_entities for report in self.reports),
            "facts_added": sum(report.fusion.facts_added for report in self.reports),
            "facts_removed": sum(report.fusion.facts_removed for report in self.reports),
            "relative_growth": self.growth.relative_growth(),
        }
