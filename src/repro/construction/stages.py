"""The staged construction pipeline core (Section 2.4, Figure 5).

The paper's construction pipeline is a fixed chain of stages — blocking →
pair generation → matching → clustering → object resolution → fusion — where
everything before fusion is independent per source (and per entity-type
partition) and fusion is the single synchronization point.  This module
defines the composable core both :class:`~repro.construction.incremental.
IncrementalConstructor` and :class:`~repro.construction.pipeline.
KnowledgeConstructionPipeline` build on:

* :class:`StageContext` — the per-partition state a payload accumulates while
  flowing through the stages (records in, blocks, candidate pairs, scored
  pairs, clusters out; plus the fields the resolution and fusion stages
  read);
* :class:`ConstructionStage` — the protocol every stage implements (a ``name``
  and a ``run(context)`` that advances the context);
* :class:`StagePipeline` — a deterministic stage chain.

The concrete stages live next to the machinery they wrap —
:class:`~repro.construction.blocking.BlockingStage`,
:class:`~repro.construction.pairs.PairGenerationStage`,
:class:`~repro.construction.matching.MatchingStage`,
:class:`~repro.construction.clustering.ClusteringStage` before fusion,
:class:`~repro.construction.object_resolution.ResolutionStage` and
:class:`~repro.construction.fusion.FusionStage` at it.  Every stage runs on
the caller's thread, one delta at a time.  The pre-fusion stages only read
shared state (the KG view and the payload) and never mint identifiers, so a
process pool could take them over at one call site
(:meth:`~repro.construction.linking.Linker.link`) without changing what a
commit produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

if TYPE_CHECKING:  # real types live in the stage modules; no runtime cycle
    from repro.construction.blocking import Block
    from repro.construction.clustering import EntityCluster
    from repro.construction.matching import ScoredPair
    from repro.construction.object_resolution import (
        ObjectResolutionStage,
        ObjectResolutionStats,
    )
    from repro.construction.pairs import CandidatePair
    from repro.construction.records import LinkableRecord
    from repro.construction.fusion import FusionReport
    from repro.model.entity import SourceEntity
    from repro.model.triples import ExtendedTriple, TripleStore


@dataclass
class StageContext:
    """Per-partition state carried through the construction stages.

    The *pre-fusion* fields (``source_records`` / ``kg_records`` in; ``blocks``,
    ``pairs``, ``scored``, ``clusters`` out) never touch shared mutable state.
    The *fusion* fields (``store``, ``entities``, ``assignments``,
    ``resolution``, ``same_as``, ``subjects``, ``fusion_kind``) are where
    object resolution rewrites linked triples against the live store and
    fusion commits them.
    """

    source_id: str = ""
    entity_type: str = ""
    # ---- pre-fusion state ---------------------------------------------- #
    source_records: list["LinkableRecord"] = field(default_factory=list)
    kg_records: list["LinkableRecord"] = field(default_factory=list)
    blocks: list["Block"] | None = None
    pairs: list["CandidatePair"] | None = None
    scored: list["ScoredPair"] | None = None
    clusters: list["EntityCluster"] | None = None
    # ---- fusion state -------------------------------------------------- #
    store: "TripleStore | None" = None
    entities: list["SourceEntity"] = field(default_factory=list)
    assignments: dict[str, str] = field(default_factory=dict)
    same_as: list[tuple[str, str]] = field(default_factory=list)
    subjects: list[str] = field(default_factory=list)
    resolution: "ObjectResolutionStage | None" = None
    triples_by_subject: dict[str, list["ExtendedTriple"]] | None = None
    resolution_stats: "ObjectResolutionStats | None" = None
    fusion_kind: str = "added"
    fusion_report: "FusionReport | None" = None

    def combined_records(self) -> list["LinkableRecord"]:
        """The combined payload linking operates over: source then KG records."""
        return [*self.source_records, *self.kg_records]


@runtime_checkable
class ConstructionStage(Protocol):
    """One stage of the construction pipeline.

    Stages advance a :class:`StageContext` in place (and return it for
    chaining).  Pre-fusion stages must be pure with respect to shared state:
    they may read the KG view embedded in the context but must not mutate the
    triple store, the link table, or mint identifiers — those effects belong
    to resolution and fusion.
    """

    name: str

    def run(self, context: StageContext) -> StageContext:
        """Advance *context* by one stage."""
        ...


@dataclass
class StagePipeline:
    """A deterministic chain of construction stages."""

    stages: Sequence[ConstructionStage]

    def run(self, context: StageContext) -> StageContext:
        """Run every stage over *context* in order."""
        for stage in self.stages:
            stage.run(context)
        return context
