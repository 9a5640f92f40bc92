"""Source ingestion: ontology alignment, delta computation and export.

A source hands the platform entity-centric
:class:`~repro.model.entity.SourceEntity` records; its
:class:`IngestionPipeline` aligns them to the ontology, computes the delta
against the snapshot the KG consumed last and exports it.
"""

from repro.ingestion.alignment import (
    PGF,
    AlignmentConfig,
    AlignmentReport,
    OntologyAligner,
    PredicateGenerationFunction,
    join_title,
    split_list,
    to_int,
)
from repro.ingestion.delta import DeltaComputer
from repro.ingestion.export import ExportedDelta, export_delta, export_entities
from repro.ingestion.pipeline import IngestionHub, IngestionPipeline, IngestionResult

__all__ = [
    "PGF",
    "AlignmentConfig",
    "AlignmentReport",
    "DeltaComputer",
    "ExportedDelta",
    "IngestionHub",
    "IngestionPipeline",
    "IngestionResult",
    "OntologyAligner",
    "PredicateGenerationFunction",
    "export_delta",
    "export_entities",
    "join_title",
    "split_list",
    "to_int",
]
