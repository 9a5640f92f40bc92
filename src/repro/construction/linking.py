"""Linking: in-source deduplication plus subject linking (Section 2.3).

The :class:`Linker` runs the full record-linkage pipeline for a payload of
ontology-aligned source entities against a KG view of the relevant entity
types:

1. group the combined payload by entity type;
2. block (:meth:`Blocker.block`), generate candidate pairs
   (:meth:`PairGenerator.generate`) and score them with the type's matcher
   (:func:`score_pairs`);
3. build the signed linkage graph and run correlation clustering
   (:func:`cluster_records`);
4. assign every source record the identifier of the KG entity in its cluster,
   or mint a new KG identifier when the cluster has none;
5. emit ``same_as`` links recording the provenance of the linking decision.

Steps 1–3 only read the payload and the KG view.  Identifiers are minted
while the clusters are read, in sorted type order, so one payload against one
view always mints the same identifiers in the same order.  Object resolution
and fusion, which write the store, are the constructor's
(:mod:`repro.construction.incremental`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.construction.blocking import Blocker, BlockingConfig
from repro.construction.clustering import ClusteringConfig, EntityCluster, cluster_records
from repro.construction.matching import (
    MatcherRegistry,
    RuleBasedMatcher,
    default_features,
    score_pairs,
)
from repro.construction.pairs import PairGenerationConfig, PairGenerator
from repro.construction.records import LinkableRecord, records_by_type
from repro.ml.similarity import JaroWinklerMemo
from repro.model.entity import KGEntity, SourceEntity
from repro.model.identifiers import IdGenerator
from repro.model.ontology import Ontology


@dataclass
class LinkingConfig:
    """Configuration for one linking run."""

    blocking: BlockingConfig = field(default_factory=BlockingConfig)
    pair_generation: PairGenerationConfig = field(default_factory=PairGenerationConfig)
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)


@dataclass
class LinkingResult:
    """Outcome of linking one payload of source entities."""

    assignments: dict[str, str] = field(default_factory=dict)  # source id -> KG id
    new_entities: set[str] = field(default_factory=set)        # newly minted KG ids
    clusters: list[EntityCluster] = field(default_factory=list)
    scored_pair_count: int = 0
    candidate_pair_count: int = 0

    def kg_id_for(self, source_entity_id: str) -> str | None:
        """KG identifier assigned to a source record, or ``None``."""
        return self.assignments.get(source_entity_id)

    def same_as_links(self) -> list[tuple[str, str]]:
        """``(kg_id, source_entity_id)`` pairs recording linking provenance."""
        return [(kg_id, source_id) for source_id, kg_id in sorted(self.assignments.items())]


class Linker:
    """Full record-linkage pipeline over a combined source + KG-view payload."""

    def __init__(
        self,
        ontology: Ontology,
        matchers: MatcherRegistry | None = None,
        id_generator: IdGenerator | None = None,
        config: LinkingConfig | None = None,
    ) -> None:
        self.ontology = ontology
        if matchers is None:
            matchers = MatcherRegistry(default=RuleBasedMatcher(default_features(ontology)))
        self.matchers = matchers
        self.id_generator = id_generator or IdGenerator()
        self.config = config or LinkingConfig()
        # The linker scopes each blocking run to one source entity type plus
        # the compatible KG-view records, so type partitioning inside the
        # blocker would only prevent legitimate cross-type links (e.g. a
        # source "person" matching a KG "music_artist").
        blocking_config = replace(self.config.blocking, partition_by_type=False)
        self._blocker = Blocker(blocking_config)
        # Same reasoning for pair generation: the per-type scoping already
        # guarantees ontology-compatible pairs, and the exact-equality type
        # check would reject person/music_artist pairs.
        pair_config = replace(self.config.pair_generation, require_compatible_types=False)
        self._pair_generator = PairGenerator(pair_config)

    def link(
        self,
        source_entities: Sequence[SourceEntity],
        kg_view: Sequence[KGEntity] = (),
    ) -> LinkingResult:
        """Link *source_entities* against the KG view.

        The payload is processed per entity type, mirroring the per-type
        pipelines (artist, song, album, ...) described in the paper: each
        type's records and the compatible KG-view records run blocking →
        clustering, then every cluster with source records takes its KG
        record's identifier, or a freshly minted one when it has none.
        Identifiers are minted in sorted type order, then cluster order.
        The records of one call share one Jaro-Winkler memo, so each distinct
        pair of names is compared once per call.
        """
        all_source_records = [LinkableRecord.from_source_entity(e) for e in source_entities]
        kg_records = [LinkableRecord.from_kg_entity(e) for e in kg_view]
        memo = JaroWinklerMemo()
        for record in (*all_source_records, *kg_records):
            record.similarity_memo = memo
        source_by_type = records_by_type(all_source_records)
        kg_by_type = records_by_type(kg_records)
        result = LinkingResult()
        for entity_type, source_records in sorted(source_by_type.items()):
            records = [*source_records, *self.relevant_kg_records(entity_type, kg_by_type)]
            pairs = self._pair_generator.generate(self._blocker.block(records))
            scored = score_pairs(pairs, self.matchers)
            clusters = cluster_records(scored, records, self.config.clustering)
            result.clusters.extend(clusters)
            result.candidate_pair_count += len(pairs)
            result.scored_pair_count += len(scored)
            for cluster in clusters:
                if not cluster.source_records:
                    continue
                if cluster.kg_record is not None:
                    kg_id = cluster.kg_record.record_id
                else:
                    kg_id = self.id_generator.next_id()
                    result.new_entities.add(kg_id)
                for record in cluster.source_records:
                    result.assignments[record.record_id] = kg_id
        return result

    # -------------------------------------------------------------- #
    # internals
    # -------------------------------------------------------------- #
    def relevant_kg_records(
        self, entity_type: str, kg_by_type: dict[str, list[LinkableRecord]]
    ) -> list[LinkableRecord]:
        if not entity_type:
            # Untyped payloads are compared against the full view.
            return [record for records in kg_by_type.values() for record in records]
        relevant = list(kg_by_type.get(entity_type, []))
        # Include KG records of compatible (sub/super) types, e.g. a source
        # "person" may match a KG "music_artist".
        for kg_type, records in kg_by_type.items():
            if kg_type == entity_type:
                continue
            if self.ontology.has_type(kg_type) and self.ontology.has_type(entity_type):
                if self.ontology.compatible_types(kg_type, entity_type):
                    relevant.extend(records)
        return relevant

def evaluate_linking(
    result: LinkingResult,
    truth_map: dict[str, str],
) -> dict[str, float]:
    """Pairwise precision / recall of a linking result against ground truth.

    ``truth_map`` maps source entity ids to ground-truth identifiers.  Two
    source records are a true pair when they share a ground-truth id; they are
    a predicted pair when the linker assigned them the same KG id.
    """
    ids = sorted(set(truth_map) & set(result.assignments))
    true_pairs = set()
    predicted_pairs = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            a, b = ids[i], ids[j]
            if truth_map[a] == truth_map[b]:
                true_pairs.add((a, b))
            if result.assignments[a] == result.assignments[b]:
                predicted_pairs.add((a, b))
    if not predicted_pairs and not true_pairs:
        return {"precision": 1.0, "recall": 1.0, "f1": 1.0}
    true_positive = len(true_pairs & predicted_pairs)
    precision = true_positive / len(predicted_pairs) if predicted_pairs else 0.0
    recall = true_positive / len(true_pairs) if true_pairs else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}
