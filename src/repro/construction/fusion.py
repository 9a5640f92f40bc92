"""Fusion: merge linked source payloads into a consistent KG (Section 2.3).

Fusion is the only step of construction that writes the shared triple store,
so it is the pipeline's one synchronization point (Section 2.4, Figure 5).  A
commit calls one method per partition of a source delta:
:meth:`~Fusion.fuse_added`, :meth:`~Fusion.fuse_updated` (retract, then
re-assert), :meth:`~Fusion.fuse_deleted` (retract) and
:meth:`~Fusion.fuse_volatile` (replace the source's volatile facts of each
subject).

Fusion is non-destructive: facts are never overwritten, instead provenance is
extended when a source re-asserts an existing fact and removed when a source
retracts it.  Fusing a payload handles three kinds of work:

* **simple facts** — an outer join with the KG triples: existing facts gain
  the new source in their provenance, new facts are added;
* **composite facts** — relationship nodes from the source are compared to the
  KG's relationship nodes for the same ``(subject, predicate)``; nodes with
  sufficient fact overlap are merged (the source triples are rewritten onto
  the existing relationship id), others are added as new nodes;
* **conflicts** — functional (single-valued) predicates with disagreeing
  values are scored with truth discovery; the per-value confidence is stored
  and exposed so downstream consumers (targeted fact curation, serving views)
  can pick the best value or flag the fact for auditing.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.construction.truth_discovery import Claim, TruthDiscovery, TruthDiscoveryResult
from repro.model.entity import SAME_AS_PREDICATE, RelationshipNode
from repro.model.ontology import Ontology
from repro.model.provenance import Provenance
from repro.model.triples import ExtendedTriple, TripleStore


@dataclass
class FusionReport:
    """Counters for one fusion pass."""

    facts_added: int = 0
    facts_reinforced: int = 0      # existing facts whose provenance gained a source
    relationship_nodes_merged: int = 0
    relationship_nodes_added: int = 0
    facts_removed: int = 0
    subjects_touched: set[str] = field(default_factory=set)
    conflicts_detected: int = 0

    def merge(self, other: "FusionReport") -> "FusionReport":
        """Accumulate another report into this one and return self."""
        self.facts_added += other.facts_added
        self.facts_reinforced += other.facts_reinforced
        self.relationship_nodes_merged += other.relationship_nodes_merged
        self.relationship_nodes_added += other.relationship_nodes_added
        self.facts_removed += other.facts_removed
        self.subjects_touched |= other.subjects_touched
        self.conflicts_detected += other.conflicts_detected
        return self


RELATIONSHIP_OVERLAP_THRESHOLD = 0.5
"""An incoming relationship node merges into the existing node of the same
``(subject, predicate)`` whose fact overlap is the largest and at least this."""


class Fusion:
    """Fuse linked, object-resolved triples into the KG triple store."""

    def __init__(self, ontology: Ontology) -> None:
        self.ontology = ontology
        self._truth = TruthDiscovery()
        self.last_truth_result: TruthDiscoveryResult | None = None

    # -------------------------------------------------------------- #
    # add / update paths
    # -------------------------------------------------------------- #
    def fuse_added(
        self,
        store: TripleStore,
        triples_by_subject: dict[str, list[ExtendedTriple]],
        same_as: Iterable[tuple[str, str]] = (),
    ) -> FusionReport:
        """Fuse newly linked payloads (the *Added* partition)."""
        report = FusionReport()
        for subject, triples in sorted(triples_by_subject.items()):
            report.merge(self._fuse_subject(store, subject, triples))
        report.merge(self._record_same_as(store, same_as))
        report.conflicts_detected = self._score_conflicts(store, report.subjects_touched)
        return report

    def fuse_updated(
        self,
        store: TripleStore,
        source_id: str,
        triples_by_subject: dict[str, list[ExtendedTriple]],
        same_as: Iterable[tuple[str, str]] = (),
    ) -> FusionReport:
        """Fuse the *Updated* partition of one source.

        The source's previous contribution to each updated subject is
        retracted first (provenance removal, purging facts left unsupported),
        then the new payload is fused like an add — which is exactly the
        "retract then re-assert" semantics of an upstream edit.
        """
        report = FusionReport()
        report.facts_removed += self._retract_source_facts(
            store, sorted(triples_by_subject), source_id
        )
        report.merge(self.fuse_added(store, triples_by_subject, same_as))
        return report

    def fuse_deleted(
        self, store: TripleStore, source_id: str, subjects: Iterable[str]
    ) -> FusionReport:
        """Fuse the *Deleted* partition: retract one source from the subjects."""
        report = FusionReport()
        deleted = sorted(set(subjects))
        report.facts_removed += self._retract_source_facts(store, deleted, source_id)
        report.subjects_touched |= set(deleted)
        return report

    def fuse_volatile(
        self,
        store: TripleStore,
        source_id: str,
        triples_by_subject: dict[str, list[ExtendedTriple]],
    ) -> FusionReport:
        """Overwrite the volatile partition of a source (optimized path, §2.4).

        Volatile predicates (popularity and friends) bypass the join-based
        fusion: the source's previous volatile facts for each subject are
        dropped wholesale and replaced by the fresh ones.  A subject whose
        stored facts from the source already equal the fresh ones (predicate,
        value and provenance) is left alone and not counted as touched.
        """
        volatile_predicates = self.ontology.volatile_predicates()
        report = FusionReport()
        for subject, triples in sorted(triples_by_subject.items()):
            fresh = [t for t in triples if t.predicate in volatile_predicates]
            # The (subject, predicate) value lookup turns most changed
            # subjects away before their facts are materialized; a payload
            # that repeats a fact key merges on re-add, so it is rewritten.
            if all(t.obj in store.values_of(subject, t.predicate) for t in fresh):
                claimed = {t.key(): t.provenance for t in fresh}
                stored = {
                    t.key(): t.provenance.restrict_to((source_id,))
                    for t in store.facts_about(subject)
                    if t.predicate in volatile_predicates and source_id in t.provenance
                }
                if len(claimed) == len(fresh) and claimed == stored:
                    continue
            report.facts_removed += store.retract_source_from_subjects(
                source_id, (subject,), only_predicates=volatile_predicates
            )
            for triple in fresh:
                self._add_fact(store, triple, report)
            report.subjects_touched.add(subject)
        return report

    # -------------------------------------------------------------- #
    # conflict scoring
    # -------------------------------------------------------------- #
    def resolve_functional_conflicts(
        self, store: TripleStore, subjects: Iterable[str] | None = None
    ) -> TruthDiscoveryResult:
        """Run truth discovery over functional predicates with conflicts.

        Returns the full result; the resolved best value per ``(subject,
        predicate)`` is what serving views use when they need a single value.
        """
        claims: list[Claim] = []
        subject_pool = set(subjects) if subjects is not None else store.subjects()
        for subject in subject_pool:
            grouped: dict[str, list[ExtendedTriple]] = defaultdict(list)
            for triple in store.facts_about(subject):
                if triple.is_composite:
                    continue
                if not self.ontology.has_predicate(triple.predicate):
                    continue
                if self.ontology.predicate(triple.predicate).is_functional:
                    grouped[triple.predicate].append(triple)
            for predicate, triples in grouped.items():
                if len({t.obj for t in triples}) < 2:
                    continue
                for triple in triples:
                    for reference in triple.provenance.references:
                        claims.append(
                            Claim(
                                item=(subject, predicate),
                                value=triple.obj,
                                source_id=reference.source_id,
                                prior_trust=reference.trust,
                            )
                        )
        result = self._truth.run(claims)
        self.last_truth_result = result
        return result

    # -------------------------------------------------------------- #
    # internals
    # -------------------------------------------------------------- #
    def _fuse_subject(
        self, store: TripleStore, subject: str, triples: Sequence[ExtendedTriple]
    ) -> FusionReport:
        report = FusionReport()
        report.subjects_touched.add(subject)
        simple = [t for t in triples if not t.is_composite]
        composite = [t for t in triples if t.is_composite]

        for triple in simple:
            self._add_fact(store, triple, report)

        # Group incoming composite triples into relationship nodes.
        incoming_nodes: dict[tuple[str, str], list[ExtendedTriple]] = defaultdict(list)
        for triple in composite:
            incoming_nodes[(triple.predicate, triple.relationship_id)].append(triple)

        for (predicate, node_id), node_triples in sorted(incoming_nodes.items()):
            merged = self._merge_relationship_node(
                store, subject, predicate, node_id, node_triples, report
            )
            if merged:
                report.relationship_nodes_merged += 1
            else:
                report.relationship_nodes_added += 1
        return report

    def _merge_relationship_node(
        self,
        store: TripleStore,
        subject: str,
        predicate: str,
        node_id: str,
        node_triples: list[ExtendedTriple],
        report: FusionReport,
    ) -> bool:
        incoming = RelationshipNode(
            relationship_id=node_id,
            predicate=predicate,
            facts={t.relationship_predicate: t.obj for t in node_triples},
        )
        existing_nodes = store.relationship_facts(subject, predicate)
        best_id, best_overlap = None, 0.0
        for existing_id, existing_triples in existing_nodes.items():
            existing = RelationshipNode(
                relationship_id=existing_id,
                predicate=predicate,
                facts={t.relationship_predicate: t.obj for t in existing_triples},
            )
            overlap = incoming.overlap(existing)
            if overlap > best_overlap:
                best_overlap, best_id = overlap, existing_id

        target_id = node_id
        merged = False
        if best_id is not None and best_overlap >= RELATIONSHIP_OVERLAP_THRESHOLD:
            target_id = best_id
            merged = True
        for triple in node_triples:
            rewritten = ExtendedTriple(
                subject=subject,
                predicate=predicate,
                obj=triple.obj,
                relationship_id=target_id,
                relationship_predicate=triple.relationship_predicate,
                locale=triple.locale,
                provenance=triple.provenance,
            )
            self._add_fact(store, rewritten, report)
        return merged

    def _add_fact(
        self, store: TripleStore, triple: ExtendedTriple, report: FusionReport
    ) -> None:
        before = store.fact_count()
        store.add(triple)
        if store.fact_count() == before:
            report.facts_reinforced += 1
        else:
            report.facts_added += 1

    def _retract_source_facts(
        self, store: TripleStore, subjects: Sequence[str], source_id: str
    ) -> int:
        return store.retract_source_from_subjects(
            source_id, subjects, skip_predicates=(SAME_AS_PREDICATE,)
        )

    def _record_same_as(
        self, store: TripleStore, same_as: Iterable[tuple[str, str]]
    ) -> FusionReport:
        report = FusionReport()
        for kg_id, source_entity_id in same_as:
            source_id = source_entity_id.split(":", 1)[0]
            triple = ExtendedTriple(
                subject=kg_id,
                predicate=SAME_AS_PREDICATE,
                obj=source_entity_id,
                provenance=Provenance.from_source(source_id, 0.99),
            )
            self._add_fact(store, triple, report)
            report.subjects_touched.add(kg_id)
        return report

    def _score_conflicts(self, store: TripleStore, subjects: set[str]) -> int:
        result = self.resolve_functional_conflicts(store, subjects)
        return len({item for (item, _), _ in result.value_confidence.items()})
