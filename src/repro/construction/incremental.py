"""Incremental, delta-based knowledge construction (Section 2.4, Figure 5).

The :class:`IncrementalConstructor` consumes :class:`SourceDelta` payloads and
applies the per-partition paths of the paper's construction pipeline:

* **Added** entities run the full linking pipeline (blocking, matching,
  clustering) against a KG view of the relevant entity types, then object
  resolution, then fusion;
* **Updated** / **Deleted** entities are *already linked* — their KG ids are
  looked up in the link table (``same_as`` state) and only object resolution
  and fusion run;
* **Volatile** payloads bypass linking entirely and take the optimized
  partition-overwrite fusion path.

The constructor keeps the link table (source entity id → KG id) across runs so
that repeated consumption of the same source is incremental.

:meth:`IncrementalConstructor.consume` commits one delta on the calling
thread, as plain calls: :meth:`~repro.construction.linking.Linker.link` runs
blocking → pair generation → matching → clustering per entity type against
the KG as every earlier commit left it and mints identifiers, then
:meth:`ObjectResolutionStage.resolve_linked` resolves objects and a
:class:`Fusion` method fuses the partition.  Deltas commit one at a time, so
fusion — the paper's only synchronization point — needs no further
coordination.

Every commit also classifies its effect on the KG into an
:class:`EntityDelta` (added / updated / deleted subjects), which the platform
publishes directly into the Graph Engine's delta journals — no store
re-diffing downstream.  A commit that fails part-way still classifies what
its earlier steps fused, so that part is published too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.construction.fusion import Fusion, FusionConfig, FusionReport
from repro.construction.linking import Linker, LinkingConfig
from repro.construction.matching import MatcherRegistry
from repro.construction.object_resolution import (
    NameIndexResolver,
    ObjectResolutionStage,
    ObjectResolutionStats,
    ObjectResolver,
)
from repro.model.delta import SourceDelta
from repro.model.entity import (
    SAME_AS_PREDICATE,
    KGEntity,
    SourceEntity,
    materialize_entities,
)
from repro.model.identifiers import IdGenerator
from repro.model.ontology import Ontology
from repro.model.triples import ExtendedTriple, TripleStore


@dataclass(frozen=True)
class EntityDelta:
    """Classified KG-subject delta of one construction commit.

    ``added`` subjects did not exist in the store before the commit,
    ``updated`` subjects existed and had facts change (including provenance
    reinforcement), and ``deleted`` subjects lost their last knowledge-bearing
    fact (their final supporting source retracted).  A subject a source
    retracted that other sources still support classifies as *updated* — the
    entity is alive, only its fact set shrank.  Liveness deliberately ignores
    ``same_as`` rows: fusion keeps linking provenance as a tombstone after a
    retraction, but an entity whose only remaining facts are ``same_as``
    mappings has left the knowledge graph from every consumer's perspective.
    All tuples are sorted.
    """

    added: tuple[str, ...] = ()
    updated: tuple[str, ...] = ()
    deleted: tuple[str, ...] = ()

    @property
    def changed(self) -> tuple[str, ...]:
        """Added plus updated subjects."""
        return self.added + self.updated

    def is_empty(self) -> bool:
        """Whether the commit changed no subject at all."""
        return not (self.added or self.updated or self.deleted)

    def as_dict(self) -> dict[str, list[str]]:
        """Plain-dict view of the three tuples."""
        return {
            "added": list(self.added),
            "updated": list(self.updated),
            "deleted": list(self.deleted),
        }


@dataclass
class ConstructionReport:
    """Summary of consuming one source delta."""

    source_id: str
    timestamp: int = 0
    commit_clock: int = 0          # logical clock stamped at fusion-commit time
    linked_added: int = 0
    new_entities: int = 0
    updated_entities: int = 0
    deleted_entities: int = 0
    volatile_entities: int = 0
    fusion: FusionReport = field(default_factory=FusionReport)
    object_resolution: ObjectResolutionStats = field(default_factory=ObjectResolutionStats)
    entity_delta: EntityDelta = field(default_factory=EntityDelta)
    # Always 0: commits never plan ahead, so nothing is replanned.  Kept only
    # because bench_e2e/harness.py reads it; it goes when the benchmark drops
    # construction.plans_replanned.
    plans_replanned: int = 0
    error: str | None = None       # set when the commit raised part-way

    def summary(self) -> dict[str, object]:
        """Compact dictionary view used in logs and tests."""
        return {
            "source_id": self.source_id,
            "timestamp": self.timestamp,
            "linked_added": self.linked_added,
            "new_entities": self.new_entities,
            "updated": self.updated_entities,
            "deleted": self.deleted_entities,
            "volatile": self.volatile_entities,
            "facts_added": self.fusion.facts_added,
            "facts_reinforced": self.fusion.facts_reinforced,
            "facts_removed": self.fusion.facts_removed,
            "error": self.error,
        }


class _CommitTracker:
    """Pre-commit existence snapshots of every touched subject.

    ``note`` must be called with the subjects a fusion step is about to touch
    *before* the step runs; ``finalize`` then classifies the commit's net
    effect into an :class:`EntityDelta` against the post-commit store."""

    def __init__(self, store: TripleStore) -> None:
        self.store = store
        self.pre_existing: dict[str, bool] = {}

    def alive(self, subject: str) -> bool:
        """Whether *subject* carries knowledge-bearing facts.

        ``same_as`` rows do not count as life: fusion keeps linking provenance
        as a tombstone after a full retraction, but such an entity is gone
        from every downstream consumer's perspective.
        """
        # Columnar scan: liveness is order-independent, so skip the
        # materialized, repr-sorted facts_about path entirely.
        for predicate, is_composite, _ in self.store.scan_subject(subject):
            if is_composite or predicate != SAME_AS_PREDICATE:
                return True
        return False

    def note(self, subjects: Iterable[str]) -> None:
        """Snapshot existence of *subjects* before they are touched."""
        for subject in subjects:
            if subject not in self.pre_existing:
                self.pre_existing[subject] = self.alive(subject)

    def finalize(self, touched: Iterable[str]) -> EntityDelta:
        """Classify the touched subjects against the post-commit store."""
        added: list[str] = []
        updated: list[str] = []
        deleted: list[str] = []
        for subject in sorted(set(touched)):
            exists_now = self.alive(subject)
            existed_before = self.pre_existing.get(subject, False)
            if not exists_now:
                if existed_before:
                    deleted.append(subject)
                # Never existed and still does not: a touched no-op (e.g. a
                # deletion of an entity another source already removed).
            elif existed_before:
                updated.append(subject)
            else:
                added.append(subject)
        return EntityDelta(added=tuple(added), updated=tuple(updated), deleted=tuple(deleted))


class IncrementalConstructor:
    """Delta-based construction of the KG over a shared triple store."""

    def __init__(
        self,
        ontology: Ontology,
        store: TripleStore | None = None,
        matchers: MatcherRegistry | None = None,
        linking_config: LinkingConfig | None = None,
        fusion_config: FusionConfig | None = None,
        resolver: ObjectResolver | None = None,
        id_generator: IdGenerator | None = None,
        obr_confidence_threshold: float = 0.9,
        obr_create_missing: bool = True,
    ) -> None:
        self.ontology = ontology
        self.store = store if store is not None else TripleStore()
        self.id_generator = id_generator or IdGenerator()
        self.linker = Linker(
            ontology,
            matchers=matchers,
            id_generator=self.id_generator,
            config=linking_config,
        )
        self.fusion = Fusion(ontology, fusion_config)
        self._external_resolver = resolver
        self.obr_confidence_threshold = obr_confidence_threshold
        self.obr_create_missing = obr_create_missing
        self.link_table: dict[str, str] = {}

    # -------------------------------------------------------------- #
    # public API
    # -------------------------------------------------------------- #
    def consume(self, delta: SourceDelta) -> ConstructionReport:
        """Commit one delta to the KG: added, updated, deleted, then volatile.

        A step that raises leaves in the store whatever the steps before it
        (and possibly itself) fused.  The exception propagates unchanged,
        carrying the failed report as ``construction_report``: its ``error``
        is set and its ``entity_delta`` classifies every subject the commit
        had noted — subjects are noted before each fusion step, so that
        covers anything the failing step may have touched.
        """
        report = ConstructionReport(source_id=delta.source_id, timestamp=delta.to_timestamp)
        tracker = _CommitTracker(self.store)
        try:
            obr = ObjectResolutionStage(
                ontology=self.ontology,
                resolver=self._resolver(),
                id_generator=self.id_generator,
                confidence_threshold=self.obr_confidence_threshold,
                create_missing=self.obr_create_missing,
            )
            self._commit_added(delta.added, obr, report, tracker)
            self._commit_updated(delta, obr, report, tracker)
            self._commit_deleted(delta, report, tracker)
            self._commit_volatile(delta, report, tracker)
        except Exception as exc:
            report.error = f"{type(exc).__name__}: {exc}"
            report.entity_delta = tracker.finalize(tracker.pre_existing)
            exc.construction_report = report
            raise
        report.entity_delta = tracker.finalize(report.fusion.subjects_touched)
        return report

    def kg_view(self, entity_types: Sequence[str] = ()) -> list[KGEntity]:
        """Materialize a KG view restricted to *entity_types* (all when empty).

        This is the "extract a subgraph containing relevant entities" step of
        the linking pipeline (Section 2.3, step 1).  Untyped entities are in
        every view.
        """
        entities = materialize_entities(self.store).values()
        if not entity_types:
            return list(entities)
        allowed = set(entity_types)
        return [
            entity for entity in entities
            if not entity.types or any(self._type_matches(t, allowed) for t in entity.types)
        ]

    def entity_count(self) -> int:
        """Number of entities currently in the KG."""
        return self.store.entity_count()

    def fact_count(self) -> int:
        """Number of facts currently in the KG."""
        return self.store.fact_count()

    # -------------------------------------------------------------- #
    # per-partition commit paths
    # -------------------------------------------------------------- #
    def _commit_added(
        self,
        entities: Sequence[SourceEntity],
        obr: ObjectResolutionStage,
        report: ConstructionReport,
        tracker: _CommitTracker,
    ) -> None:
        if not entities:
            return
        payload_types = sorted({e.entity_type for e in entities if e.entity_type})
        linking = self.linker.link(entities, self.kg_view(payload_types))
        report.linked_added += len(linking.assignments)
        report.new_entities += len(linking.new_entities)
        self.link_table.update(linking.assignments)
        self._resolve_and_fuse(
            entities,
            linking.assignments,
            linking.same_as_links(),
            lambda triples, same_as: self.fusion.fuse_added(self.store, triples, same_as),
            obr,
            report,
            tracker,
        )

    def _commit_updated(
        self,
        delta: SourceDelta,
        obr: ObjectResolutionStage,
        report: ConstructionReport,
        tracker: _CommitTracker,
    ) -> None:
        if not delta.updated:
            return
        # Entities linked by this very delta's added partition are known by
        # now.  Entities never seen before (e.g. the platform was bootstrapped
        # after the source started publishing) take the full linking path.
        known = [e for e in delta.updated if e.entity_id in self.link_table]
        unknown = [e for e in delta.updated if e.entity_id not in self.link_table]
        if unknown:
            self._commit_added(unknown, obr, report, tracker)
        if not known:
            return
        assignments = {e.entity_id: self.link_table[e.entity_id] for e in known}
        report.updated_entities = len(known)
        self._resolve_and_fuse(
            known,
            assignments,
            [(kg_id, source_id) for source_id, kg_id in assignments.items()],
            lambda triples, same_as: self.fusion.fuse_updated(
                self.store, delta.source_id, triples, same_as
            ),
            obr,
            report,
            tracker,
        )

    def _commit_deleted(
        self,
        delta: SourceDelta,
        report: ConstructionReport,
        tracker: _CommitTracker,
    ) -> None:
        if not delta.deleted:
            return
        subjects = []
        for entity in delta.deleted:
            kg_id = self.link_table.get(entity.entity_id)
            if kg_id is not None:
                subjects.append(kg_id)
        report.deleted_entities = len(subjects)
        tracker.note(subjects)
        report.fusion.merge(self.fusion.fuse_deleted(self.store, delta.source_id, subjects))

    def _commit_volatile(
        self,
        delta: SourceDelta,
        report: ConstructionReport,
        tracker: _CommitTracker,
    ) -> None:
        if not delta.volatile:
            return
        triples_by_subject: dict[str, list[ExtendedTriple]] = {}
        count = 0
        for entity in delta.volatile:
            kg_id = self.link_table.get(entity.entity_id)
            if kg_id is None:
                continue
            count += 1
            triples = [t.with_subject(kg_id) for t in entity.to_triples()]
            triples_by_subject.setdefault(kg_id, []).extend(triples)
        report.volatile_entities = count
        tracker.note(triples_by_subject)
        report.fusion.merge(
            self.fusion.fuse_volatile(self.store, delta.source_id, triples_by_subject)
        )

    def _resolve_and_fuse(
        self,
        entities: Sequence[SourceEntity],
        assignments: dict[str, str],
        same_as: list[tuple[str, str]],
        fuse: Callable[
            [dict[str, list[ExtendedTriple]], list[tuple[str, str]]], FusionReport
        ],
        obr: ObjectResolutionStage,
        report: ConstructionReport,
        tracker: _CommitTracker,
    ) -> None:
        """Resolve linked entities, note what fusion will touch, then fuse."""
        triples_by_subject, stats = obr.resolve_linked(entities, assignments)
        total = report.object_resolution
        total.examined += stats.examined
        total.resolved += stats.resolved
        total.created += stats.created
        total.unresolved += stats.unresolved
        tracker.note([*triples_by_subject, *(kg_id for kg_id, _ in same_as)])
        report.fusion.merge(fuse(triples_by_subject, same_as))

    # -------------------------------------------------------------- #
    # helpers
    # -------------------------------------------------------------- #
    def _resolver(self) -> ObjectResolver:
        if self._external_resolver is not None:
            return self._external_resolver
        return NameIndexResolver(self.store, self.ontology)

    def _type_matches(self, entity_type: str, allowed: set[str]) -> bool:
        if entity_type in allowed:
            return True
        if not self.ontology.has_type(entity_type):
            return False
        return any(
            self.ontology.has_type(candidate)
            and self.ontology.compatible_types(entity_type, candidate)
            for candidate in allowed
        )
