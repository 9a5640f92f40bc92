"""The Knowledge Graph Query Engine facade (Section 3, Figure 6).

The Graph Engine is the primary store for the KG, computes knowledge views
over the graph, and exposes query APIs to consumers.  It follows a federated
polystore design: specialized stores (entity KV index, full-text index,
vector DB) are kept consistent by replaying a shared operation log through
per-store orchestration agents; log sequence numbers give consumers a
freshness guarantee per store.  The analytics warehouse is no copy: it is a
read-only relational projection of the primary store
(:class:`~repro.engine.analytics.AnalyticsStore`), so it has no agent, never
lags the primary and shows every write to it at once.

The KG construction pipeline is the *sole producer*: it publishes ingest
operations via :meth:`GraphEngine.publish_subjects` (payloads staged in the
object store, operations appended to the log) and the engine replays them into
every registered store.

One payload, staged once: a publish asks the source store for a single
immutable columnar :class:`~repro.model.triples.TripleBatch` of the changed
subjects (:meth:`TripleStore.stage <repro.model.triples.TripleStore.stage>`)
and every agent consumes that same batch.  No relational row dict,
``ExtendedTriple`` or provenance object is built on the way, and a batch
keeps a snapshot's semantics, so a publish made with ``replay=False``
replays what was published however the source store changed in between.

One diff, found once: the primary replays first, translating the batch's
ids into its own dictionaries and applying each subject's diff
(``apply_staged``: an unchanged fact keeps its row, a dropped one is
discarded, a new one is inserted).  What that match found — per subject, a
:class:`~repro.model.triples.SubjectDiff` naming the predicates whose rows
moved — is handed to the derived agents for the rest of that replay only;
it never enters the payload.  The entity store swaps the changed value
lists into a new document, and the text index re-indexes only a subject
whose names, types or description moved.  A subject without a usable
diff — deleted, new, reshaped (a name, type, ``same_as`` or relationship
row moved), or staged by a record the primary did not replay in this pass
(a late agent replaying from LSN 0, a record the primary failed on) — is
re-derived whole from the batch.  So is every
subject published once something wrote into the primary outside replay
(its change counter moved between two of the primary agent's applies): the
derived stores never saw that write, and no diff names its subjects.
:class:`EngineStats` counts both kinds per store.

One delta, built once: the payload also carries the publish's
:class:`~repro.engine.views.ViewDelta` (added / updated / deleted subjects).
The agents iterate it, the coordinator hands it on stamped with the record's
LSN, and the view manager folds it into the deltas its journal events carry
to the serving tier.  A source removal (:meth:`GraphEngine.remove_source`)
is an ordinary publish of the subjects the source touched, staged from the
primary without that source, so it reaches every view and replica as a
delta as well.
"""

from __future__ import annotations

from abc import abstractmethod
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.engine.agents import AgentCoordinator, OrchestrationAgent, ReplayReport
from repro.engine.analytics import AnalyticsStore, EntityViewSpec, Relation
from repro.engine.entity_store import EntityDocument, EntityStore
from repro.engine.importance import ImportanceScore, compute_importance, importance_view_rows
from repro.engine.log import LogRecord, OperationLog
from repro.engine.metadata import MetadataStore
from repro.engine.object_store import ObjectStore
from repro.engine.text_index import InvertedTextIndex, SearchHit, TextDocument
from repro.engine.vector_db import VectorDB
from repro.engine.views import ViewCatalog, ViewContext, ViewDefinition, ViewDelta, ViewManager
from repro.model.entity import NAME_PREDICATES, SAME_AS_PREDICATE, TYPE_PREDICATE, KGEntity
from repro.model.ontology import Ontology
from repro.model.triples import SubjectDiff, TripleBatch, TripleStore

#: Replay order: the primary store must apply an operation before the derived
#: stores read from it.
AGENT_ORDER = ("primary", "entity_store", "text_index")
DERIVED_STORES = AGENT_ORDER[1:]

#: Predicates that shape an entity document beyond its ``facts`` values
#: (its name, types and ``same_as`` links): a diff moving one rebuilds it.
ENTITY_SHAPE_PREDICATES = frozenset((*NAME_PREDICATES, TYPE_PREDICATE, SAME_AS_PREDICATE))
#: Predicates a text document is made of.
TEXT_PREDICATES = frozenset((*NAME_PREDICATES, TYPE_PREDICATE, "description"))

#: The diffs of the replay in progress: log LSN -> subject -> diff.
ReplayDiffs = dict[int, dict[str, SubjectDiff]]


@dataclass
class EngineStats:
    """Operational counters of the Graph Engine.

    ``rederived`` and ``patched`` count, per derived store, the published
    subjects it re-derived whole and those it patched from their diff or
    left as they were; deletions are not counted.
    """

    operations_published: int = 0
    subjects_published: int = 0
    rederived: dict[str, int] = field(default_factory=lambda: dict.fromkeys(DERIVED_STORES, 0))
    patched: dict[str, int] = field(default_factory=lambda: dict.fromkeys(DERIVED_STORES, 0))


class PrimaryStoreAgent(OrchestrationAgent):
    """Maintains the engine's primary extended-triples store and records
    what each replayed batch changed in it.

    A diff is only true for stores that saw every earlier write.  Once the
    store's change counter moves between two of this agent's applies,
    something wrote into the primary outside replay, on subjects no diff
    names: from then on every record is applied without a diff, and the
    derived stores re-derive its subjects whole.  (A provenance-only write
    leaves the counter; no diffed store reads provenance.)
    """

    def __init__(self, store: TripleStore, diffs: ReplayDiffs) -> None:
        super().__init__("primary")
        self.store = store
        self.diffs = diffs
        # the store's version after this agent's last apply; None once the
        # store was written outside replay
        self._version: int | None = store.version

    def apply(self, record: LogRecord, payload: dict) -> None:
        if self.store.version != self._version:
            self._version = None
        self.store.remove_subjects_batch(sorted(payload["delta"].deleted))
        if self._version is None:
            self.store.apply_staged(payload["batch"])
            return
        found: dict[str, SubjectDiff] = {}
        self.store.apply_staged(payload["batch"], found)
        self.diffs[record.lsn] = found
        self._version = self.store.version


class DerivedStoreAgent(OrchestrationAgent):
    """An agent of a store derived from the primary: it reads the diffs the
    primary recorded in this replay and counts what it did per subject."""

    def __init__(self, name: str, diffs: ReplayDiffs, stats: EngineStats) -> None:
        super().__init__(name)
        self.diffs = diffs
        self.stats = stats

    def apply(self, record: LogRecord, payload: dict) -> None:
        batch = payload["batch"]
        rederived = self.apply_batch(
            batch, self.diffs.get(record.lsn, {}), payload["delta"].deleted
        )
        self.stats.rederived[self.name] += rederived
        self.stats.patched[self.name] += len(batch.subjects) - rederived

    @abstractmethod
    def apply_batch(
        self, batch: TripleBatch, diffs: dict[str, SubjectDiff], deleted: frozenset[str]
    ) -> int:
        """Apply one batch and its deletions; return how many of the batch's
        subjects were re-derived whole."""


class StagedEntities:
    """The :class:`KGEntity` of each subject of the batch being replayed
    that a derived store re-derives whole.

    The entity store and the text index replay the same staged batch one
    after the other, and a subject without a usable diff (every subject of
    a bootstrap) needs its assembled entity in both; this one-slot memo
    assembles a subject's entity on the first request for it and hands the
    same entity to the second.  A subject both stores patch is never
    assembled.  It holds one batch's entities — not the payload, which
    lives in the object store for the life of the log — and only while a
    replay runs: :meth:`GraphEngine.replay` releases it when the
    coordinator returns.  A subject staged without facts has no entity.
    """

    def __init__(self) -> None:
        self._batch: TripleBatch | None = None
        self._entities: dict[str, KGEntity | None] = {}

    def of(self, batch: TripleBatch, index: int) -> KGEntity | None:
        """The entity of ``batch.subjects[index]``, or ``None`` without facts."""
        if batch is not self._batch:
            self._batch, self._entities = batch, {}
        subject = batch.subjects[index]
        if subject not in self._entities:
            facts = batch.facts_of(index)
            self._entities[subject] = KGEntity.from_facts(subject, facts) if facts else None
        return self._entities[subject]

    def release(self) -> None:
        """Drop the memoized batch and its entities."""
        self._batch = None
        self._entities = {}


class EntityStoreAgent(DerivedStoreAgent):
    """Maintains the key-value entity index from the staged batch."""

    def __init__(
        self, entity_store: EntityStore, staged: StagedEntities, diffs: ReplayDiffs,
        stats: EngineStats,
    ) -> None:
        super().__init__("entity_store", diffs, stats)
        self.entity_store = entity_store
        self.staged = staged

    def apply_batch(
        self, batch: TripleBatch, diffs: dict[str, SubjectDiff], deleted: frozenset[str]
    ) -> int:
        rederived = 0
        for index, subject in enumerate(batch.subjects):
            diff = diffs.get(subject)
            if diff is not None and not (
                diff.new or diff.composite_moved or diff.moved & ENTITY_SHAPE_PREDICATES
            ):
                objects: dict[str, list[object]] = {predicate: [] for predicate in diff.moved}
                for row in batch.rows_of(index, diff.moved):
                    if row[2] is None:      # a simple fact, not a relationship node's
                        objects[row[1]].append(row[4])
                if self.entity_store.replace_facts(subject, objects):
                    continue
            rederived += 1
            entity = self.staged.of(batch, index)
            if entity is None:
                self.entity_store.delete(subject)
            else:
                self.entity_store.put_entity(entity)
        for subject in sorted(deleted.difference(batch.subjects)):
            self.entity_store.delete(subject)
        return rederived


class TextIndexAgent(DerivedStoreAgent):
    """Maintains the full-text entity index from the staged batch."""

    def __init__(
        self, text_index: InvertedTextIndex, staged: StagedEntities, diffs: ReplayDiffs,
        stats: EngineStats,
    ) -> None:
        super().__init__("text_index", diffs, stats)
        self.text_index = text_index
        self.staged = staged

    def apply_batch(
        self, batch: TripleBatch, diffs: dict[str, SubjectDiff], deleted: frozenset[str]
    ) -> int:
        for subject in sorted(deleted):
            self.text_index.remove(subject)
        rederived = 0
        for index, subject in enumerate(batch.subjects):
            diff = diffs.get(subject)
            if diff is not None and not diff.new and not diff.moved & TEXT_PREDICATES:
                continue
            rederived += 1
            entity = self.staged.of(batch, index)
            if entity is None:
                self.text_index.remove(subject)
                continue
            description = entity.value("description")
            text_parts = [*entity.names, *(str(description) if description else "").split()]
            self.text_index.index(
                TextDocument(
                    doc_id=subject,
                    text=" ".join(str(part) for part in text_parts),
                    payload={"types": entity.types, "name": entity.primary_name},
                )
            )
        return rederived


class GraphEngine:
    """Federated polystore serving the KG (primary store + derived indexes)."""

    def __init__(
        self,
        ontology: Ontology,
        embedding_dimension: int = 32,
    ) -> None:
        self.ontology = ontology
        self.triples = TripleStore()
        self.analytics = AnalyticsStore(self.triples)
        self.entity_store = EntityStore()
        self.text_index = InvertedTextIndex()
        self.vector_db = VectorDB(dimension=embedding_dimension)
        self.log = OperationLog()
        self.object_store = ObjectStore()
        self.metadata = MetadataStore()
        self.coordinator = AgentCoordinator(self.log, self.object_store, self.metadata)
        self.stats = EngineStats()
        # The primary's diffs of the replay in progress, read by the derived
        # agents; replay() empties it when the coordinator returns.
        self._diffs: ReplayDiffs = {}
        self.coordinator.register(PrimaryStoreAgent(self.triples, self._diffs))
        self._staged_entities = StagedEntities()
        self.coordinator.register(
            EntityStoreAgent(self.entity_store, self._staged_entities, self._diffs, self.stats)
        )
        self.coordinator.register(
            TextIndexAgent(self.text_index, self._staged_entities, self._diffs, self.stats)
        )
        self.view_catalog = ViewCatalog()
        # Views read the replayed stores, so their builds reflect the minimum
        # store watermark — not the log head, which may be ahead of replay.
        self.view_manager = ViewManager(
            self.view_catalog,
            self._engine_map(),
            lsn_source=self.metadata.minimum_watermark,
            # Scope snapshots enumerate the primary store so deletions resolve
            # to the views that actually contained the entity.
            entity_source=self.triples.subjects,
        )
        self.coordinator.add_delta_listener(self.view_manager.enqueue)

    # -------------------------------------------------------------- #
    # ingest (producer API used by KG construction)
    # -------------------------------------------------------------- #
    def publish_subjects(
        self,
        source_store: TripleStore,
        changed_subjects: Iterable[str],
        source_id: str = "construction",
        deleted_subjects: Iterable[str] = (),
        replay: bool = True,
        added_subjects: Iterable[str] | None = None,
    ) -> LogRecord:
        """Publish the current state of *changed_subjects* from a construction store.

        The full fact set of each changed subject is staged as one columnar
        batch (so replay is idempotent, and independent of what the source
        store becomes afterwards), the operation is appended to the
        log, and — by default — agents replay immediately.

        When the producer already classified its change, *added_subjects*
        names the net-new subset of *changed_subjects*; otherwise the
        changed subjects the primary does not hold yet are the added ones.
        """
        return self._publish(
            source_store.stage(changed_subjects), deleted_subjects, added_subjects,
            source_id, replay,
        )

    def publish_store(
        self, source_store: TripleStore, source_id: str = "construction", replay: bool = True
    ) -> LogRecord:
        """Publish every subject of *source_store* (bulk load)."""
        return self.publish_subjects(
            source_store, source_store.subjects(), source_id=source_id, replay=replay
        )

    def remove_source(self, source_id: str) -> LogRecord:
        """Publish an on-demand source removal (licensing / deletion requests).

        Pending records replay first, so the primary holds every fact the
        removal retracts.  Every subject holding a fact from *source_id* is
        then staged from the primary without that source
        (:meth:`TripleStore.stage_without_source`) and published like any
        other change: a fact left with no source is dropped, a subject left
        with no facts is deleted, and every store, view and replica applies
        the removal as a delta.
        """
        self.replay()
        batch, emptied = self.triples.stage_without_source(source_id)
        return self._publish(batch, emptied, None, source_id, replay=True)

    def _publish(
        self,
        batch: TripleBatch,
        deleted_subjects: Iterable[str],
        added_subjects: Iterable[str] | None,
        source_id: str,
        replay: bool,
    ) -> LogRecord:
        """Stage *batch* with its subject delta, log it, and maybe replay.

        The delta is built here, once: the agents, the view manager and the
        serving journal all read this one :class:`ViewDelta`.
        """
        subjects = frozenset(batch.subjects)
        if added_subjects is None:
            added = frozenset(s for s in subjects if not self.triples.has_subject(s))
        else:
            added = frozenset(added_subjects)
        delta = ViewDelta(
            added=added, updated=subjects - added, deleted=frozenset(deleted_subjects)
        )
        key = self.object_store.put({"batch": batch, "delta": delta})
        record = self.log.append("ingest_delta", source_id=source_id, payload_key=key)
        self.stats.operations_published += 1
        self.stats.subjects_published += len(subjects)
        if replay:
            self.replay()
        return record

    def replay(self) -> ReplayReport:
        """Replay pending log records into every store in dependency order.

        The primary's diffs and the staged-entity memo are released when the
        coordinator returns: a diff describes one record's change to the
        stores that replay it in the same pass, and the stores hold what
        they replayed.
        """
        ordered = [name for name in AGENT_ORDER if name in self.coordinator.agents]
        extra = [name for name in sorted(self.coordinator.agents) if name not in ordered]
        try:
            return self.coordinator.replay(ordered + extra)
        finally:
            self._diffs.clear()
            self._staged_entities.release()

    # -------------------------------------------------------------- #
    # freshness
    # -------------------------------------------------------------- #
    def freshness(self) -> dict[str, int]:
        """Per-store lag (in operations) behind the log head."""
        return self.coordinator.freshness()

    def minimum_version(self) -> int:
        """The KG version (LSN) every store has reached."""
        return self.metadata.minimum_watermark()

    # -------------------------------------------------------------- #
    # query APIs
    # -------------------------------------------------------------- #
    def entity(self, entity_id: str) -> EntityDocument | None:
        """Point lookup of one entity document."""
        return self.entity_store.get(entity_id)

    def search(self, query: str, k: int = 10) -> list[SearchHit]:
        """Ranked full-text entity search."""
        return self.text_index.search(query, k)

    def entity_view(self, spec: EntityViewSpec) -> Relation:
        """Compute a schematized entity view over the primary store."""
        return self.analytics.entity_view(spec)

    def importance_scores(self) -> dict[str, ImportanceScore]:
        """Compute structural importance for every entity in the primary store.

        Writes nothing: a score depends on the whole graph, so a copy kept in
        a store would go stale at the next publish.
        """
        return compute_importance(self.triples)

    # -------------------------------------------------------------- #
    # views
    # -------------------------------------------------------------- #
    def register_view(self, definition: ViewDefinition) -> ViewDefinition:
        """Register a view definition in the central catalog."""
        return self.view_catalog.register(definition)

    def materialize_views(self, targets: Sequence[str] | None = None) -> dict[str, float]:
        """Materialize views (optionally only *targets*); returns per-view seconds."""
        return self.view_manager.materialize(targets)

    def update_views(self) -> dict[str, float]:
        """Flush the delta log replay accumulated: maintain the affected views."""
        return self.view_manager.flush()

    def view_freshness(self) -> dict[str, int]:
        """Per-view lag (in log positions) behind the operation-log head."""
        return self.view_manager.lagging_views(self.log.head_lsn())

    def view_artifact(self, name: str) -> object:
        """Return the materialized artifact of a registered view."""
        return self.view_manager.artifact(name)

    def register_standard_views(self) -> list[str]:
        """Register the production-style view dependency graph of Figure 7.

        ``entity_features`` (analytics) is shared by ``ranked_entity_index``
        (text index) and ``entity_neighbourhood`` (graph structure for
        embedding training); ``entity_importance`` feeds the features view.
        """
        engine = self

        def build_importance(context: ViewContext) -> list[dict]:
            return importance_view_rows(compute_importance(engine.triples).values())

        def build_entity_features(context: ViewContext) -> list[dict]:
            importance_rows = {row["subject"]: row for row in context.artifact("entity_importance")}
            rows = []
            for subject in engine.triples.subjects():
                facts = engine.triples.facts_about(subject)
                entity = KGEntity.from_triples(subject, facts)
                importance = importance_rows.get(subject, {})
                rows.append(
                    {
                        "subject": subject,
                        "name": entity.primary_name,
                        "types": entity.types,
                        "fact_count": len(facts),
                        "alias_count": max(len(entity.names) - 1, 0),
                        "importance": importance.get("importance", 0.0),
                        "pagerank": importance.get("pagerank", 0.0),
                    }
                )
            return rows

        def build_ranked_entity_index(context: ViewContext) -> int:
            features = context.artifact("entity_features")
            documents = []
            for row in features:
                documents.append(
                    TextDocument(
                        doc_id=f"ranked:{row['subject']}",
                        text=row["name"],
                        boost=1.0 + float(row["importance"]),
                        payload={"subject": row["subject"], "types": row["types"]},
                    )
                )
            return engine.text_index.index_many(documents)

        def build_entity_neighbourhood(context: ViewContext) -> list[dict]:
            features = {row["subject"]: row for row in context.artifact("entity_features")}
            edges = []
            # Columnar scan: edge extraction only needs four columns, so stream
            # them straight out of the store instead of materializing triples.
            for subject, predicate, r_predicate, obj, _ in engine.triples.scan_tuples():
                if isinstance(obj, str) and obj in features:
                    edges.append(
                        {
                            "source": subject,
                            "target": obj,
                            "predicate": r_predicate or predicate,
                            "source_importance": features.get(subject, {}).get(
                                "importance", 0.0
                            ),
                        }
                    )
            return edges

        definitions = [
            ViewDefinition(
                name="entity_importance",
                engine="analytics",
                create=build_importance,
                description="structural importance metrics per entity (§3.3)",
            ),
            ViewDefinition(
                name="entity_features",
                engine="analytics",
                create=build_entity_features,
                dependencies=("entity_importance",),
                description="per-entity feature view shared by ranking and embeddings",
            ),
            ViewDefinition(
                name="ranked_entity_index",
                engine="text_index",
                create=build_ranked_entity_index,
                dependencies=("entity_features",),
                description="importance-boosted full-text entity index",
            ),
            ViewDefinition(
                name="entity_neighbourhood",
                engine="analytics",
                create=build_entity_neighbourhood,
                dependencies=("entity_features",),
                description="edge list with features for graph-embedding training",
            ),
        ]
        for definition in definitions:
            if definition.name not in self.view_catalog:
                self.register_view(definition)
        return [definition.name for definition in definitions]

    # -------------------------------------------------------------- #
    # internals
    # -------------------------------------------------------------- #
    def _engine_map(self) -> dict[str, object]:
        return {
            "triples": self.triples,
            "analytics": self.analytics,
            "entity_store": self.entity_store,
            "text_index": self.text_index,
            "vector_db": self.vector_db,
            "ontology": self.ontology,
        }
