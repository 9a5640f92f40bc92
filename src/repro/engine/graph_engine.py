"""The Knowledge Graph Query Engine facade (Section 3, Figure 6).

The Graph Engine is the primary store for the KG, computes knowledge views
over the graph, and exposes query APIs to consumers.  It follows a federated
polystore design: specialized stores (analytics warehouse, entity KV index,
full-text index, vector DB) are kept consistent by replaying a shared
operation log through per-store orchestration agents; log sequence
numbers give consumers a freshness guarantee per store.

The KG construction pipeline is the *sole producer*: it publishes ingest
operations via :meth:`GraphEngine.publish_subjects` (payloads staged in the
object store, operations appended to the log) and the engine replays them into
every registered store.

One payload, staged once: a publish asks the source store for a single
immutable columnar :class:`~repro.model.triples.TripleBatch` of the changed
subjects (:meth:`TripleStore.stage <repro.model.triples.TripleStore.stage>`)
and every agent consumes that same batch — the primary translates its ids
into its own dictionaries and applies each subject's diff (``apply_staged``:
an unchanged fact keeps its row, a dropped one is discarded, a new one is
inserted), the warehouse ingests its decoded rows, and each changed
subject's :class:`~repro.model.entity.KGEntity` is
assembled once (:class:`StagedEntities`) for the entity store and the text
index together.  No relational row dict, ``ExtendedTriple`` or provenance
object is built on the way, and a batch keeps a snapshot's semantics, so a
publish made with ``replay=False`` replays what was published however the
source store changed in between.

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

from dataclasses import dataclass
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
from repro.model.entity import KGEntity
from repro.model.ontology import Ontology
from repro.model.triples import TripleBatch, TripleStore

#: Replay order: the primary store must apply an operation before the derived
#: stores read from it.
AGENT_ORDER = ("primary", "analytics", "entity_store", "text_index")


class PrimaryStoreAgent(OrchestrationAgent):
    """Maintains the engine's primary extended-triples store."""

    def __init__(self, store: TripleStore) -> None:
        super().__init__("primary")
        self.store = store

    def apply(self, record: LogRecord, payload: dict) -> None:
        self.store.remove_subjects_batch(sorted(payload["delta"].deleted))
        self.store.apply_staged(payload["batch"])


class AnalyticsAgent(OrchestrationAgent):
    """Maintains the analytics warehouse."""

    def __init__(self, analytics: AnalyticsStore) -> None:
        super().__init__("analytics")
        self.analytics = analytics

    def apply(self, record: LogRecord, payload: dict) -> None:
        batch = payload["batch"]
        self.analytics.remove_subjects([*payload["delta"].deleted, *batch.subjects])
        self.analytics.ingest_rows(batch.rows())


class StagedEntities:
    """The :class:`KGEntity` of every subject of the batch being replayed.

    The entity store and the text index replay the same staged batch one
    after the other and both need each subject's assembled entity; this
    one-slot memo assembles them on the first request for a batch and hands
    the same entities to the second.  It holds one batch's entities — not
    the payload, which lives in the object store for the life of the log —
    and only while a replay runs: :meth:`GraphEngine.replay` releases it
    when the coordinator returns, so after a bootstrap the whole KG's
    entities are held by the stores alone.  Subjects staged without facts
    have no entity.
    """

    def __init__(self) -> None:
        self._batch: TripleBatch | None = None
        self._entities: dict[str, KGEntity] = {}

    def of(self, batch: TripleBatch) -> dict[str, KGEntity]:
        """Subject → entity for every subject of *batch* that has facts."""
        if batch is not self._batch:
            self._entities = {
                subject: KGEntity.from_facts(subject, facts)
                for subject, facts in batch.subject_facts()
                if facts
            }
            self._batch = batch
        return self._entities

    def release(self) -> None:
        """Drop the memoized batch and its entities."""
        self._batch = None
        self._entities = {}


class EntityStoreAgent(OrchestrationAgent):
    """Maintains the key-value entity index from the staged batch."""

    def __init__(self, entity_store: EntityStore, staged: StagedEntities) -> None:
        super().__init__("entity_store")
        self.entity_store = entity_store
        self.staged = staged

    def apply(self, record: LogRecord, payload: dict) -> None:
        batch = payload["batch"]
        entities = self.staged.of(batch)
        for subject in dict.fromkeys([*batch.subjects, *sorted(payload["delta"].deleted)]):
            entity = entities.get(subject)
            if entity is None:
                self.entity_store.delete(subject)
            else:
                self.entity_store.put_entity(entity)


class TextIndexAgent(OrchestrationAgent):
    """Maintains the full-text entity index from the staged batch."""

    def __init__(self, text_index: InvertedTextIndex, staged: StagedEntities) -> None:
        super().__init__("text_index")
        self.text_index = text_index
        self.staged = staged

    def apply(self, record: LogRecord, payload: dict) -> None:
        batch = payload["batch"]
        entities = self.staged.of(batch)
        for subject in sorted(payload["delta"].deleted):
            self.text_index.remove(subject)
        for subject in batch.subjects:
            entity = entities.get(subject)
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


@dataclass
class EngineStats:
    """Operational counters of the Graph Engine."""

    operations_published: int = 0
    subjects_published: int = 0


class GraphEngine:
    """Federated polystore serving the KG (primary store + derived indexes)."""

    def __init__(
        self,
        ontology: Ontology,
        embedding_dimension: int = 32,
    ) -> None:
        self.ontology = ontology
        self.triples = TripleStore()
        self.analytics = AnalyticsStore()
        self.entity_store = EntityStore()
        self.text_index = InvertedTextIndex()
        self.vector_db = VectorDB(dimension=embedding_dimension)
        self.log = OperationLog()
        self.object_store = ObjectStore()
        self.metadata = MetadataStore()
        self.coordinator = AgentCoordinator(self.log, self.object_store, self.metadata)
        self.coordinator.register(PrimaryStoreAgent(self.triples))
        self.coordinator.register(AnalyticsAgent(self.analytics))
        self._staged_entities = StagedEntities()
        self.coordinator.register(EntityStoreAgent(self.entity_store, self._staged_entities))
        self.coordinator.register(TextIndexAgent(self.text_index, self._staged_entities))
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
        self.stats = EngineStats()

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

        The staged-entity memo is released when the coordinator returns:
        the stores hold what they replayed.
        """
        ordered = [name for name in AGENT_ORDER if name in self.coordinator.agents]
        extra = [name for name in sorted(self.coordinator.agents) if name not in ordered]
        try:
            return self.coordinator.replay(ordered + extra)
        finally:
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
        """Compute a schematized entity view in the analytics warehouse."""
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
