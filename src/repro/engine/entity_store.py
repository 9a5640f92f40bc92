"""Low-latency entity retrieval store (the "Entity Index" of Figure 6).

A key-value store mapping KG entity identifiers to their materialized,
entity-centric documents.  Production use cases (entity cards, question
answering) fetch whole entities by id with strict latency SLAs; the store is
therefore a simple dictionary with incremental update hooks driven by the
orchestration agent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

from repro.model.entity import KGEntity
from repro.model.triples import TripleStore


@dataclass
class EntityDocument:
    """The serving document for one entity."""

    entity_id: str
    name: str = ""
    types: list[str] = field(default_factory=list)
    facts: dict[str, list[object]] = field(default_factory=dict)
    relationships: dict[str, list[dict]] = field(default_factory=dict)

    @classmethod
    def from_entity(cls, entity: KGEntity) -> "EntityDocument":
        """Build the serving document from a materialized KG entity."""
        return cls(
            entity_id=entity.entity_id,
            name=entity.primary_name,
            types=list(entity.types),
            facts={k: list(v) for k, v in entity.facts.items()},
            relationships={
                predicate: [dict(node.facts) for node in nodes]
                for predicate, nodes in entity.relationships.items()
            },
        )


class EntityStore:
    """Key-value entity index with incremental maintenance."""

    def __init__(self) -> None:
        self._documents: dict[str, EntityDocument] = {}
        self.lookups = 0

    # -------------------------------------------------------------- #
    # maintenance
    # -------------------------------------------------------------- #
    def put(self, document: EntityDocument) -> None:
        """Insert or replace one entity document."""
        self._documents[document.entity_id] = document

    def delete(self, entity_id: str) -> bool:
        """Remove an entity document; returns ``True`` when it existed."""
        return self._documents.pop(entity_id, None) is not None

    def update_from_store(
        self, store: TripleStore, changed_entity_ids: Iterable[str] | None = None
    ) -> int:
        """Refresh documents for *changed_entity_ids* (or every subject).

        This is the ``update(changed_entity_ids)`` procedure the view/agent
        framework calls after each ingest operation.
        """
        subjects = (
            set(changed_entity_ids) if changed_entity_ids is not None else store.subjects()
        )
        refreshed = 0
        for subject in subjects:
            facts = store.facts_about(subject)
            if not facts:
                self.delete(subject)
                continue
            self.put_entity(KGEntity.from_triples(subject, facts))
            refreshed += 1
        return refreshed

    def put_entity(self, entity: KGEntity) -> None:
        """Replace one entity's document."""
        self.put(EntityDocument.from_entity(entity))

    def replace_facts(self, entity_id: str, objects: dict[str, list[object]]) -> bool:
        """Swap new value lists into one document: per predicate of
        *objects*, its simple facts' objects in fact order, listed once each
        as :meth:`KGEntity.from_facts` lists them.

        The new document shares every other list with the one it replaces,
        which is left as it was; with no predicate named, the document
        stands.  Returns ``False`` and changes nothing when the document is
        absent or the change would add or drop one of its predicates: the
        order of ``facts`` follows the entity's facts, so such a document is
        rebuilt instead.
        """
        document = self._documents.get(entity_id)
        if document is None:
            return False
        if not objects:
            return True
        held = document.facts
        values: dict[str, list[object]] = {}
        for predicate, found in objects.items():
            if not found or predicate not in held:
                return False
            distinct: list[object] = []
            for obj in found:
                if obj not in distinct:
                    distinct.append(obj)
            values[predicate] = distinct
        self._documents[entity_id] = replace(
            document,
            facts={predicate: values.get(predicate, kept) for predicate, kept in held.items()},
        )
        return True

    # -------------------------------------------------------------- #
    # retrieval
    # -------------------------------------------------------------- #
    def get(self, entity_id: str) -> EntityDocument | None:
        """Fetch one entity document (``None`` when absent)."""
        self.lookups += 1
        return self._documents.get(entity_id)

    def get_many(self, entity_ids: Iterable[str]) -> list[EntityDocument]:
        """Fetch several documents, skipping unknown identifiers."""
        documents = []
        for entity_id in entity_ids:
            document = self.get(entity_id)
            if document is not None:
                documents.append(document)
        return documents

    def ids(self) -> list[str]:
        """All stored entity identifiers."""
        return sorted(self._documents)

    def __len__(self) -> int:
        return len(self._documents)

    def __contains__(self, entity_id: object) -> bool:
        return entity_id in self._documents
