"""The NERD Entity View: per-entity summaries used for disambiguation (§5.2).

Each record summarizes what the KG knows about an entity — names and aliases,
ontology types, a textual description, important one-hop relationships, the
types of important neighbours, and the entity-importance score (the entity's
``popularity`` fact).  The view is built once over a KG store, such as the
Graph Engine's primary.  Disambiguation compares the context of a text mention
against these summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.model.entity import KGEntity
from repro.model.identifiers import is_kg_identifier
from repro.model.triples import TripleStore
from repro.ml.similarity import normalize_string, tokens


@dataclass
class NERDEntityRecord:
    """One entry of the NERD Entity View."""

    entity_id: str
    names: list[str] = field(default_factory=list)
    types: list[str] = field(default_factory=list)
    description: str = ""
    relations: list[tuple[str, str]] = field(default_factory=list)   # (predicate, neighbour name)
    neighbor_types: list[str] = field(default_factory=list)
    importance: float = 0.0

    def context_tokens(self) -> set[str]:
        """Token bag summarizing the entity for context-overlap scoring."""
        bag: set[str] = set()
        for name in self.names:
            bag.update(tokens(name))
        bag.update(tokens(self.description))
        for predicate, neighbor in self.relations:
            bag.update(tokens(predicate))
            bag.update(tokens(neighbor))
        for neighbor_type in self.neighbor_types:
            bag.update(tokens(neighbor_type))
        return bag

    def normalized_names(self) -> set[str]:
        """Normalized surface forms for exact-match candidate retrieval."""
        return {normalize_string(name) for name in self.names if normalize_string(name)}


class NERDEntityView:
    """Materialized entity summaries of one KG store."""

    def __init__(self, store: TripleStore) -> None:
        self.store = store
        self._records: dict[str, NERDEntityRecord] = {}

    @classmethod
    def build(cls, store: TripleStore) -> "NERDEntityView":
        """Build the view for every entity in *store*."""
        view = cls(store)
        names: dict[str, str] = {}
        for entity_id in store.subjects():
            view._build_record(entity_id, names)
        return view

    # -------------------------------------------------------------- #
    # access
    # -------------------------------------------------------------- #
    def get(self, entity_id: str) -> NERDEntityRecord | None:
        """Record for *entity_id* (``None`` when absent)."""
        return self._records.get(entity_id)

    def records(self) -> list[NERDEntityRecord]:
        """All records in the view."""
        return list(self._records.values())

    def __len__(self) -> int:
        return len(self._records)

    # -------------------------------------------------------------- #
    # internals
    # -------------------------------------------------------------- #
    def _build_record(self, entity_id: str, names: dict[str, str]) -> None:
        """Build *entity_id*'s record (none when the subject has no facts)."""
        store = self.store
        facts = store.facts_about(entity_id)
        if not facts:
            return
        pointing = store.facts_with_object(entity_id)
        entity = KGEntity.from_triples(entity_id, facts)
        linked = [
            (predicate, value)
            for predicate, values in entity.facts.items()
            for value in values
            if isinstance(value, str) and self._is_entity_reference(value)
        ]
        nested = [
            (f"{predicate}.{rel_predicate}", value)
            for predicate, nodes in entity.relationships.items()
            for node in nodes
            for rel_predicate, value in node.facts.items()
            if isinstance(value, str) and self._is_entity_reference(value)
        ]
        relations = [
            (predicate, self._name_of(value, names)) for predicate, value in linked + nested
        ]
        # Reverse relations: who points at this entity (e.g. the albums of an artist).
        for triple in pointing:
            if len(relations) >= 40:
                break
            if triple.subject != entity_id:
                relations.append(
                    (f"~{triple.relationship_predicate or triple.predicate}",
                     self._name_of(triple.subject, names))
                )
        neighbours = {value for _, value in linked} | {t.subject for t in pointing}
        self._records[entity_id] = NERDEntityRecord(
            entity_id=entity_id,
            names=list(entity.names) or [entity_id],
            types=list(entity.types),
            description=str(entity.value("description") or ""),
            relations=relations[:40],
            neighbor_types=self._neighbor_types(neighbours),
            importance=self._popularity(entity),
        )

    def _neighbor_types(self, neighbours: set[str]) -> list[str]:
        neighbor_types: list[str] = []
        for neighbor in sorted(neighbours):
            for type_value in self.store.values_of(neighbor, "type"):
                if type_value not in neighbor_types:
                    neighbor_types.append(str(type_value))
        return neighbor_types[:20]

    def _is_entity_reference(self, value: str) -> bool:
        return is_kg_identifier(value) or self.store.has_subject(value)

    def _name_of(self, entity_id: str, cache: dict[str, str]) -> str:
        cached = cache.get(entity_id)
        if cached is not None:
            return cached
        name = self.store.value_of(entity_id, "name") or entity_id
        cache[entity_id] = str(name)
        return str(name)

    def _popularity(self, entity: KGEntity) -> float:
        value = entity.value("popularity")
        try:
            return float(value) if value is not None else 0.0
        except (TypeError, ValueError):
            return 0.0
