"""The NERD Entity View: per-entity summaries used for disambiguation (§5.2).

Each record summarizes what the KG knows about an entity — names and aliases,
ontology types, a textual description, important one-hop relationships, the
types of important neighbours, and the entity-importance score.  The view is
built over the Graph Engine's primary store and kept fresh from the log: each
:class:`~repro.engine.views.ViewDelta` the engine's coordinator delivers
rebuilds the records it can change.  Disambiguation compares the context of a
text mention against these summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.model.entity import KGEntity
from repro.model.identifiers import is_kg_identifier
from repro.model.triples import TripleStore
from repro.ml.similarity import normalize_string, tokens

if TYPE_CHECKING:
    from repro.engine.views import ViewDelta


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
    """Materialized entity summaries, kept current from the log's deltas.

    The view keeps the store and the importance map it was built from.
    :meth:`build` and :meth:`apply_delta` share one record builder, so a
    record rebuilt after a change equals the record a fresh :meth:`build`
    of the same store and importance map would hold.
    """

    def __init__(self, store: TripleStore, importance: dict[str, float] | None = None) -> None:
        self.store = store
        self.importance = importance or {}
        self._records: dict[str, NERDEntityRecord] = {}
        # entity id -> the ids its record was built from: the values it
        # links to and the subjects pointing at it.
        self._neighbours: dict[str, frozenset[str]] = {}

    # -------------------------------------------------------------- #
    # construction / maintenance
    # -------------------------------------------------------------- #
    @classmethod
    def build(
        cls,
        store: TripleStore,
        importance: dict[str, float] | None = None,
    ) -> "NERDEntityView":
        """Build the view for every entity in *store*."""
        view = cls(store, importance)
        names: dict[str, str] = {}
        for entity_id in store.subjects():
            view._rebuild(entity_id, names)
        return view

    def apply_delta(
        self, delta: ViewDelta, importance: dict[str, float] | None = None
    ) -> dict[str, NERDEntityRecord | None]:
        """Rebuild every record *delta* can change, from the store now.

        A record embeds its neighbours' names and types, so the delta's
        subjects pull in their one-hop in- and out-neighbours, both those in
        the store now and those their old records were built from (a deleted
        subject's out-edges are already gone from the store).  The store may
        already be past *delta*; any other rebuilt record whose neighbours
        moved pulls in the ids that left or joined it.  A subject with no
        facts left loses its record.

        Importance is a whole-graph score, so a delta can move the score of
        an entity it never names.  With *importance*, the view adopts that
        map first, and every other record whose stored importance differs
        from the map's score takes that score, which is all a rebuild would
        change.  Returns the previous record (``None``: none) of every id
        rebuilt or rescored.
        """
        if importance is not None:
            self.importance = importance
        subjects = delta.added | delta.updated | delta.deleted
        pending = set(subjects)
        previous: dict[str, NERDEntityRecord | None] = {}
        names: dict[str, str] = {}
        while pending:
            entity_id = pending.pop()
            previous[entity_id] = self._records.get(entity_id)
            before = self._neighbours.get(entity_id, frozenset())
            after = self._rebuild(entity_id, names)
            moved = before | after if entity_id in subjects else before ^ after
            pending.update(moved.difference(previous))
        if importance is not None:
            for entity_id, record in self._records.items():
                score = importance.get(entity_id)
                if entity_id not in previous and score is not None and record.importance != score:
                    previous[entity_id] = record
                    self._records[entity_id] = replace(record, importance=float(score))
        return previous

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

    def __contains__(self, entity_id: object) -> bool:
        return entity_id in self._records

    # -------------------------------------------------------------- #
    # internals
    # -------------------------------------------------------------- #
    def _rebuild(self, entity_id: str, names: dict[str, str]) -> frozenset[str]:
        """(Re)build *entity_id*'s record, or drop it when the subject has no
        facts; return the ids the record was built from."""
        store = self.store
        pointing = store.facts_with_object(entity_id)
        facts = store.facts_about(entity_id)
        if not facts:
            self._records.pop(entity_id, None)
            self._neighbours.pop(entity_id, None)
            return frozenset(t.subject for t in pointing)
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
            importance=float(self.importance.get(entity_id, self._popularity(entity))),
        )
        self._neighbours[entity_id] = frozenset(neighbours.union(v for _, v in nested))
        return self._neighbours[entity_id]

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
