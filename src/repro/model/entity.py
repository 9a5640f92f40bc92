"""Entity-centric views over extended triples.

Two representations are used throughout the platform:

* :class:`SourceEntity` — one row of the entity-centric view produced by the
  ingestion *Entity Transform* stage (Section 2.2): an identifier in the
  source namespace plus a mapping of predicates to values, still expressed in
  (or aligned to) the KG ontology but not yet linked to KG identifiers.
* :class:`KGEntity` — the canonical entity assembled from the triple store:
  an identifier in the KG namespace plus simple facts, composite relationship
  nodes, names/aliases, and types.

Both are plain data holders; all integration logic lives in the ingestion and
construction packages.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from repro.errors import DataModelError
from repro.model.identifiers import relationship_id
from repro.model.provenance import DEFAULT_LOCALE, Provenance
from repro.model.triples import ExtendedTriple, TripleStore

NAME_PREDICATES = ("name", "alias", "title", "full_title")
TYPE_PREDICATE = "type"
SAME_AS_PREDICATE = "same_as"


@dataclass
class SourceEntity:
    """An entity-centric record in a source namespace.

    ``properties`` maps predicate names to either a scalar value, a list of
    scalar values (multi-valued predicates), or — for composite relationships —
    a list of dictionaries, each dictionary describing one relationship node.
    """

    entity_id: str
    entity_type: str = ""
    properties: dict[str, object] = field(default_factory=dict)
    source_id: str = ""
    trust: float = 0.5
    locale: str = DEFAULT_LOCALE

    def __post_init__(self) -> None:
        if not self.entity_id:
            raise DataModelError("source entity id must be non-empty")

    # -------------------------------------------------------------- #
    # property access
    # -------------------------------------------------------------- #
    def values(self, predicate: str) -> list[object]:
        """Return the value(s) of *predicate* as a flat list of scalars."""
        value = self.properties.get(predicate)
        if value is None:
            return []
        if isinstance(value, (list, tuple)):
            return [v for v in value if not isinstance(v, Mapping)]
        if isinstance(value, Mapping):
            return []
        return [value]

    def relationships(self, predicate: str) -> list[dict]:
        """Return composite relationship nodes stored under *predicate*."""
        value = self.properties.get(predicate)
        if isinstance(value, Mapping):
            return [dict(value)]
        if isinstance(value, (list, tuple)):
            return [dict(v) for v in value if isinstance(v, Mapping)]
        return []

    def names(self) -> list[str]:
        """Return every name-like string attached to the entity."""
        found: list[str] = []
        for predicate in NAME_PREDICATES:
            found.extend(str(v) for v in self.values(predicate))
        return found

    def primary_name(self) -> str:
        """Return the best display name, falling back to the identifier."""
        names = self.names()
        return names[0] if names else self.entity_id

    # -------------------------------------------------------------- #
    # conversion to extended triples
    # -------------------------------------------------------------- #
    def to_triples(self) -> list[ExtendedTriple]:
        """Flatten the entity into extended triples (Export stage, §2.2)."""
        triples: list[ExtendedTriple] = []
        provenance = Provenance.from_source(self.source_id or "unknown", self.trust)
        if self.entity_type:
            triples.append(
                ExtendedTriple(
                    subject=self.entity_id,
                    predicate=TYPE_PREDICATE,
                    obj=self.entity_type,
                    locale=self.locale,
                    provenance=provenance,
                )
            )
        for predicate in sorted(self.properties):
            for value in self.values(predicate):
                triples.append(
                    ExtendedTriple(
                        subject=self.entity_id,
                        predicate=predicate,
                        obj=value,
                        locale=self.locale,
                        provenance=provenance,
                    )
                )
            for index, node in enumerate(self.relationships(predicate)):
                discriminator = "|".join(
                    f"{k}={node[k]}" for k in sorted(node)
                ) or str(index)
                rel_id = relationship_id(self.entity_id, predicate, discriminator)
                for rel_predicate in sorted(node):
                    triples.append(
                        ExtendedTriple(
                            subject=self.entity_id,
                            predicate=predicate,
                            obj=node[rel_predicate],
                            relationship_id=rel_id,
                            relationship_predicate=rel_predicate,
                            locale=self.locale,
                            provenance=provenance,
                        )
                    )
        return triples

    def copy(self) -> "SourceEntity":
        """Return an independent copy."""
        return SourceEntity(
            entity_id=self.entity_id,
            entity_type=self.entity_type,
            properties={k: _copy_value(v) for k, v in self.properties.items()},
            source_id=self.source_id,
            trust=self.trust,
            locale=self.locale,
        )

    def fingerprint(self) -> tuple:
        """A hashable content fingerprint used for delta computation."""
        return (
            self.entity_id,
            self.entity_type,
            _freeze(self.properties),
        )


def _copy_value(value: object) -> object:
    if isinstance(value, Mapping):
        return dict(value)
    if isinstance(value, list):
        return [_copy_value(v) for v in value]
    return value


def _freeze(value: object) -> object:
    """Recursively convert a property value to a hashable structure."""
    if isinstance(value, Mapping):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


@dataclass
class RelationshipNode:
    """A composite relationship node attached to a KG entity."""

    relationship_id: str
    predicate: str
    facts: dict[str, object] = field(default_factory=dict)

    def overlap(self, other: "RelationshipNode") -> float:
        """Fraction of shared (predicate, value) pairs between two nodes.

        Fusion (Section 2.3) merges relationship nodes whose underlying facts
        have sufficient intersection.
        """
        mine = {(k, v) for k, v in self.facts.items()}
        theirs = {(k, v) for k, v in other.facts.items()}
        if not mine or not theirs:
            return 0.0
        return len(mine & theirs) / min(len(mine), len(theirs))


@dataclass
class KGEntity:
    """A canonical KG entity materialized from the triple store."""

    entity_id: str
    types: list[str] = field(default_factory=list)
    names: list[str] = field(default_factory=list)
    facts: dict[str, list[object]] = field(default_factory=dict)
    relationships: dict[str, list[RelationshipNode]] = field(default_factory=dict)
    same_as: list[str] = field(default_factory=list)

    @property
    def primary_name(self) -> str:
        """Best display name, falling back to the identifier."""
        return self.names[0] if self.names else self.entity_id

    def value(self, predicate: str) -> object | None:
        """Return one value for *predicate*, or ``None``."""
        values = self.facts.get(predicate)
        return values[0] if values else None

    def degree(self) -> int:
        """Number of simple facts plus relationship nodes (out-degree proxy)."""
        simple = sum(len(v) for v in self.facts.values())
        composite = sum(len(v) for v in self.relationships.values())
        return simple + composite

    @classmethod
    def from_triples(cls, entity_id: str, triples: Iterable[ExtendedTriple]) -> "KGEntity":
        """Assemble an entity from the triples having it as subject."""
        return cls.from_facts(
            entity_id,
            (
                (t.predicate, t.relationship_id, t.relationship_predicate, t.obj)
                for t in triples
                if t.subject == entity_id
            ),
        )

    @classmethod
    def from_facts(cls, entity_id: str, facts: Iterable[tuple]) -> "KGEntity":
        """Assemble an entity from its ``(predicate, relationship_id,
        relationship_predicate, object)`` facts, in the order given — the
        column-side twin of :meth:`from_triples`
        (:meth:`TripleBatch.facts_of
        <repro.model.triples.TripleBatch.facts_of>` feeds it)."""
        entity = cls(entity_id=entity_id)
        nodes: dict[tuple[str, str], RelationshipNode] = {}
        names_by_predicate: dict[str, list[str]] = defaultdict(list)
        for predicate, rel_id, rel_predicate, obj in facts:
            if rel_id is not None:
                key = (predicate, rel_id)
                node = nodes.get(key)
                if node is None:
                    node = RelationshipNode(rel_id, predicate)
                    nodes[key] = node
                node.facts[rel_predicate] = obj
                continue
            if predicate == TYPE_PREDICATE:
                if obj not in entity.types:
                    entity.types.append(str(obj))
            elif predicate == SAME_AS_PREDICATE:
                if obj not in entity.same_as:
                    entity.same_as.append(str(obj))
            else:
                values = entity.facts.setdefault(predicate, [])
                if obj not in values:
                    values.append(obj)
                if predicate in NAME_PREDICATES:
                    name = str(obj)
                    if name not in names_by_predicate[predicate]:
                        names_by_predicate[predicate].append(name)
        # Order display names by predicate priority: a proper "name" beats an
        # alias regardless of the order facts were stored in.
        for predicate in NAME_PREDICATES:
            for name in names_by_predicate.get(predicate, []):
                if name not in entity.names:
                    entity.names.append(name)
        grouped: dict[str, list[RelationshipNode]] = defaultdict(list)
        for (predicate, _), node in sorted(nodes.items()):
            grouped[predicate].append(node)
        entity.relationships = dict(grouped)
        return entity


def materialize_entities(store: TripleStore) -> dict[str, KGEntity]:
    """Materialize every entity in *store* keyed by identifier.

    Subjects are enumerated in sorted order so a KG view materialized from
    equal store contents is byte-identical regardless of the store's insertion
    history (or the process's hash seed).  Construction's KG view lists its
    entities in the same order, which is what makes its output repeat run
    to run.
    """
    return {
        subject: KGEntity.from_triples(subject, facts)
        for subject, facts in store.iter_subject_groups()
    }
