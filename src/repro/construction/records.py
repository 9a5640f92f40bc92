"""The record representation shared by blocking, matching, and resolution.

Linking operates over a *combined payload* of source entities and a KG view
(Section 2.3).  Both are normalized into :class:`LinkableRecord` — a flat,
multi-valued property map plus bookkeeping flags — so every step of the
linking pipeline is agnostic to where a record came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.ml.similarity import normalize_string
from repro.model.entity import KGEntity, SourceEntity


@dataclass
class LinkableRecord:
    """A flattened record participating in record linkage."""

    record_id: str
    entity_type: str = ""
    properties: dict[str, list[object]] = field(default_factory=dict)
    is_kg: bool = False                 # True when the record comes from the KG view
    source_id: str = ""
    trust: float = 0.5

    def values(self, predicate: str) -> list[object]:
        """All values of *predicate* (empty list when absent)."""
        return self.properties.get(predicate, [])

    def first(self, predicate: str) -> object | None:
        """First value of *predicate*, or ``None``."""
        values = self.values(predicate)
        return values[0] if values else None

    def names(self) -> list[str]:
        """Name-like strings used by blocking and name features."""
        names: list[str] = []
        for predicate in ("name", "alias", "title", "full_title"):
            names.extend(str(v) for v in self.values(predicate))
        return [n for n in names if n]

    def primary_name(self) -> str:
        """Best display name, falling back to the record identifier."""
        names = self.names()
        return names[0] if names else self.record_id

    @classmethod
    def from_source_entity(cls, entity: SourceEntity) -> "LinkableRecord":
        """Flatten an ontology-aligned source entity."""
        properties: dict[str, list[object]] = {}
        for predicate in entity.properties:
            scalars = entity.values(predicate)
            if scalars:
                properties[predicate] = list(scalars)
            nodes = entity.relationships(predicate)
            if nodes:
                flattened: list[object] = []
                for node in nodes:
                    flattened.extend(str(v) for v in node.values() if v is not None)
                properties.setdefault(predicate, []).extend(flattened)
        return cls(
            record_id=entity.entity_id,
            entity_type=entity.entity_type,
            properties=properties,
            is_kg=False,
            source_id=entity.source_id,
            trust=entity.trust,
        )

    @classmethod
    def from_kg_entity(cls, entity: KGEntity) -> "LinkableRecord":
        """Flatten a materialized KG entity."""
        properties: dict[str, list[object]] = {}
        if entity.names:
            properties["name"] = list(entity.names)
        for predicate, values in entity.facts.items():
            properties.setdefault(predicate, []).extend(values)
        for predicate, nodes in entity.relationships.items():
            flattened = []
            for node in nodes:
                flattened.extend(str(v) for v in node.facts.values() if v is not None)
            if flattened:
                properties.setdefault(predicate, []).extend(flattened)
        primary_type = entity.types[0] if entity.types else ""
        return cls(
            record_id=entity.entity_id,
            entity_type=primary_type,
            properties=properties,
            is_kg=True,
            source_id="kg",
            trust=0.9,
        )


def normalized_names(record: LinkableRecord) -> list[str]:
    """Lower-cased, whitespace-collapsed names of a record."""
    return [normalize_string(name) for name in record.names() if normalize_string(name)]


def records_by_type(records: Iterable[LinkableRecord]) -> dict[str, list[LinkableRecord]]:
    """Group records by their entity type (empty type goes to ``""``)."""
    grouped: dict[str, list[LinkableRecord]] = {}
    for record in records:
        grouped.setdefault(record.entity_type, []).append(record)
    return grouped
