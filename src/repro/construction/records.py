"""The record representation shared by blocking, matching, and resolution.

Linking operates over a *combined payload* of source entities and a KG view
(Section 2.3).  Both are normalized into :class:`LinkableRecord` — a flat,
multi-valued property map plus bookkeeping flags — so every step of the
linking pipeline is agnostic to where a record came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple

from repro.ml.similarity import JaroWinklerMemo, normalize_string, tokens
from repro.model.entity import KGEntity, SourceEntity


class NameFeatures(NamedTuple):
    """What blocking and the name features read of a record's names."""

    names: tuple[str, ...]            # name-like values, empty strings dropped
    normalized: tuple[str, ...]       # normalize_string of each, empties dropped
    primary_tokens: tuple[str, ...]   # tokens of the primary name


@dataclass
class LinkableRecord:
    """A flattened record participating in record linkage.

    A record derives its :attr:`name_features` once, on first use, so its
    properties must not change after that.  The linker rebuilds records on
    every :meth:`~repro.construction.linking.Linker.link` call and hands them
    all one :class:`JaroWinklerMemo`, so both caches live one link run.
    """

    record_id: str
    entity_type: str = ""
    properties: dict[str, list[object]] = field(default_factory=dict)
    is_kg: bool = False                 # True when the record comes from the KG view
    source_id: str = ""
    trust: float = 0.5
    similarity_memo: JaroWinklerMemo = field(
        default_factory=JaroWinklerMemo, init=False, repr=False, compare=False
    )

    def values(self, predicate: str) -> list[object]:
        """All values of *predicate* (empty list when absent)."""
        return self.properties.get(predicate, [])

    def first(self, predicate: str) -> object | None:
        """First value of *predicate*, or ``None``."""
        values = self.values(predicate)
        return values[0] if values else None

    @cached_property
    def name_features(self) -> NameFeatures:
        """The record's names, normalized names and primary-name tokens."""
        names = tuple(
            name
            for predicate in ("name", "alias", "title", "full_title")
            for name in map(str, self.values(predicate))
            if name
        )
        normalized = tuple(name for name in map(normalize_string, names) if name)
        primary = names[0] if names else self.record_id
        return NameFeatures(names, normalized, tuple(tokens(primary)))

    def names(self) -> list[str]:
        """Name-like strings used by blocking and name features."""
        return list(self.name_features.names)

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


def records_by_type(records: Iterable[LinkableRecord]) -> dict[str, list[LinkableRecord]]:
    """Group records by their entity type (empty type goes to ``""``)."""
    grouped: dict[str, list[LinkableRecord]] = {}
    for record in records:
        grouped.setdefault(record.entity_type, []).append(record)
    return grouped
