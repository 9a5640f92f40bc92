"""Source delta payloads (Section 2.4).

Source ingestion eagerly computes, for every new upstream snapshot, the
difference with respect to the snapshot last consumed by knowledge
construction.  The difference is materialized as four partitions:

* ``added``   — entities present now but not at the last consumption;
* ``deleted`` — entities present at the last consumption but not now;
* ``updated`` — entities present in both whose non-volatile payload changed;
* ``volatile`` — a *full* dump of the volatile predicates (popularity-style
  churn) of all current entities, kept out of the other partitions so that
  high-frequency updates do not force relinking.

Knowledge construction always consumes :class:`SourceDelta` objects; a brand
new source is represented as a delta with a full ``added`` payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.model.entity import SourceEntity, _copy_value, _freeze


@dataclass
class SourceDelta:
    """Partitioned change payload for one source between two timestamps."""

    source_id: str
    added: list[SourceEntity] = field(default_factory=list)
    deleted: list[SourceEntity] = field(default_factory=list)
    updated: list[SourceEntity] = field(default_factory=list)
    volatile: list[SourceEntity] = field(default_factory=list)
    from_timestamp: int = 0
    to_timestamp: int = 0

    @classmethod
    def initial(
        cls,
        source_id: str,
        entities: Sequence[SourceEntity],
        volatile: Sequence[SourceEntity] = (),
        timestamp: int = 0,
    ) -> "SourceDelta":
        """Delta representing the very first consumption of a source."""
        return cls(
            source_id=source_id,
            added=list(entities),
            volatile=list(volatile),
            from_timestamp=timestamp,
            to_timestamp=timestamp,
        )

    def is_empty(self) -> bool:
        """True when there is nothing for construction to do."""
        return not (self.added or self.deleted or self.updated or self.volatile)

    def change_count(self) -> int:
        """Number of entities in the non-volatile partitions."""
        return len(self.added) + len(self.deleted) + len(self.updated)

    def touched_entity_ids(self) -> set[str]:
        """Source-namespace identifiers of every touched entity."""
        touched = set()
        for partition in (self.added, self.deleted, self.updated, self.volatile):
            touched.update(entity.entity_id for entity in partition)
        return touched

    def summary(self) -> dict[str, int]:
        """Per-partition entity counts, useful for logging and tests."""
        return {
            "added": len(self.added),
            "deleted": len(self.deleted),
            "updated": len(self.updated),
            "volatile": len(self.volatile),
        }


def compute_delta(
    source_id: str,
    previous: Iterable[SourceEntity],
    current: Iterable[SourceEntity],
    volatile_predicates: Iterable[str] = (),
    from_timestamp: int = 0,
    to_timestamp: int = 1,
) -> SourceDelta:
    """Diff two snapshots of a source into a :class:`SourceDelta`.

    ``volatile_predicates`` are excluded from the change comparison and routed
    to the ``volatile`` partition as a full dump of the current snapshot, per
    Section 2.4 of the paper.
    """
    volatile_set = set(volatile_predicates)
    previous_by_id = {entity.entity_id: entity for entity in previous}
    current_by_id = {entity.entity_id: entity for entity in current}

    delta = SourceDelta(
        source_id=source_id,
        from_timestamp=from_timestamp,
        to_timestamp=to_timestamp,
    )

    # Entities are fingerprinted straight from their stable properties; only
    # the ones a partition emits are copied.
    for entity_id, entity in current_by_id.items():
        stable = _stable_properties(entity, volatile_set)
        previous_entity = previous_by_id.get(entity_id)
        if previous_entity is None:
            delta.added.append(_with_properties(entity, stable))
        elif _fingerprint(entity, stable) != _fingerprint(
            previous_entity, _stable_properties(previous_entity, volatile_set)
        ):
            delta.updated.append(_with_properties(entity, stable))
        if volatile_set:
            kept = {k: v for k, v in entity.properties.items() if k in volatile_set}
            if kept:
                delta.volatile.append(_with_properties(entity, kept))

    for entity_id, entity in previous_by_id.items():
        if entity_id not in current_by_id:
            delta.deleted.append(
                _with_properties(entity, _stable_properties(entity, volatile_set))
            )

    return delta


def _stable_properties(entity: SourceEntity, volatile: set[str]) -> dict[str, object]:
    """*entity*'s properties without the volatile ones (not copied)."""
    if not volatile:
        return entity.properties
    return {k: v for k, v in entity.properties.items() if k not in volatile}


def _fingerprint(entity: SourceEntity, properties: dict[str, object]) -> tuple:
    """:meth:`SourceEntity.fingerprint` of *entity* holding *properties*."""
    return (entity.entity_id, entity.entity_type, _freeze(properties))


def _with_properties(entity: SourceEntity, properties: dict[str, object]) -> SourceEntity:
    """An independent copy of *entity* holding copies of *properties*."""
    return SourceEntity(
        entity_id=entity.entity_id,
        entity_type=entity.entity_type,
        properties={k: _copy_value(v) for k, v in properties.items()},
        source_id=entity.source_id,
        trust=entity.trust,
        locale=entity.locale,
    )
