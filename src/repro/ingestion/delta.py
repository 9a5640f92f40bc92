"""Eager delta computation against the last consumed snapshot (Section 2.4).

The ingestion platform — not knowledge construction — is responsible for
working out what changed upstream.  :class:`DeltaComputer` keeps the snapshot
last consumed by the KG for each source and, whenever a new snapshot arrives,
materializes a :class:`~repro.model.delta.SourceDelta` with Added, Deleted,
Updated, and Volatile partitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.model.delta import SourceDelta, compute_delta
from repro.model.entity import SourceEntity
from repro.model.ontology import Ontology


@dataclass
class DeltaComputer:
    """Track consumed snapshots per source and compute eager deltas."""

    ontology: Ontology | None = None
    extra_volatile_predicates: tuple[str, ...] = ()
    _snapshots: dict[str, list[SourceEntity]] = field(default_factory=dict)
    _timestamps: dict[str, int] = field(default_factory=dict)

    def volatile_predicates(self) -> set[str]:
        """Predicates excluded from change detection (popularity-style churn)."""
        volatile = set(self.extra_volatile_predicates)
        if self.ontology is not None:
            volatile |= self.ontology.volatile_predicates()
        return volatile

    def has_snapshot(self, source_id: str) -> bool:
        """Whether the source has been consumed before."""
        return source_id in self._snapshots

    def last_timestamp(self, source_id: str) -> int:
        """Timestamp of the last consumed snapshot (0 when never consumed)."""
        return self._timestamps.get(source_id, 0)

    def compute(
        self,
        source_id: str,
        entities: Sequence[SourceEntity],
        timestamp: int | None = None,
    ) -> SourceDelta:
        """Diff the new snapshot against the last consumed one and remember it.

        A source never seen before yields a delta whose ``added`` partition
        holds the full payload, exactly how the paper onboards new sources.
        """
        delta = self.peek(source_id, entities, timestamp)
        self.commit(source_id, entities, delta.to_timestamp)
        return delta

    def peek(
        self, source_id: str, entities: Sequence[SourceEntity], timestamp: int | None = None
    ) -> SourceDelta:
        """Compute a delta without advancing the consumed snapshot."""
        previous = self._snapshots.get(source_id, [])
        from_timestamp = self._timestamps.get(source_id, 0)
        to_timestamp = timestamp if timestamp is not None else from_timestamp + 1
        return compute_delta(
            source_id=source_id,
            previous=previous,
            current=entities,
            volatile_predicates=self.volatile_predicates(),
            from_timestamp=from_timestamp,
            to_timestamp=to_timestamp,
        )

    def commit(
        self, source_id: str, entities: Sequence[SourceEntity], timestamp: int
    ) -> None:
        """Record *entities* as the snapshot the KG has consumed.

        Call once the delta :meth:`peek` produced has been committed: until
        then the next delta still diffs against the previous snapshot, so a
        commit that failed is retried in full instead of being skipped.
        """
        self._snapshots[source_id] = [entity.copy() for entity in entities]
        self._timestamps[source_id] = timestamp

    def forget(self, source_id: str) -> None:
        """Drop the remembered snapshot (the next delta will be a full add)."""
        self._snapshots.pop(source_id, None)
        self._timestamps.pop(source_id, None)
