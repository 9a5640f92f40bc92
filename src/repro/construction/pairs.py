"""Pair generation from blocks (Section 2.3, step 4).

Given the blocking output, generate the candidate pairs that the matching
model scores.  Pairs are deduplicated across blocks (two records frequently
share several blocking keys), KG-KG pairs are skipped (the KG view is already
deduplicated), and an optional cap bounds the work per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.construction.blocking import Block
from repro.construction.records import LinkableRecord


@dataclass(frozen=True)
class CandidatePair:
    """An unordered pair of records to be scored by a matching model."""

    left: LinkableRecord
    right: LinkableRecord

    @property
    def key(self) -> tuple[str, str]:
        """Canonical (sorted) id pair identifying this candidate."""
        ids = sorted((self.left.record_id, self.right.record_id))
        return (ids[0], ids[1])

    @property
    def involves_kg(self) -> bool:
        """True when one side of the pair is a KG-view record."""
        return self.left.is_kg or self.right.is_kg


@dataclass
class PairGenerationConfig:
    """Limits applied while generating candidate pairs."""

    max_pairs: int | None = None
    skip_kg_kg_pairs: bool = True
    require_compatible_types: bool = True


class PairGenerator:
    """Turn blocks into a deduplicated stream of candidate pairs."""

    def __init__(self, config: PairGenerationConfig | None = None) -> None:
        self.config = config or PairGenerationConfig()

    def generate(self, blocks: Sequence[Block]) -> list[CandidatePair]:
        """Materialize the candidate pairs for *blocks*."""
        return list(self.iter_pairs(blocks))

    def iter_pairs(self, blocks: Iterable[Block]) -> Iterator[CandidatePair]:
        """Yield candidate pairs lazily, deduplicated across blocks."""
        seen: set[tuple[str, str]] = set()
        emitted = 0
        for block in blocks:
            records = block.records
            for i in range(len(records)):
                for j in range(i + 1, len(records)):
                    left, right = records[i], records[j]
                    if left.record_id == right.record_id:
                        continue
                    if self.config.skip_kg_kg_pairs and left.is_kg and right.is_kg:
                        continue
                    if self.config.require_compatible_types and not _types_compatible(
                        left, right
                    ):
                        continue
                    pair = CandidatePair(left, right)
                    if pair.key in seen:
                        continue
                    seen.add(pair.key)
                    yield pair
                    emitted += 1
                    if self.config.max_pairs is not None and emitted >= self.config.max_pairs:
                        return


def _types_compatible(left: LinkableRecord, right: LinkableRecord) -> bool:
    """Cheap type compatibility check (full ontology check happens in matching)."""
    if not left.entity_type or not right.entity_type:
        return True
    return left.entity_type == right.entity_type
