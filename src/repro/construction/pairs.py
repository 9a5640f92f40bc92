"""Pair generation from blocks (Section 2.3, step 4).

Given the blocking output, generate the candidate pairs that the matching
model scores.  Pairs are deduplicated across blocks (two records frequently
share several blocking keys) and KG-KG pairs are skipped (the KG view is
already deduplicated).  Pairs of different entity types are kept: the linker
scopes each run to ontology-compatible types, and a source "person" must be
able to pair with a KG "music_artist".
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


class PairGenerator:
    """Turn blocks into a deduplicated stream of candidate pairs."""

    def generate(self, blocks: Sequence[Block]) -> list[CandidatePair]:
        """Materialize the candidate pairs for *blocks*."""
        return list(self.iter_pairs(blocks))

    def iter_pairs(self, blocks: Iterable[Block]) -> Iterator[CandidatePair]:
        """Yield candidate pairs lazily, deduplicated across blocks."""
        seen: set[tuple[str, str]] = set()
        for block in blocks:
            records = block.records
            for i in range(len(records)):
                for j in range(i + 1, len(records)):
                    left, right = records[i], records[j]
                    if left.record_id == right.record_id:
                        continue
                    if left.is_kg and right.is_kg:
                        continue
                    pair = CandidatePair(left, right)
                    if pair.key in seen:
                        continue
                    seen.add(pair.key)
                    yield pair
