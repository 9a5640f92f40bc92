"""Blocking: partition the combined payload into buckets of likely matches.

Record linkage is quadratic in the number of records; blocking (Section 2.3,
step 3) applies lightweight functions that group entities likely to be linked
into the same bucket, and only pairs within a bucket are ever compared.  The
:class:`Blocker` keys every record on its name tokens and name prefixes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Sequence

from repro.construction.records import LinkableRecord
from repro.ml.similarity import tokens


def name_token_keys(record: LinkableRecord) -> list[str]:
    """Block on whole name tokens (robust for multi-word titles)."""
    keys: set[str] = set()
    for name in record.name_features.normalized:
        for token in tokens(name):
            if len(token) >= 3:
                keys.add(f"tok:{token}")
    return sorted(keys)


def name_prefix_keys(record: LinkableRecord, length: int = 4) -> list[str]:
    """Block on the first *length* characters of each name."""
    keys = set()
    for name in record.name_features.normalized:
        compact = name.replace(" ", "")
        if compact:
            keys.add(f"pfx:{compact[:length]}")
    return sorted(keys)


MAX_BLOCK_SIZE = 200
"""Blocks with more records than this are dropped before pair generation."""


@dataclass
class Block:
    """A bucket of records sharing one blocking key."""

    key: str
    records: list[LinkableRecord] = field(default_factory=list)

    @property
    def has_mixed_origin(self) -> bool:
        """True when the block holds both source and KG records."""
        has_source = any(not record.is_kg for record in self.records)
        has_kg = any(record.is_kg for record in self.records)
        return has_source and has_kg


class Blocker:
    """Block a combined payload on name tokens and name prefixes.

    Records of every entity type share the buckets: the linker scopes each
    run to one source entity type plus the compatible KG-view records, so a
    source "person" can meet a KG "music_artist".
    """

    def block(self, records: Sequence[LinkableRecord]) -> list[Block]:
        """Partition *records* into blocks.

        Oversized blocks (low-selectivity keys such as the token "the") are
        dropped: their pairs are overwhelmingly non-matches and they would
        dominate the quadratic pair-generation cost.
        """
        buckets: dict[str, list[LinkableRecord]] = defaultdict(list)
        for record in records:
            for key in {*name_token_keys(record), *name_prefix_keys(record)}:
                buckets[key].append(record)

        blocks = []
        for key, bucket_records in buckets.items():
            if len(bucket_records) < 2:
                continue
            if len(bucket_records) > MAX_BLOCK_SIZE:
                continue
            blocks.append(Block(key=key, records=bucket_records))
        blocks.sort(key=lambda block: block.key)
        return blocks
