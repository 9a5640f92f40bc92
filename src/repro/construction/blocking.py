"""Blocking: partition the combined payload into buckets of likely matches.

Record linkage is quadratic in the number of records; blocking (Section 2.3,
step 3) applies lightweight functions that group entities likely to be linked
into the same bucket, and only pairs within a bucket are ever compared.  Saga
ships several blocking functions; a source/entity-type pipeline picks one or
composes several.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.construction.records import LinkableRecord, normalized_names
from repro.ml.similarity import qgrams, soundex, tokens

BlockingFunction = Callable[[LinkableRecord], Iterable[str]]


def name_qgram_keys(record: LinkableRecord, q: int = 3, max_keys: int = 12) -> list[str]:
    """Block on character q-grams of the record's names.

    Records sharing enough of their name q-grams land in overlapping buckets,
    which tolerates typos (the paper's example blocking function for movies).
    """
    keys: list[str] = []
    for name in normalized_names(record):
        keys.extend(qgrams(name, q))
    # Deduplicate while preserving order, then cap to bound bucket fan-out.
    seen: set[str] = set()
    capped = []
    for key in keys:
        if key not in seen:
            seen.add(key)
            capped.append(key)
        if len(capped) >= max_keys:
            break
    return [f"qg:{key}" for key in capped]


def name_token_keys(record: LinkableRecord) -> list[str]:
    """Block on whole name tokens (robust for multi-word titles)."""
    keys: set[str] = set()
    for name in normalized_names(record):
        for token in tokens(name):
            if len(token) >= 3:
                keys.add(f"tok:{token}")
    return sorted(keys)


def name_prefix_keys(record: LinkableRecord, length: int = 4) -> list[str]:
    """Block on the first *length* characters of each name."""
    keys = set()
    for name in normalized_names(record):
        compact = name.replace(" ", "")
        if compact:
            keys.add(f"pfx:{compact[:length]}")
    return sorted(keys)


def soundex_keys(record: LinkableRecord) -> list[str]:
    """Block on the Soundex code of each name token (person names)."""
    keys = set()
    for name in normalized_names(record):
        for token in tokens(name):
            code = soundex(token)
            if code:
                keys.add(f"sdx:{code}")
    return sorted(keys)


def exact_value_keys(predicate: str) -> BlockingFunction:
    """Build a blocking function keyed on the exact value of *predicate*."""

    def _keys(record: LinkableRecord) -> list[str]:
        return [
            f"val:{predicate}:{str(value).strip().lower()}"
            for value in record.values(predicate)
            if value not in (None, "")
        ]

    return _keys


BLOCKING_FUNCTIONS: dict[str, BlockingFunction] = {
    "name_qgram": name_qgram_keys,
    "name_token": name_token_keys,
    "name_prefix": name_prefix_keys,
    "soundex": soundex_keys,
}
"""Registry of named blocking functions for config-driven pipelines."""


@dataclass
class BlockingConfig:
    """Which blocking functions to apply and how to bound bucket sizes."""

    functions: tuple[str, ...] = ("name_token", "name_prefix")
    extra_functions: tuple[BlockingFunction, ...] = ()
    max_block_size: int = 200
    partition_by_type: bool = True

    def resolved_functions(self) -> list[BlockingFunction]:
        """Materialize the configured blocking functions."""
        resolved = [BLOCKING_FUNCTIONS[name] for name in self.functions]
        resolved.extend(self.extra_functions)
        return resolved


@dataclass
class Block:
    """A bucket of records sharing one blocking key."""

    key: str
    records: list[LinkableRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def has_mixed_origin(self) -> bool:
        """True when the block holds both source and KG records."""
        has_source = any(not record.is_kg for record in self.records)
        has_kg = any(record.is_kg for record in self.records)
        return has_source and has_kg


class Blocker:
    """Apply a :class:`BlockingConfig` to a combined payload."""

    def __init__(self, config: BlockingConfig | None = None) -> None:
        self.config = config or BlockingConfig()

    def block(self, records: Sequence[LinkableRecord]) -> list[Block]:
        """Partition *records* into blocks.

        Oversized blocks (low-selectivity keys such as the token "the") are
        dropped: their pairs are overwhelmingly non-matches and they would
        dominate the quadratic pair-generation cost.
        """
        functions = self.config.resolved_functions()
        buckets: dict[str, list[LinkableRecord]] = defaultdict(list)
        for record in records:
            keys: set[str] = set()
            for function in functions:
                keys.update(function(record))
            type_prefix = record.entity_type if self.config.partition_by_type else ""
            for key in keys:
                buckets[f"{type_prefix}|{key}"].append(record)

        blocks = []
        for key, bucket_records in buckets.items():
            if len(bucket_records) < 2:
                continue
            if len(bucket_records) > self.config.max_block_size:
                continue
            blocks.append(Block(key=key, records=bucket_records))
        blocks.sort(key=lambda block: block.key)
        return blocks

    def statistics(self, blocks: Sequence[Block]) -> dict[str, float]:
        """Basic blocking statistics used in tests and ablation benches."""
        if not blocks:
            return {"blocks": 0, "max_size": 0, "mean_size": 0.0, "candidate_pairs": 0}
        sizes = [len(block) for block in blocks]
        pairs = sum(size * (size - 1) // 2 for size in sizes)
        return {
            "blocks": len(blocks),
            "max_size": max(sizes),
            "mean_size": sum(sizes) / len(sizes),
            "candidate_pairs": pairs,
        }
