"""Distant supervision and data augmentation for learned similarities (§5.1).

The paper bootstraps training data for the neural string encoders from the KG
itself: aliases and names of the same entity yield positive pairs, simple typo
augmentation adds further positives, and names of *unlinked* entities provide
negatives.  This module implements that procedure so that the encoders can be
trained directly against a constructed KG (or a synthetic world in tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TrainingError
from repro.ml.encoders import EncoderConfig, StringEncoder
from repro.ml.similarity import normalize_string

_KEYBOARD_NEIGHBORS = {
    "a": "qws", "b": "vgn", "c": "xdv", "d": "sfe", "e": "wrd", "f": "dgr",
    "g": "fht", "h": "gjy", "i": "uok", "j": "hku", "k": "jli", "l": "ko",
    "m": "n", "n": "bm", "o": "ipl", "p": "o", "q": "wa", "r": "etf",
    "s": "adw", "t": "ryg", "u": "yij", "v": "cbf", "w": "qes", "x": "zcs",
    "y": "tuh", "z": "xa",
}


def typo_variants(text: str, rng: np.random.Generator, count: int = 2) -> list[str]:
    """Generate *count* typo'd variants of *text* (swap, drop, replace, double)."""
    normalized = normalize_string(text)
    if len(normalized) < 3:
        return []
    variants = []
    for _ in range(count):
        chars = list(normalized)
        position = int(rng.integers(0, len(chars)))
        operation = rng.choice(["swap", "drop", "replace", "double"])
        if operation == "swap" and position < len(chars) - 1:
            chars[position], chars[position + 1] = chars[position + 1], chars[position]
        elif operation == "drop" and len(chars) > 3:
            del chars[position]
        elif operation == "replace":
            neighbors = _KEYBOARD_NEIGHBORS.get(chars[position], "")
            if neighbors:
                chars[position] = neighbors[int(rng.integers(0, len(neighbors)))]
        else:
            chars.insert(position, chars[position])
        variant = "".join(chars)
        if variant != normalized:
            variants.append(variant)
    return variants


@dataclass
class DistantSupervisionConfig:
    """Controls how training triplets are mined from entity alias groups."""

    typo_positives_per_name: int = 1
    max_triplets: int = 20000
    seed: int = 29


def alias_groups_to_triplets(
    alias_groups: list[list[str]],
    config: DistantSupervisionConfig | None = None,
) -> list[tuple[str, str, str]]:
    """Mine (anchor, positive, negative) triplets from per-entity alias groups.

    ``alias_groups`` holds, for each entity, the list of names/aliases that the
    KG knows for it.  Pairs inside a group are positives; names sampled from
    *other* groups are negatives; typo variants add extra positives.
    """
    config = config or DistantSupervisionConfig()
    rng = np.random.default_rng(config.seed)
    groups = [
        [normalize_string(name) for name in group if normalize_string(name)]
        for group in alias_groups
    ]
    groups = [group for group in groups if group]
    if len(groups) < 2:
        raise TrainingError(
            "distant supervision needs at least two entities with names "
            f"(got {len(groups)})"
        )

    triplets: list[tuple[str, str, str]] = []
    group_count = len(groups)
    for group_index, group in enumerate(groups):
        positives: list[tuple[str, str]] = []
        for i, anchor in enumerate(group):
            for positive in group[i + 1:]:
                positives.append((anchor, positive))
            for variant in typo_variants(anchor, rng, config.typo_positives_per_name):
                positives.append((anchor, variant))
        for anchor, positive in positives:
            negative_group = int(rng.integers(0, group_count - 1))
            if negative_group >= group_index:
                negative_group += 1
            negative_names = groups[negative_group]
            negative = negative_names[int(rng.integers(0, len(negative_names)))]
            triplets.append((anchor, positive, negative))
            if len(triplets) >= config.max_triplets:
                return triplets
    if not triplets:
        raise TrainingError("no training triplets could be generated")
    return triplets


def train_string_encoder(
    alias_groups: list[list[str]],
    synonyms: dict[str, str] | None = None,
    encoder_config: EncoderConfig | None = None,
    supervision_config: DistantSupervisionConfig | None = None,
) -> StringEncoder:
    """End-to-end helper: mine triplets and fit a :class:`StringEncoder`."""
    triplets = alias_groups_to_triplets(alias_groups, supervision_config)
    encoder = StringEncoder(encoder_config, synonyms=synonyms)
    encoder.train(triplets)
    return encoder
