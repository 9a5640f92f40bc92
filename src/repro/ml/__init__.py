"""Graph machine learning: similarities, encoders, NERD, and KG embeddings."""

from repro.ml.encoders import EncoderConfig, StringEncoder
from repro.ml.training import (
    DistantSupervisionConfig,
    alias_groups_to_triplets,
    train_string_encoder,
    typo_variants,
)

__all__ = [
    "DistantSupervisionConfig",
    "EncoderConfig",
    "StringEncoder",
    "alias_groups_to_triplets",
    "train_string_encoder",
    "typo_variants",
]
