"""Tests for learned string encoders and distant supervision (repro.ml)."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.ml.encoders import EncoderConfig, StringEncoder
from repro.ml.training import (
    DistantSupervisionConfig,
    alias_groups_to_triplets,
    train_string_encoder,
    typo_variants,
)
from repro.datagen.names import synonym_lexicon


@pytest.fixture(scope="module")
def trained_encoder(world):
    groups = world.alias_groups()[:80]
    return train_string_encoder(
        groups,
        synonyms=synonym_lexicon(),
        encoder_config=EncoderConfig(epochs=3, seed=5),
        supervision_config=DistantSupervisionConfig(max_triplets=3000, seed=5),
    )


def test_encoder_encode_shape_and_normalization():
    encoder = StringEncoder(EncoderConfig(dimension=32))
    vector = encoder.encode("Robert Smith")
    assert vector.shape == (32,)
    assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-6)
    assert encoder.encode("").sum() == 0.0


def test_encoder_similarity_bounds_and_identity():
    encoder = StringEncoder()
    assert encoder.similarity("same string", "same string") == pytest.approx(1.0, abs=1e-6)
    assert 0.0 <= encoder.similarity("abc", "xyz") <= 1.0
    assert encoder.similarity("", "abc") == 0.0


def test_encoder_batch_matches_single():
    encoder = StringEncoder()
    batch = encoder.encode_batch(["a b", "c d"])
    assert batch.shape[0] == 2
    assert np.allclose(batch[0], encoder.encode("a b"))


def test_training_reduces_triplet_loss():
    groups = [["Robert Smith", "Bob Smith"], ["Velvet Dreams"], ["Jennifer Lee", "Jen Lee"]]
    triplets = alias_groups_to_triplets(groups, DistantSupervisionConfig(seed=1))
    encoder = StringEncoder(EncoderConfig(epochs=6, seed=1))
    losses = encoder.train(triplets)
    assert encoder.trained
    assert losses[-1] <= losses[0]
    assert encoder.training_loss == losses


def test_training_requires_data():
    encoder = StringEncoder()
    with pytest.raises(TrainingError):
        encoder.train([])
    with pytest.raises(TrainingError):
        alias_groups_to_triplets([["only one entity"]])


def test_synonym_lexicon_makes_nicknames_closer():
    plain = StringEncoder(EncoderConfig(seed=3))
    aware = StringEncoder(EncoderConfig(seed=3), synonyms={"bob": "robert"})
    assert aware.similarity("Robert Smith", "Bob Smith") > plain.similarity(
        "Robert Smith", "Bob Smith"
    )


def test_typo_variants_differ_from_original():
    rng = np.random.default_rng(0)
    variants = typo_variants("washington", rng, count=3)
    assert variants
    assert all(variant != "washington" for variant in variants)
    assert typo_variants("ab", rng) == []


def test_trained_encoder_separates_matches_from_non_matches(trained_encoder, world):
    groups = [entity.all_names for entity in world.entities.values()][:40]
    positives = [(g[0], g[1]) for g in groups if len(g) > 1][:20]
    negatives = [(groups[i][0], groups[i + 1][0]) for i in range(20)]
    positive_scores = [trained_encoder.similarity(a, b) for a, b in positives]
    negative_scores = [trained_encoder.similarity(a, b) for a, b in negatives]
    assert np.mean(positive_scores) > np.mean(negative_scores)


def test_state_dict_roundtrip(trained_encoder):
    state = trained_encoder.state_dict()
    restored = StringEncoder.from_state_dict(state)
    assert restored.similarity("Robert Smith", "Bob Smith") == pytest.approx(
        trained_encoder.similarity("Robert Smith", "Bob Smith")
    )
    assert restored.trained
