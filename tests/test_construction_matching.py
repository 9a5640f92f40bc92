"""Tests for matching models and features (repro.construction.matching)."""

import pytest

from repro.construction.matching import (
    RuleBasedMatcher,
    ScoredPair,
    best_name_similarity,
    date_agreement,
    default_features,
    score_pairs,
    shared_predicate_agreement,
    type_compatibility,
)
from repro.construction.pairs import CandidatePair
from repro.construction.records import LinkableRecord
from repro.model.ontology import default_ontology


def record(record_id, name, entity_type="person", is_kg=False, **props):
    properties = {"name": [name] if isinstance(name, str) else list(name)}
    for key, value in props.items():
        properties[key] = value if isinstance(value, list) else [value]
    return LinkableRecord(record_id=record_id, entity_type=entity_type,
                          properties=properties, is_kg=is_kg)


@pytest.fixture(scope="module")
def onto():
    return default_ontology()


def test_name_features(onto):
    same = (record("a", "Robert Smith"), record("b", ["Bob Smith", "Robert Smith"]))
    different = (record("a", "Robert Smith"), record("c", "Velvet Dreams"))
    assert best_name_similarity(*same) == 1.0
    assert best_name_similarity(*different) < 0.6
    assert best_name_similarity(record("x", []), record("y", "A")) == 0.0


def test_shared_predicate_and_date_agreement():
    left = record("a", "X", genre="pop", birth_date="1980-01-02")
    right = record("b", "X", genre="pop", birth_date="1980-06-01")
    unrelated = record("c", "X", genre="jazz", birth_date="1955")
    assert shared_predicate_agreement(left, right) == 1.0
    assert shared_predicate_agreement(left, unrelated) == 0.0
    assert date_agreement(left, right) == 1.0
    assert date_agreement(left, unrelated) == 0.0
    assert date_agreement(record("d", "X"), right) == 0.0


def test_type_compatibility_feature(onto):
    feature = type_compatibility(onto)
    artist = record("a", "X", entity_type="music_artist")
    person = record("b", "X", entity_type="person")
    movie = record("c", "X", entity_type="movie")
    untyped = record("d", "X", entity_type="")
    assert feature(artist, person) == 1.0
    assert feature(artist, movie) == 0.0
    assert feature(artist, untyped) == 0.5


def test_rule_based_matcher_scores_are_calibrated(onto):
    matcher = RuleBasedMatcher(default_features(onto))
    exact = matcher.score(record("a", "Robert Smith", genre="pop"),
                          record("b", "Robert Smith", genre="pop"))
    fuzzy = matcher.score(record("a", "Robert Smith"), record("b", "Robret Smith"))
    different = matcher.score(record("a", "Robert Smith"), record("b", "Velvet Dreams"))
    assert 0.0 <= different < 0.5 < exact <= 1.0
    assert different < fuzzy < exact


def test_score_pairs_scores_every_pair_with_the_matcher(onto):
    matcher = RuleBasedMatcher(default_features(onto))
    same = CandidatePair(record("a", "Same Name"), record("b", "Same Name"))
    other = CandidatePair(record("c", "Same Name"), record("d", "Velvet Dreams"))
    scored = score_pairs([same, other], matcher)
    assert all(isinstance(item, ScoredPair) for item in scored)
    assert [item.pair for item in scored] == [same, other]
    assert scored[0].probability == matcher.score(same.left, same.right)
    assert scored[0].probability > scored[1].probability
