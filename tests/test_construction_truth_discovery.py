"""Tests for truth discovery and source reliability estimation."""


from repro.construction import truth_discovery
from repro.construction.truth_discovery import (
    MAX_ITERATIONS,
    MAX_RELIABILITY,
    MIN_RELIABILITY,
    Claim,
    TruthDiscovery,
)


def claims_for_conflict():
    """Three sources agree on one value, one unreliable source disagrees."""
    item = ("kg:e1", "birth_date")
    return [
        Claim(item, "1980-01-01", "wiki", 0.9),
        Claim(item, "1980-01-01", "musicdb", 0.8),
        Claim(item, "1980-01-01", "moviedb", 0.7),
        Claim(item, "1999-12-31", "fanwiki", 0.4),
        # fanwiki also asserts facts that everyone agrees on elsewhere
        Claim(("kg:e2", "name"), "Echo Valley", "fanwiki", 0.4),
        Claim(("kg:e2", "name"), "Echo Valley", "wiki", 0.9),
    ]


def test_empty_claims_produce_empty_result():
    result = TruthDiscovery().run([])
    assert result.value_confidence == {}
    assert result.source_reliability == {}


def test_majority_value_wins_conflict():
    result = TruthDiscovery().run(claims_for_conflict())
    item = ("kg:e1", "birth_date")
    assert result.best_value(item) == "1980-01-01"
    assert result.confidence_of(item, "1980-01-01") > result.confidence_of(item, "1999-12-31")


def test_source_reliability_reflects_agreement():
    result = TruthDiscovery().run(claims_for_conflict())
    assert result.source_reliability["wiki"] > result.source_reliability["fanwiki"]
    assert all(0.0 < value < 1.0 for value in result.source_reliability.values())


def test_single_source_claims_keep_prior_influence():
    claims = [Claim(("kg:e1", "name"), "Solo Value", "onlysource", 0.8)]
    result = TruthDiscovery().run(claims)
    assert result.best_value(("kg:e1", "name")) == "Solo Value"
    assert result.confidence_of(("kg:e1", "name"), "Solo Value") > 0.4


def test_unknown_item_and_value_accessors():
    result = TruthDiscovery().run(claims_for_conflict())
    assert result.best_value(("missing", "item")) is None
    assert result.confidence_of(("missing", "item"), "x") == 0.0


def test_iterations_respect_config(monkeypatch):
    assert 1 < TruthDiscovery().run(claims_for_conflict()).iterations <= MAX_ITERATIONS
    monkeypatch.setattr(truth_discovery, "MAX_ITERATIONS", 1)
    assert TruthDiscovery().run(claims_for_conflict()).iterations == 1
    monkeypatch.setattr(truth_discovery, "MAX_ITERATIONS", 50)
    monkeypatch.setattr(truth_discovery, "TOLERANCE", 0.0)
    assert TruthDiscovery().run(claims_for_conflict()).iterations == 50


def test_reliability_is_bounded(monkeypatch):
    claims = [
        Claim(("i", "p"), "v", "always_right", 0.99),
        Claim(("i2", "p"), "v2", "always_right", 0.99),
        Claim(("i", "p"), "wrong", "always_wrong", 0.01),
    ]
    result = TruthDiscovery().run(claims)
    assert MIN_RELIABILITY <= result.source_reliability["always_wrong"]
    assert result.source_reliability["always_right"] <= MAX_RELIABILITY
    monkeypatch.setattr(truth_discovery, "MIN_RELIABILITY", 0.1)
    monkeypatch.setattr(truth_discovery, "MAX_RELIABILITY", 0.9)
    result = TruthDiscovery().run(claims)
    assert result.source_reliability["always_right"] <= 0.9
    assert result.source_reliability["always_wrong"] >= 0.1


def test_conflicting_two_way_tie_prefers_more_reliable_source():
    claims = [
        Claim(("kg:e1", "capital"), "City A", "trusted", 0.95),
        Claim(("kg:e1", "capital"), "City B", "untrusted", 0.2),
    ]
    result = TruthDiscovery().run(claims)
    assert result.best_value(("kg:e1", "capital")) == "City A"
