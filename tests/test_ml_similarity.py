"""Tests for the deterministic similarity library (repro.ml.similarity)."""

import pytest

from repro.ml import similarity as sim


def test_normalize_and_tokens():
    assert sim.normalize_string("  Hello   World ") == "hello world"
    assert sim.normalize_string(None) == ""
    assert sim.tokens("The Quick, Brown-Fox!") == ["the", "quick", "brown", "fox"]


def test_jaro_winkler_prefers_shared_prefix():
    assert sim.jaro_winkler_similarity("robert", "robert") == 1.0
    martha = sim.jaro_winkler_similarity("martha", "marhta")
    assert martha > 0.9
    assert sim.jaro_winkler_similarity("abcd", "zyxw") < 0.3
    # prefix boost: "rober" closer to "robert" than "tober"
    assert sim.jaro_winkler_similarity("robert", "roberta") > sim.jaro_winkler_similarity(
        "robert", "tobert"
    )


def test_set_similarity():
    assert sim.set_similarity(["pop", "rock"], ["Rock", "jazz"]) == pytest.approx(1 / 3)
    assert sim.set_similarity([], ["x"]) == 0.0


def test_year_similarity_extracts_years_from_dates():
    assert sim.year_similarity("1990-04-01", "1990") == 1.0
    assert sim.year_similarity("1990", "1992", horizon=5) == pytest.approx(0.6)
    assert sim.year_similarity("no year", "1990") == 0.0


def test_monge_elkan_tokens_handles_token_reordering():
    score = sim.monge_elkan_tokens(
        sim.tokens("smith, robert"), sim.tokens("robert smith"), sim.JaroWinklerMemo()
    )
    assert score > 0.9
    assert sim.monge_elkan_tokens([], ["x"], sim.JaroWinklerMemo()) == 0.0


@pytest.mark.parametrize(
    "name,function",
    [("jaro_winkler", sim.jaro_winkler_similarity), ("year", sim.year_similarity)],
)
def test_all_functions_bounded_and_handle_none(name, function):
    assert 0.0 <= function("alpha beta", "alpha gamma") <= 1.0
    assert function(None, "x") == 0.0
