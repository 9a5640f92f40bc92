"""Linking's string comparisons return exactly the floats of the oracle.

The Jaro kernel of :mod:`repro.ml.similarity` finds matches through
per-character position lists, and the matcher's name features compare each
record's names normalized once, through a Jaro-Winkler memo shared by one link
run.  ``tests/oracles/jaro.py`` keeps the window-scanning kernel and the
per-pair name features they replaced; every comparison here is exact float
equality, never a tolerance.  The seeded pair generator scales with
``--runs-seeded`` (``jaro_seed``, see the repo conftest).
"""

from __future__ import annotations

import random

from oracles import jaro as oracle
from test_construction_batch import FIXED_INPUTS, build_batches
import repro.construction.linking as linking
from repro.construction import KnowledgeConstructionPipeline
from repro.construction.matching import RuleBasedMatcher
from repro.construction.records import LinkableRecord
from repro.ml.similarity import (
    JaroWinklerMemo,
    _jaro_normalized,
    jaro_winkler_normalized,
    monge_elkan_tokens,
    tokens,
)
from repro.model import default_ontology
from repro.model.delta import SourceDelta

ALPHABETS = (
    "ab",                              # few distinct characters: long repeat runs
    "abc ",
    "abcdefghijklmnopqrstuvwxyz ",
    "aeiouy",
    "éüßøñ日本語 ab",                  # non-ASCII, multi-byte in UTF-8
)

EDGE_CASES = [
    ("", ""), ("", "a"), ("a", ""), ("a", "a"), ("a", "b"), ("ab", "ba"),
    ("martha", "marhta"), ("dwayne", "duane"), ("dixon", "dicksonx"),
    ("aaaa", "aa"), ("abab", "baba"), ("aabbaabb", "babababa"),
    ("crate", "trace"), ("the rolling stones", "rolling stones"),
    ("beyoncé", "beyonce knowles"), ("日本語", "語本日"), ("x" * 40, "x" * 39 + "y"),
]


def _random_string(rng: random.Random, alphabet: str, length: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(length))


def _pairs(seed: int, count: int = 300) -> list[tuple[str, str]]:
    """Random pairs plus their near misses: adjacent transpositions, shared
    prefixes, deletions and appended tails, lengths 0-40."""
    rng = random.Random(31_000 + seed)
    pairs = []
    for _ in range(count):
        alphabet = rng.choice(ALPHABETS)
        a = _random_string(rng, alphabet, rng.randint(0, 40))
        shape = rng.randrange(5)
        if shape == 0:
            b = _random_string(rng, alphabet, rng.randint(0, 40))
        elif shape == 1:
            chars = list(a)
            for _ in range(rng.randint(1, 4)):
                if len(chars) > 1:
                    k = rng.randrange(len(chars) - 1)
                    chars[k], chars[k + 1] = chars[k + 1], chars[k]
            b = "".join(chars)
        elif shape == 2:
            prefix = a[: rng.randint(0, min(len(a), 6))]
            b = prefix + _random_string(rng, alphabet, rng.randint(0, 40 - len(prefix)))
        elif shape == 3:
            b = "".join(c for c in a if rng.random() > 0.2)
        else:
            b = a + _random_string(rng, alphabet, rng.randint(1, 5))
        pairs.append((a, b) if rng.random() < 0.5 else (b, a))
    return pairs


def _assert_same_scores(pairs: list[tuple[str, str]]) -> None:
    memo = JaroWinklerMemo()
    for a, b in pairs:
        assert _jaro_normalized(a, b) == oracle._jaro_normalized(a, b), (a, b)
        expected = oracle.jaro_winkler_normalized(a, b)
        assert jaro_winkler_normalized(a, b) == expected, (a, b)
        assert memo[a][b] == expected, (a, b)
        assert memo[a][b] == expected, (a, b)     # a hit returns the stored score


def test_jaro_kernel_matches_the_oracle_on_edge_cases():
    _assert_same_scores(EDGE_CASES)


def test_jaro_kernel_matches_the_oracle_on_seeded_pairs(jaro_seed):
    _assert_same_scores(_pairs(jaro_seed))


def test_monge_elkan_matches_the_oracle_token_loop():
    rng = random.Random(5)
    words = ["the", "echo", "valley", "band", "blue", "harbor", "vally", "eco", "co"]
    for _ in range(200):
        first = " ".join(rng.choices(words, k=rng.randint(1, 4)))
        second = " ".join(rng.choices(words, k=rng.randint(1, 4)))
        left = LinkableRecord("l", properties={"name": [first]})
        right = LinkableRecord("r", properties={"name": [second]})
        assert monge_elkan_tokens(tokens(first), tokens(second), JaroWinklerMemo()) == (
            oracle.name_token_overlap(left, right)
        )


def test_linker_scores_equal_the_oracle_matcher(monkeypatch, source_suite):
    """Every pair the linker scores, with its records' cached names and the
    run's shared memo, gets the probability a matcher built from the oracle
    features gives it: over the batch suite's fixed inputs, the five seeded
    sequences whose output digests it pins, and a bootstrap of the noisy
    four-source suite (typos, aliases, reordered names)."""
    scored = []
    real_score_pairs = linking.score_pairs

    def recording_score_pairs(pairs, registry):
        result = real_score_pairs(pairs, registry)
        scored.extend(result)
        return result

    monkeypatch.setattr(linking, "score_pairs", recording_score_pairs)
    ontology = default_ontology()
    inputs = [build()[0] for build in FIXED_INPUTS.values()]
    inputs += [build_batches(seed) for seed in range(5)]
    inputs.append([[
        SourceDelta.initial(source.source_id, source.entities, timestamp=1)
        for source in source_suite
    ]])
    for batches in inputs:
        pipeline = KnowledgeConstructionPipeline(ontology)
        for batch in batches:
            pipeline.consume_many(batch)

    reference = RuleBasedMatcher(oracle.oracle_features(ontology))
    assert len(scored) > 400
    for pair in scored:
        assert pair.probability == reference.score(pair.left, pair.right), (
            pair.left.record_id, pair.right.record_id
        )
