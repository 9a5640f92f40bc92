"""The Jaro-Winkler kernel and name features as they were before linking
compared each string once.

``_jaro_normalized`` is the window-scanning kernel, kept verbatim;
``tests/test_similarity_oracle.py`` asserts that the position-indexed kernel
in :mod:`repro.ml.similarity` and the memoized name features of
:mod:`repro.construction.matching` return exactly the same floats.
"""

from __future__ import annotations

from repro.construction.matching import (
    FeatureSpec,
    date_agreement,
    shared_predicate_agreement,
    type_compatibility,
)
from repro.construction.records import LinkableRecord
from repro.ml.similarity import normalize_string, tokens
from repro.model.ontology import Ontology


def _jaro_normalized(a: str, b: str) -> float:
    """Jaro similarity over strings that are already normalized."""
    if not a or not b:
        return 0.0
    if a == b:
        return 1.0
    window = max(len(a), len(b)) // 2 - 1
    window = max(window, 0)
    a_matches = [False] * len(a)
    b_matches = [False] * len(b)
    matches = 0
    for i, char_a in enumerate(a):
        low = max(0, i - window)
        high = min(len(b), i + window + 1)
        for j in range(low, high):
            if b_matches[j] or b[j] != char_a:
                continue
            a_matches[i] = True
            b_matches[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i, matched in enumerate(a_matches):
        if not matched:
            continue
        while not b_matches[j]:
            j += 1
        if a[i] != b[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    return (
        matches / len(a) + matches / len(b) + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler_normalized(a: str, b: str, prefix_weight: float = 0.1) -> float:
    """Jaro-Winkler over already-normalized strings, on the oracle kernel."""
    jaro = _jaro_normalized(a, b)
    prefix = 0
    for char_a, char_b in zip(a[:4], b[:4]):
        if char_a != char_b:
            break
        prefix += 1
    return min(1.0, jaro + prefix * prefix_weight * (1.0 - jaro))


def jaro_winkler_similarity(first: object, second: object) -> float:
    """Jaro-Winkler of two raw strings, each normalized on every call."""
    return jaro_winkler_normalized(normalize_string(first), normalize_string(second))


def _raw_names(record: LinkableRecord) -> list[str]:
    names: list[str] = []
    for predicate in ("name", "alias", "title", "full_title"):
        names.extend(str(v) for v in record.values(predicate))
    return [n for n in names if n]


def best_name_similarity(left: LinkableRecord, right: LinkableRecord) -> float:
    """Best Jaro-Winkler across the cross product of the raw names."""
    left_names, right_names = _raw_names(left), _raw_names(right)
    if not left_names or not right_names:
        return 0.0
    return max(jaro_winkler_similarity(a, b) for a in left_names for b in right_names)


def name_token_overlap(left: LinkableRecord, right: LinkableRecord) -> float:
    """Monge-Elkan of the primary names, every token pair scored afresh."""
    left_names, right_names = _raw_names(left), _raw_names(right)
    tokens_a = tokens(left_names[0] if left_names else left.record_id)
    tokens_b = tokens(right_names[0] if right_names else right.record_id)
    if not tokens_a or not tokens_b:
        return 0.0
    total = 0.0
    for token_a in tokens_a:
        total += max(jaro_winkler_similarity(token_a, token_b) for token_b in tokens_b)
    return total / len(tokens_a)


def oracle_features(ontology: Ontology | None = None) -> list[FeatureSpec]:
    """``default_features`` with the two name features computed as above."""
    return [
        FeatureSpec("name_jaro_winkler", best_name_similarity),
        FeatureSpec("name_monge_elkan", name_token_overlap),
        FeatureSpec("predicate_agreement", shared_predicate_agreement),
        FeatureSpec("date_agreement", date_agreement),
        FeatureSpec("type_compatible", type_compatibility(ontology)),
    ]
