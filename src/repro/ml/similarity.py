"""Deterministic similarity functions for matching models (Section 5.1).

Saga exposes a library of similarity functions over different data types that
matching models use as features.  This module provides the deterministic
members of that library: edit distances, token/set overlaps, q-gram measures,
phonetic codes, and typed helpers for numbers and dates.  Learned (neural)
string similarity lives in :mod:`repro.ml.encoders`.

All functions return a similarity in ``[0, 1]`` where ``1`` means identical,
and treat ``None`` / empty inputs as maximally dissimilar (``0``) so they can
be used directly as features without special-casing missing values.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Sequence

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+")


def normalize_string(text: object) -> str:
    """Lower-case and collapse whitespace; ``None`` becomes the empty string."""
    if text is None:
        return ""
    return " ".join(str(text).lower().split())


def tokens(text: object) -> list[str]:
    """Split *text* into lower-case alphanumeric tokens."""
    return _TOKEN_PATTERN.findall(normalize_string(text))


def qgrams(text: object, q: int = 3) -> list[str]:
    """Return the padded character q-grams of *text*.

    >>> qgrams("abc", q=2)
    ['#a', 'ab', 'bc', 'c#']
    """
    normalized = normalize_string(text)
    if not normalized:
        return []
    padded = "#" * (q - 1) + normalized + "#" * (q - 1)
    return [padded[i:i + q] for i in range(len(padded) - q + 1)]


# --------------------------------------------------------------------- #
# edit-based measures
# --------------------------------------------------------------------- #
def levenshtein_distance(first: str, second: str) -> int:
    """Classic dynamic-programming Levenshtein distance."""
    if first == second:
        return 0
    if not first:
        return len(second)
    if not second:
        return len(first)
    previous = list(range(len(second) + 1))
    for i, char_a in enumerate(first, start=1):
        current = [i]
        for j, char_b in enumerate(second, start=1):
            cost = 0 if char_a == char_b else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def levenshtein_similarity(first: object, second: object) -> float:
    """Normalized Levenshtein similarity in ``[0, 1]``."""
    a, b = normalize_string(first), normalize_string(second)
    if not a or not b:
        return 0.0
    longest = max(len(a), len(b))
    return 1.0 - levenshtein_distance(a, b) / longest


def hamming_similarity(first: object, second: object) -> float:
    """Hamming similarity for equal-length strings, else prefix comparison."""
    a, b = normalize_string(first), normalize_string(second)
    if not a or not b:
        return 0.0
    longest = max(len(a), len(b))
    matches = sum(1 for x, y in zip(a, b) if x == y)
    return matches / longest


def jaro_similarity(first: object, second: object) -> float:
    """Jaro similarity, a name-matching classic."""
    return _jaro_normalized(normalize_string(first), normalize_string(second))


def _jaro_normalized(a: str, b: str) -> float:
    """Jaro similarity over strings that are already normalized.

    Each character of *a* matches the first still-unmatched equal character
    of *b* inside the window.  Rather than scanning the window, the kernel
    keeps, per character, the positions of *b* not yet matched, nearest
    last: the window's lower edge only moves right, so positions below it
    are dropped for good, and the first position left is the greedy choice.
    """
    if not a or not b:
        return 0.0
    if a == b:
        return 1.0
    window = max(max(len(a), len(b)) // 2 - 1, 0)
    unmatched: dict[str, list[int]] = {}
    for j in range(len(b) - 1, -1, -1):
        positions = unmatched.get(b[j])
        if positions is None:
            unmatched[b[j]] = [j]
        else:
            positions.append(j)
    matched_chars: list[str] = []
    matched_positions: list[int] = []
    for i, char_a in enumerate(a):
        positions = unmatched.get(char_a)
        if not positions:
            continue
        low = i - window
        while positions and positions[-1] < low:
            positions.pop()
        if positions and positions[-1] <= i + window:
            matched_chars.append(char_a)
            matched_positions.append(positions.pop())
    matches = len(matched_chars)
    if matches == 0:
        return 0.0
    # Transpositions pair the matched characters of a and of b, each in
    # string order.
    matched_positions.sort()
    transpositions = 0
    for char_a, j in zip(matched_chars, matched_positions):
        if char_a != b[j]:
            transpositions += 1
    transpositions //= 2
    return (
        matches / len(a) + matches / len(b) + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler_similarity(first: object, second: object, prefix_weight: float = 0.1) -> float:
    """Jaro-Winkler similarity boosting shared prefixes (up to 4 characters)."""
    return jaro_winkler_normalized(
        normalize_string(first), normalize_string(second), prefix_weight
    )


def jaro_winkler_normalized(a: str, b: str, prefix_weight: float = 0.1) -> float:
    """Jaro-Winkler over already-normalized strings (hot-path variant).

    Callers that hold normalized strings call this directly: object
    resolution's name index normalizes each name once at indexing time, and
    the linker's name features compare the names a
    :class:`~repro.construction.records.LinkableRecord` normalized once per
    link run, memoizing each distinct pair for that run.  Identical result to
    :func:`jaro_winkler_similarity` on normalized input.
    """
    jaro = _jaro_normalized(a, b)
    prefix = 0
    for char_a, char_b in zip(a[:4], b[:4]):
        if char_a != char_b:
            break
        prefix += 1
    return min(1.0, jaro + prefix * prefix_weight * (1.0 - jaro))


class JaroWinklerMemo(dict):
    """Jaro-Winkler of normalized string pairs, each distinct pair computed once.

    ``memo[a][b]`` is ``jaro_winkler_normalized(a, b)``; a lookup that hits
    allocates nothing.  The memo keeps every pair it was asked about, so its
    owner bounds its life: the linker makes one per link run and never shares
    it across runs (a process-wide memo would make a repeated bootstrap of the
    same data run warm).
    """

    def __missing__(self, a: str) -> _JaroWinklerRow:
        row = self[a] = _JaroWinklerRow(a)
        return row


class _JaroWinklerRow(dict):
    """The scores of one string against the strings it was compared with."""

    __slots__ = ("a",)

    def __init__(self, a: str) -> None:
        super().__init__()
        self.a = a

    def __missing__(self, b: str) -> float:
        score = self[b] = jaro_winkler_normalized(self.a, b)
        return score


# --------------------------------------------------------------------- #
# token / set measures
# --------------------------------------------------------------------- #
def jaccard_similarity(first: object, second: object) -> float:
    """Jaccard overlap of the token sets of the two strings."""
    set_a, set_b = set(tokens(first)), set(tokens(second))
    if not set_a or not set_b:
        return 0.0
    return len(set_a & set_b) / len(set_a | set_b)


def overlap_coefficient(first: object, second: object) -> float:
    """Token overlap normalized by the smaller set (containment)."""
    set_a, set_b = set(tokens(first)), set(tokens(second))
    if not set_a or not set_b:
        return 0.0
    return len(set_a & set_b) / min(len(set_a), len(set_b))


def qgram_similarity(first: object, second: object, q: int = 3) -> float:
    """Dice coefficient over character q-gram multisets."""
    grams_a, grams_b = qgrams(first, q), qgrams(second, q)
    if not grams_a or not grams_b:
        return 0.0
    counts_a: dict[str, int] = {}
    for gram in grams_a:
        counts_a[gram] = counts_a.get(gram, 0) + 1
    shared = 0
    for gram in grams_b:
        remaining = counts_a.get(gram, 0)
        if remaining:
            shared += 1
            counts_a[gram] = remaining - 1
    return 2.0 * shared / (len(grams_a) + len(grams_b))


def monge_elkan_similarity(first: object, second: object) -> float:
    """Average best token-level Jaro-Winkler match (handles word reordering)."""
    return monge_elkan_tokens(tokens(first), tokens(second), JaroWinklerMemo())


def monge_elkan_tokens(
    tokens_a: Sequence[str], tokens_b: Sequence[str], scores: JaroWinklerMemo
) -> float:
    """Monge-Elkan over already-tokenized strings, scoring through *scores*."""
    if not tokens_a or not tokens_b:
        return 0.0
    total = 0.0
    for token_a in tokens_a:
        row = scores[token_a]
        total += max(row[token_b] for token_b in tokens_b)
    return total / len(tokens_a)


def set_similarity(first: Iterable[object], second: Iterable[object]) -> float:
    """Jaccard similarity between two value collections (e.g. genre lists)."""
    set_a = {normalize_string(v) for v in first if v is not None}
    set_b = {normalize_string(v) for v in second if v is not None}
    set_a.discard("")
    set_b.discard("")
    if not set_a or not set_b:
        return 0.0
    return len(set_a & set_b) / len(set_a | set_b)


# --------------------------------------------------------------------- #
# typed helpers
# --------------------------------------------------------------------- #
def numeric_similarity(first: object, second: object, tolerance: float = 0.1) -> float:
    """Similarity of two numbers based on relative difference."""
    try:
        a = float(first)  # type: ignore[arg-type]
        b = float(second)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return 0.0
    if a == b:
        return 1.0
    scale = max(abs(a), abs(b), 1e-12)
    relative = abs(a - b) / scale
    return max(0.0, 1.0 - relative / max(tolerance, 1e-12)) if relative < tolerance else 0.0


def year_similarity(first: object, second: object, horizon: int = 5) -> float:
    """Similarity of two dates/years decaying linearly over *horizon* years."""
    year_a, year_b = _extract_year(first), _extract_year(second)
    if year_a is None or year_b is None:
        return 0.0
    gap = abs(year_a - year_b)
    return max(0.0, 1.0 - gap / horizon)


def exact_similarity(first: object, second: object) -> float:
    """1.0 when the normalized strings match exactly, else 0.0."""
    a, b = normalize_string(first), normalize_string(second)
    if not a or not b:
        return 0.0
    return 1.0 if a == b else 0.0


def _extract_year(value: object) -> int | None:
    if value is None:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        year = int(value)
        return year if 1000 <= year <= 3000 else None
    match = re.search(r"(1[0-9]{3}|2[0-9]{3})", str(value))
    return int(match.group(1)) if match else None


# --------------------------------------------------------------------- #
# phonetic code
# --------------------------------------------------------------------- #
_SOUNDEX_CODES = {
    **dict.fromkeys("bfpv", "1"),
    **dict.fromkeys("cgjkqsxz", "2"),
    **dict.fromkeys("dt", "3"),
    **dict.fromkeys("l", "4"),
    **dict.fromkeys("mn", "5"),
    **dict.fromkeys("r", "6"),
}


def soundex(text: object) -> str:
    """American Soundex code of the first token of *text*."""
    word_tokens = tokens(text)
    if not word_tokens:
        return ""
    word = word_tokens[0]
    first_letter = word[0].upper()
    encoded = []
    previous = _SOUNDEX_CODES.get(word[0], "")
    for char in word[1:]:
        code = _SOUNDEX_CODES.get(char, "")
        if code and code != previous:
            encoded.append(code)
        if char not in "hw":
            previous = code
    return (first_letter + "".join(encoded) + "000")[:4]


def soundex_similarity(first: object, second: object) -> float:
    """1.0 when the Soundex codes of the first tokens match."""
    code_a, code_b = soundex(first), soundex(second)
    if not code_a or not code_b:
        return 0.0
    return 1.0 if code_a == code_b else 0.0


# --------------------------------------------------------------------- #
# tf-idf style cosine over q-grams (cheap vector-space similarity)
# --------------------------------------------------------------------- #
def cosine_qgram_similarity(first: object, second: object, q: int = 3) -> float:
    """Cosine similarity between q-gram count vectors of the two strings."""
    grams_a, grams_b = qgrams(first, q), qgrams(second, q)
    if not grams_a or not grams_b:
        return 0.0
    counts_a: dict[str, int] = {}
    counts_b: dict[str, int] = {}
    for gram in grams_a:
        counts_a[gram] = counts_a.get(gram, 0) + 1
    for gram in grams_b:
        counts_b[gram] = counts_b.get(gram, 0) + 1
    dot = sum(counts_a[g] * counts_b.get(g, 0) for g in counts_a)
    norm_a = math.sqrt(sum(c * c for c in counts_a.values()))
    norm_b = math.sqrt(sum(c * c for c in counts_b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return min(1.0, dot / (norm_a * norm_b))


SIMILARITY_FUNCTIONS = {
    "levenshtein": levenshtein_similarity,
    "hamming": hamming_similarity,
    "jaro": jaro_similarity,
    "jaro_winkler": jaro_winkler_similarity,
    "jaccard": jaccard_similarity,
    "overlap": overlap_coefficient,
    "qgram": qgram_similarity,
    "monge_elkan": monge_elkan_similarity,
    "cosine_qgram": cosine_qgram_similarity,
    "numeric": numeric_similarity,
    "year": year_similarity,
    "exact": exact_similarity,
    "soundex": soundex_similarity,
}
"""Registry used by matching-model feature configuration."""


def similarity_profile(first: object, second: object) -> dict[str, float]:
    """Compute every registered string similarity for a pair of values.

    Convenience helper used to featurize entity pairs quickly in tests and
    examples; production matching models select a subset per entity type.
    """
    profile = {}
    for name, function in SIMILARITY_FUNCTIONS.items():
        if name in ("numeric", "year"):
            continue
        profile[name] = function(first, second)
    return profile
