"""Deterministic similarity functions for matching models (Section 5.1).

Saga exposes a library of similarity functions over different data types that
matching models use as features.  This module holds the deterministic members
the platform uses: Jaro-Winkler (linking's name features, object resolution's
name index, NERD), Monge-Elkan over tokens, value-set overlap and year
agreement, plus the string normalization and tokenization they share.
Learned (neural) string similarity lives in :mod:`repro.ml.encoders`.

All functions return a similarity in ``[0, 1]`` where ``1`` means identical,
and treat ``None`` / empty inputs as maximally dissimilar (``0``) so they can
be used directly as features without special-casing missing values.
"""

from __future__ import annotations

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


# --------------------------------------------------------------------- #
# Jaro-Winkler
# --------------------------------------------------------------------- #
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
def year_similarity(first: object, second: object, horizon: int = 5) -> float:
    """Similarity of two dates/years decaying linearly over *horizon* years."""
    year_a, year_b = _extract_year(first), _extract_year(second)
    if year_a is None or year_b is None:
        return 0.0
    gap = abs(year_a - year_b)
    return max(0.0, 1.0 - gap / horizon)


def _extract_year(value: object) -> int | None:
    if value is None:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        year = int(value)
        return year if 1000 <= year <= 3000 else None
    match = re.search(r"(1[0-9]{3}|2[0-9]{3})", str(value))
    return int(match.group(1)) if match else None
