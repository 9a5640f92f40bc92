"""Candidate retrieval for NERD: the blocking analogue of entity linking (§5.2).

Given an entity mention, candidate retrieval prunes the enormous space of KG
entities to a small set of likely matches using exact normalized-name lookup,
token-level postings, and — when available — a learned string encoder.
Admissible-type hints narrow the candidates further and entity importance
prioritizes candidates when the budget is tight.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.ml.encoders import StringEncoder
from repro.ml.nerd.entity_view import NERDEntityRecord, NERDEntityView
from repro.ml.similarity import jaro_winkler_similarity, normalize_string, tokens
from repro.model.ontology import Ontology


@dataclass
class Candidate:
    """One candidate entity with its retrieval score."""

    record: NERDEntityRecord
    retrieval_score: float

    @property
    def entity_id(self) -> str:
        """Candidate entity identifier."""
        return self.record.entity_id


MAX_CANDIDATES = 10
"""Candidates :meth:`CandidateRetriever.retrieve` returns at most."""

FUZZY_THRESHOLD = 0.82
"""Least name similarity (Jaro-Winkler, or the encoder's when it is higher) at
which a token-posting hit becomes a candidate."""

IMPORTANCE_WEIGHT = 0.15
"""Weight of entity importance added to a candidate's retrieval score."""


def _tokens_of(names: set[str]) -> set[str]:
    return {token for name in names for token in tokens(name)}


def _move(postings: dict[str, set[str]], entity_id: str, before: set[str], after: set[str]) -> None:
    """Post *entity_id* under the keys of *after* instead of those of *before*."""
    for key in before - after:
        posted = postings[key]
        posted.discard(entity_id)
        if not posted:
            del postings[key]
    for key in after - before:
        postings[key].add(entity_id)


class CandidateRetriever:
    """Name-based candidate generation over the NERD Entity View."""

    def __init__(
        self,
        view: NERDEntityView,
        ontology: Ontology | None = None,
        encoder: StringEncoder | None = None,
    ) -> None:
        self.view = view
        self.ontology = ontology
        self.encoder = encoder
        self._exact: dict[str, set[str]] = defaultdict(set)
        self._token_postings: dict[str, set[str]] = defaultdict(set)
        self.reindex({record.entity_id: None for record in view.records()})

    def reindex(self, previous: dict[str, NERDEntityRecord | None]) -> None:
        """Move each entity's postings from the names of its *previous* record
        (``None``: none) to the names of its record in the view now."""
        for entity_id, old in previous.items():
            record = self.view.get(entity_id)
            before = old.normalized_names() if old is not None else set()
            after = record.normalized_names() if record is not None else set()
            if before == after:
                continue
            _move(self._exact, entity_id, before, after)
            _move(self._token_postings, entity_id, _tokens_of(before), _tokens_of(after))

    def knows_name(self, normalized: str) -> bool:
        """Whether some record has *normalized* as a normalized name."""
        return normalized in self._exact

    # -------------------------------------------------------------- #
    # retrieval
    # -------------------------------------------------------------- #
    def retrieve(
        self, mention: str, type_hints: tuple[str, ...] = ()
    ) -> list[Candidate]:
        """Return the top candidates for *mention*, best retrieval score first."""
        normalized = normalize_string(mention)
        if not normalized:
            return []
        scores: dict[str, float] = {}

        for entity_id in self._exact.get(normalized, ()):
            scores[entity_id] = max(scores.get(entity_id, 0.0), 1.0)

        mention_tokens = set(tokens(normalized))
        pooled: set[str] = set()
        for token in mention_tokens:
            pooled.update(self._token_postings.get(token, ()))
        for entity_id in pooled:
            if entity_id in scores:
                continue
            record = self.view.get(entity_id)
            if record is None:
                continue
            best = max(
                (jaro_winkler_similarity(normalized, name) for name in record.normalized_names()),
                default=0.0,
            )
            if self.encoder is not None:
                learned = max(
                    (self.encoder.similarity(normalized, name) for name in record.normalized_names()),
                    default=0.0,
                )
                best = max(best, learned)
            if best >= FUZZY_THRESHOLD:
                scores[entity_id] = best

        candidates = []
        for entity_id, score in scores.items():
            record = self.view.get(entity_id)
            if record is None:
                continue
            if type_hints and not self._type_admissible(record, type_hints):
                continue
            blended = score + IMPORTANCE_WEIGHT * record.importance
            candidates.append(Candidate(record=record, retrieval_score=blended))
        candidates.sort(key=lambda c: (-c.retrieval_score, c.entity_id))
        return candidates[:MAX_CANDIDATES]

    def _type_admissible(
        self, record: NERDEntityRecord, type_hints: tuple[str, ...]
    ) -> bool:
        if not record.types:
            return True
        for record_type in record.types:
            for hint in type_hints:
                if record_type == hint:
                    return True
                if (
                    self.ontology is not None
                    and self.ontology.has_type(record_type)
                    and self.ontology.has_type(hint)
                    and self.ontology.compatible_types(record_type, hint)
                ):
                    return True
        return False
