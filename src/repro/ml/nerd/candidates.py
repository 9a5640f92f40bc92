"""Candidate retrieval for NERD: the blocking analogue of entity linking (§5.2).

Given an entity mention, candidate retrieval prunes the enormous space of KG
entities to a small set of likely matches using exact normalized-name lookup
and token-level postings scored by Jaro-Winkler.
Admissible-type hints narrow the candidates further and entity importance
prioritizes candidates when the budget is tight.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

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
"""Least Jaro-Winkler name similarity at which a token-posting hit becomes a
candidate."""

IMPORTANCE_WEIGHT = 0.15
"""Weight of entity importance added to a candidate's retrieval score."""


class CandidateRetriever:
    """Name-based candidate generation over the NERD Entity View."""

    def __init__(self, view: NERDEntityView, ontology: Ontology | None = None) -> None:
        self.view = view
        self.ontology = ontology
        self._exact: dict[str, set[str]] = defaultdict(set)
        self._token_postings: dict[str, set[str]] = defaultdict(set)
        for record in view.records():
            for name in record.normalized_names():
                self._exact[name].add(record.entity_id)
                for token in tokens(name):
                    self._token_postings[token].add(record.entity_id)

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
