"""Contextual entity disambiguation with a rejection option (§5.2, Figure 11).

The production model is a transformer that attends between the mention context
and each attribute of the NERD Entity View record.  We reproduce the same
decision structure with an interpretable feature-interaction model:

* one sub-score per view attribute (names, description, relations, neighbour
  types, entity types, importance) measuring its agreement with the mention
  and its surrounding context;
* a linear layer over those sub-scores with a sigmoid link, trained with weak
  supervision (labelled mentions bootstrapped from the KG and synthetic text);
* one-vs-all scoring across the candidate set with a rejection threshold, so
  the model can decline to link when no candidate is supported by the context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import NERDError
from repro.ml.encoders import StringEncoder
from repro.ml.nerd.candidates import Candidate
from repro.ml.nerd.entity_view import NERDEntityRecord
from repro.ml.similarity import jaro_winkler_similarity, normalize_string, tokens

_STOP_WORDS = {
    "the", "a", "an", "of", "in", "at", "on", "and", "or", "to", "for", "with",
    "after", "before", "from", "by", "is", "was", "were", "we", "new", "near",
}

REJECTION_THRESHOLD = 0.5
"""A mention whose best candidate scores below this is left unlinked."""

FEATURE_NAMES = (
    "name_similarity",
    "learned_name_similarity",
    "context_overlap",
    "relation_overlap",
    "neighbor_type_overlap",
    "type_hint_match",
    "importance",
)


@dataclass
class MentionContext:
    """A mention plus the context available for disambiguation."""

    mention: str
    context_text: str = ""
    context_values: tuple[str, ...] = ()
    type_hints: tuple[str, ...] = ()

    def context_tokens(self) -> set[str]:
        """Informative tokens around the mention (mention + stop words removed)."""
        bag = set(tokens(self.context_text))
        for value in self.context_values:
            bag.update(tokens(value))
        bag -= set(tokens(self.mention))
        return {token for token in bag if token not in _STOP_WORDS and len(token) > 2}


@dataclass
class DisambiguationResult:
    """Output of disambiguating one mention."""

    entity_id: str | None
    confidence: float
    rejected: bool
    scores: dict[str, float] = field(default_factory=dict)   # entity id -> probability
    candidate_count: int = 0


class ContextualDisambiguator:
    """Feature-interaction disambiguation model with rejection."""

    #: Hand-tuned prior weights used before any weak-supervision training.
    DEFAULT_WEIGHTS = {
        "name_similarity": 4.0,
        "learned_name_similarity": 1.0,
        "context_overlap": 2.6,
        "relation_overlap": 2.2,
        "neighbor_type_overlap": 0.6,
        "type_hint_match": 1.2,
        "importance": 0.8,
    }
    DEFAULT_BIAS = -4.0

    def __init__(self, encoder: StringEncoder | None = None) -> None:
        self.encoder = encoder
        self.weights = dict(self.DEFAULT_WEIGHTS)
        self.bias = self.DEFAULT_BIAS
        self.trained = False

    # -------------------------------------------------------------- #
    # features
    # -------------------------------------------------------------- #
    def features(
        self, context: MentionContext, record: NERDEntityRecord
    ) -> dict[str, float]:
        """Per-attribute agreement features for (mention, context, candidate)."""
        mention_norm = normalize_string(context.mention)
        names = record.normalized_names() or {normalize_string(record.entity_id)}
        name_similarity = max(
            (jaro_winkler_similarity(mention_norm, name) for name in names), default=0.0
        )
        learned = 0.0
        if self.encoder is not None:
            learned = max(
                (self.encoder.similarity(mention_norm, name) for name in names), default=0.0
            )
        context_tokens = context.context_tokens()
        candidate_tokens = record.context_tokens() - set(tokens(context.mention))
        context_overlap = (
            len(context_tokens & candidate_tokens) / len(context_tokens)
            if context_tokens
            else 0.0
        )
        relation_overlap = self._relation_overlap(context_tokens, record)
        neighbor_type_overlap = self._token_list_overlap(context_tokens, record.neighbor_types)
        type_hint_match = 0.0
        if context.type_hints:
            type_hint_match = (
                1.0 if any(hint in record.types for hint in context.type_hints) else 0.0
            )
        return {
            "name_similarity": name_similarity,
            "learned_name_similarity": learned,
            "context_overlap": min(context_overlap, 1.0),
            "relation_overlap": relation_overlap,
            "neighbor_type_overlap": neighbor_type_overlap,
            "type_hint_match": type_hint_match,
            "importance": min(max(record.importance, 0.0), 1.0),
        }

    def score(self, context: MentionContext, record: NERDEntityRecord) -> float:
        """Calibrated probability that *record* is the referent of the mention."""
        feats = self.features(context, record)
        logit = self.bias + sum(self.weights[name] * feats[name] for name in FEATURE_NAMES)
        return float(1.0 / (1.0 + np.exp(-logit)))

    # -------------------------------------------------------------- #
    # prediction
    # -------------------------------------------------------------- #
    def disambiguate(
        self, context: MentionContext, candidates: Sequence[Candidate]
    ) -> DisambiguationResult:
        """One-vs-all scoring over *candidates* with rejection."""
        if not candidates:
            return DisambiguationResult(None, 0.0, rejected=True, candidate_count=0)
        scores = {
            candidate.entity_id: self.score(context, candidate.record)
            for candidate in candidates
        }
        best_id = max(scores, key=lambda entity_id: (scores[entity_id], entity_id))
        best_score = scores[best_id]
        if best_score < REJECTION_THRESHOLD:
            return DisambiguationResult(
                None, best_score, rejected=True, scores=scores,
                candidate_count=len(candidates),
            )
        return DisambiguationResult(
            best_id, best_score, rejected=False, scores=scores,
            candidate_count=len(candidates),
        )

    # -------------------------------------------------------------- #
    # weak-supervision training
    # -------------------------------------------------------------- #
    def fit(
        self,
        examples: Sequence[tuple[MentionContext, NERDEntityRecord, int]],
        learning_rate: float = 0.3,
        epochs: int = 150,
        l2: float = 1e-3,
        seed: int = 3,
    ) -> "ContextualDisambiguator":
        """Train the linear layer on (context, candidate, label) examples.

        Labels are 1 for the true referent and 0 for negative candidates; the
        examples are typically produced by weak supervision (entity-tagged
        text, query logs, or templated snippets generated from KG facts).
        """
        if not examples:
            raise NERDError("cannot train the disambiguator on zero examples")
        matrix = np.array(
            [[self.features(ctx, rec)[name] for name in FEATURE_NAMES] for ctx, rec, _ in examples]
        )
        labels = np.array([label for _, _, label in examples], dtype=float)
        rng = np.random.default_rng(seed)
        weights = np.array([self.weights[name] for name in FEATURE_NAMES]) + rng.normal(
            0, 0.01, len(FEATURE_NAMES)
        )
        bias = self.bias
        for _ in range(epochs):
            logits = matrix @ weights + bias
            predictions = 1.0 / (1.0 + np.exp(-logits))
            error = predictions - labels
            gradient = matrix.T @ error / len(labels) + l2 * weights
            weights -= learning_rate * gradient
            bias -= learning_rate * float(error.mean())
        self.weights = dict(zip(FEATURE_NAMES, weights.tolist()))
        self.bias = float(bias)
        self.trained = True
        return self

    # -------------------------------------------------------------- #
    # internals
    # -------------------------------------------------------------- #
    def _relation_overlap(self, context_tokens: set[str], record: NERDEntityRecord) -> float:
        if not record.relations or not context_tokens:
            return 0.0
        hits = 0
        for _, neighbor_name in record.relations:
            neighbor_tokens = {
                token for token in tokens(neighbor_name) if token not in _STOP_WORDS
            }
            if neighbor_tokens and neighbor_tokens & context_tokens:
                hits += 1
        return min(1.0, hits / max(len(record.relations), 1) * 3.0)

    def _token_list_overlap(self, context_tokens: set[str], values: list[str]) -> float:
        if not values or not context_tokens:
            return 0.0
        value_tokens = set()
        for value in values:
            value_tokens.update(tokens(value))
        if not value_tokens:
            return 0.0
        return len(value_tokens & context_tokens) / len(value_tokens)
