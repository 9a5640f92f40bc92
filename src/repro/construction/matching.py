"""Matching models: score candidate pairs with a calibrated match probability.

Section 2.3 (step 4): matching models are domain-specific, controlled by the
ontology, and may be rule-based or machine-learning based; both consume
features built from the platform's deterministic and learned similarity
functions.  This module provides:

* :func:`default_features` — the standard feature set (name similarities,
  per-predicate agreement, type compatibility, optional learned similarity);
* :class:`RuleBasedMatcher` — a weighted feature blend squashed through a
  logistic link so the output is a calibrated probability;
* :class:`LearnedMatcher` — logistic regression trained on labelled pairs;
* :class:`MatcherRegistry` — per-entity-type matcher selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol, Sequence

import numpy as np

from repro.construction.pairs import CandidatePair
from repro.construction.records import LinkableRecord
from repro.errors import LinkingError
from repro.ml.encoders import EncoderRegistry
from repro.ml.similarity import monge_elkan_tokens, set_similarity, year_similarity
from repro.model.ontology import Ontology

FeatureExtractor = Callable[[LinkableRecord, LinkableRecord], float]


@dataclass(frozen=True)
class FeatureSpec:
    """A named feature extractor used by matching models."""

    name: str
    extractor: FeatureExtractor


# --------------------------------------------------------------------- #
# feature extractors
# --------------------------------------------------------------------- #
def best_name_similarity(left: LinkableRecord, right: LinkableRecord) -> float:
    """Best Jaro-Winkler across the cross product of the two records' names.

    The records' normalized names are compared through the left record's
    memo; a name that normalizes to nothing scores 0 against any name, so the
    maximum is the one over the raw names.
    """
    left_names = left.name_features.normalized
    right_names = right.name_features.normalized
    if not left_names or not right_names:
        return 0.0
    memo = left.similarity_memo
    return max(memo[a][b] for a in left_names for b in right_names)


def name_token_overlap(left: LinkableRecord, right: LinkableRecord) -> float:
    """Monge-Elkan token similarity of the primary names."""
    return monge_elkan_tokens(
        left.name_features.primary_tokens,
        right.name_features.primary_tokens,
        left.similarity_memo,
    )


def shared_predicate_agreement(left: LinkableRecord, right: LinkableRecord) -> float:
    """Average value agreement over the predicates both records populate.

    Name-like, date-like, and bookkeeping predicates are excluded (they get
    dedicated features); agreement of each shared predicate is the set
    similarity of the two value lists.
    """
    skip = {
        "name", "alias", "title", "full_title", "type", "same_as", "popularity",
        "birth_date", "release_date", "year",
    }
    shared = (set(left.properties) & set(right.properties)) - skip
    if not shared:
        return 0.0
    total = 0.0
    for predicate in shared:
        total += set_similarity(left.values(predicate), right.values(predicate))
    return total / len(shared)


def date_agreement(left: LinkableRecord, right: LinkableRecord) -> float:
    """Year agreement over date-like predicates (birth/release dates)."""
    predicates = ("birth_date", "release_date", "year")
    scores = []
    for predicate in predicates:
        left_value, right_value = left.first(predicate), right.first(predicate)
        if left_value is not None and right_value is not None:
            scores.append(year_similarity(left_value, right_value, horizon=2))
    return sum(scores) / len(scores) if scores else 0.0


def type_compatibility(ontology: Ontology | None) -> FeatureExtractor:
    """Build a feature that is 1.0 when the record types are compatible."""

    def _compatible(left: LinkableRecord, right: LinkableRecord) -> float:
        if not left.entity_type or not right.entity_type:
            return 0.5
        if ontology is not None:
            return 1.0 if ontology.compatible_types(left.entity_type, right.entity_type) else 0.0
        return 1.0 if left.entity_type == right.entity_type else 0.0

    return _compatible


def learned_name_similarity(registry: EncoderRegistry, string_type: str = "name") -> FeatureExtractor:
    """Build a feature using a learned string encoder from the registry."""

    def _learned(left: LinkableRecord, right: LinkableRecord) -> float:
        encoder = registry.get(string_type)
        if encoder is None:
            return 0.0
        left_names, right_names = left.names(), right.names()
        if not left_names or not right_names:
            return 0.0
        return max(encoder.similarity(a, b) for a in left_names for b in right_names)

    return _learned


def default_features(
    ontology: Ontology | None = None,
    encoders: EncoderRegistry | None = None,
) -> list[FeatureSpec]:
    """The standard feature set used by matchers when no custom set is given."""
    features = [
        FeatureSpec("name_jaro_winkler", best_name_similarity),
        FeatureSpec("name_monge_elkan", name_token_overlap),
        FeatureSpec("predicate_agreement", shared_predicate_agreement),
        FeatureSpec("date_agreement", date_agreement),
        FeatureSpec("type_compatible", type_compatibility(ontology)),
    ]
    if encoders is not None and encoders.get("name") is not None:
        features.append(FeatureSpec("name_learned", learned_name_similarity(encoders)))
    return features


def feature_vector(
    features: Sequence[FeatureSpec], left: LinkableRecord, right: LinkableRecord
) -> np.ndarray:
    """Evaluate every feature for a pair."""
    return np.array([spec.extractor(left, right) for spec in features], dtype=float)


# --------------------------------------------------------------------- #
# matching models
# --------------------------------------------------------------------- #
class MatchingModel(Protocol):
    """A model producing a calibrated match probability for a pair."""

    def score(self, left: LinkableRecord, right: LinkableRecord) -> float:
        """Return the probability that the two records refer to the same entity."""
        ...


@dataclass
class RuleBasedMatcher:
    """Weighted blend of similarity features squashed to a probability.

    The default weights emphasize name similarity — the dominant signal for
    most verticals — and use attribute agreement and type compatibility as
    supporting evidence, which mirrors the hand-written rules domain teams
    deploy before collecting training data for a learned model.
    """

    features: Sequence[FeatureSpec]
    weights: dict[str, float] = field(default_factory=dict)
    bias: float = -4.0
    scale: float = 8.0

    DEFAULT_WEIGHTS = {
        "name_jaro_winkler": 0.35,
        "name_monge_elkan": 0.2,
        "name_learned": 0.15,
        "predicate_agreement": 0.15,
        "date_agreement": 0.05,
        "type_compatible": 0.10,
    }

    def __post_init__(self) -> None:
        if not self.weights:
            self.weights = dict(self.DEFAULT_WEIGHTS)

    def score(self, left: LinkableRecord, right: LinkableRecord) -> float:
        """Calibrated match probability for the pair."""
        total_weight = 0.0
        blended = 0.0
        for spec in self.features:
            weight = self.weights.get(spec.name, 0.1)
            blended += weight * spec.extractor(left, right)
            total_weight += weight
        if total_weight == 0.0:
            return 0.0
        normalized = blended / total_weight
        return _sigmoid(self.bias + self.scale * normalized)


@dataclass
class LearnedMatcher:
    """Logistic-regression matcher trained on labelled record pairs."""

    features: Sequence[FeatureSpec]
    learning_rate: float = 0.5
    epochs: int = 200
    l2: float = 1e-3
    seed: int = 11
    weights: np.ndarray | None = None
    bias: float = 0.0

    def fit(
        self,
        pairs: Sequence[tuple[LinkableRecord, LinkableRecord]],
        labels: Sequence[int],
    ) -> "LearnedMatcher":
        """Train on (pair, label) data where label 1 means a true match."""
        if len(pairs) != len(labels):
            raise LinkingError("pairs and labels must have equal length")
        if not pairs:
            raise LinkingError("cannot train a matcher on zero pairs")
        matrix = np.vstack([feature_vector(self.features, a, b) for a, b in pairs])
        target = np.asarray(labels, dtype=float)
        rng = np.random.default_rng(self.seed)
        weights = rng.normal(0, 0.01, size=matrix.shape[1])
        bias = 0.0
        for _ in range(self.epochs):
            logits = matrix @ weights + bias
            predictions = 1.0 / (1.0 + np.exp(-logits))
            error = predictions - target
            gradient = matrix.T @ error / len(target) + self.l2 * weights
            bias_gradient = float(error.mean())
            weights -= self.learning_rate * gradient
            bias -= self.learning_rate * bias_gradient
        self.weights = weights
        self.bias = bias
        return self

    def score(self, left: LinkableRecord, right: LinkableRecord) -> float:
        """Calibrated match probability for the pair."""
        if self.weights is None:
            raise LinkingError("LearnedMatcher.score called before fit()")
        vector = feature_vector(self.features, left, right)
        return _sigmoid(float(vector @ self.weights + self.bias))

    def evaluate(
        self,
        pairs: Sequence[tuple[LinkableRecord, LinkableRecord]],
        labels: Sequence[int],
        threshold: float = 0.5,
    ) -> dict[str, float]:
        """Precision / recall / F1 of the matcher at *threshold*."""
        true_positive = false_positive = false_negative = 0
        for (left, right), label in zip(pairs, labels):
            predicted = self.score(left, right) >= threshold
            if predicted and label:
                true_positive += 1
            elif predicted and not label:
                false_positive += 1
            elif not predicted and label:
                false_negative += 1
        precision = (
            true_positive / (true_positive + false_positive)
            if true_positive + false_positive
            else 0.0
        )
        recall = (
            true_positive / (true_positive + false_negative)
            if true_positive + false_negative
            else 0.0
        )
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return {"precision": precision, "recall": recall, "f1": f1}


@dataclass
class MatcherRegistry:
    """Per-entity-type matcher selection with a shared default."""

    default: MatchingModel
    by_type: dict[str, MatchingModel] = field(default_factory=dict)

    def register(self, entity_type: str, matcher: MatchingModel) -> None:
        """Register a specialized matcher for one entity type."""
        self.by_type[entity_type] = matcher

    def matcher_for(self, entity_type: str) -> MatchingModel:
        """Return the matcher to use for records of *entity_type*."""
        return self.by_type.get(entity_type, self.default)


@dataclass
class ScoredPair:
    """A candidate pair together with its match probability."""

    pair: CandidatePair
    probability: float

    @property
    def left(self) -> LinkableRecord:
        """Left record of the pair."""
        return self.pair.left

    @property
    def right(self) -> LinkableRecord:
        """Right record of the pair."""
        return self.pair.right


def score_pairs(
    pairs: Iterable[CandidatePair], registry: MatcherRegistry
) -> list[ScoredPair]:
    """Score every candidate pair with its type-specific matcher."""
    scored = []
    for pair in pairs:
        entity_type = pair.left.entity_type or pair.right.entity_type
        matcher = registry.matcher_for(entity_type)
        scored.append(ScoredPair(pair, matcher.score(pair.left, pair.right)))
    return scored


def _sigmoid(value: float) -> float:
    if value >= 0:
        return 1.0 / (1.0 + math.exp(-value))
    exp_value = math.exp(value)
    return exp_value / (1.0 + exp_value)
