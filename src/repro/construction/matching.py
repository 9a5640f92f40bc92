"""Matching models: score candidate pairs with a calibrated match probability.

Section 2.3 (step 4): matching models are domain-specific, controlled by the
ontology, and may be rule-based or machine-learning based; both consume
features built from the platform's similarity functions.  This module
provides:

* :func:`default_features` — the standard feature set (name similarities,
  per-predicate agreement, type compatibility);
* :class:`RuleBasedMatcher` — a weighted feature blend squashed through a
  logistic link so the output is a calibrated probability, the one matcher
  linking scores every candidate pair with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Sequence

from repro.construction.pairs import CandidatePair
from repro.construction.records import LinkableRecord
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


def default_features(ontology: Ontology | None = None) -> list[FeatureSpec]:
    """The standard feature set used by matchers when no custom set is given."""
    return [
        FeatureSpec("name_jaro_winkler", best_name_similarity),
        FeatureSpec("name_monge_elkan", name_token_overlap),
        FeatureSpec("predicate_agreement", shared_predicate_agreement),
        FeatureSpec("date_agreement", date_agreement),
        FeatureSpec("type_compatible", type_compatibility(ontology)),
    ]


# --------------------------------------------------------------------- #
# matching models
# --------------------------------------------------------------------- #
@dataclass
class RuleBasedMatcher:
    """Weighted blend of similarity features squashed to a probability.

    The weights emphasize name similarity — the dominant signal for
    most verticals — and use attribute agreement and type compatibility as
    supporting evidence, which mirrors the hand-written rules domain teams
    deploy before collecting training data for a learned model.
    """

    features: Sequence[FeatureSpec]

    WEIGHTS: ClassVar[dict[str, float]] = {
        "name_jaro_winkler": 0.35,
        "name_monge_elkan": 0.2,
        "predicate_agreement": 0.15,
        "date_agreement": 0.05,
        "type_compatible": 0.10,
    }
    """Feature weights; a feature not named here weighs 0.1."""
    BIAS: ClassVar[float] = -4.0
    SCALE: ClassVar[float] = 8.0

    def score(self, left: LinkableRecord, right: LinkableRecord) -> float:
        """Calibrated match probability for the pair."""
        total_weight = 0.0
        blended = 0.0
        for spec in self.features:
            weight = self.WEIGHTS.get(spec.name, 0.1)
            blended += weight * spec.extractor(left, right)
            total_weight += weight
        if total_weight == 0.0:
            return 0.0
        normalized = blended / total_weight
        return _sigmoid(self.BIAS + self.SCALE * normalized)


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


def score_pairs(pairs: Iterable[CandidatePair], matcher: RuleBasedMatcher) -> list[ScoredPair]:
    """Score every candidate pair with *matcher*."""
    return [ScoredPair(pair, matcher.score(pair.left, pair.right)) for pair in pairs]


def _sigmoid(value: float) -> float:
    if value >= 0:
        return 1.0 / (1.0 + math.exp(-value))
    exp_value = math.exp(value)
    return exp_value / (1.0 + exp_value)
