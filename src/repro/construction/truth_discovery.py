"""Truth discovery and source reliability estimation (Section 2.3, Fusion).

During fusion Saga uses standard truth-discovery methods to estimate the
probability of correctness for each consolidated fact, reasoning about the
agreement and disagreement across sources and taking ontological constraints
(functional predicates) into account.  We implement an iterative
voting/reliability algorithm in the spirit of TruthFinder / SLiMFast:

* each claim (a value asserted for a data item by a source) starts with the
  source's prior trust;
* a value's confidence aggregates the reliabilities of the sources asserting
  it (independent-voter combination) discounted by conflicting claims;
* a source's reliability is re-estimated as the average confidence of the
  values it asserts;
* iterate until convergence.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence


@dataclass(frozen=True)
class Claim:
    """One value asserted for a data item by one source."""

    item: Hashable          # usually (subject, predicate)
    value: Hashable
    source_id: str
    prior_trust: float = 0.5


@dataclass
class TruthDiscoveryResult:
    """Outputs of a truth-discovery run."""

    value_confidence: dict[tuple[Hashable, Hashable], float] = field(default_factory=dict)
    source_reliability: dict[str, float] = field(default_factory=dict)
    resolved_values: dict[Hashable, Hashable] = field(default_factory=dict)
    iterations: int = 0

    def confidence_of(self, item: Hashable, value: Hashable) -> float:
        """Confidence of *value* for *item* (0.0 when never claimed)."""
        return self.value_confidence.get((item, value), 0.0)

    def best_value(self, item: Hashable) -> Hashable | None:
        """The most confident value resolved for *item*."""
        return self.resolved_values.get(item)


MAX_ITERATIONS = 20
"""Rounds of the value-confidence / source-reliability update at most."""

TOLERANCE = 1e-4
"""The run stops once no source's reliability moves by this much in a round."""

DAMPING = 0.3
"""Weight of a source's previous reliability when it is re-estimated."""

CONFLICT_PENALTY = 0.35
"""How strongly conflicting claims on one item discount each other."""

MIN_RELIABILITY = 0.05
"""Lower bound every source reliability is clamped to."""

MAX_RELIABILITY = 0.99
"""Upper bound every source reliability is clamped to."""


class TruthDiscovery:
    """Iterative source-reliability / value-confidence estimation."""

    def run(self, claims: Sequence[Claim]) -> TruthDiscoveryResult:
        """Estimate value confidences and source reliabilities for *claims*."""
        result = TruthDiscoveryResult()
        if not claims:
            return result

        claims_by_item: dict[Hashable, list[Claim]] = defaultdict(list)
        claims_by_source: dict[str, list[Claim]] = defaultdict(list)
        for claim in claims:
            claims_by_item[claim.item].append(claim)
            claims_by_source[claim.source_id].append(claim)

        reliability = {
            source_id: _mean(c.prior_trust for c in source_claims)
            for source_id, source_claims in claims_by_source.items()
        }

        confidence: dict[tuple[Hashable, Hashable], float] = {}
        for iteration in range(1, MAX_ITERATIONS + 1):
            confidence = self._update_value_confidence(claims_by_item, reliability)
            new_reliability = self._update_source_reliability(
                claims_by_source, confidence, reliability
            )
            delta = max(
                abs(new_reliability[s] - reliability[s]) for s in reliability
            )
            reliability = new_reliability
            if delta < TOLERANCE:
                break

        result.value_confidence = confidence
        result.source_reliability = reliability
        result.iterations = iteration
        for item, item_claims in claims_by_item.items():
            best = max(
                {claim.value for claim in item_claims},
                key=lambda value: confidence.get((item, value), 0.0),
            )
            result.resolved_values[item] = best
        return result

    # -------------------------------------------------------------- #
    # update rules
    # -------------------------------------------------------------- #
    def _update_value_confidence(
        self,
        claims_by_item: dict[Hashable, list[Claim]],
        reliability: dict[str, float],
    ) -> dict[tuple[Hashable, Hashable], float]:
        confidence: dict[tuple[Hashable, Hashable], float] = {}
        for item, item_claims in claims_by_item.items():
            sources_by_value: dict[Hashable, set[str]] = defaultdict(set)
            for claim in item_claims:
                sources_by_value[claim.value].add(claim.source_id)
            for value, supporting in sources_by_value.items():
                # Independent-voter support for the value...
                wrong = 1.0
                for source_id in supporting:
                    wrong *= 1.0 - reliability[source_id]
                support = 1.0 - wrong
                # ...discounted by the reliability of sources asserting
                # conflicting values for the same item.
                conflict = 0.0
                for other_value, other_sources in sources_by_value.items():
                    if other_value == value:
                        continue
                    conflict += sum(reliability[s] for s in other_sources)
                discounted = support * (1.0 - CONFLICT_PENALTY) ** conflict
                confidence[(item, value)] = max(0.0, min(1.0, discounted))
        return confidence

    def _update_source_reliability(
        self,
        claims_by_source: dict[str, list[Claim]],
        confidence: dict[tuple[Hashable, Hashable], float],
        previous: dict[str, float],
    ) -> dict[str, float]:
        updated = {}
        for source_id, source_claims in claims_by_source.items():
            observed = _mean(
                confidence.get((claim.item, claim.value), 0.0) for claim in source_claims
            )
            blended = DAMPING * previous[source_id] + (1.0 - DAMPING) * observed
            updated[source_id] = min(MAX_RELIABILITY, max(MIN_RELIABILITY, blended))
        return updated


def _mean(values: Iterable[float]) -> float:
    materialized = list(values)
    return sum(materialized) / len(materialized) if materialized else 0.0
