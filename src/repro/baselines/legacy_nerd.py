"""The previously-deployed entity disambiguation baseline of Figure 14.

Section 6.3 describes the alternative solution NERD is compared against: it
does not leverage the relational information of KG entities; instead it relies
on learned name/popularity correlations, which "promotes high-quality
predictions for head entities but not tail entities".  This baseline
reproduces that behaviour: candidates are scored from name similarity and a
popularity prior only — the mention's surrounding context is ignored — so it
resolves ambiguous surface forms to the most popular entity and is far less
confident (or simply wrong) on tail entities.
"""

from __future__ import annotations

from typing import ClassVar

import numpy as np

from repro.ml.nerd.candidates import Candidate, CandidateRetriever
from repro.ml.nerd.disambiguation import DisambiguationResult, MentionContext
from repro.ml.nerd.entity_view import NERDEntityRecord, NERDEntityView
from repro.ml.similarity import jaro_winkler_similarity, normalize_string
from repro.model.ontology import Ontology


class PopularityDisambiguator:
    """Context-free disambiguation: name similarity + popularity prior only."""

    NAME_WEIGHT: ClassVar[float] = 3.4
    POPULARITY_WEIGHT: ClassVar[float] = 2.6
    BIAS: ClassVar[float] = -3.2
    REJECTION_THRESHOLD: ClassVar[float] = 0.5

    def score(self, context: MentionContext, record: NERDEntityRecord) -> float:
        """Probability of *record* being the referent, ignoring the context."""
        mention = normalize_string(context.mention)
        names = record.normalized_names() or {normalize_string(record.entity_id)}
        name_similarity = max(
            (jaro_winkler_similarity(mention, name) for name in names), default=0.0
        )
        logit = (
            self.BIAS
            + self.NAME_WEIGHT * name_similarity
            + self.POPULARITY_WEIGHT * min(max(record.importance, 0.0), 1.0)
        )
        return float(1.0 / (1.0 + np.exp(-logit)))

    def disambiguate(
        self, context: MentionContext, candidates: list[Candidate]
    ) -> DisambiguationResult:
        """Pick the highest-scoring candidate, rejecting below the threshold."""
        if not candidates:
            return DisambiguationResult(None, 0.0, rejected=True, candidate_count=0)
        scores = {c.entity_id: self.score(context, c.record) for c in candidates}
        best_id = max(scores, key=lambda entity_id: (scores[entity_id], entity_id))
        best = scores[best_id]
        if best < self.REJECTION_THRESHOLD:
            return DisambiguationResult(
                None, best, rejected=True, scores=scores, candidate_count=len(candidates)
            )
        return DisambiguationResult(
            best_id, best, rejected=False, scores=scores, candidate_count=len(candidates)
        )


class LegacyEntityLinker:
    """Baseline service with the same interface shape as :class:`NERDService`."""

    def __init__(self, view: NERDEntityView, ontology: Ontology | None = None) -> None:
        self.view = view
        self.retriever = CandidateRetriever(view, ontology=ontology)
        self.disambiguator = PopularityDisambiguator()

    def link_mention(
        self,
        mention: str,
        context_text: str = "",
        context_values: tuple[str, ...] = (),
        type_hints: tuple[str, ...] = (),
    ) -> DisambiguationResult:
        """Retrieve candidates and disambiguate without using the context."""
        candidates = self.retriever.retrieve(mention, type_hints)
        context = MentionContext(
            mention=mention,
            context_text=context_text,
            context_values=tuple(context_values),
            type_hints=type_hints,
        )
        return self.disambiguator.disambiguate(context, candidates)
