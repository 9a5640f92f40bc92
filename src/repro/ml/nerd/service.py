"""The NERD service: mention generation, retrieval, disambiguation (Figure 10).

The service wires the stack together and exposes the two interfaces the paper
describes:

* **annotation** of text passages or semi-structured records — mention
  generation over the input, candidate retrieval, bulk contextual
  disambiguation, and preparation of the annotated output;
* **object resolution** for KG construction — the service structurally
  satisfies :class:`repro.construction.object_resolution.ObjectResolver`, so
  the construction pipeline can plug it in directly (optionally with entity
  type hints, the "NERD + type hints" configuration of Figure 14b).

The service follows the log like every other consumer of the Graph Engine:
:meth:`NERDService.apply_delta` takes each LSN-stamped
:class:`~repro.engine.views.ViewDelta` and rebuilds the entity records it can
change, moving only their retrieval postings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.ml.encoders import StringEncoder
from repro.ml.nerd.candidates import CandidateRetriever
from repro.ml.nerd.disambiguation import (
    ContextualDisambiguator,
    DisambiguationResult,
    MentionContext,
)
from repro.ml.nerd.entity_view import NERDEntityView
from repro.ml.similarity import normalize_string
from repro.model.ontology import Ontology
from repro.model.triples import TripleStore

if TYPE_CHECKING:
    from repro.engine.views import ViewDelta

MAX_MENTION_TOKENS = 5
"""Longest mention, in whitespace-separated words, the gazetteer matches."""


@dataclass
class Mention:
    """A detected entity mention inside a text passage."""

    text: str
    start: int
    end: int


@dataclass
class Annotation:
    """One annotated mention: the mention plus the linked entity (if any)."""

    mention: Mention
    entity_id: str | None
    confidence: float
    rejected: bool
    candidate_count: int = 0


class NERDService:
    """Entity recognition and disambiguation over the NERD Entity View."""

    def __init__(
        self,
        view: NERDEntityView,
        ontology: Ontology | None = None,
        encoder: StringEncoder | None = None,
    ) -> None:
        self.view = view
        self.ontology = ontology
        self.retriever = CandidateRetriever(view, ontology=ontology, encoder=encoder)
        self.disambiguator = ContextualDisambiguator(encoder=encoder)
        #: Log deltas applied so far; a caller caching answers compares it.
        self.deltas_applied = 0

    @classmethod
    def from_store(
        cls,
        store: TripleStore,
        ontology: Ontology | None = None,
        encoder: StringEncoder | None = None,
        importance: dict[str, float] | None = None,
    ) -> "NERDService":
        """Build the entity view from a KG store and wrap a service around it."""
        view = NERDEntityView.build(store, importance)
        return cls(view, ontology=ontology, encoder=encoder)

    # -------------------------------------------------------------- #
    # maintenance
    # -------------------------------------------------------------- #
    def apply_delta(self, delta: ViewDelta, importance: dict[str, float] | None = None) -> None:
        """Bring the entity view and the retrieval indexes up to one log delta.

        The Graph Engine's coordinator calls this with each LSN-stamped delta
        once every store has replayed it (``SagaPlatform.nerd`` registers it,
        with the importance map recomputed for the delta).  With
        *importance*, the view ranks by that map from now on
        (:meth:`NERDEntityView.apply_delta`).
        """
        self.retriever.reindex(self.view.apply_delta(delta, importance))
        self.deltas_applied += 1

    # -------------------------------------------------------------- #
    # mention generation
    # -------------------------------------------------------------- #
    def generate_mentions(self, text: str) -> list[Mention]:
        """Detect candidate entity mentions in *text*.

        A gazetteer matcher over the retriever's exact-name index (the entity
        view's surface forms): the longest non-overlapping known name at each
        position becomes a mention.  This is the "Mention Generation"
        component of the batch NERD deployment.
        """
        if not text:
            return []
        word_spans = [(m.start(), m.end()) for m in re.finditer(r"\S+", text)]
        mentions: list[Mention] = []
        position = 0
        while position < len(word_spans):
            matched = None
            for width in range(min(MAX_MENTION_TOKENS, len(word_spans) - position), 0, -1):
                start = word_spans[position][0]
                end = word_spans[position + width - 1][1]
                surface = text[start:end].strip(" ,.;:!?'\"")
                if self.retriever.knows_name(normalize_string(surface)):
                    matched = Mention(text=surface, start=start, end=start + len(surface))
                    position += width
                    break
            if matched is not None:
                mentions.append(matched)
            else:
                position += 1
        return mentions

    # -------------------------------------------------------------- #
    # annotation
    # -------------------------------------------------------------- #
    def annotate(self, text: str, type_hints: tuple[str, ...] = ()) -> list[Annotation]:
        """Annotate every detected mention in *text* with a KG entity."""
        annotations = []
        for mention in self.generate_mentions(text):
            result = self.link_mention(
                mention.text, context_text=text, type_hints=type_hints
            )
            annotations.append(
                Annotation(
                    mention=mention,
                    entity_id=result.entity_id,
                    confidence=result.confidence,
                    rejected=result.rejected,
                    candidate_count=result.candidate_count,
                )
            )
        return annotations

    def annotate_batch(
        self, passages: Iterable[str], type_hints: tuple[str, ...] = ()
    ) -> list[list[Annotation]]:
        """Annotate a batch of passages (the elastic batch deployment path)."""
        return [self.annotate(passage, type_hints) for passage in passages]

    def link_mention(
        self,
        mention: str,
        context_text: str = "",
        context_values: Sequence[str] = (),
        type_hints: tuple[str, ...] = (),
    ) -> DisambiguationResult:
        """Retrieve candidates for one mention and disambiguate it."""
        candidates = self.retriever.retrieve(mention, type_hints)
        context = MentionContext(
            mention=mention,
            context_text=context_text,
            context_values=tuple(context_values),
            type_hints=type_hints,
        )
        return self.disambiguator.disambiguate(context, candidates)

    # -------------------------------------------------------------- #
    # object resolution protocol (used by KG construction)
    # -------------------------------------------------------------- #
    def resolve(self, mention: str, context) -> object | None:
        """Resolve *mention* for object resolution during construction.

        ``context`` is a
        :class:`repro.construction.object_resolution.ResolutionContext`; the
        return value mirrors
        :class:`repro.construction.object_resolution.Resolution`.  Imported
        lazily to keep the ML stack import-independent from construction.
        """
        from repro.construction.object_resolution import Resolution

        result = self.link_mention(
            mention,
            context_values=tuple(getattr(context, "context_values", ()) or ()),
            type_hints=tuple(getattr(context, "expected_types", ()) or ()),
        )
        if result.entity_id is None:
            return None
        return Resolution(
            entity_id=result.entity_id,
            confidence=result.confidence,
            candidate_count=result.candidate_count,
        )
