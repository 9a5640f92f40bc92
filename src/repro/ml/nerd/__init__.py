"""Named entity recognition and disambiguation (NERD) stack."""

from repro.ml.nerd.candidates import Candidate, CandidateRetriever
from repro.ml.nerd.disambiguation import (
    ContextualDisambiguator,
    DisambiguationResult,
    MentionContext,
)
from repro.ml.nerd.entity_view import NERDEntityRecord, NERDEntityView
from repro.ml.nerd.service import Annotation, Mention, NERDService

__all__ = [
    "Annotation",
    "Candidate",
    "CandidateRetriever",
    "ContextualDisambiguator",
    "DisambiguationResult",
    "Mention",
    "MentionContext",
    "NERDEntityRecord",
    "NERDEntityView",
    "NERDService",
]
