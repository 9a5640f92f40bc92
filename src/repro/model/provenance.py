"""Provenance, locale, and trust metadata attached to every KG fact.

Section 2.1 of the paper extends the triple format with three metadata
fields: an array of *sources* (data provenance), a *locale*, and an array of
*trust* scores aligned with the sources.  This module models that metadata and
the bookkeeping operations the platform performs on it (provenance is an
immutable value, so merging and removing a source return a new one):

* merging the provenance of two equivalent facts coming from different
  sources (non-destructive integration);
* removing a source on demand (licensing changes, data-deletion requests);
* aggregating per-source trust scores into a single confidence value used for
  accuracy SLAs and fact-auditing decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import DataModelError

DEFAULT_LOCALE = "en"
DEFAULT_TRUST = 0.5


@dataclass(frozen=True)
class SourceReference:
    """A reference to an upstream data source contributing a fact."""

    source_id: str
    trust: float = DEFAULT_TRUST

    def __post_init__(self) -> None:
        if not self.source_id:
            raise DataModelError("source_id must be non-empty")
        if not 0.0 <= self.trust <= 1.0:
            raise DataModelError(
                f"trust must be within [0, 1], got {self.trust!r} for "
                f"source {self.source_id!r}"
            )


@dataclass(frozen=True)
class Provenance:
    """Ordered, deduplicated source references for one fact: an immutable
    value, hashable and equal by content.

    Nothing edits a provenance in place.  :meth:`merge` and :meth:`without`
    return the changed value (or ``self`` when nothing changes), and only the
    :class:`~repro.model.triples.TripleStore` operators replace the value a
    stored fact holds.
    """

    references: tuple[SourceReference, ...] = ()

    @classmethod
    def from_source(cls, source_id: str, trust: float = DEFAULT_TRUST) -> "Provenance":
        """Build provenance for a fact observed in a single source."""
        return cls((SourceReference(source_id, trust),))

    @classmethod
    def from_mapping(cls, trust_by_source: Mapping[str, float]) -> "Provenance":
        """Build provenance from a ``{source_id: trust}`` mapping."""
        return cls(
            tuple(SourceReference(sid, trust) for sid, trust in trust_by_source.items())
        )

    @property
    def sources(self) -> list[str]:
        """Source identifiers in insertion order."""
        return [ref.source_id for ref in self.references]

    @property
    def trust_scores(self) -> list[float]:
        """Trust scores aligned with :attr:`sources`."""
        return [ref.trust for ref in self.references]

    def trust_of(self, source_id: str) -> float | None:
        """Return the trust recorded for *source_id*, or ``None`` if absent."""
        for ref in self.references:
            if ref.source_id == source_id:
                return ref.trust
        return None

    def merge(self, other: "Provenance") -> "Provenance":
        """This provenance combined with *other* (non-destructive integration).

        A source new to this provenance is appended.  A source already
        present keeps the maximum of its old and new trust: a source never
        becomes less sure of a fact it re-asserts.  Returns ``self`` when
        *other* changes nothing.
        """
        references = self.references
        for ref in other.references:
            for index, mine in enumerate(references):
                if mine.source_id == ref.source_id:
                    if ref.trust > mine.trust:
                        references = (*references[:index], ref, *references[index + 1:])
                    break
            else:
                references = (*references, ref)
        return self if references is self.references else Provenance(references)

    def without(self, source_id: str) -> "Provenance":
        """This provenance with *source_id* dropped; ``self`` when absent.

        Used to enforce on-demand data deletion and license compliance: a
        fact whose provenance becomes empty must be removed from served
        views.
        """
        kept = tuple(r for r in self.references if r.source_id != source_id)
        return self if len(kept) == len(self.references) else Provenance(kept)

    def restrict_to(self, allowed_sources: Iterable[str]) -> "Provenance":
        """Return provenance restricted to an allow-list of sources."""
        allowed = set(allowed_sources)
        return Provenance(tuple(r for r in self.references if r.source_id in allowed))

    def confidence(self) -> float:
        """Aggregate per-source trust into a single correctness probability.

        Sources are treated as independent noisy voters: the probability that
        *all* of them are wrong is the product of their error rates, so the
        aggregated confidence is the complement of that product.  This mirrors
        the probabilistic representation of knowledge discussed in the paper
        (confidence scores driving accuracy SLAs and fact auditing).
        """
        if not self.references:
            return 0.0
        wrong_probability = 1.0
        for ref in self.references:
            wrong_probability *= 1.0 - ref.trust
        return 1.0 - wrong_probability

    def is_empty(self) -> bool:
        """Return ``True`` when no source supports the fact any longer."""
        return not self.references

    def __len__(self) -> int:
        return len(self.references)

    def __contains__(self, source_id: object) -> bool:
        return any(ref.source_id == source_id for ref in self.references)
