"""Live Graph Construction: join streaming facts with the stable KG (§4.1).

Live sources (sports scores, stock prices, flight statuses) are uniquely
identifiable across updates and therefore skip the full linking/fusion
pipeline; what they *do* need is resolution of their ambiguous text references
to stable entities (the teams playing a game, the venue, the issuing company).
The live graph is the union of a stable-KG view with these continuously
updating streaming entities, indexed for low-latency search.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

from repro.datagen.streams import LiveEvent
from repro.live.index import LiveEntityDocument, LiveIndex
from repro.model.entity import KGEntity


@dataclass
class LiveConstructionStats:
    """Counters for live ingestion."""

    events_processed: int = 0
    references_resolved: int = 0
    references_unresolved: int = 0
    curations_applied: int = 0


def stable_document(entity: KGEntity) -> LiveEntityDocument:
    """The live-index document serving one stable-KG entity."""
    facts: dict[str, list[object]] = {
        predicate: list(values) for predicate, values in entity.facts.items()
    }
    if entity.names:
        facts.setdefault("alias", []).extend(entity.names[1:])
    return LiveEntityDocument(
        entity_id=entity.entity_id,
        entity_type=entity.types[0] if entity.types else "",
        name=entity.primary_name,
        facts=facts,
        source_id="stable_kg",
        is_live=False,
    )


RESOLUTION_CONFIDENCE = 0.6
"""Least linking confidence at which :class:`EntityResolutionClient` takes a
service's answer; below it the reference stays text."""


class EntityResolutionClient:
    """Resolve text mentions to stable entity ids via the ER/NERD service.

    Wraps anything exposing ``link_mention(mention, context_values=...,
    type_hints=...)`` (both :class:`repro.ml.nerd.NERDService` and the legacy
    baseline do) and caches answers per mention, context and type hints,
    since live feeds repeat the same references on every update.  The service
    answers from the entity view it was built with, which does not change, so
    a cached answer stays the service's answer.
    """

    def __init__(self, service) -> None:
        self.service = service
        self._cache: dict[tuple[str, tuple[str, ...], tuple[str, ...]], str | None] = {}

    def resolve(
        self, mention: str, context_values: Sequence[str] = (), type_hints: tuple[str, ...] = ()
    ) -> str | None:
        """Return the stable entity id for *mention*, or ``None``."""
        key = (mention.lower(), tuple(context_values), tuple(type_hints))
        if key in self._cache:
            return self._cache[key]
        result = self.service.link_mention(
            mention, context_values=key[1], type_hints=type_hints
        )
        entity_id = (
            result.entity_id
            if result.entity_id is not None and result.confidence >= RESOLUTION_CONFIDENCE
            else None
        )
        self._cache[key] = entity_id
        return entity_id


#: Expected stable-entity types per reference field of the live feeds.
REFERENCE_TYPE_HINTS = {
    "home_team": ("sports_team",),
    "away_team": ("sports_team",),
    "venue": ("stadium", "place"),
    "issuer": ("company", "organization"),
    "departure_airport": ("city", "place"),
    "arrival_airport": ("city", "place"),
}


class LiveGraphConstruction:
    """Build and continuously update the live KG index."""

    def __init__(
        self,
        index: LiveIndex | None = None,
        resolution_client: EntityResolutionClient | None = None,
    ) -> None:
        self.index = index if index is not None else LiveIndex()
        self.resolution = resolution_client
        self.stats = LiveConstructionStats()

    # -------------------------------------------------------------- #
    # streaming ingest
    # -------------------------------------------------------------- #
    def ingest_event(self, event: LiveEvent) -> LiveEntityDocument:
        """Ingest one streaming update, resolving its stable references."""
        references: dict[str, str] = {}
        context_values = [str(v) for v in event.payload.values() if isinstance(v, str)]
        for predicate, mention in event.references.items():
            resolved = None
            if self.resolution is not None:
                resolved = self.resolution.resolve(
                    mention,
                    context_values=context_values,
                    type_hints=REFERENCE_TYPE_HINTS.get(predicate, ()),
                )
            if resolved is not None:
                references[predicate] = resolved
                self.stats.references_resolved += 1
            else:
                # Keep the raw mention so the fact is still queryable by text.
                references[predicate] = mention
                self.stats.references_unresolved += 1

        document = LiveEntityDocument(
            entity_id=event.event_id,
            entity_type=event.entity_type,
            name=str(event.payload.get("name", event.event_id)),
            facts={key: [value] for key, value in event.payload.items() if key != "name"},
            references=references,
            source_id=event.source_id,
            timestamp=event.timestamp,
            is_live=True,
        )
        self.index.upsert(document)
        self.stats.events_processed += 1
        return document

    # -------------------------------------------------------------- #
    # curation hot-fixes (§4.3)
    # -------------------------------------------------------------- #
    def apply_curation(self, entity_id: str, edits: dict[str, object], block: bool = False) -> bool:
        """Apply a human curation decision directly to the live index.

        ``block=True`` removes the entity from serving; otherwise the given
        predicate edits overwrite the entity's facts.  Curations also flow to
        stable construction as a source (handled by the curation pipeline).
        """
        if block:
            removed = self.index.delete(entity_id)
            if removed:
                self.stats.curations_applied += 1
            return removed
        document = self.index.get(entity_id)
        if document is None:
            return False
        # A held document is never mutated: the edited one replaces it.
        facts = {p: v if isinstance(v, list) else [v] for p, v in edits.items()}
        self.index.replace(dataclasses.replace(document, facts={**document.facts, **facts}))
        self.stats.curations_applied += 1
        return True
