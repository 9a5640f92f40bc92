"""The Live Graph Query Engine facade (Section 4, Figure 9).

Ties together live construction, the live index, the KGQ compiler and
executor, intent handling, multi-turn context, and the curation pipeline into
one object that examples, tests, and benchmarks drive.

The stable KG is one feed of the live index: :meth:`LiveGraphEngine.load_stable_view`
loads a KG store whole (``LiveIndex.replace_feed``).  Streaming events join it
through :meth:`LiveGraphEngine.ingest_events`, their text references resolved
against the stable entities by the resolution service the engine was built
with (a NERD service over the same store).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.datagen.streams import LiveEvent
from repro.errors import IntentError
from repro.live.construction import (
    EntityResolutionClient,
    LiveGraphConstruction,
    stable_document,
)
from repro.live.context import ContextGraph
from repro.live.curation import CurationDecision, CurationPipeline
from repro.live.executor import QueryExecutor, QueryResult
from repro.live.index import LiveIndex
from repro.live.intents import Intent, default_intent_handler
from repro.live.kgq import CallQuery, Query, default_virtual_operators, parse
from repro.live.planner import PhysicalPlan, QueryPlanner
from repro.model.entity import materialize_entities
from repro.model.triples import TripleStore

#: The live index feed serving the stable KG.
STABLE_FEED = "stable"


@dataclass
class IntentAnswer:
    """Answer of an intent execution, including the raw query result."""

    intent: Intent
    answer: object | None
    result: QueryResult
    route_column: str = ""


class LiveGraphEngine:
    """Low-latency serving over the union of stable and streaming knowledge."""

    def __init__(self, resolution_service=None) -> None:
        self.index = LiveIndex()
        resolution_client = (
            EntityResolutionClient(resolution_service) if resolution_service is not None else None
        )
        self.construction = LiveGraphConstruction(self.index, resolution_client)
        self.virtual_operators = default_virtual_operators()
        # Cost-based seeding: the planner reads live postings sizes so the
        # cheapest pushable condition seeds execution.
        self.planner = QueryPlanner(
            self.virtual_operators, selectivity=self.index.seed_selectivity
        )
        self.executor = QueryExecutor(self.index)
        self.intents = default_intent_handler(self.index)
        self.context = ContextGraph()
        self.curation = CurationPipeline()

    # -------------------------------------------------------------- #
    # construction
    # -------------------------------------------------------------- #
    def load_stable_view(self, store: TripleStore) -> int:
        """Load the whole stable KG as the index's stable feed.

        A document of an entity the store no longer holds stops being served.
        Returns the number of documents loaded.
        """
        documents = (stable_document(entity) for entity in materialize_entities(store).values())
        return self.index.replace_feed(STABLE_FEED, documents, 0)

    def ingest_events(self, events: Iterable[LiveEvent], screen: bool = True) -> int:
        """Ingest streaming events, optionally screening them for curation."""
        count = 0
        for event in events:
            document = self.construction.ingest_event(event)
            if screen:
                self.curation.screen(document)
            count += 1
        return count

    def apply_curation_decision(self, decision: CurationDecision) -> int:
        """Apply a curator decision as a hot fix to the live index."""
        events = self.curation.decide(decision)
        applied = 0
        for event in events:
            if decision.action == "block":
                if self.construction.apply_curation(event.event_id, {}, block=True):
                    applied += 1
            else:
                edits = {k: v for k, v in event.payload.items() if k != "name"}
                if self.construction.apply_curation(event.event_id, edits):
                    applied += 1
        return applied

    # -------------------------------------------------------------- #
    # querying
    # -------------------------------------------------------------- #
    def compile(self, query_text: str) -> PhysicalPlan:
        """Parse and plan a KGQ query string."""
        return self.planner.plan(parse(query_text))

    def query(self, query: str | Query | CallQuery) -> QueryResult:
        """Execute a KGQ query (text or pre-parsed) against the live index."""
        if isinstance(query, str):
            plan = self.compile(query)
        else:
            plan = self.planner.plan(query)
        return self.executor.execute(plan)

    def explain(self, query_text: str) -> list[str]:
        """Return the physical plan of a query as EXPLAIN-style lines."""
        return self.compile(query_text).explain()

    # -------------------------------------------------------------- #
    # intents and multi-turn context
    # -------------------------------------------------------------- #
    def answer_intent(self, intent: Intent, record_context: bool = True) -> IntentAnswer:
        """Route an intent, execute its query, and record the turn in context."""
        resolved = self.context.resolve_intent(intent)
        query, route = self.intents.route(resolved)
        result = self.query(query)
        answer = result.first_value(route.answer_column) if route.answer_column else (
            result.rows[0].values if result.rows else None
        )
        if record_context:
            answer_text = answer if isinstance(answer, str) else None
            self.context.record(resolved, answer_entity=None, answer_text=answer_text)
        return IntentAnswer(intent=resolved, answer=answer, result=result,
                            route_column=route.answer_column)

    def answer_follow_up(self, utterance: str) -> IntentAnswer:
        """Answer a "How about X?" follow-up using the conversation context."""
        intent = self.context.resolve_follow_up(utterance)
        if intent is None:
            raise IntentError(f"cannot interpret follow-up {utterance!r} without context")
        return self.answer_intent(intent)

    # -------------------------------------------------------------- #
    # operations
    # -------------------------------------------------------------- #
    def latency_p95_ms(self) -> float:
        """95th-percentile query latency (ms) over the executor's recent window."""
        return self.executor.latency_percentile(95.0)

    def stats(self) -> dict[str, object]:
        """Operational statistics of the live engine."""
        return {
            "documents": len(self.index),
            "events_processed": self.construction.stats.events_processed,
            "references_resolved": self.construction.stats.references_resolved,
            "references_unresolved": self.construction.stats.references_unresolved,
            "queries": self.executor.queries_executed,
            "p95_latency_ms": self.latency_p95_ms(),
            "quarantined_facts": len(self.curation.pending()),
            "feed_watermarks": dict(self.index.watermarks),
        }
