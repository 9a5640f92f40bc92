"""The Live Graph Query Engine facade (Section 4, Figure 9).

Ties together live construction, the live index, the KGQ compiler and
executor, intent handling, multi-turn context, and the curation pipeline into
one object that examples, tests, and benchmarks drive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.datagen.streams import LiveEvent
from repro.errors import IntentError
from repro.live.construction import EntityResolutionClient, LiveGraphConstruction
from repro.live.context import ContextGraph
from repro.live.curation import CurationDecision, CurationPipeline
from repro.live.executor import QueryExecutor, QueryResult
from repro.live.index import LiveIndex
from repro.live.intents import Intent, IntentHandler, default_intent_handler
from repro.live.kgq import (
    CallQuery,
    Query,
    VirtualOperatorRegistry,
    default_virtual_operators,
    parse,
)
from repro.live.planner import PhysicalPlan, QueryPlanner
from repro.model.triples import TripleStore


@dataclass
class IntentAnswer:
    """Answer of an intent execution, including the raw query result."""

    intent: Intent
    answer: object | None
    result: QueryResult
    route_column: str = ""


class LiveGraphEngine:
    """Low-latency serving over the union of stable and streaming knowledge."""

    def __init__(
        self,
        resolution_service=None,
        virtual_operators: VirtualOperatorRegistry | None = None,
        intent_handler: IntentHandler | None = None,
    ) -> None:
        self.index = LiveIndex()
        resolution_client = (
            EntityResolutionClient(resolution_service) if resolution_service is not None else None
        )
        self.construction = LiveGraphConstruction(self.index, resolution_client)
        self.virtual_operators = virtual_operators or default_virtual_operators()
        # Cost-based seeding: the planner reads live postings sizes so the
        # cheapest pushable condition seeds execution.
        self.planner = QueryPlanner(
            self.virtual_operators, selectivity=self.index.seed_selectivity
        )
        self.executor = QueryExecutor(self.index)
        self.intents = intent_handler or default_intent_handler(self.index)
        self.context = ContextGraph()
        self.curation = CurationPipeline()

    # -------------------------------------------------------------- #
    # construction
    # -------------------------------------------------------------- #
    def load_stable_view(
        self,
        store: TripleStore,
        entity_types: Sequence[str] = (),
        version: int | None = None,
    ) -> int:
        """Load a stable-KG view into the live index.

        *version* is the Graph Engine log position (LSN) the store reflects;
        when given it is recorded as the stable feed's watermark (keyed per
        ``entity_types`` filter) so later syncs can skip reloading an
        unchanged upstream.
        """
        loaded = self.construction.load_stable_view(store, entity_types)
        if version is not None:
            self.index.set_watermark(self._stable_feed(entity_types), version)
        return loaded

    def sync_stable_view(self, graph_engine, entity_types: Sequence[str] = ()) -> int:
        """Refresh the stable view from a Graph Engine only when it advanced.

        Compares the engine's minimum store version (the LSN every store has
        replayed) against the watermark of this ``entity_types`` filter's
        feed; returns 0 without touching the index when the serving copy is
        already fresh.  A sync with a *different* type filter is its own feed
        and is never skipped on another filter's account.
        """
        version = graph_engine.minimum_version()
        if version and self.index.is_fresh(self._stable_feed(entity_types), version):
            return 0
        return self.load_stable_view(graph_engine.triples, entity_types, version=version)

    @staticmethod
    def _stable_feed(entity_types: Sequence[str]) -> str:
        if not entity_types:
            return "stable"
        return "stable:" + ",".join(sorted(entity_types))

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
