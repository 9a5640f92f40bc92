"""The Live Knowledge Graph: streaming construction, KGQ serving, curation."""

from repro.live.construction import (
    EntityResolutionClient,
    LiveConstructionStats,
    LiveGraphConstruction,
)
from repro.live.context import ContextGraph, ContextTurn
from repro.live.curation import (
    CurationDecision,
    CurationPipeline,
    FindingKind,
    QuarantinedFact,
    VandalismDetector,
)
from repro.live.engine import IntentAnswer, LiveGraphEngine
from repro.live.executor import QueryExecutor, QueryResult, QueryResultRow
from repro.live.index import (
    GraphKVStore,
    InvertedGraphIndex,
    LiveEntityDocument,
    LiveIndex,
)
from repro.live.intents import Intent, IntentHandler, IntentRoute, default_intent_handler
from repro.live.kgq import (
    CallQuery,
    Condition,
    Query,
    RpqAlt,
    RpqConcat,
    RpqExpr,
    RpqLabel,
    RpqPlus,
    RpqStar,
    VirtualOperatorRegistry,
    default_virtual_operators,
    parse,
)
from repro.live.planner import PhysicalPlan, QueryPlanner
from repro.live.rpq import (
    Automaton,
    IntervalIndex,
    RpqEvaluator,
    Witness,
    compile_automaton,
    naive_rpq,
)

__all__ = [
    "Automaton",
    "CallQuery",
    "Condition",
    "ContextGraph",
    "ContextTurn",
    "CurationDecision",
    "CurationPipeline",
    "EntityResolutionClient",
    "FindingKind",
    "GraphKVStore",
    "Intent",
    "IntentAnswer",
    "IntentHandler",
    "IntentRoute",
    "IntervalIndex",
    "InvertedGraphIndex",
    "LiveConstructionStats",
    "LiveEntityDocument",
    "LiveGraphConstruction",
    "LiveGraphEngine",
    "LiveIndex",
    "PhysicalPlan",
    "QuarantinedFact",
    "Query",
    "QueryExecutor",
    "QueryPlanner",
    "QueryResult",
    "QueryResultRow",
    "RpqAlt",
    "RpqConcat",
    "RpqEvaluator",
    "RpqExpr",
    "RpqLabel",
    "RpqPlus",
    "RpqStar",
    "VandalismDetector",
    "VirtualOperatorRegistry",
    "Witness",
    "compile_automaton",
    "default_intent_handler",
    "default_virtual_operators",
    "naive_rpq",
    "parse",
]
