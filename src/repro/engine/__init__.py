"""The Graph Engine: shared log, federated stores, views, and importance."""

from repro.engine.agents import (
    AgentCoordinator,
    CallbackAgent,
    OrchestrationAgent,
    ReplayReport,
)
from repro.engine.analytics import (
    AnalyticsStore,
    EntityViewSpec,
    JoinAccessPattern,
    Relation,
)
from repro.engine.entity_store import EntityDocument, EntityStore
from repro.engine.graph_engine import GraphEngine
from repro.engine.importance import (
    ImportanceScore,
    compute_importance,
    importance_view_rows,
)
from repro.engine.log import LogRecord, OperationLog
from repro.engine.metadata import MetadataStore
from repro.engine.object_store import ObjectStore
from repro.engine.text_index import InvertedTextIndex, SearchHit, TextDocument
from repro.engine.vector_db import VectorDB, VectorHit
from repro.engine.views import (
    DeltaApplyResult,
    JoinInput,
    JoinViewDefinition,
    ViewCatalog,
    ViewContext,
    ViewDefinition,
    ViewManager,
    ViewState,
)

__all__ = [
    "AgentCoordinator",
    "AnalyticsStore",
    "CallbackAgent",
    "DeltaApplyResult",
    "EntityDocument",
    "EntityStore",
    "EntityViewSpec",
    "GraphEngine",
    "ImportanceScore",
    "InvertedTextIndex",
    "JoinAccessPattern",
    "JoinInput",
    "JoinViewDefinition",
    "LogRecord",
    "MetadataStore",
    "ObjectStore",
    "OperationLog",
    "OrchestrationAgent",
    "Relation",
    "ReplayReport",
    "SearchHit",
    "TextDocument",
    "VectorDB",
    "VectorHit",
    "ViewCatalog",
    "ViewContext",
    "ViewDefinition",
    "ViewManager",
    "ViewState",
    "compute_importance",
    "importance_view_rows",
]
