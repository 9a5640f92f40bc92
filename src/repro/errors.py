"""Exception hierarchy shared by every Saga-reproduction subsystem.

Each layer of the platform raises a subclass of :class:`SagaError` so callers
can catch platform failures without masking programming errors (``TypeError``,
``KeyError`` and friends are never converted).
"""

from __future__ import annotations


class SagaError(Exception):
    """Base class for every error raised by the platform."""


class DataModelError(SagaError):
    """Raised when a triple, entity, or ontology object is malformed."""


class OntologyError(DataModelError):
    """Raised when a type or predicate is missing from the ontology."""


class IngestionError(SagaError):
    """Raised by the source-ingestion pipeline (registration, batching, align)."""


class AlignmentError(IngestionError):
    """Raised when ontology alignment configuration is invalid."""


class ConstructionError(SagaError):
    """Raised by the knowledge-construction pipeline (linking, fusion)."""


class ConstructionBatchError(ConstructionError):
    """Raised when some sources of a construction batch failed to fuse.

    Batch consumption isolates per-source failures: the surviving sources are
    fused (and their growth recorded) before this aggregate is raised.  It
    carries every per-payload report in batch order — failed ones have their
    ``error`` field set — plus ``failures``, the ``(source_id, exception)``
    pairs, so callers keep the partial results.
    """

    def __init__(self, reports: list, failures: list) -> None:
        names = ", ".join(source_id for source_id, _ in failures)
        super().__init__(
            f"{len(failures)} of {len(reports)} payloads failed during batch "
            f"construction: {names}"
        )
        self.reports = list(reports)
        self.failures = list(failures)


class EngineError(SagaError):
    """Raised by the graph engine (stores, views, orchestration)."""


class StoreError(EngineError):
    """Raised by an individual storage engine."""


class ViewError(EngineError):
    """Raised by the view catalog or view manager."""


class JournalGapError(ViewError):
    """Raised when a delta journal cannot cover a consumer's LSN gap.

    Carries enough context for the consumer to resync: the view, the LSN the
    consumer serves, and the journal's floor (the position below which
    history was truncated or compacted away).
    """

    def __init__(self, view_name: str, requested_lsn: int, floor_lsn: int) -> None:
        super().__init__(
            f"journal of view {view_name!r} cannot reach back to LSN "
            f"{requested_lsn} (floor is {floor_lsn}); consumer must resync"
        )
        self.view_name = view_name
        self.requested_lsn = requested_lsn
        self.floor_lsn = floor_lsn


class LogError(EngineError):
    """Raised by the durable operation log."""


class ServingError(SagaError):
    """Raised by the replicated serving fleet (shipping, replicas, routing)."""


class StaleReadError(ServingError):
    """Raised when no replica satisfies a read's consistency requirement.

    ``lagging`` (when provided) names each live replica that was rejected for
    staleness and how many log positions it lags the primary head — the honest
    "who to wait for" answer distributed queries surface to their callers.
    """

    def __init__(self, message: str, lagging: dict[str, int] | None = None) -> None:
        super().__init__(message)
        self.lagging = dict(lagging) if lagging else {}


class ReplicaUnavailableError(ServingError):
    """Raised when a routed read finds no live replica to serve it."""


class FrontDoorError(ServingError):
    """Raised by the multi-tenant serving front door (tenancy, admission)."""


class TenantIsolationError(FrontDoorError):
    """Raised when a tenant's request would cross its isolation boundary.

    Enforced at plan time: the query names a view outside the tenant's
    allowed set or MATCHes an entity type outside its KG slice, so the
    request is refused before any replica sees the plan.
    """


class AdmissionError(FrontDoorError):
    """Base class for admission-control refusals.

    ``retry_after`` is the front door's honest estimate (in seconds) of when
    retrying the request has a chance of being admitted — the token bucket's
    next-token time, or the queue's expected drain time.
    """

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = max(0.0, float(retry_after))


class OverloadedError(AdmissionError):
    """Raised when a request is refused or shed because the door is saturated.

    Covers both per-tenant rate-limit rejections (the tenant's token bucket
    is empty) and load shedding (the bounded admission queue is full and the
    request is not important enough to displace a queued one, or it *was*
    queued and a higher-priority arrival displaced it).
    """


class DeadlineExceededError(AdmissionError):
    """Raised when a request's deadline expires before it can be served.

    Raised on arrival when the deadline is already in the past, and while
    queued when a slot does not free up in time — the request is removed
    from the queue, never left waiting past its deadline.
    """


class ReplicaDivergenceError(ServingError):
    """Raised when an anti-entropy audit finds replica/primary divergence.

    Carries the audit report so operators can see exactly which replicas and
    subjects diverged; only raised when the auditor is asked to fail loudly
    instead of repairing.
    """

    def __init__(self, message: str, report: object = None) -> None:
        super().__init__(message)
        self.report = report


class LiveGraphError(SagaError):
    """Raised by the live-graph construction and query stack."""


class KGQSyntaxError(LiveGraphError):
    """Raised when a KGQ query fails to parse."""


class KGQPlanError(LiveGraphError):
    """Raised when a parsed KGQ query cannot be compiled to a plan."""


class IntentError(LiveGraphError):
    """Raised when an intent cannot be routed to an executable query."""


class CurationError(LiveGraphError):
    """Raised by the human-in-the-loop curation pipeline."""


class MLError(SagaError):
    """Raised by the graph machine-learning stack."""


class TrainingError(MLError):
    """Raised when a model cannot be trained on the provided data."""


class EmbeddingError(MLError):
    """Raised by the knowledge-graph embedding subsystem."""
