"""Replicated serving fleet: persistent journals, shipping, routed reads.

Turns the view/journal machinery of :mod:`repro.engine.views` into a
replicated serving tier (see ``docs/serving.md``): the primary's committed
view deltas are durably journaled (:class:`JournalStore`), shipped as
LSN-ranged batches (:class:`JournalShipper` over a :class:`ReplicationBus`)
to live replicas (:class:`ReplicaNode`) that apply them asynchronously, and
reads are routed across the replicas by a fixed per-key preference order
under a selectable consistency level (:class:`ShardRouter`,
:class:`Consistency`).  Whole KGQs run on one replica each, placed by the
same order through the :class:`QueryRouter`, and the :class:`AntiEntropyAuditor` periodically
checksums replica state against the primary, repairing lag by journal
replay and divergence by targeted row re-shipment.
:class:`ServingFleet` wires all of it over one view manager, and the
multi-tenant asyncio :class:`FrontDoor` (see ``docs/frontdoor.md``) admits,
isolates, and observes request traffic on top of it.
"""

from repro.serving.anti_entropy import AntiEntropyAuditor, AuditReport, ReplicaAudit
from repro.serving.fleet import ServingFleet
from repro.serving.frontdoor import (
    AdmissionQueue,
    FrontDoor,
    LatencyHistogram,
    Priority,
    ServingMetrics,
    TenantProfile,
    TenantRegistry,
    TokenBucket,
)
from repro.serving.journal_store import (
    FileJournalBackend,
    InMemoryJournalBackend,
    JournalBackend,
    JournalRecord,
    JournalStore,
)
from repro.serving.query_router import QueryRouter
from repro.serving.replica import ReplicaNode
from repro.serving.router import ANY, Consistency, ShardRouter, stable_hash
from repro.serving.shipping import JournalShipper, ReplicationBus, ShipmentBatch

__all__ = [
    "ANY",
    "AdmissionQueue",
    "AntiEntropyAuditor",
    "AuditReport",
    "Consistency",
    "FileJournalBackend",
    "FrontDoor",
    "InMemoryJournalBackend",
    "JournalBackend",
    "JournalRecord",
    "JournalShipper",
    "JournalStore",
    "LatencyHistogram",
    "Priority",
    "QueryRouter",
    "ReplicaAudit",
    "ReplicaNode",
    "ReplicationBus",
    "ServingFleet",
    "ServingMetrics",
    "ShardRouter",
    "ShipmentBatch",
    "TenantProfile",
    "TenantRegistry",
    "TokenBucket",
    "stable_hash",
]
