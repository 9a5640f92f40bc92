"""Multi-tenant asyncio front door over the serving fleet.

See ``docs/frontdoor.md``.  :class:`FrontDoor` is the request layer:
per-tenant KGQ requests with deadlines and priority classes are admitted
through token buckets and a bounded priority queue
(:mod:`~repro.serving.frontdoor.admission`), scoped and cached per tenant
(:mod:`~repro.serving.frontdoor.tenancy`), executed by the fleet's
query router on a bounded worker pool, and observed end to end
(:mod:`~repro.serving.frontdoor.metrics`).
"""

from repro.serving.frontdoor.admission import (
    AdmissionQueue,
    Priority,
    TokenBucket,
    Waiter,
)
from repro.serving.frontdoor.frontdoor import FrontDoor
from repro.serving.frontdoor.metrics import LatencyHistogram, ServingMetrics
from repro.serving.frontdoor.tenancy import TenantProfile, TenantRegistry

__all__ = [
    "AdmissionQueue",
    "FrontDoor",
    "LatencyHistogram",
    "Priority",
    "ServingMetrics",
    "TenantProfile",
    "TenantRegistry",
    "TokenBucket",
    "Waiter",
]
