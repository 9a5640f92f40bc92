"""Serving observability: streaming latency histograms and tenant counters.

The front door answers "is serving healthy, and for whom?" with bounded
memory: latencies stream into geometric-bucket histograms (one global, one
per tenant) that answer p50/p95/p99 without retaining samples, and every
admission outcome increments a per-tenant counter.  Snapshots are plain
dicts, surfaced by ``FrontDoor.stats()``.

Counter glossary (per tenant and summed globally):

* ``requests`` — everything that arrived, before any gate;
* ``admitted`` — passed isolation + bucket + queue and reached a worker (or
  was served from the tenant's result cache);
* ``completed`` — returned rows (``cache_hits`` of them without touching
  the fleet);
* ``rate_limited`` — refused by the tenant's token bucket;
* ``shed`` — refused or displaced by the bounded admission queue;
* ``deadline_exceeded`` — expired on arrival, while queued, or at dispatch;
* ``isolation_rejections`` — refused at plan time for crossing the tenant
  boundary;
* ``execution_errors`` — admitted but failed fleet-side (stale reads, dead
  replicas); the error propagates to the caller after counting.
"""

from __future__ import annotations

import threading
from collections import defaultdict

#: Histogram bucket geometry: upper bounds grow by BUCKET_RATIO from
#: BUCKET_FLOOR_MS; everything above the last bound lands in the overflow
#: bucket.  80 buckets cover 0.01 ms .. ~28 s at ~14% resolution.
BUCKET_FLOOR_MS = 0.01
BUCKET_RATIO = 1.2
BUCKET_COUNT = 80

_OUTCOMES = (
    "requests",
    "admitted",
    "completed",
    "cache_hits",
    "rate_limited",
    "shed",
    "deadline_exceeded",
    "isolation_rejections",
    "execution_errors",
)


class LatencyHistogram:
    """Streaming latency histogram with geometric buckets (ms domain).

    ``observe`` is O(log buckets); ``percentile`` interpolates inside the
    winning bucket's geometric span, so percentiles are stable to bucket
    resolution (~14%) with O(1) memory regardless of request volume.
    """

    def __init__(self) -> None:
        self._bounds = [
            BUCKET_FLOOR_MS * (BUCKET_RATIO ** index) for index in range(BUCKET_COUNT)
        ]
        self._counts = [0] * (BUCKET_COUNT + 1)   # +1: overflow bucket
        self.count = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0

    def observe(self, latency_ms: float) -> None:
        """Record one latency sample."""
        value = max(0.0, float(latency_ms))
        self.count += 1
        self.sum_ms += value
        self.max_ms = max(self.max_ms, value)
        low, high = 0, BUCKET_COUNT
        while low < high:
            mid = (low + high) // 2
            if value <= self._bounds[mid]:
                high = mid
            else:
                low = mid + 1
        self._counts[low] += 1

    def percentile(self, percentile: float) -> float:
        """The latency (ms) at *percentile* (0 when no samples)."""
        if self.count == 0:
            return 0.0
        target = max(1, int(round(percentile / 100.0 * self.count)))
        seen = 0
        for index, bucket_count in enumerate(self._counts):
            seen += bucket_count
            if seen >= target:
                if index >= BUCKET_COUNT:
                    return self.max_ms
                upper = self._bounds[index]
                return min(upper, self.max_ms) if self.max_ms else upper
        return self.max_ms

    def snapshot(self) -> dict[str, float]:
        """count / mean / p50 / p95 / p99 / max, ms."""
        return {
            "count": self.count,
            "mean_ms": round(self.sum_ms / self.count, 4) if self.count else 0.0,
            "p50_ms": round(self.percentile(50.0), 4),
            "p95_ms": round(self.percentile(95.0), 4),
            "p99_ms": round(self.percentile(99.0), 4),
            "max_ms": round(self.max_ms, 4),
        }


class ServingMetrics:
    """Per-tenant admission counters plus global and per-tenant histograms.

    Thread-safe: worker completions, the event loop, and maintenance-thread
    invalidations all record through one lock.  Latency is observed only for
    requests that produced rows — refusals are counted, not timed, so the
    percentile figures describe *served* traffic (the benchmark's gate).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, dict[str, int]] = defaultdict(
            lambda: dict.fromkeys(_OUTCOMES, 0)
        )
        self._histograms: dict[str, LatencyHistogram] = {}
        self.global_histogram = LatencyHistogram()

    def count(self, tenant_id: str, outcome: str, amount: int = 1) -> None:
        """Increment *outcome* for *tenant_id* (outcomes are the glossary's)."""
        if outcome not in _OUTCOMES:
            raise ValueError(f"unknown serving outcome {outcome!r}")
        with self._lock:
            self._counters[tenant_id][outcome] += amount

    def observe_latency(self, tenant_id: str, latency_ms: float) -> None:
        """Record one served request's latency for the tenant and globally."""
        with self._lock:
            histogram = self._histograms.get(tenant_id)
            if histogram is None:
                histogram = self._histograms[tenant_id] = LatencyHistogram()
            histogram.observe(latency_ms)
            self.global_histogram.observe(latency_ms)

    def tenant_snapshot(self, tenant_id: str) -> dict[str, object]:
        """Counters + latency snapshot of one tenant."""
        with self._lock:
            counters = dict(self._counters.get(tenant_id, dict.fromkeys(_OUTCOMES, 0)))
            histogram = self._histograms.get(tenant_id)
            latency = histogram.snapshot() if histogram else LatencyHistogram().snapshot()
        return {**counters, "latency": latency}

    def snapshot(self) -> dict[str, object]:
        """The full picture: global totals + latency, and every tenant's."""
        with self._lock:
            tenants = {
                tenant_id: {
                    **dict(counters),
                    "latency": (
                        self._histograms[tenant_id].snapshot()
                        if tenant_id in self._histograms
                        else LatencyHistogram().snapshot()
                    ),
                }
                for tenant_id, counters in sorted(self._counters.items())
            }
            totals = dict.fromkeys(_OUTCOMES, 0)
            for counters in self._counters.values():
                for outcome, value in counters.items():
                    totals[outcome] += value
            return {
                **totals,
                "latency": self.global_histogram.snapshot(),
                "tenants": tenants,
            }
