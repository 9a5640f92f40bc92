"""Admission control: token buckets, a priority shed queue, honest refusals.

The front door never queues silently and never queues forever.  Three gates
stand between an arriving request and a slot:

* a per-tenant :class:`TokenBucket` (sustained rate + burst) — the fairness
  gate, so one tenant's flood cannot starve the fleet for everyone else;
* a global concurrency gate (``max_concurrency`` requests in flight, each
  holding its slot until after the yield that follows its execution);
* a bounded, deadline-aware :class:`AdmissionQueue` for requests that arrive
  while every slot is busy.  When the queue is full the *least important*
  request loses: an arriving request displaces a strictly lower-priority
  queued one (which is shed with :class:`~repro.errors.OverloadedError`), or
  is itself refused when nothing queued is less important.  A queued request
  whose deadline passes is removed and failed with
  :class:`~repro.errors.DeadlineExceededError` — at pop time and by its own
  waiting timeout, whichever fires first.

Every refusal carries ``retry_after``: the bucket's next-token time or the
queue's expected drain time, so well-behaved clients can back off honestly
instead of hammering a saturated door.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable

from repro.errors import DeadlineExceededError, FrontDoorError, OverloadedError


class Priority(IntEnum):
    """Request priority classes; lower values are more important.

    ``INTERACTIVE`` models the consumer question-answering path the paper
    serves at interactive latencies; ``NORMAL`` is the default API traffic;
    ``BATCH`` is offline/analytical traffic that is always shed first.
    """

    INTERACTIVE = 0
    NORMAL = 1
    BATCH = 2


class TokenBucket:
    """A continuously-refilling token bucket (sustained *rate*, burst cap).

    ``try_acquire`` never blocks: it returns ``0.0`` when a token was taken
    and otherwise the seconds until enough tokens will have accrued — the
    ``retry_after`` the front door hands to the rejected caller.  Time comes
    from an injectable monotonic *clock* so refill boundaries are testable
    without sleeping.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if rate <= 0:
            raise FrontDoorError("token bucket rate must be positive")
        if burst < 1:
            raise FrontDoorError("token bucket burst must admit at least one request")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock if clock is not None else time.monotonic
        self._tokens = self.burst
        self._stamp = self._clock()
        self.acquired = 0
        self.rejected = 0

    @property
    def tokens(self) -> float:
        """The tokens available right now (refilled to the current instant)."""
        self._refill(self._clock())
        return self._tokens

    def _refill(self, now: float) -> None:
        elapsed = now - self._stamp
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        # A backwards clock (never with the monotonic default) just re-stamps.
        self._stamp = now

    def try_acquire(self, cost: float = 1.0) -> float:
        """Take *cost* tokens if available; else seconds until they accrue."""
        now = self._clock()
        self._refill(now)
        if self._tokens >= cost:
            self._tokens -= cost
            self.acquired += 1
            return 0.0
        self.rejected += 1
        return (cost - self._tokens) / self.rate


@dataclass
class Waiter:
    """One queued admission request awaiting a slot.

    ``deadline`` is absolute on the front door's clock (``None`` = no
    deadline).  ``slot_granted`` is flipped by the queue's owner when a slot
    is handed over; the asyncio future is managed by the front door — the
    queue itself is loop-agnostic and only *selects* waiters, so its
    shed/expire/pop logic is testable synchronously.
    """

    priority: int
    seq: int
    tenant_id: str
    deadline: float | None = None
    future: object = None           # asyncio.Future, owned by the front door
    shed: bool = False              # displaced by a higher-priority arrival
    expired: bool = False           # deadline passed while queued
    dequeued: bool = False          # left the queue (granted, shed, or expired)
    sort_key: tuple[int, int] = field(init=False)

    def __post_init__(self) -> None:
        self.sort_key = (self.priority, self.seq)


class AdmissionQueue:
    """Bounded priority queue of waiters with lowest-priority-first shedding.

    ``offer`` either admits the waiter, displaces (and returns) a strictly
    lower-priority queued waiter to make room, or raises
    :class:`~repro.errors.OverloadedError` when the arrival is not important
    enough to displace anything.  ``pop_ready`` returns the most important
    non-expired waiter and collects the expired ones it skipped.  Entries are
    tombstoned rather than re-heapified on removal, so every operation stays
    ``O(log n)`` amortized.
    """

    def __init__(
        self, capacity: int, clock: Callable[[], float] | None = None
    ) -> None:
        if capacity <= 0:
            raise FrontDoorError("the admission queue needs positive capacity")
        self.capacity = capacity
        self._clock = clock if clock is not None else time.monotonic
        self._heap: list[tuple[tuple[int, int], Waiter]] = []
        self._live = 0
        self.max_depth = 0          # high-water mark, proves boundedness
        self.offered = 0
        self.sheds = 0              # waiters displaced by a better arrival
        self.expirations = 0        # waiters that timed out while queued

    @property
    def depth(self) -> int:
        """Waiters currently queued (tombstones excluded)."""
        return self._live

    def offer(self, waiter: Waiter, retry_after: float) -> Waiter | None:
        """Queue *waiter*; returns the waiter it displaced, if any.

        *retry_after* is the drain estimate quoted on refusals.  Raises
        :class:`~repro.errors.OverloadedError` when the queue is full and no
        queued waiter has strictly lower priority than the arrival.
        """
        self.offered += 1
        displaced: Waiter | None = None
        if self._live >= self.capacity:
            victim = self._worst()
            if victim is None or victim.priority <= waiter.priority:
                raise OverloadedError(
                    f"admission queue is full ({self._live}/{self.capacity}) and "
                    f"priority {Priority(waiter.priority).name} does not outrank "
                    "any queued request",
                    retry_after=retry_after,
                )
            victim.shed = True
            victim.dequeued = True
            self._live -= 1
            self.sheds += 1
            displaced = victim
        heapq.heappush(self._heap, (waiter.sort_key, waiter))
        self._live += 1
        self.max_depth = max(self.max_depth, self._live)
        return displaced

    def pop_ready(self, now: float | None = None) -> tuple[Waiter | None, list[Waiter]]:
        """The most important live waiter, plus the expired ones skipped over.

        Expired waiters are marked (``expired``) and counted; the caller
        fails their futures.  Returns ``(None, expired)`` when nothing live
        remains.
        """
        current = now if now is not None else self._clock()
        expired: list[Waiter] = []
        while self._heap:
            _, waiter = heapq.heappop(self._heap)
            if waiter.dequeued:
                continue                      # tombstone (shed or discarded)
            self._live -= 1
            waiter.dequeued = True
            if waiter.deadline is not None and current > waiter.deadline:
                waiter.expired = True
                self.expirations += 1
                expired.append(waiter)
                continue
            return waiter, expired
        return None, expired

    def discard(self, waiter: Waiter) -> bool:
        """Tombstone *waiter* (its own deadline timeout fired); False if gone."""
        if waiter.dequeued:
            return False
        waiter.dequeued = True
        waiter.expired = True
        self._live -= 1
        self.expirations += 1
        return True

    def _worst(self) -> Waiter | None:
        """The least important live waiter (highest priority value, newest)."""
        worst: Waiter | None = None
        for _, waiter in self._heap:
            if waiter.dequeued:
                continue
            if worst is None or (waiter.priority, waiter.seq) > (worst.priority, worst.seq):
                worst = waiter
        return worst

    def stats(self) -> dict[str, int]:
        """Queue counters: depth, high-water mark, offers, sheds, expirations."""
        return {
            "depth": self._live,
            "max_depth": self.max_depth,
            "capacity": self.capacity,
            "offered": self.offered,
            "sheds": self.sheds,
            "expirations": self.expirations,
        }


def deadline_error(tenant_id: str, phase: str, retry_after: float = 0.0) -> DeadlineExceededError:
    """A uniformly-worded deadline refusal for *tenant_id* during *phase*."""
    return DeadlineExceededError(
        f"tenant {tenant_id!r}: deadline exceeded {phase}", retry_after=retry_after
    )
