"""LSN-aware placement over a fixed replica preference order.

Every replica holds each view it serves whole and keeps no state keyed by
placement, so placement only has to spread keys and be deterministic.  A
key's preference order (:meth:`ShardRouter.owners`) is the routed replicas'
sorted names rotated to start at ``stable_hash(key) % n`` — stable across
processes, since Python's salted ``hash`` is never used.  Removing a replica
keeps the others in the same relative order.

The :class:`ShardRouter` owns the **one placement rule** of the serving
tier, :meth:`ShardRouter.eligible`: walk a key's owners in preference order
and take the replicas that are alive, serve every view the call reads and
satisfy the requested :class:`Consistency` level on each, checked against
the replica's per-view applied-LSN watermarks:

* ``any`` — serve from the first live owner, staleness be damned;
* ``bounded_staleness(max_lag_lsns)`` — the serving replica may lag the
  primary head by at most that many log positions;
* ``read_your_writes(min_lsn)`` — the serving replica must have applied at
  least the LSN of the write the reader just made.

Point reads (:meth:`ShardRouter.read`, keyed by subject) and everything the
:class:`~repro.serving.query_router.QueryRouter` places (whole queries keyed
by their text, whole cross-view joins keyed by their left side's text and
checked on both views) use that one walk, so they skip the same replicas,
count the same counters and fail with the same typed errors: an owner that
fails the check is skipped for the next one in the order (a *fallback*,
counted); when live replicas serve the views but none satisfies the level
the walk raises :class:`~repro.errors.StaleReadError` naming each lagging
replica — an honest "wait or relax" answer instead of a silently stale row —
and when no live replica serves them at all,
:class:`~repro.errors.ReplicaUnavailableError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import ReplicaUnavailableError, ServingError, StaleReadError
from repro.hashing import stable_hash

__all__ = [
    "ANY",
    "Consistency",
    "ShardRouter",
    "stable_hash",
]


@dataclass(frozen=True)
class Consistency:
    """A read's freshness requirement, checked against applied-LSN watermarks."""

    level: str                       # "any" | "bounded_staleness" | "read_your_writes"
    max_lag_lsns: int = 0
    min_lsn: int = 0

    @classmethod
    def any(cls) -> "Consistency":
        """Serve from any live replica regardless of lag."""
        return cls(level="any")

    @classmethod
    def bounded_staleness(cls, max_lag_lsns: int) -> "Consistency":
        """Serve only from replicas within *max_lag_lsns* of the primary head."""
        if max_lag_lsns < 0:
            raise ServingError("bounded staleness needs a non-negative lag bound")
        return cls(level="bounded_staleness", max_lag_lsns=max_lag_lsns)

    @classmethod
    def read_your_writes(cls, min_lsn: int) -> "Consistency":
        """Serve only from replicas that applied at least *min_lsn*."""
        return cls(level="read_your_writes", min_lsn=min_lsn)


#: The default level: availability first.
ANY = Consistency.any()

# stable_hash lives in repro.hashing (importable without the serving
# package); re-exported above for existing callers.


class ShardRouter:
    """Read router over the fleet's replica nodes, one preference order per key."""

    def __init__(self, head_lsn_source: Callable[[], int]) -> None:
        self.head_lsn_source = head_lsn_source
        self.replicas: dict[str, object] = {}
        self.reads_routed = 0                    # point reads
        # Counted by eligible(), so point reads and placed queries alike:
        self.fallback_reads = 0                  # served by a non-preferred owner
        self.consistency_rejections = 0          # replicas skipped for staleness

    # -------------------------------------------------------------- #
    # membership
    # -------------------------------------------------------------- #
    def add_replica(self, node) -> None:
        """Route to one more replica node."""
        if node.name in self.replicas:
            raise ServingError(f"replica {node.name!r} is already routed")
        self.replicas[node.name] = node

    def remove_replica(self, name: str) -> None:
        """Stop routing to a replica; the others keep their relative order."""
        self.replicas.pop(name, None)

    # -------------------------------------------------------------- #
    # routing
    # -------------------------------------------------------------- #
    def owners(self, key: str) -> list[str]:
        """Every routed replica, in *key*'s preference order.

        The sorted replica names, rotated to start at
        ``stable_hash(key) % n``: deterministic across processes, and each
        replica comes first for about one key in *n*.
        """
        names = sorted(self.replicas)
        if not names:
            return []
        start = stable_hash(key) % len(names)
        return names[start:] + names[:start]

    def eligible(
        self,
        key: str,
        view_names: tuple[str, ...],
        consistency: Consistency,
    ) -> Iterator:
        """The one placement rule: *key*'s owners that may serve, in order.

        Yields each replica node that is alive, serves **every** view in
        *view_names* — a node that just joined and has not been seeded must
        not report false misses — and satisfies *consistency* on every one
        of them; a call reading one view passes a one-tuple.  A node yielded
        from beyond the order's first position counts one ``fallback_reads``;
        a node skipped for staleness counts one ``consistency_rejections``.
        The walk never just ends: once no owner is left it raises
        :class:`~repro.errors.StaleReadError` — naming every lagging replica
        and its worst lag over the views, in log positions — when live
        servers were skipped for staleness, and
        :class:`~repro.errors.ReplicaUnavailableError` when no live replica
        serves the views at all.
        """
        lagging: dict[str, int] = {}
        for position, name in enumerate(self.owners(key)):
            node = self.replicas.get(name)   # None: removed since owners() ran
            if (
                node is None
                or not node.alive
                or not all(node.serves_view(view) for view in view_names)
            ):
                continue
            if all(self.satisfies(node, view, consistency) for view in view_names):
                if position > 0:
                    self.fallback_reads += 1
                yield node
            else:
                self.consistency_rejections += 1
                lagging[name] = max(0, self.head_lsn_source() - min(
                    node.applied_lsn(view) for view in view_names
                ))
        views = ("view " if len(view_names) == 1 else "views ") + ", ".join(
            map(repr, view_names)
        )
        if not lagging:
            raise ReplicaUnavailableError(f"no live replica serves {views}")
        worst = max(lagging, key=lagging.get)
        raise StaleReadError(
            f"no replica satisfies {consistency.level} for {views}: "
            f"replica {worst!r} lags the head by {lagging[worst]} LSNs "
            f"(lagging: {lagging}, head LSN {self.head_lsn_source()})",
            lagging=lagging,
        )

    def read(self, view_name: str, subject: str, consistency: Consistency = ANY):
        """Serve one row document of *view_name* for *subject*.

        Reads from the first :meth:`eligible` owner of *subject* and returns
        its document, or ``None`` when that replica does not serve the
        subject — a real miss, e.g. a deleted row.  The walk's errors
        propagate: :class:`~repro.errors.ReplicaUnavailableError` when no
        live replica serves the view, :class:`~repro.errors.StaleReadError`
        when those that do all fail *consistency*.
        """
        self.reads_routed += 1
        node = next(self.eligible(subject, (view_name,), consistency))
        return node.get(view_name, subject)

    def satisfies(self, node, view_name: str, consistency: Consistency) -> bool:
        """Whether *node*'s applied watermark meets *consistency* for the view."""
        if consistency.level == "any":
            return True
        applied = node.applied_lsn(view_name)
        if consistency.level == "bounded_staleness":
            return applied >= self.head_lsn_source() - consistency.max_lag_lsns
        if consistency.level == "read_your_writes":
            return applied >= consistency.min_lsn
        raise ServingError(f"unknown consistency level {consistency.level!r}")

    # -------------------------------------------------------------- #
    # introspection
    # -------------------------------------------------------------- #
    def replica_lag(self, view_name: str) -> dict[str, int]:
        """Per-replica lag behind the primary head for one view, in LSNs."""
        head = self.head_lsn_source()
        return {
            name: max(0, head - node.applied_lsn(view_name))
            for name, node in sorted(self.replicas.items())
        }

    def healthy_replicas(self) -> list[str]:
        """Names of the replicas currently alive."""
        return sorted(name for name, node in self.replicas.items() if node.alive)
