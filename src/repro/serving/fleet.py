"""The replicated serving fleet: primary journals shipped to routed replicas.

:class:`ServingFleet` wires the serving subsystem end to end over one primary
:class:`~repro.engine.views.ViewManager`:

* a :class:`~repro.serving.journal_store.JournalStore` persists every
  committed view delta (restart durability for the whole fleet);
* a :class:`~repro.serving.shipping.JournalShipper` publishes LSN-ranged
  delta batches on a :class:`~repro.serving.shipping.ReplicationBus`;
* N :class:`~repro.serving.replica.ReplicaNode` subscribers apply them
  asynchronously into their own live indexes;
* a :class:`~repro.serving.router.ShardRouter` routes reads across the
  replicas by a fixed per-key preference order under a selectable
  consistency level, and a
  :class:`~repro.serving.query_router.QueryRouter` places whole KGQs on
  them by the same order and the same placement walk.

Each replica owns its applied-LSN watermarks
(:meth:`~repro.serving.replica.ReplicaNode.applied_lsn`); :meth:`ServingFleet.lag`
reads them as per-view, per-replica lag behind the primary head.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.engine.views import ViewManager
from repro.errors import ServingError
from repro.live.executor import QueryResult
from repro.serving.anti_entropy import AntiEntropyAuditor, AuditReport
from repro.serving.journal_store import JournalStore
from repro.serving.query_router import QueryRouter
from repro.serving.replica import ReplicaNode
from repro.serving.router import ANY, Consistency, ShardRouter
from repro.serving.shipping import JournalShipper, ReplicationBus


class ServingFleet:
    """A primary view manager plus N live replicas behind an LSN-aware router."""

    def __init__(
        self,
        manager: ViewManager,
        num_replicas: int = 3,
        journal_store: JournalStore | None = None,
        head_lsn_source: Callable[[], int] | None = None,
        queue_capacity: int = 256,
        replica_prefix: str = "replica",
    ) -> None:
        if num_replicas <= 0:
            raise ServingError("a serving fleet needs at least one replica")
        self.manager = manager
        self.journal_store = journal_store if journal_store is not None else JournalStore()
        self.head_lsn_source = head_lsn_source or manager.current_lsn
        self.bus = ReplicationBus()
        self.shipper = JournalShipper(manager, self.bus, self.journal_store)
        self.router = ShardRouter(self.head_lsn_source)
        self.query_router = QueryRouter(self.router)
        self.auditor = AntiEntropyAuditor(self)
        self.replicas: dict[str, ReplicaNode] = {}
        for index in range(num_replicas):
            self.add_replica(f"{replica_prefix}-{index}", queue_capacity=queue_capacity)

    # -------------------------------------------------------------- #
    # membership and lifecycle
    # -------------------------------------------------------------- #
    def add_replica(self, name: str, queue_capacity: int = 256) -> ReplicaNode:
        """Add (and register) one replica node; started by :meth:`start`."""
        if name in self.replicas:
            raise ServingError(f"replica {name!r} already exists in the fleet")
        node = ReplicaNode(
            name,
            queue_capacity=queue_capacity,
            resync_source=self.shipper,
            journal_store=self.journal_store,
        )
        self.replicas[name] = node
        self.bus.subscribe(node)
        self.router.add_replica(node)
        if self.shipper.shipped_views:
            # A replica joining a serving fleet is routed to immediately:
            # seed it with every shipped view's current state or routed
            # reads would hit its empty index as false misses.
            node.start()
            for view_name in sorted(self.shipper.shipped_views):
                node.resync(view_name)
        return node

    def start(self) -> "ServingFleet":
        """Start every replica's apply worker; returns self for chaining."""
        for node in self.replicas.values():
            node.start()
        return self

    def stop(self) -> None:
        """Stop shipping and auditing, then drain and stop every replica."""
        self.auditor.stop()
        self.shipper.detach()
        for node in self.replicas.values():
            node.stop()

    def remove_replica(self, name: str) -> None:
        """Retire a replica for good: stop it and forget every trace of it.

        Unsubscribes it from the bus and router, drops its persisted
        checkpoint — unlike
        :meth:`kill_replica`, which models a crash that will be recovered.
        """
        node = self._node(name)
        node.stop()
        self.bus.unsubscribe(name)
        self.router.remove_replica(name)
        self.journal_store.drop_replica_checkpoint(name)
        del self.replicas[name]

    def kill_replica(self, name: str) -> int:
        """Crash one replica (queued batches lost); returns batches dropped."""
        return self._node(name).kill()

    def restart_replica(self, name: str) -> list[str]:
        """Recover a crashed replica from its persisted checkpoint + journal.

        The replica catches up from its last applied LSN by journal replay
        (snapshot resync only when the journal cannot cover the gap); no
        primary-side view artifact is rebuilt.  Returns the caught-up views.
        """
        return self._node(name).restart(sorted(self.shipper.shipped_views))

    # -------------------------------------------------------------- #
    # serving
    # -------------------------------------------------------------- #
    def serve_view(self, view_name: str) -> int:
        """Ship a materialized row-shaped view to every replica.

        Publishes the initial snapshot batch; subsequent maintenance flushes
        ship deltas automatically.  Returns the snapshot's row count.
        """
        batch = self.shipper.ship_view(view_name)
        return len(batch.rows)

    def serve_views(self, view_names: Sequence[str]) -> dict[str, int]:
        """Ship several views; returns per-view snapshot row counts."""
        return {name: self.serve_view(name) for name in view_names}

    def read(self, view_name: str, subject: str, consistency: Consistency = ANY):
        """Routed point read of one served row document."""
        return self.router.read(view_name, subject, consistency)

    def query(
        self, query, view_name: str, consistency: Consistency = ANY
    ) -> QueryResult:
        """Run a KGQ over the fleet's copy of a view, whole, on one replica.

        Places the plan by the hash of its query text on the first owner
        that may serve it and returns that replica's answer — see
        :class:`~repro.serving.query_router.QueryRouter`.
        """
        return self.query_router.execute(query, view_name, consistency)

    def join(
        self,
        left_query,
        left_view: str,
        right_query,
        right_view: str,
        left_key: str,
        right_key: str,
        how: str = "inner",
        consistency: Consistency = ANY,
        limit: int | None = None,
    ) -> QueryResult:
        """Cross-view join run whole on one replica serving both views.

        Both sides read one state of that replica — see
        :meth:`~repro.serving.query_router.QueryRouter.execute_join`.
        """
        return self.query_router.execute_join(
            left_query, left_view, right_query, right_view,
            left_key, right_key, how=how, consistency=consistency, limit=limit,
        )

    def audit(
        self, repair: bool = True, raise_on_divergence: bool = False
    ) -> dict[str, AuditReport]:
        """One synchronous anti-entropy pass over every shipped view."""
        return self.auditor.audit(repair=repair,
                                  raise_on_divergence=raise_on_divergence)

    def start_anti_entropy(self, interval: float) -> AntiEntropyAuditor:
        """Run checksum audits (with repair) every *interval* seconds."""
        return self.auditor.start(interval)

    def drain(self, timeout: float = 10.0) -> bool:
        """Wait until every live replica applied everything it was offered."""
        return all(
            node.drain(timeout=timeout)
            for node in self.replicas.values()
            if node.alive
        )

    # -------------------------------------------------------------- #
    # maintenance and introspection
    # -------------------------------------------------------------- #
    def compact_journals(self) -> dict[str, int]:
        """Truncate persisted journals below the fleet-wide applied minimum.

        A segment is dropped only when every replica has applied past its
        highest LSN, so no live consumer can be pushed into a gap by
        compaction; a crashed replica's checkpoint still counts (it will
        resume from its applied LSN).  Returns segments dropped per view.
        """
        dropped: dict[str, int] = {}
        for view_name in self.shipper.shipped_views:
            floor = min(
                (node.applied_lsn(view_name) for node in self.replicas.values()),
                default=0,
            )
            if floor > 0:
                count = self.journal_store.truncate_below(view_name, floor)
                if count:
                    dropped[view_name] = count
        return dropped

    def lag(self) -> dict[str, dict[str, int]]:
        """Per-view, per-replica lag behind the primary head, in LSNs."""
        return {
            view_name: self.router.replica_lag(view_name)
            for view_name in sorted(self.shipper.shipped_views)
        }

    def status(self) -> dict[str, object]:
        """Fleet introspection: health, lag, shipping and journal stats."""
        return {
            "head_lsn": self.head_lsn_source(),
            "served_views": sorted(self.shipper.shipped_views),
            "healthy_replicas": self.router.healthy_replicas(),
            "lag": self.lag(),
            "replicas": {
                name: node.status() for name, node in sorted(self.replicas.items())
            },
            "batches_published": self.bus.batches_published,
            "delivery_errors": len(self.bus.delivery_errors),
            "reads_routed": self.router.reads_routed,
            "fallback_reads": self.router.fallback_reads,
            "consistency_rejections": self.router.consistency_rejections,
            "query_router": self.query_router.stats(),
            "anti_entropy": {
                "audits_run": self.auditor.audits_run,
                "audit_failures": self.auditor.audit_failures,
                "last_audit_error": self.auditor.last_audit_error,
                "divergences_detected": self.auditor.divergences_detected,
                "rows_repaired": self.auditor.rows_repaired,
                "catchup_resyncs": self.auditor.catchup_resyncs,
                "stale_repairs_skipped": self.auditor.stale_repairs_skipped,
                "running": self.auditor.running,
            },
            "journal": self.journal_store.stats(),
        }

    # -------------------------------------------------------------- #
    # internals
    # -------------------------------------------------------------- #
    def _node(self, name: str) -> ReplicaNode:
        try:
            return self.replicas[name]
        except KeyError:
            raise ServingError(f"unknown replica {name!r}") from None
