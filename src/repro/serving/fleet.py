"""The replicated serving fleet: primary journals shipped to routed replicas.

:class:`ServingFleet` wires the serving subsystem end to end over one primary
:class:`~repro.engine.views.ViewManager`:

* a :class:`~repro.serving.journal_store.JournalStore` keeps every shipped
  view's committed deltas, from which a lagging or restarted replica
  catches up;
* a :class:`~repro.serving.shipping.JournalShipper`, the fleet's one journal
  listener, offers LSN-ranged delta batches to every replica and, right
  after it offers a delta, drops the view's deltas every replica's index
  holds (:meth:`~repro.serving.shipping.JournalShipper.compact_journals`);
* N :class:`~repro.serving.replica.ReplicaNode` replicas apply them
  asynchronously into their own live indexes.  A replica added to a
  serving fleet starts from a copy of a current peer's index, so the fleet
  builds its postings, adjacency rows and partitions once, not once per
  replica;
* a :class:`~repro.serving.router.ShardRouter` routes reads across the
  replicas by a fixed per-key preference order under a selectable
  consistency level, and a
  :class:`~repro.serving.query_router.QueryRouter` places whole KGQs on
  them by the same order and the same placement walk.

The fleet's ``replicas`` dict is the one map of its replicas: the shipper
offers batches to it and the router reads it, so a replica is in the fleet
from the moment :meth:`ServingFleet.add_replica` inserts it.  The fleet is
fixed: a replica is killed and restarted, never removed.

Each replica owns its applied-LSN watermarks
(:meth:`~repro.serving.replica.ReplicaNode.applied_lsn`); :meth:`ServingFleet.lag`
reads them as per-view, per-replica lag behind the primary head, the
manager's :meth:`~repro.engine.views.ViewManager.current_lsn`.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.views import ViewManager
from repro.errors import ServingError
from repro.live.executor import QueryResult
from repro.serving.anti_entropy import AntiEntropyAuditor, AuditReport
from repro.serving.journal_store import JournalStore
from repro.serving.query_router import QueryRouter
from repro.serving.replica import ReplicaNode
from repro.serving.router import ANY, Consistency, ShardRouter
from repro.serving.shipping import JournalShipper


class ServingFleet:
    """A primary view manager plus N live replicas behind an LSN-aware router."""

    def __init__(self, manager: ViewManager, num_replicas: int = 3) -> None:
        if num_replicas <= 0:
            raise ServingError("a serving fleet needs at least one replica")
        self.manager = manager
        self.journal_store = JournalStore()
        self.replicas: dict[str, ReplicaNode] = {}
        self.shipper = JournalShipper(manager, self.replicas, self.journal_store)
        self.router = ShardRouter(self.replicas, manager.current_lsn)
        self.query_router = QueryRouter(self.router)
        self.auditor = AntiEntropyAuditor(self)
        for index in range(num_replicas):
            self.add_replica(f"replica-{index}")

    # -------------------------------------------------------------- #
    # membership and lifecycle
    # -------------------------------------------------------------- #
    def add_replica(self, name: str) -> ReplicaNode:
        """Add one replica node; started by :meth:`start`.

        Inserted into the fleet's replica map first, so it is offered every
        batch shipped from then on — including while it seeds.  A replica
        joining a serving fleet is routed to at once, so it is seeded before
        this returns: from a copy of a current peer's index
        (:meth:`~repro.serving.replica.ReplicaNode.start_from`), or, with no
        current peer, by a snapshot resync of every shipped view.
        """
        if name in self.replicas:
            raise ServingError(f"replica {name!r} already exists in the fleet")
        node = ReplicaNode(name, resync_source=self.shipper)
        self.replicas[name] = node
        if self.shipper.shipped_views:
            node.start_from(
                [self.replicas[peer] for peer in sorted(self.replicas) if peer != name]
            )
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

    def kill_replica(self, name: str) -> int:
        """Crash one replica (queued batches lost); returns batches dropped."""
        return self._node(name).kill()

    def restart_replica(self, name: str) -> list[str]:
        """Recover a crashed replica: catch every shipped view up.

        Each view catches up from the LSN the replica's index holds, by
        journal replay (a snapshot only when the index holds no copy or the
        journal cannot cover the gap); no primary-side view artifact is
        rebuilt.  Returns the caught-up views.
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
    # introspection
    # -------------------------------------------------------------- #
    def lag(self) -> dict[str, dict[str, int]]:
        """Per-view, per-replica lag behind the primary head, in LSNs."""
        return {
            view_name: self.router.replica_lag(view_name)
            for view_name in sorted(self.shipper.shipped_views)
        }

    def status(self) -> dict[str, object]:
        """Fleet introspection: health, lag, shipping and journal stats."""
        return {
            "head_lsn": self.manager.current_lsn(),
            "served_views": sorted(self.shipper.shipped_views),
            "healthy_replicas": self.router.healthy_replicas(),
            "lag": self.lag(),
            "replicas": {
                name: node.status() for name, node in sorted(self.replicas.items())
            },
            "batches_published": (
                self.shipper.batches_shipped + self.shipper.snapshots_shipped
            ),
            "delivery_errors": self.shipper.delivery_failures,
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
