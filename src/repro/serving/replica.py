"""Replica nodes: apply shipped view deltas into a local live index.

A :class:`ReplicaNode` owns one :class:`~repro.live.index.LiveIndex` and
applies :class:`~repro.serving.shipping.ShipmentBatch` messages into it
**asynchronously**: ``offer`` enqueues onto a bounded queue and returns
immediately (the primary's flush thread is never coupled to replica apply
speed), while a worker thread drains the queue.  A full queue *drops* the
batch — the subsequent gap detection repairs the loss — so a slow replica
degrades to lag, never to backpressure on the primary.

Batches are chained by ``prev_lsn``; a replica whose applied LSN does not
reach a delta batch's ``prev_lsn`` (missed shipment, crash, late
subscription) or whose revision disagrees detects the **gap** and resyncs by
pulling a catch-up batch from its ``resync_source`` (the shipper): a journal
delta when persisted history covers the gap, a full snapshot otherwise.

Durability model: the node's index plays the role of the replica's local
store and the checkpoint persisted through the
:class:`~repro.serving.journal_store.JournalStore` records exactly what that
store has applied (the checkpoint is written after every applied batch).  A
*crash* (:meth:`kill`) loses the in-flight queue but not the applied state;
:meth:`restart` reloads the checkpoint and catches up **from the persisted
journal, starting at the last applied LSN** — no view artifact is rebuilt.

Beyond point reads, every replica is a **query node**: it owns a
:class:`~repro.live.planner.QueryPlanner` and
:class:`~repro.live.executor.QueryExecutor` over its full copy of the served
views, answers whole KGQs — text or the compiled plans the
:class:`~repro.serving.query_router.QueryRouter` places on it — through
:meth:`query`, answers whole cross-view joins at one state of its index
(:meth:`join`), and audits its served rows against primary checksums
(:meth:`checksum_divergence`, :meth:`apply_repair` — the anti-entropy
hooks).  It keeps no result cache: every call executes against the index
as it stands, so applying a batch never has a cache to invalidate.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque

from repro.engine.metadata import WatermarkMap
from repro.errors import ReplicaUnavailableError, ServingError
from repro.live.executor import QueryExecutor, QueryResult, join_results
from repro.live.index import LiveIndex, document_checksum
from repro.live.kgq import CallQuery, Query, default_virtual_operators, parse
from repro.live.planner import PhysicalPlan, QueryPlanner
from repro.serving.shipping import ShipmentBatch


class ReplicaNode:
    """One serving replica: bounded-queue async apply over its own LiveIndex."""

    def __init__(
        self,
        name: str,
        queue_capacity: int = 256,
        resync_source=None,
        journal_store=None,
    ) -> None:
        if not name:
            raise ServingError("replica needs a non-empty name")
        if queue_capacity <= 0:
            raise ServingError("replica queue capacity must be positive")
        self.name = name
        self.index = LiveIndex()
        self.planner = QueryPlanner(
            default_virtual_operators(), selectivity=self.index.seed_selectivity
        )
        self.executor = QueryExecutor(self.index)
        self.applied = WatermarkMap()            # view -> applied LSN
        self.revisions: dict[str, int] = {}      # view -> state lineage served
        self.resync_source = resync_source
        self.journal_store = journal_store
        self._queue: queue.Queue[ShipmentBatch | None] = queue.Queue(maxsize=queue_capacity)
        self._worker: threading.Thread | None = None
        self._alive = False
        # Reentrant: a gap detected mid-apply resyncs inline under the lock.
        self._apply_lock = threading.RLock()
        self.batches_offered = 0
        self.batches_applied = 0
        self.batches_skipped = 0                 # duplicates below the applied LSN
        self.backpressure_drops = 0
        self.gaps_detected = 0
        self.resyncs = 0
        self.snapshot_resyncs = 0
        self.local_queries = 0
        self.joins_executed = 0                  # whole cross-view joins answered
        self.divergence_repairs = 0
        # Bounded: a stream of poison batches must not grow memory.
        self.apply_errors: deque[str] = deque(maxlen=256)

    # -------------------------------------------------------------- #
    # lifecycle
    # -------------------------------------------------------------- #
    @property
    def alive(self) -> bool:
        """Whether the node currently accepts and applies batches."""
        return self._alive

    def start(self) -> "ReplicaNode":
        """Start the apply worker (idempotent); returns self for chaining."""
        if self._alive:
            return self
        self._alive = True
        self._worker = threading.Thread(
            target=self._run, name=f"replica-{self.name}", daemon=True
        )
        self._worker.start()
        return self

    def stop(self) -> None:
        """Drain the queue, then stop the worker (a clean shutdown)."""
        if not self._alive:
            return
        self._queue.put(None)                    # sentinel: drain then exit
        if self._worker is not None:
            self._worker.join(timeout=10)
        self._alive = False
        self._worker = None

    def kill(self) -> int:
        """Simulate a crash: the worker dies, queued batches are lost.

        The applied state (index + checkpoint) survives — it models the
        replica's local store — but everything in flight is gone.  Returns
        the number of batches dropped from the queue.
        """
        self._alive = False                      # worker exits at next get()
        try:
            self._queue.put_nowait(None)         # wake it if blocked on an empty queue
        except queue.Full:
            pass                                 # worker is mid-batch; it checks _alive next
        if self._worker is not None:
            self._worker.join(timeout=10)
        self._worker = None
        dropped = 0
        while True:
            try:
                if self._queue.get_nowait() is not None:
                    dropped += 1
                self._queue.task_done()
            except queue.Empty:
                break
        return dropped

    def restart(self, views: list[str] | None = None) -> list[str]:
        """Recover after a crash: reload the checkpoint, catch up, serve again.

        The persisted checkpoint is authoritative for what the local store
        reflects; every checkpointed view (or *views*, when given) is caught
        up through the resync source **starting from its applied LSN** — a
        journal replay, not an artifact rebuild, whenever persisted history
        covers the gap.  Returns the views that were caught up.
        """
        if self.journal_store is not None:
            applied, revisions = self.journal_store.load_replica_checkpoint(self.name)
            for view_name, lsn in applied.items():
                self.applied.advance(view_name, lsn)
            self.revisions.update(revisions)
        self.start()
        targets = views if views is not None else sorted(self.revisions)
        caught_up = []
        for view_name in targets:
            if self.resync(view_name):
                caught_up.append(view_name)
        return caught_up

    def drain(self, timeout: float = 10.0) -> bool:
        """Wait until every offered batch has been applied (or *timeout*).

        Waits on the queue's own ``all_tasks_done`` condition, which the
        worker notifies when the last batch is done, so the caller wakes as
        soon as the replica is current.  Unlike ``Queue.join()`` the wait is
        timed: a wedged replica returns ``False`` at the deadline and leaves
        no blocked waiter behind.
        """
        deadline = time.monotonic() + timeout
        with self._queue.all_tasks_done:
            while self._queue.unfinished_tasks:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._queue.all_tasks_done.wait(remaining)
        return True

    # -------------------------------------------------------------- #
    # replication protocol
    # -------------------------------------------------------------- #
    def offer(self, batch: ShipmentBatch) -> bool:
        """Enqueue a batch for asynchronous apply.

        Raises :class:`~repro.errors.ReplicaUnavailableError` when the node
        is down (the bus records the failed delivery).  A full queue drops
        the batch and lets gap detection repair the loss later — the caller
        is never blocked.
        """
        if not self._alive:
            raise ReplicaUnavailableError(f"replica {self.name!r} is not running")
        self.batches_offered += 1
        try:
            self._queue.put_nowait(batch)
            return True
        except queue.Full:
            self.backpressure_drops += 1
            return False

    def resync(self, view_name: str) -> bool:
        """Pull a catch-up batch for one view and apply it inline."""
        if self.resync_source is None:
            return False
        self.resyncs += 1
        batch = self.resync_source.catchup_batch(
            view_name, self.applied.of(view_name), self.revisions.get(view_name, 0)
        )
        if batch.kind == "snapshot":
            self.snapshot_resyncs += 1
        with self._apply_lock:
            self._apply(batch, resyncing=True)
        return True

    def applied_lsn(self, view_name: str) -> int:
        """The LSN this replica's copy of *view_name* reflects (0 when unserved)."""
        return self.applied.of(view_name)

    def serves_view(self, view_name: str) -> bool:
        """Whether this node has ever applied state for *view_name*.

        The router skips non-serving nodes instead of reporting their empty
        index as a row miss.
        """
        return view_name in self.revisions

    def get(self, view_name: str, subject: str):
        """Point-read one served row document (None when not served here)."""
        return self.index.get(f"{view_name}:{subject}")

    # -------------------------------------------------------------- #
    # query surface (driven by QueryRouter: one whole request per call)
    # -------------------------------------------------------------- #
    def query(
        self,
        query: str | Query | CallQuery | PhysicalPlan,
        view_name: str | None = None,
    ) -> QueryResult:
        """Execute a whole KGQ against this node's own index.

        The one query entry point of a replica — the
        :class:`~repro.serving.query_router.QueryRouter` hands it compiled
        plans, and it also answers text directly (single-replica
        deployments, debugging what one node would answer on its own).  An
        already-compiled :class:`~repro.live.planner.PhysicalPlan` runs as
        is; anything else is planned by this node's planner first.
        *view_name* (when given) restricts execution to that view's feed and
        is the graph a REACH stage expands over.  Runs under the apply lock
        so a query never observes a half-applied batch.  Raises
        :class:`~repro.errors.ReplicaUnavailableError` when the node is down.
        """
        if not self._alive:
            raise ReplicaUnavailableError(
                f"replica {self.name!r} is not running; cannot serve queries"
            )
        if isinstance(query, PhysicalPlan):
            plan = query
        else:
            plan = self.planner.plan(parse(query) if isinstance(query, str) else query)
        scope = None
        reach_feed = ""
        if view_name is not None:
            feed = f"view:{view_name}"
            reach_feed = feed

            def scope(document, feed=feed):
                return document.source_id == feed

        with self._apply_lock:
            result = self.executor.execute(plan, scope=scope, reach_feed=reach_feed)
        self.local_queries += 1
        return result

    def join(
        self,
        left_plan: PhysicalPlan,
        left_view: str,
        right_plan: PhysicalPlan,
        right_view: str,
        left_key: str,
        right_key: str,
        how: str = "inner",
        limit: int | None = None,
    ) -> QueryResult:
        """Run a whole cross-view join against this node's own index.

        Both sides execute inside one hold of the apply lock, so they read
        one state of this replica — no batch lands between them — and the
        rows join through :func:`~repro.live.executor.join_results`, the
        primary-side reference itself.  Raises
        :class:`~repro.errors.ReplicaUnavailableError` when the node is down.
        """
        with self._apply_lock:
            right = self.query(right_plan, right_view)
            left = self.query(left_plan, left_view)
        self.joins_executed += 1
        return join_results(left, right, left_key, right_key, how, limit)

    # -------------------------------------------------------------- #
    # anti-entropy hooks
    # -------------------------------------------------------------- #
    def checksum_divergence(
        self,
        view_name: str,
        expected: dict[str, str],
        at_lsn: int | None = None,
        at_revision: int | None = None,
    ) -> tuple[list[str], list[str], list[str]] | None:
        """Compare served documents against primary checksums for one view.

        *expected* maps each subject the primary serves to the
        :func:`~repro.live.index.document_checksum` of the document its row
        builds to.  Returns ``(missing, extra, mismatched)`` subject lists:
        rows the primary has that this node lacks, rows this node serves that
        the primary dropped, and rows whose content digests disagree.  Runs
        under the apply lock so the audit never races a half-applied batch.
        *at_lsn* / *at_revision* (when given) pin the comparison to the
        state the checksums were audited at: if this node has applied a
        batch since the caller's unlocked watermark check, the comparison
        would misread fresh rows as divergence, so ``None`` is returned
        instead — the caller treats it as "moved past the snapshot".
        """
        with self._apply_lock:
            if at_lsn is not None and self.applied.of(view_name) != at_lsn:
                return None
            if at_revision is not None and self.revisions.get(view_name) != at_revision:
                return None
            served = self.index.feed_documents(f"view:{view_name}")
            missing: list[str] = []
            mismatched: list[str] = []
            for subject, digest in expected.items():
                document = self.index.get(f"{view_name}:{subject}")
                if document is None:
                    missing.append(subject)
                elif document_checksum(document) != digest:
                    mismatched.append(subject)
            expected_ids = {f"{view_name}:{subject}" for subject in expected}
            prefix_length = len(view_name) + 1
            extra = sorted(
                doc_id[prefix_length:] for doc_id in served - expected_ids
            )
        return sorted(missing), extra, sorted(mismatched)

    def apply_repair(self, batch: ShipmentBatch) -> bool:
        """Apply a targeted anti-entropy repair batch inline.

        Repair batches carry the audited snapshot's rows for diverged
        subjects (plus deletes for rows the primary no longer had) at the
        LSN the audit compared against, so the normal duplicate-suppression
        would drop them; ``force`` pushes them through the same delta-apply
        machinery.  A repair is only valid against the exact state it was
        audited at: when this node has already applied past the batch's LSN
        (or onto another revision) — a flush landed between audit and
        repair — the stale repair is refused (returns ``False``; the next
        audit pass re-compares against the newer state) rather than
        regressing fresher rows.  The check and the apply share the apply
        lock, so a concurrent worker apply cannot slip between them.
        """
        with self._apply_lock:
            if (
                self.applied.of(batch.view_name) != batch.lsn
                or self.revisions.get(batch.view_name) != batch.revision
            ):
                return False
            self._apply(batch, resyncing=True, force=True)
        self.divergence_repairs += 1
        return True

    def status(self) -> dict[str, object]:
        """Health and progress snapshot for fleet introspection."""
        return {
            "alive": self._alive,
            "documents": len(self.index),
            "queue_depth": self._queue.qsize(),
            "applied_lsns": dict(self.applied),
            "batches_applied": self.batches_applied,
            "backpressure_drops": self.backpressure_drops,
            "gaps_detected": self.gaps_detected,
            "resyncs": self.resyncs,
            "snapshot_resyncs": self.snapshot_resyncs,
            "local_queries": self.local_queries,
            "joins_executed": self.joins_executed,
            "divergence_repairs": self.divergence_repairs,
            "apply_errors": list(self.apply_errors),
        }

    # -------------------------------------------------------------- #
    # apply machinery
    # -------------------------------------------------------------- #
    def _run(self) -> None:
        while True:
            batch = self._queue.get()
            try:
                if batch is None or not self._alive:
                    break
                with self._apply_lock:
                    self._apply(batch)
            except Exception as exc:  # noqa: BLE001 - a bad batch must not kill the worker
                self.apply_errors.append(f"{batch.view_name}@{batch.lsn}: {exc}")
            finally:
                self._queue.task_done()

    def _apply(
        self, batch: ShipmentBatch, resyncing: bool = False, force: bool = False
    ) -> None:
        feed = f"view:{batch.view_name}"
        if batch.kind == "drop":
            self.index.drop_feed(feed)
            self.applied.pop(batch.view_name, None)
            self.revisions.pop(batch.view_name, None)
            self._checkpoint()
            return
        if batch.kind == "snapshot":
            self.index.replace_feed(feed, batch.documents(), batch.lsn)
            # Snapshots may rewind across revisions: set, don't advance.
            self.applied[batch.view_name] = batch.lsn
            self.revisions[batch.view_name] = batch.revision
            self._commit()
            return
        # delta batch
        applied = self.applied.of(batch.view_name)
        if (
            not force
            and batch.lsn <= applied
            and self.revisions.get(batch.view_name) == batch.revision
        ):
            self.batches_skipped += 1            # duplicate / already covered
            return
        if not resyncing and (
            self.revisions.get(batch.view_name) != batch.revision
            or batch.prev_lsn > applied
        ):
            # Missed a shipment (or never saw this lineage): resync instead
            # of applying a delta onto a base it does not extend.
            self.gaps_detected += 1
            self.resync(batch.view_name)
            return
        delta = batch.delta
        upserts = batch.documents()
        deleted_ids = [f"{batch.view_name}:{s}" for s in sorted(delta.deleted)]
        # A changed subject with no shipped row vanished from the artifact:
        # stop serving it rather than keep a stale copy.
        shipped = {row["subject"] for row in batch.rows}
        deleted_ids.extend(
            f"{batch.view_name}:{s}" for s in sorted(delta.changed) if s not in shipped
        )
        self.index.apply_feed_delta(feed, upserts, deleted_ids, batch.lsn)
        self.applied.advance(batch.view_name, batch.lsn)
        self.revisions[batch.view_name] = batch.revision
        # Watermark-only (advance) batches skip the checkpoint write: a
        # restart catch-up re-stamps the current watermark anyway, and a
        # per-flush no-op fsync per view per replica adds up fast.
        self._commit(persist=bool(upserts or deleted_ids))

    def _commit(self, persist: bool = True) -> None:
        self.batches_applied += 1
        if persist:
            self._checkpoint()

    def _checkpoint(self) -> None:
        if self.journal_store is not None:
            self.journal_store.save_replica_checkpoint(
                self.name, dict(self.applied), dict(self.revisions)
            )
