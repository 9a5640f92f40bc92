"""Replica nodes: apply shipped view deltas into a local live index.

A :class:`ReplicaNode` owns one :class:`~repro.live.index.LiveIndex` and
applies :class:`~repro.serving.shipping.ShipmentBatch` messages into it
**asynchronously**: ``offer`` enqueues onto a bounded queue and returns
immediately (the primary's flush thread is never coupled to replica apply
speed), while a worker thread drains the queue.  A full queue *drops* the
batch — the subsequent gap detection repairs the loss — so a slow replica
degrades to lag, never to backpressure on the primary.  A dropped snapshot
marks its view, and so does one offered to a killed node or lost from its
queue by the kill: a rebuild may change rows at an LSN the replica already
holds, so no later ``prev_lsn`` shows the loss, and the view's next batch
(or the restart) resyncs it by snapshot instead.

Batches are chained by ``prev_lsn``; a replica whose applied LSN does not
reach a delta batch's ``prev_lsn`` (missed shipment, crash), or that
holds no copy of the view, detects the **gap** and
resyncs by pulling a catch-up batch from its ``resync_source`` (the
shipper): a journal delta when the journal's history covers the gap, a full
snapshot otherwise.

The node's index plays the role of the replica's local store, and its feed
watermarks are the one record of which views the node serves and at which
LSN (:meth:`applied_lsn`, :meth:`serves_view`).  A *crash* (:meth:`kill`)
loses the in-flight queue but not the index; :meth:`restart` catches every
view the index serves (or the views it is given) up **from the LSN the index
holds**, through the journal: no view artifact is rebuilt.  A node that
joins a serving fleet starts from a copy of a peer's index that is at or
past the LSNs the node joined at (:meth:`start_from`) and applies the
batches it was offered since on top; a fresh node with no such peer holds
nothing, so each view it catches up arrives as a snapshot.

Beyond point reads, every replica is a **query node**: it owns a
:class:`~repro.live.executor.QueryExecutor` over its full copy of the served
views, runs the compiled plans the
:class:`~repro.serving.query_router.QueryRouter` places on it, one named
view each (:meth:`query`), answers whole cross-view joins at one state of
its index (:meth:`join`), and audits its served rows against primary checksums
(:meth:`checksum_divergence`, :meth:`apply_repair` — the anti-entropy
hooks).  It keeps no result cache: every call executes against the index
as it stands, so applying a batch never has a cache to invalidate.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from typing import Iterable

from repro.errors import ReplicaUnavailableError, ServingError
from repro.live.executor import QueryExecutor, QueryResult, join_results
from repro.live.index import LiveIndex, document_checksum
from repro.live.planner import PhysicalPlan
from repro.serving.shipping import ShipmentBatch

#: Batches a replica queues before it drops one (gap detection repairs it).
QUEUE_CAPACITY = 256


class ReplicaNode:
    """One serving replica: bounded-queue async apply over its own LiveIndex."""

    def __init__(self, name: str, resync_source=None) -> None:
        if not name:
            raise ServingError("replica needs a non-empty name")
        self.name = name
        self.index = LiveIndex()
        self.executor = QueryExecutor(self.index)
        self.resync_source = resync_source
        self._queue: queue.Queue[ShipmentBatch | None] = queue.Queue(maxsize=QUEUE_CAPACITY)
        self._worker: threading.Thread | None = None
        self._alive = False
        # Reentrant: a gap detected mid-apply resyncs inline under the lock.
        self._apply_lock = threading.RLock()
        # Views whose last offered snapshot the full queue dropped, the
        # killed node refused or a kill lost from the queue.
        self._missed_snapshots: set[str] = set()
        # Snapshot batches queued, and those applied or dropped since (one
        # writer each: the publishing thread, the worker or a kill).
        self._snapshots_queued = 0
        self._snapshots_settled = 0
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

    def start_from(self, peers: Iterable["ReplicaNode"]) -> None:
        """Start the worker serving every view the resync source ships.

        Meant for a fresh node already in the fleet's map.  Once its worker
        runs, every batch shipped is offered to it too, so the shipped LSNs
        read right then are its join LSNs: a peer that holds each view at
        or past its join LSN holds everything this node is not offered.  It
        starts from a copy of the first such peer's index
        (:meth:`_current_at`: alive, no snapshot missed or still queued,
        batches queued or not), taken under this node's apply lock and then
        the peer's; with no such peer it snapshot-resyncs each shipped view
        instead.  Either way this node holds its own apply lock until it is
        seeded, so its worker applies nothing before: a batch offered
        meanwhile waits, then applies on top of the seed or, at or below
        the copy's LSN, is skipped as a duplicate.
        """
        with self._apply_lock:
            self.start()
            shipped = dict(self.resync_source.shipped_views)
            for peer in peers:
                with peer._apply_lock:
                    if peer._current_at(shipped):
                        self.index = peer.index.copy()
                        self.executor = QueryExecutor(self.index)
                        return
            for view_name in sorted(shipped):
                self.resync(view_name)

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

        The applied state (the index) survives — it models the replica's
        local store — but everything in flight is gone.  Returns
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
                batch = self._queue.get_nowait()
                if batch is not None:
                    dropped += 1
                    self._drop_snapshot(batch)
                self._queue.task_done()
            except queue.Empty:
                break
        return dropped

    def restart(self, views: list[str] | None = None) -> list[str]:
        """Recover after a crash: catch up what the index holds, serve again.

        Every view the index serves (or *views*, when given) is caught up
        through the resync source **starting from the LSN the index holds**:
        a journal replay, not an artifact rebuild, whenever the journal
        covers the gap.  A view the index does not hold arrives as a
        snapshot.  Returns the views that were caught up.
        """
        if views is None:
            views = sorted(self._served())
        self.start()
        caught_up = []
        for view_name in views:
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
        is down (the shipper records the failed delivery); a snapshot of a
        view its index serves marks the view, so :meth:`restart` resyncs
        it by snapshot.  A full queue drops the batch and lets gap
        detection repair the loss later — the caller is never blocked.
        """
        if not self._alive:
            if batch.kind == "snapshot" and self.serves_view(batch.view_name):
                self._missed_snapshots.add(batch.view_name)
            raise ReplicaUnavailableError(f"replica {self.name!r} is not running")
        try:
            self._queue.put_nowait(batch)
        except queue.Full:
            self.backpressure_drops += 1
            if batch.kind == "snapshot":
                self._missed_snapshots.add(batch.view_name)
            return False
        if batch.kind == "snapshot":
            self._snapshots_queued += 1
            # It supersedes any snapshot of the view dropped before it.
            self._missed_snapshots.discard(batch.view_name)
        return True

    def resync(self, view_name: str) -> bool:
        """Pull a catch-up batch for one view and apply it inline.

        A view whose snapshot was dropped catches up from LSN 0, as a
        snapshot: the journal cannot say what a rebuild changed.
        """
        if self.resync_source is None:
            return False
        self.resyncs += 1
        applied = self.applied_lsn(view_name)
        if view_name in self._missed_snapshots:
            self._missed_snapshots.discard(view_name)
            applied = 0
        batch = self.resync_source.catchup_batch(view_name, applied)
        if batch.kind == "snapshot":
            self.snapshot_resyncs += 1
        with self._apply_lock:
            self._apply(batch, resyncing=True)
        return True

    def applied_lsn(self, view_name: str) -> int:
        """The LSN this replica's copy of *view_name* reflects (0 when unserved).

        Read from the index's feed watermark, the node's one record of it.
        """
        return self.index.watermarks.get(f"view:{view_name}", 0)

    def serves_view(self, view_name: str) -> bool:
        """Whether this node's index holds a copy of *view_name*.

        The router skips non-serving nodes instead of reporting their empty
        index as a row miss.
        """
        return f"view:{view_name}" in self.index.watermarks

    def _current_at(self, lsns: dict[str, int]) -> bool:
        """Whether this node may seed a node that joined at *lsns*: alive,
        no snapshot missed or queued, and serving each view of *lsns* at or
        past its LSN.  Queued deltas are no bar, since the joining node is
        offered every batch above its join LSNs; a queued snapshot is,
        since a rebuild may keep its view's LSN and change its rows."""
        return (
            self._alive
            and not self._missed_snapshots
            and self._snapshots_settled == self._snapshots_queued
            and all(
                self.serves_view(view_name) and self.applied_lsn(view_name) >= lsn
                for view_name, lsn in lsns.items()
            )
        )

    def get(self, view_name: str, subject: str):
        """Point-read one served row document (None when not served here)."""
        return self.index.get(f"{view_name}:{subject}")

    # -------------------------------------------------------------- #
    # query surface (driven by QueryRouter: one whole request per call)
    # -------------------------------------------------------------- #
    def query(self, plan: PhysicalPlan, view_name: str) -> QueryResult:
        """Run a compiled KGQ plan on this node's copy of *view_name*.

        The one query entry point of a replica: the
        :class:`~repro.serving.query_router.QueryRouter` compiles every
        request and hands it the plan.  Execution is restricted to the
        view's feed, which is also the graph a REACH stage expands over.
        Runs under the apply lock so a query never observes a half-applied
        batch.  Raises :class:`~repro.errors.ReplicaUnavailableError` when
        the node is down.
        """
        if not self._alive:
            raise ReplicaUnavailableError(
                f"replica {self.name!r} is not running; cannot serve queries"
            )
        feed = f"view:{view_name}"
        with self._apply_lock:
            result = self.executor.execute(plan, feed=feed, reach_feed=feed)
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
    ) -> tuple[list[str], list[str], list[str]] | None:
        """Compare served documents against primary checksums for one view.

        *expected* maps each subject the primary serves to the
        :func:`~repro.live.index.document_checksum` of the document its row
        builds to.  Returns ``(missing, extra, mismatched)`` subject lists:
        rows the primary has that this node lacks, rows this node serves that
        the primary dropped, and rows whose content digests disagree.  Runs
        under the apply lock so the audit never races a half-applied batch.
        *at_lsn* (when given) pins the comparison to the LSN the checksums
        were audited at: if this node has applied a batch since the caller's
        unlocked watermark check, the comparison would misread fresh rows as
        divergence, so ``None`` is returned instead — the caller treats it as
        "moved past the snapshot".
        """
        feed = f"view:{view_name}"
        with self._apply_lock:
            if at_lsn is not None and self.index.watermarks.get(feed) != at_lsn:
                return None
            served = self.index.feed_documents(feed)
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
        audited at: when this node no longer holds the view at the batch's
        LSN — a flush landed between audit and repair — the stale repair is
        refused (returns ``False``; the next audit pass re-compares against
        the newer state) rather than regressing fresher rows.  The check and the apply share the apply
        lock, so a concurrent worker apply cannot slip between them.
        """
        with self._apply_lock:
            if self.index.watermarks.get(f"view:{batch.view_name}") != batch.lsn:
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
            "applied_lsns": self._served(),
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
                if batch is None:
                    break
                if not self._alive:
                    self._drop_snapshot(batch)     # killed: the batch is lost
                    break
                with self._apply_lock:
                    self._snapshots_settled += batch.kind == "snapshot"
                    self._apply(batch)
            except Exception as exc:  # noqa: BLE001 - a bad batch must not kill the worker
                self.apply_errors.append(f"{batch.view_name}@{batch.lsn}: {exc}")
            finally:
                self._queue.task_done()

    def _drop_snapshot(self, batch: ShipmentBatch) -> None:
        """A queued batch is lost to a kill: a snapshot marks its view."""
        if batch.kind == "snapshot":
            self._snapshots_settled += 1
            self._missed_snapshots.add(batch.view_name)

    def _apply(
        self, batch: ShipmentBatch, resyncing: bool = False, force: bool = False
    ) -> None:
        feed = f"view:{batch.view_name}"
        if batch.kind == "drop":
            self.index.drop_feed(feed)
            return
        if batch.kind == "snapshot":
            # Replaces the whole feed, so its LSN is set, not advanced.
            self.index.replace_feed(feed, batch.documents(), batch.lsn)
            self.batches_applied += 1
            return
        # delta batch
        applied = self.index.watermarks.get(feed)       # None: no copy held
        if not force and applied is not None and batch.lsn <= applied:
            self.batches_skipped += 1            # duplicate / already covered
            return
        if not resyncing and (
            applied is None
            or batch.prev_lsn > applied
            or batch.view_name in self._missed_snapshots
        ):
            # Missed a shipment (or a snapshot, or holds no copy to extend):
            # resync instead of applying a delta onto a base it does not extend.
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
        self.batches_applied += 1

    def _served(self) -> dict[str, int]:
        """view → applied LSN of every view feed the index holds."""
        # Copied in one step: the apply worker may add or drop a feed.
        return {
            feed.removeprefix("view:"): lsn
            for feed, lsn in list(self.index.watermarks.items())
            if feed.startswith("view:")
        }
