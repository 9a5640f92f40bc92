"""Journal shipping: publish committed view deltas to subscriber replicas.

The :class:`JournalShipper` hangs off the primary
:class:`~repro.engine.views.ViewManager`'s journal-event hook; the manager
keeps no change history of its own.  Every committed delta of a *shipped*
view is persisted to the :class:`~repro.serving.journal_store.JournalStore`
— the one place that answers "what changed since LSN *n*" — and becomes a
:class:`ShipmentBatch` (the LSN-ranged entity delta plus the actual artifact
rows for the changed entities) published on the :class:`ReplicationBus` to
every subscribed replica.  From-scratch rebuilds ship as snapshot batches
(the full row set; persisted history restarts), and drops ship as drop
batches.

Batches are chained: each delta batch carries ``prev_lsn``, the LSN of the
batch it extends.  A replica whose applied LSN does not reach ``prev_lsn``
has missed a shipment (backpressure drop, crash, late subscription) and must
resync — it pulls :meth:`JournalShipper.catchup_batch`, which serves the gap
from the persisted journal when it reaches back far enough and falls back to
a full snapshot otherwise.  A catch-up delta is stamped with the LSN the
shipper has persisted and published for the view, never the manager's
watermark: a flush that committed but whose event the shipper has not
handled yet is not in the store, and its own batch must still apply.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from repro.engine.views import JournalEvent, ViewDelta, ViewManager
from repro.engine.views import rows_by_subject as _rows_by_subject
from repro.errors import JournalGapError, ServingError
from repro.live.index import LiveEntityDocument, view_row_documents
from repro.serving.journal_store import JournalStore


@dataclass(frozen=True)
class ShipmentBatch:
    """One per-view, LSN-ranged replication message.

    ``kind`` is ``"delta"`` (apply ``rows`` / ``delta.deleted`` on top of
    ``prev_lsn``), ``"snapshot"`` (``rows`` is the whole view; replace the
    served copy), or ``"drop"`` (stop serving the view).  ``rows`` maps the
    subject to its current artifact row; a subject in ``delta.changed`` with
    no row vanished from the artifact and must stop being served.
    """

    kind: str
    view_name: str
    revision: int
    lsn: int
    prev_lsn: int = 0
    delta: ViewDelta | None = None
    rows: tuple[dict, ...] = ()
    _documents: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _decode_lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                         repr=False, compare=False)

    def documents(self) -> tuple[LiveEntityDocument, ...]:
        """The batch's rows as serving documents, decoded once per process.

        The same batch object fans out to every subscribed replica, and a
        held document is never mutated, so every replica applies these same
        objects.  The first replica to apply the batch decodes it, under the
        batch's lock; the others wait for that decode and reuse it.  Batch
        rows are never mutated after publication.
        """
        with self._decode_lock:
            if self._documents is None:
                feed = f"view:{self.view_name}"
                object.__setattr__(self, "_documents", tuple(
                    view_row_documents(self.view_name, feed, self.rows, self.lsn)
                ))
        return self._documents


class ReplicationBus:
    """Fan-out of shipment batches to subscribed replica nodes.

    Delivery is per-subscriber fire-and-forget: a failing or dead subscriber
    is counted (``delivery_errors``) and never blocks the other replicas or
    the publishing flush.  Gap detection on the replica side repairs any
    missed delivery.
    """

    def __init__(self) -> None:
        self.subscribers: dict[str, object] = {}
        self.batches_published = 0
        self.deliveries = 0
        self.delivery_failures = 0
        # Bounded: a replica left down for days must not grow memory.
        self.delivery_errors: deque[str] = deque(maxlen=256)

    def subscribe(self, node) -> None:
        """Add a replica node (anything with ``name`` and ``offer(batch)``)."""
        self.subscribers[node.name] = node

    def unsubscribe(self, name: str) -> None:
        """Remove a subscriber; undelivered batches surface as gaps."""
        self.subscribers.pop(name, None)

    def publish(self, batch: ShipmentBatch) -> int:
        """Deliver *batch* to every subscriber; returns successful deliveries."""
        self.batches_published += 1
        delivered = 0
        for name, node in list(self.subscribers.items()):
            try:
                node.offer(batch)
                delivered += 1
                self.deliveries += 1
            except Exception as exc:  # noqa: BLE001 - a dead replica must not stop the fleet
                self.delivery_failures += 1
                self.delivery_errors.append(f"{name} <- {batch.view_name}@{batch.lsn}: {exc}")
        return delivered


def rows_by_subject(artifact: object, view_name: str) -> dict[str, dict]:
    """Normalize a row-shaped artifact into a subject → row mapping.

    Accepts the two row shapes the platform produces: a sequence of dicts
    with a ``subject`` key (the live layer's contract) or a mapping whose
    values are such dicts.  Anything else cannot be shipped.  The shape
    contract itself is defined once, in
    :func:`repro.engine.views.rows_by_subject`; this wrapper only swaps the
    error class so serving callers keep catching :class:`ServingError`.
    """
    return _rows_by_subject(artifact, view_name, error=ServingError)


def rows_for_subjects(
    artifact: object, subjects: list[str], view_name: str
) -> dict[str, dict]:
    """The artifact rows of *subjects* only (a subject without a row is skipped).

    Subject-keyed dict artifacts — the platform's normal row shape — are
    indexed directly, keeping per-delta shipping O(|delta|) instead of
    O(|artifact|); sequence artifacts fall back to a full normalization.
    """
    if isinstance(artifact, dict):
        rows: dict[str, dict] = {}
        for subject in subjects:
            row = artifact.get(subject)
            if row is None:
                continue
            if not isinstance(row, dict) or "subject" not in row:
                raise ServingError(
                    f"view artifact {view_name!r} rows need a 'subject' key to be shipped"
                )
            rows[str(row["subject"])] = row
        return rows
    by_subject = rows_by_subject(artifact, view_name)
    return {s: by_subject[s] for s in subjects if s in by_subject}


class JournalShipper:
    """Primary-side publisher of per-view delta batches.

    Attach to a manager, then :meth:`ship_view` each row-shaped view that the
    fleet serves.  The shipper persists deltas through the journal store
    (restart durability) before publishing them on the bus (replica
    liveness), so a batch a replica missed can always be re-derived.
    """

    def __init__(
        self, manager: ViewManager, bus: ReplicationBus, journal_store: JournalStore
    ) -> None:
        self.manager = manager
        self.bus = bus
        self.journal_store = journal_store
        self.shipped_views: dict[str, int] = {}       # view -> last shipped LSN
        self.batches_shipped = 0
        self.snapshots_shipped = 0
        manager.add_journal_listener(self._on_journal_event)

    def detach(self) -> None:
        """Stop listening to the manager entirely (fleet shutdown).

        Without this a stopped fleet would keep persisting and publishing on
        every later flush — and a restarted fleet would stack a second
        pipeline on top.
        """
        self.manager.remove_journal_listener(self._on_journal_event)
        self.shipped_views.clear()

    # -------------------------------------------------------------- #
    # shipping
    # -------------------------------------------------------------- #
    def ship_view(self, view_name: str) -> ShipmentBatch:
        """Start (or resume) shipping a view: publishes its snapshot batch.

        The snapshot also becomes the persisted journal's new baseline
        (history is truncated to the snapshot LSN): deltas that fell into an
        unshipped window were never persisted, so pre-snapshot history must
        not be trusted for catch-up.  A view whose snapshot cannot be taken
        (not materialized, not row-shaped) raises and is not shipped.
        """
        return self._publish_snapshot(view_name)

    def unship_view(self, view_name: str) -> None:
        """Stop shipping a view (already-shipped batches stay applied).

        Deltas committed while unshipped are neither persisted nor
        published; re-shipping later snapshots over the hole (see
        :meth:`ship_view`), so no consumer can catch up through it.
        """
        self.shipped_views.pop(view_name, None)

    def snapshot_batch(self, view_name: str) -> ShipmentBatch:
        """A full-row snapshot of the view's current artifact.

        Rows, LSN and revision come from one atomic
        :meth:`~repro.engine.views.ViewManager.view_rows_snapshot`, whose
        row copies the batch keeps: replica workers read batches
        asynchronously and must not alias dicts a later flush may patch in
        place.
        """
        lsn, revision, rows = self.manager.view_rows_snapshot(view_name)
        return ShipmentBatch(
            kind="snapshot",
            view_name=view_name,
            revision=revision,
            lsn=lsn,
            rows=tuple(rows.values()),
        )

    def _publish_snapshot(self, view_name: str) -> ShipmentBatch:
        """Snapshot-resync subscribers and re-baseline the persisted journal."""
        batch = self.snapshot_batch(view_name)
        self.journal_store.record_truncate(view_name, batch.revision, batch.lsn)
        self.shipped_views[view_name] = batch.lsn
        self.bus.publish(batch)
        self.snapshots_shipped += 1
        return batch

    def repair_batch(
        self,
        view_name: str,
        subjects: Sequence[str],
        prev_lsn: int,
        snapshot: tuple[int, int, dict[str, dict]] | None = None,
    ) -> ShipmentBatch:
        """A targeted delta batch that re-ships only *subjects* from the primary.

        The anti-entropy repair path: the batch carries the primary's rows
        for the named subjects (a subject with no row is a delete — the
        primary no longer serves it), so a diverged replica converges by
        rewriting exactly the diverged rows instead of absorbing a full
        snapshot.  *snapshot* is the ``(lsn, revision, rows)`` the audit was
        taken against (:meth:`~repro.engine.views.ViewManager.view_rows_snapshot`
        is taken when omitted): the batch is stamped with the **snapshot**
        LSN, never the live head — a repair must not advance the replica's
        watermark past delta batches it has not applied, or a flush landing
        between audit and repair would be dropped as a duplicate and its
        rows served stale under a satisfied consistency check.
        """
        if snapshot is None:
            snapshot = self.manager.view_rows_snapshot(view_name)
        lsn, revision, snapshot_rows = snapshot
        ordered = sorted(set(subjects))
        rows = {s: snapshot_rows[s] for s in ordered if s in snapshot_rows}
        delta = ViewDelta(
            updated=frozenset(rows),
            deleted=frozenset(subject for subject in ordered if subject not in rows),
            first_lsn=prev_lsn,
            last_lsn=lsn,
        )
        return ShipmentBatch(
            kind="delta",
            view_name=view_name,
            revision=revision,
            lsn=lsn,
            prev_lsn=prev_lsn,
            delta=delta,
            rows=tuple(dict(row) for row in rows.values()),
        )

    def catchup_batch(self, view_name: str, applied_lsn: int, revision: int) -> ShipmentBatch:
        """The batch that brings a consumer at (*applied_lsn*, *revision*) current.

        Serves a delta batch from the persisted journal when history reaches
        back to *applied_lsn* under the same revision; a gap, a redefinition,
        or a view that is not being shipped (its persisted history is not
        current) answers with a full snapshot instead.  The delta batch is
        stamped with the LSN the shipper has persisted and published for the
        view — what the journal actually covers — so a flush whose event the
        shipper has not handled yet still applies when its batch arrives.  A
        view that is not materialized right now (dropped, or invalidated and
        not yet rebuilt) answers with a drop batch: the consumer must stop
        serving it rather than crash its whole catch-up.
        """
        if not self.manager.is_materialized(view_name):
            return ShipmentBatch(
                kind="drop", view_name=view_name,
                revision=self.manager.state_revision(view_name),
                lsn=self.manager.built_at_lsn(view_name),
            )
        shipped_lsn = self.shipped_views.get(view_name)
        if (
            shipped_lsn is not None
            and applied_lsn > 0
            and revision == self.manager.state_revision(view_name)
            and revision == self.journal_store.revision_of(view_name)
        ):
            try:
                delta = self.journal_store.deltas_since(view_name, applied_lsn)
            except JournalGapError:
                delta = None
            if delta is not None:
                return self._delta_batch(view_name, revision, delta,
                                         prev_lsn=applied_lsn, lsn=shipped_lsn)
        return self.snapshot_batch(view_name)

    # -------------------------------------------------------------- #
    # journal-event plumbing
    # -------------------------------------------------------------- #
    def _on_journal_event(self, event: JournalEvent) -> None:
        if event.view_name not in self.shipped_views:
            return
        if event.kind == "append":
            try:
                self.journal_store.append_delta(event.view_name, event.revision,
                                                event.delta)
            except Exception:
                # Persisted history is now incomplete (the store poisoned
                # its floor).  The live chain must not silently skip the
                # delta either — the next batch's prev_lsn would extend
                # every replica's applied LSN and they would diverge
                # undetectably.  Resync subscribers via snapshot, then
                # surface the persistence error to the manager's log.
                self._publish_snapshot(event.view_name)
                raise
            batch = self._delta_batch(
                event.view_name, event.revision, event.delta,
                prev_lsn=self.shipped_views[event.view_name], lsn=event.lsn,
            )
            self.shipped_views[event.view_name] = batch.lsn
            self.bus.publish(batch)
            self.batches_shipped += 1
        elif event.kind == "advance":
            # Watermark-only progress: an empty delta batch lets replicas
            # advance their applied LSN without row work.  Not persisted —
            # a catch-up batch stamps the current watermark anyway.
            prev_lsn = self.shipped_views[event.view_name]
            self.shipped_views[event.view_name] = event.lsn
            self.bus.publish(ShipmentBatch(
                kind="delta",
                view_name=event.view_name,
                revision=event.revision,
                lsn=event.lsn,
                prev_lsn=prev_lsn,
                delta=ViewDelta(first_lsn=prev_lsn, last_lsn=event.lsn),
            ))
            self.batches_shipped += 1
        elif event.kind == "truncate":
            self._publish_snapshot(event.view_name)
        elif event.kind == "drop":
            self.journal_store.record_drop(event.view_name, event.revision)
            self.shipped_views[event.view_name] = 0
            self.bus.publish(ShipmentBatch(
                kind="drop", view_name=event.view_name,
                revision=event.revision, lsn=event.lsn,
            ))

    def _delta_batch(
        self, view_name: str, revision: int, delta: ViewDelta, prev_lsn: int, lsn: int
    ) -> ShipmentBatch:
        # Shallow-copied: replica workers read batches asynchronously and
        # must not alias dicts a later flush may patch in place.
        rows = tuple(
            dict(row)
            for row in rows_for_subjects(
                self.manager.artifact(view_name), sorted(delta.changed), view_name
            ).values()
        )
        return ShipmentBatch(
            kind="delta",
            view_name=view_name,
            revision=revision,
            lsn=lsn,
            prev_lsn=prev_lsn,
            delta=delta,
            rows=rows,
        )
