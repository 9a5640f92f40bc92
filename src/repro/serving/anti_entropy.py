"""Anti-entropy: checksum audits of replica state against the primary.

Replication by journal shipping is convergent *when nothing goes wrong*; the
:class:`AntiEntropyAuditor` is the safety net for when something does (a
corrupted apply, a bit-flipped index, an operator poking a replica).  Each
audit checksums the primary's view rows — through the same
:func:`~repro.live.index.view_row_document` builder replicas use, digested by
:func:`~repro.live.index.document_checksum` — and asks every live replica to
compare its served documents (:meth:`~repro.serving.replica.ReplicaNode.checksum_divergence`)
over the LSN range both sides agree on:

* a replica whose applied LSN trails the primary's ``built_at_lsn`` is
  **lagging**, not diverged — its repair is a catch-up
  :meth:`~repro.serving.replica.ReplicaNode.resync` through the persisted
  journal (journal replay, snapshot only when history was lost);
* a replica at (or past) the primary watermark whose row digests disagree is
  **diverged** — its repair is a targeted
  :meth:`~repro.serving.shipping.JournalShipper.repair_batch` that re-ships
  only the diverged subjects through the normal delta-apply machinery.

The primary side of every audit is read as one atomic snapshot
(:meth:`~repro.engine.views.ViewManager.view_rows_snapshot`, under the
view's maintenance lock) and its combined digest is kept on the view's
:class:`AuditReport` in :attr:`AntiEntropyAuditor.last_reports`, so "when was
this view last verified, at which LSN, with which digest" is one lookup.
:meth:`AntiEntropyAuditor.start` runs audits periodically on a daemon
thread — failures are counted and surfaced (``audit_failures``,
``last_audit_error``), never silently swallowed — and every entry point is
also callable synchronously for tests and operators.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

from repro.errors import ReplicaDivergenceError
from repro.live.index import document_checksum, view_row_document


@dataclass(frozen=True)
class ReplicaAudit:
    """One replica's verdict for one view in one audit pass.

    ``ahead`` means the replica has applied past the LSN (or onto a newer
    revision than) the audited primary snapshot — the audit raced a newer
    flush, so the comparison would be meaningless; the next pass covers it.
    """

    replica: str
    status: str     # "ok" | "lagging" | "ahead" | "diverged" | "down" | "unserved"
    applied_lsn: int = 0
    primary_lsn: int = 0
    missing: tuple[str, ...] = ()
    extra: tuple[str, ...] = ()
    mismatched: tuple[str, ...] = ()

    @property
    def diverged_subjects(self) -> tuple[str, ...]:
        """Every subject this replica must have rewritten to converge."""
        return tuple(sorted({*self.missing, *self.extra, *self.mismatched}))


@dataclass
class AuditReport:
    """Outcome of auditing one view across the fleet.

    ``primary_lsn`` / ``revision`` / ``rows`` are the atomic primary
    snapshot the audit ran against; repairs are built from exactly this
    snapshot so a flush landing between audit and repair can never be
    overwritten or watermarked away.
    """

    view_name: str
    primary_lsn: int
    rows_checked: int
    revision: int = 0
    digest: str = ""            # row-level view digest of the snapshot
    replicas: list[ReplicaAudit] = field(default_factory=list)
    rows: dict[str, dict] = field(default_factory=dict, repr=False)

    def diverged(self) -> list[ReplicaAudit]:
        """Replicas whose served rows disagree with the primary's."""
        return [audit for audit in self.replicas if audit.status == "diverged"]

    def lagging(self) -> list[ReplicaAudit]:
        """Replicas trailing the primary watermark (repairable by catch-up)."""
        return [audit for audit in self.replicas if audit.status == "lagging"]

    def clean(self) -> bool:
        """Whether every live replica matched the primary exactly."""
        return not self.diverged() and not self.lagging()


class AntiEntropyAuditor:
    """Periodic checksum audits plus targeted divergence repair."""

    def __init__(self, fleet) -> None:
        self.fleet = fleet
        self.audits_run = 0
        self.audit_failures = 0         # periodic passes that raised
        self.last_audit_error = ""      # most recent periodic-pass failure
        self.divergences_detected = 0   # (replica, view) pairs found diverged
        self.rows_repaired = 0          # subjects rewritten by repair batches
        self.catchup_resyncs = 0        # lagging replicas sent through resync
        self.stale_repairs_skipped = 0  # repairs refused: replica moved on
        self.last_reports: dict[str, AuditReport] = {}
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # -------------------------------------------------------------- #
    # auditing
    # -------------------------------------------------------------- #
    def audit_view(self, view_name: str) -> AuditReport:
        """Checksum one view's rows on the primary against every replica.

        The primary side is read as one atomic snapshot
        (:meth:`~repro.engine.views.ViewManager.view_rows_snapshot`, taken
        under the view's maintenance lock) so a concurrent flush can never
        pair the rows of one commit with the LSN of another; the report
        carries the combined digest of the audited rows next to the snapshot
        LSN.
        """
        manager = self.fleet.manager
        primary_lsn, revision, rows = manager.view_rows_snapshot(view_name)
        expected = self._expected_checksums(view_name, rows)
        # The report's digest goes through the one canonical definition
        # (ViewManager.view_digest).  The document-level map above is the
        # replica comparison currency, not the recorded digest.
        digest = manager.view_digest(
            view_name, snapshot=(primary_lsn, revision, rows)
        )
        report = AuditReport(
            view_name=view_name,
            primary_lsn=primary_lsn,
            rows_checked=len(expected),
            revision=revision,
            digest=digest,
            rows=rows,
        )
        for name, node in sorted(self.fleet.replicas.items()):
            if not node.alive:
                report.replicas.append(ReplicaAudit(replica=name, status="down",
                                                    primary_lsn=primary_lsn))
                continue
            if not node.serves_view(view_name):
                report.replicas.append(ReplicaAudit(replica=name, status="unserved",
                                                    primary_lsn=primary_lsn))
                continue
            applied = node.applied_lsn(view_name)
            replica_revision = node.revisions.get(view_name, 0)
            if applied < primary_lsn or replica_revision < revision:
                # Behind the audited LSN range, or serving an older state
                # lineage (one whose snapshot batch it missed):
                # lag, not divergence — a catch-up resync closes either
                # (the revision mismatch makes catchup answer a snapshot).
                report.replicas.append(ReplicaAudit(
                    replica=name, status="lagging",
                    applied_lsn=applied, primary_lsn=primary_lsn,
                ))
                continue
            if applied > primary_lsn or replica_revision > revision:
                # Past the audited snapshot (a flush or a new lineage landed
                # after it was taken): comparing would read false divergence.
                # The next pass audits the newer state.
                report.replicas.append(ReplicaAudit(
                    replica=name, status="ahead",
                    applied_lsn=applied, primary_lsn=primary_lsn,
                ))
                continue
            verdict = node.checksum_divergence(
                view_name, expected, at_lsn=primary_lsn, at_revision=revision
            )
            if verdict is None:
                # A batch applied between the watermark check above and the
                # locked comparison: the node moved past the snapshot.
                report.replicas.append(ReplicaAudit(
                    replica=name, status="ahead",
                    applied_lsn=node.applied_lsn(view_name),
                    primary_lsn=primary_lsn,
                ))
                continue
            missing, extra, mismatched = verdict
            status = "diverged" if (missing or extra or mismatched) else "ok"
            if status == "diverged":
                self.divergences_detected += 1
            report.replicas.append(ReplicaAudit(
                replica=name, status=status,
                applied_lsn=applied, primary_lsn=primary_lsn,
                missing=tuple(missing), extra=tuple(extra),
                mismatched=tuple(mismatched),
            ))
        # The retained copy drops the row snapshot: it is only needed
        # transiently to build repair batches, and keeping it would hold a
        # second full copy of every audited view between passes.
        self.last_reports[view_name] = replace(report, rows={})
        return report

    def audit(
        self, repair: bool = True, raise_on_divergence: bool = False
    ) -> dict[str, AuditReport]:
        """Audit every shipped view; optionally repair what the audit found.

        With ``raise_on_divergence`` the auditor fails loudly with a
        :class:`~repro.errors.ReplicaDivergenceError` instead of (or after,
        when ``repair`` is also set) repairing — the mode monitoring hooks
        use to page rather than paper over.
        """
        reports: dict[str, AuditReport] = {}
        for view_name in sorted(self.fleet.shipper.shipped_views):
            if not self.fleet.manager.is_materialized(view_name):
                continue
            report = self.audit_view(view_name)
            reports[view_name] = report
            if repair and not report.clean():
                self.repair(report)
        self.audits_run += 1
        if raise_on_divergence:
            dirty = {
                view_name: [audit.replica for audit in report.diverged()]
                for view_name, report in reports.items()
                if report.diverged()
            }
            if dirty:
                raise ReplicaDivergenceError(
                    f"anti-entropy audit found divergence: {dirty}", report=reports
                )
        return reports

    # -------------------------------------------------------------- #
    # repair
    # -------------------------------------------------------------- #
    def repair(self, report: AuditReport) -> dict[str, int]:
        """Repair what one audit report found; returns rows repaired per replica.

        Lagging replicas are resynced through the journal-replay catch-up
        path (no row accounting — the shipping protocol owns that); diverged
        replicas get a targeted repair batch rewriting exactly the diverged
        subjects.
        """
        repaired: dict[str, int] = {}
        for audit in report.lagging():
            node = self.fleet.replicas.get(audit.replica)
            if node is not None and node.alive:
                node.resync(report.view_name)
                self.catchup_resyncs += 1
                repaired[audit.replica] = 0
        for audit in report.diverged():
            node = self.fleet.replicas.get(audit.replica)
            if node is None or not node.alive:
                continue
            subjects = audit.diverged_subjects
            # Built from the audit's own snapshot: stamped with the audited
            # LSN (not the live head), so the repair cannot advance the
            # replica past delta batches shipped after the audit.
            batch = self.fleet.shipper.repair_batch(
                report.view_name, subjects, prev_lsn=audit.applied_lsn,
                snapshot=(report.primary_lsn, report.revision, report.rows),
            )
            if node.apply_repair(batch):
                self.rows_repaired += len(subjects)
                repaired[audit.replica] = len(subjects)
            else:
                # The replica applied past the audited snapshot in the
                # meantime; the repair is stale and the next pass re-audits.
                self.stale_repairs_skipped += 1
        return repaired

    # -------------------------------------------------------------- #
    # periodic operation
    # -------------------------------------------------------------- #
    def start(self, interval: float) -> "AntiEntropyAuditor":
        """Audit (and repair) every *interval* seconds on a daemon thread."""
        if interval <= 0:
            raise ValueError("the anti-entropy interval must be positive")
        if self._thread is not None:
            return self
        self._stop.clear()

        def run() -> None:
            while not self._stop.wait(interval):
                try:
                    self.audit(repair=True)
                except Exception as exc:  # noqa: BLE001 - retry next tick, visibly
                    # A safety net that fails silently is no safety net:
                    # the counters surface through fleet.status() so a
                    # persistently failing audit cannot masquerade as a
                    # verified fleet.
                    self.audit_failures += 1
                    self.last_audit_error = f"{type(exc).__name__}: {exc}"

        self._thread = threading.Thread(target=run, name="anti-entropy", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the periodic audit thread (no-op when never started)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=10)
        self._thread = None

    @property
    def running(self) -> bool:
        """Whether the periodic audit thread is active."""
        return self._thread is not None

    # -------------------------------------------------------------- #
    # internals
    # -------------------------------------------------------------- #
    def _expected_checksums(
        self, view_name: str, rows: dict[str, dict]
    ) -> dict[str, str]:
        """subject → serving-document digest of the snapshotted primary rows.

        Rows pass through the same document builder replicas apply batches
        with, so a faithful replica reproduces the digest bit-for-bit; the
        digest excludes the version stamp, so batch boundaries never show up
        as false divergence.
        """
        feed = f"view:{view_name}"
        return {
            subject: document_checksum(view_row_document(view_name, feed, row, 0))
            for subject, row in rows.items()
        }
