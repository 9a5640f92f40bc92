"""Ordered operation log with log sequence numbers (Section 3.1).

A distributed shared log coordinates continuous ingest in Saga: the KG
construction pipeline is the sole producer, every storage engine replays the
same operations in the same order, and log sequence numbers (LSNs) act as the
distributed synchronization primitive that lets consumers reason about store
freshness.

This module provides an in-process implementation with the same contract:
append-only, strictly increasing LSNs, and replay from any LSN.  It lives in
memory, like the object store holding the payloads its records point at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import LogError


@dataclass(frozen=True)
class LogRecord:
    """One operation in the shared log."""

    lsn: int
    operation: str               # e.g. "ingest_delta", "overwrite_partition", "curation"
    source_id: str = ""
    payload_key: str = ""        # reference into the staging object store
    metadata: dict = field(default_factory=dict)


class OperationLog:
    """Append-only operation log with monotonically increasing LSNs."""

    def __init__(self) -> None:
        self._records: list[LogRecord] = []

    # -------------------------------------------------------------- #
    # producing
    # -------------------------------------------------------------- #
    def append(
        self,
        operation: str,
        source_id: str = "",
        payload_key: str = "",
        metadata: dict | None = None,
    ) -> LogRecord:
        """Append an operation and return its record."""
        if not operation:
            raise LogError("operation name must be non-empty")
        record = LogRecord(
            lsn=self.head_lsn() + 1,
            operation=operation,
            source_id=source_id,
            payload_key=payload_key,
            metadata=metadata or {},
        )
        self._records.append(record)
        return record

    # -------------------------------------------------------------- #
    # consuming
    # -------------------------------------------------------------- #
    def head_lsn(self) -> int:
        """LSN of the most recent record (0 when the log is empty)."""
        return self._records[-1].lsn if self._records else 0

    def read_from(self, lsn_exclusive: int) -> list[LogRecord]:
        """Return every record with LSN strictly greater than *lsn_exclusive*.

        LSNs are dense from 1 (:meth:`append` assigns them), so the record
        with LSN *n* sits at index *n* - 1.
        """
        return self._records[max(lsn_exclusive, 0):]

    def get(self, lsn: int) -> LogRecord:
        """Return the record with exactly *lsn*."""
        index = lsn - 1
        if index < 0 or index >= len(self._records):
            raise LogError(f"no log record with LSN {lsn}")
        record = self._records[index]
        if record.lsn != lsn:
            raise LogError(f"log is corrupted around LSN {lsn}")
        return record

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(list(self._records))

    def __len__(self) -> int:
        return len(self._records)
