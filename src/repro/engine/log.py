"""Durable, ordered operation log with log sequence numbers (Section 3.1).

A distributed shared log coordinates continuous ingest in Saga: the KG
construction pipeline is the sole producer, every storage engine replays the
same operations in the same order, and log sequence numbers (LSNs) act as the
distributed synchronization primitive that lets consumers reason about store
freshness.

This module provides an in-process implementation with the same contract:
append-only, strictly increasing LSNs, replay from any LSN, and optional
file-backed durability so a restarted process can recover the log.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.errors import LogError


@dataclass(frozen=True)
class LogRecord:
    """One durable operation in the shared log."""

    lsn: int
    operation: str               # e.g. "ingest_delta", "overwrite_partition", "curation"
    source_id: str = ""
    payload_key: str = ""        # reference into the staging object store
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """Serialize the record to one JSON line."""
        return json.dumps(
            {
                "lsn": self.lsn,
                "operation": self.operation,
                "source_id": self.source_id,
                "payload_key": self.payload_key,
                "metadata": self.metadata,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "LogRecord":
        """Deserialize a record from :meth:`to_json` output."""
        data = json.loads(line)
        return cls(
            lsn=int(data["lsn"]),
            operation=data["operation"],
            source_id=data.get("source_id", ""),
            payload_key=data.get("payload_key", ""),
            metadata=data.get("metadata", {}),
        )


class OperationLog:
    """Append-only operation log with monotonically increasing LSNs."""

    def __init__(self, path: str | Path | None = None) -> None:
        self._records: list[LogRecord] = []
        self._path = Path(path) if path is not None else None
        if self._path is not None and self._path.exists():
            self._recover()

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
        """Append an operation and return its durable record."""
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
        if self._path is not None:
            try:
                with open(self._path, "a", encoding="utf-8") as handle:
                    handle.write(record.to_json() + "\n")
            except OSError as exc:
                raise LogError(f"cannot persist log record: {exc}") from exc
        return record

    # -------------------------------------------------------------- #
    # consuming
    # -------------------------------------------------------------- #
    def head_lsn(self) -> int:
        """LSN of the most recent record (0 when the log is empty)."""
        return self._records[-1].lsn if self._records else 0

    def read_from(self, lsn_exclusive: int) -> list[LogRecord]:
        """Return every record with LSN strictly greater than *lsn_exclusive*.

        LSNs are dense from 1 (:meth:`append` assigns them, :meth:`_recover`
        checks them), so the record with LSN *n* sits at index *n* - 1.
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

    # -------------------------------------------------------------- #
    # recovery
    # -------------------------------------------------------------- #
    def _recover(self) -> None:
        try:
            lines = self._path.read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise LogError(f"cannot recover log from {self._path}: {exc}") from exc
        expected = 1
        for line in lines:
            if not line.strip():
                continue
            record = LogRecord.from_json(line)
            if record.lsn != expected:
                raise LogError(
                    f"log recovery found LSN {record.lsn}, expected {expected}"
                )
            self._records.append(record)
            expected += 1
