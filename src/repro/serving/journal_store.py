"""Persistent, segmented storage for per-view delta journals.

The :class:`JournalStore` is the one change history of a view: the
:class:`~repro.engine.views.ViewManager` keeps none, it only emits journal
events, and the shipper records those of every view it ships here.  Every
committed view delta is appended to an LSN-ascending, segmented journal held
by a pluggable backend — in-memory (tests, single-process fleets) or
fsync-able segment files on disk (cross-process serving catch-up).  A
restarted serving process replays ``deltas_since(view, last_applied_lsn)``
instead of rebuilding view artifacts from scratch.

Two record kinds follow the manager's journal events:

* ``delta`` — one scope-projected :class:`ViewDelta` a maintenance flush
  committed (entity ids plus the LSN range covered), held by the record as
  the same value, not re-shaped;
* ``truncate`` — the view was rebuilt from scratch; persisted history below
  the record's LSN is dropped and the floor advances (consumers below the
  floor must resync from a snapshot).

Compaction-aware truncation (:meth:`JournalStore.truncate_below`) removes
whole segments that every fleet consumer has already applied — it never
splits a segment, and it advances the floor so a consumer that somehow fell
behind the truncation point gets an explicit
:class:`~repro.errors.JournalGapError` instead of a silently incomplete
delta.  Per-view floors/revisions and per-replica applied-LSN checkpoints are
persisted through the same backend, so both sides of the catch-up protocol
survive a restart.
"""

from __future__ import annotations

import json
import os
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable
from urllib.parse import quote, unquote

from repro.engine.views import ViewDelta
from repro.errors import JournalGapError, ServingError


@dataclass(frozen=True)
class JournalRecord:
    """One durable journal entry of one view.

    A ``delta`` record holds the committed :class:`ViewDelta` itself; a
    ``truncate`` marker holds an empty delta at the LSN of the rebuild.
    """

    view_name: str
    kind: str                    # "delta" | "truncate"
    revision: int
    delta: ViewDelta = ViewDelta()

    def to_json(self) -> str:
        """Serialize the record to one JSON line."""
        delta = self.delta
        return json.dumps(
            {
                "view": self.view_name,
                "kind": self.kind,
                "revision": self.revision,
                "first_lsn": delta.first_lsn,
                "last_lsn": delta.last_lsn,
                "added": sorted(delta.added),
                "updated": sorted(delta.updated),
                "deleted": sorted(delta.deleted),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "JournalRecord":
        """Deserialize a record from :meth:`to_json` output."""
        data = json.loads(line)
        return cls(
            view_name=data["view"],
            kind=data["kind"],
            revision=int(data["revision"]),
            delta=ViewDelta(
                added=frozenset(data.get("added", ())),
                updated=frozenset(data.get("updated", ())),
                deleted=frozenset(data.get("deleted", ())),
                first_lsn=int(data.get("first_lsn", 0)),
                last_lsn=int(data.get("last_lsn", 0)),
            ),
        )


class JournalBackend(ABC):
    """Durability backend of a :class:`JournalStore` (segments + checkpoints)."""

    @abstractmethod
    def append_line(self, view_name: str, segment_id: int, line: str) -> None:
        """Append one serialized record to a view's segment."""

    @abstractmethod
    def list_segments(self, view_name: str) -> list[int]:
        """Segment ids of a view, ascending."""

    @abstractmethod
    def read_segment(self, view_name: str, segment_id: int) -> list[str]:
        """All serialized records of one segment, in append order."""

    @abstractmethod
    def drop_segments(self, view_name: str, segment_ids: Iterable[int]) -> None:
        """Remove the named segments of a view."""

    @abstractmethod
    def view_names(self) -> list[str]:
        """Every view with at least one stored segment."""

    @abstractmethod
    def write_checkpoint(self, name: str, payload: dict) -> None:
        """Durably replace the checkpoint stored under *name*."""

    @abstractmethod
    def read_checkpoint(self, name: str) -> dict | None:
        """The checkpoint stored under *name*, or ``None``."""

    @abstractmethod
    def drop_checkpoint(self, name: str) -> None:
        """Remove the checkpoint stored under *name* (no-op when absent)."""


class InMemoryJournalBackend(JournalBackend):
    """Dict-backed backend: survives as long as the object is shared.

    Tests and single-process fleets hand the same backend instance to a
    "restarted" store to model a disk that outlives the process.
    """

    def __init__(self) -> None:
        self._segments: dict[str, dict[int, list[str]]] = {}
        self._checkpoints: dict[str, dict] = {}

    def append_line(self, view_name: str, segment_id: int, line: str) -> None:
        self._segments.setdefault(view_name, {}).setdefault(segment_id, []).append(line)

    def list_segments(self, view_name: str) -> list[int]:
        return sorted(self._segments.get(view_name, {}))

    def read_segment(self, view_name: str, segment_id: int) -> list[str]:
        return list(self._segments.get(view_name, {}).get(segment_id, []))

    def drop_segments(self, view_name: str, segment_ids: Iterable[int]) -> None:
        segments = self._segments.get(view_name, {})
        for segment_id in list(segment_ids):
            segments.pop(segment_id, None)
        if not segments:
            self._segments.pop(view_name, None)

    def view_names(self) -> list[str]:
        return sorted(self._segments)

    def write_checkpoint(self, name: str, payload: dict) -> None:
        self._checkpoints[name] = json.loads(json.dumps(payload))

    def read_checkpoint(self, name: str) -> dict | None:
        payload = self._checkpoints.get(name)
        return json.loads(json.dumps(payload)) if payload is not None else None

    def drop_checkpoint(self, name: str) -> None:
        self._checkpoints.pop(name, None)


class FileJournalBackend(JournalBackend):
    """Segment files under a directory, one JSONL file per (view, segment).

    With ``fsync=True`` every append and checkpoint write is flushed to the
    OS *and* fsynced, giving crash durability at the cost of one syscall per
    record; the default only flushes (enough for process-restart durability,
    which is what the serving tests model).
    """

    def __init__(self, directory: str | Path, fsync: bool = False) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync

    @staticmethod
    def _safe(view_name: str) -> str:
        # '.' must be escaped too: it separates name from segment id in the
        # file name, and a view named 'a.b' must not shadow the segments of
        # a view named 'a' (unquote reverses %2E transparently).
        return quote(view_name, safe="").replace(".", "%2E")

    def _segment_path(self, view_name: str, segment_id: int) -> Path:
        return self.directory / f"{self._safe(view_name)}.{segment_id:06d}.journal"

    def _checkpoint_path(self, name: str) -> Path:
        return self.directory / f"{self._safe(name)}.checkpoint"

    def _write(self, path: Path, data: str, mode: str) -> None:
        try:
            with open(path, mode, encoding="utf-8") as handle:
                handle.write(data)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
        except OSError as exc:
            raise ServingError(f"cannot persist journal data to {path}: {exc}") from exc

    def append_line(self, view_name: str, segment_id: int, line: str) -> None:
        self._write(self._segment_path(view_name, segment_id), line + "\n", "a")

    def list_segments(self, view_name: str) -> list[int]:
        prefix = f"{self._safe(view_name)}."
        ids = []
        for path in self.directory.glob(f"{prefix}*.journal"):
            ids.append(int(path.name[len(prefix):].split(".")[0]))
        return sorted(ids)

    def read_segment(self, view_name: str, segment_id: int) -> list[str]:
        path = self._segment_path(view_name, segment_id)
        if not path.exists():
            return []
        return [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]

    def drop_segments(self, view_name: str, segment_ids: Iterable[int]) -> None:
        for segment_id in list(segment_ids):
            self._segment_path(view_name, segment_id).unlink(missing_ok=True)

    def view_names(self) -> list[str]:
        names = set()
        for path in self.directory.glob("*.journal"):
            names.add(unquote(path.name.rsplit(".", 2)[0]))
        return sorted(names)

    def write_checkpoint(self, name: str, payload: dict) -> None:
        self._write(self._checkpoint_path(name), json.dumps(payload, sort_keys=True), "w")

    def read_checkpoint(self, name: str) -> dict | None:
        path = self._checkpoint_path(name)
        if not path.exists():
            return None
        return json.loads(path.read_text(encoding="utf-8"))

    def drop_checkpoint(self, name: str) -> None:
        self._checkpoint_path(name).unlink(missing_ok=True)


class JournalStore:
    """Segmented, durably persisted delta journals for a view fleet.

    The store records the ``append`` / ``truncate`` events of
    every shipped view into the backend and answers "what changed since LSN
    *n*" (``deltas_since``) across process restarts.  A fresh store over a
    non-empty backend recovers every view's segments, floor, and revision
    before serving reads.
    """

    def __init__(self, backend: JournalBackend | None = None, segment_records: int = 64) -> None:
        if segment_records <= 0:
            raise ServingError("journal segments need room for at least one record")
        self.backend = backend if backend is not None else InMemoryJournalBackend()
        self.segment_records = segment_records
        self._segments: dict[str, list[tuple[int, list[JournalRecord]]]] = {}
        self._floors: dict[str, int] = {}
        self._revisions: dict[str, int] = {}
        self.appends = 0
        self.truncations = 0
        self.recovered_records = 0
        self._recover()

    # -------------------------------------------------------------- #
    # recording (primary side)
    # -------------------------------------------------------------- #
    def append_delta(self, view_name: str, revision: int, delta: ViewDelta) -> JournalRecord:
        """Persist one committed view delta; rolls segments when full."""
        if delta.is_empty():
            raise ServingError("refusing to persist an empty delta")
        if self._revisions.get(view_name, revision) != revision:
            # A new state lineage invalidates persisted history wholesale.
            self._drop_view(view_name)
        record = JournalRecord(view_name, "delta", revision, delta)
        self._append(record)
        self.appends += 1
        return record

    def record_truncate(self, view_name: str, revision: int, lsn: int) -> None:
        """The view was rebuilt from scratch: drop history, advance the floor."""
        self._drop_view(view_name)
        self._floors[view_name] = lsn
        self._revisions[view_name] = revision
        self._append(JournalRecord(
            view_name, "truncate", revision, ViewDelta(first_lsn=lsn, last_lsn=lsn)
        ))
        self.truncations += 1

    def truncate_below(self, view_name: str, lsn: int) -> int:
        """Drop whole segments every consumer at or past *lsn* has absorbed.

        Compaction-aware: only segments whose *entire* LSN range is at or
        below *lsn* are removed (a segment is never split), and the floor
        advances to the highest dropped LSN so a consumer that fell behind
        the truncation point hits an explicit gap.  Returns the number of
        segments dropped.
        """
        segments = self._segments.get(view_name, [])
        dropped: list[int] = []
        new_floor = self._floors.get(view_name, 0)
        keep_index = 0
        for index, (segment_id, records) in enumerate(segments):
            high = max((r.delta.last_lsn for r in records), default=0)
            # Never drop the last segment: appends continue into it.
            if high <= lsn and index < len(segments) - 1:
                dropped.append(segment_id)
                new_floor = max(new_floor, high)
                keep_index = index + 1
            else:
                break
        if not dropped:
            return 0
        self._segments[view_name] = segments[keep_index:]
        self._floors[view_name] = new_floor
        self.backend.drop_segments(view_name, dropped)
        self._save_meta(view_name)
        return len(dropped)

    # -------------------------------------------------------------- #
    # reading (replica side)
    # -------------------------------------------------------------- #
    def deltas_since(self, view_name: str, lsn: int) -> ViewDelta | None:
        """Net persisted delta after *lsn*, or ``None`` for an unknown view.

        Raises :class:`~repro.errors.JournalGapError` when persisted history
        cannot reach back to *lsn* (truncated or compacted past it) — the
        consumer must resync from a snapshot instead of trusting a partial
        delta.
        """
        if view_name not in self._revisions and view_name not in self._segments:
            return None
        floor = self._floors.get(view_name, 0)
        if lsn < floor:
            raise JournalGapError(view_name, lsn, floor)
        merged = ViewDelta(first_lsn=lsn, last_lsn=lsn)
        for _, records in self._segments.get(view_name, []):
            for record in records:
                if record.kind == "delta" and record.delta.last_lsn > lsn:
                    merged = merged.merge(record.delta)
        return merged

    def revision_of(self, view_name: str) -> int:
        """The state-lineage revision the persisted history belongs to."""
        return self._revisions.get(view_name, 0)

    def floor_lsn(self, view_name: str) -> int:
        """The LSN below which persisted history is unavailable."""
        return self._floors.get(view_name, 0)

    def high_water_mark(self, view_name: str) -> int:
        """The highest LSN with persisted history (floor when empty)."""
        high = self._floors.get(view_name, 0)
        for _, records in self._segments.get(view_name, []):
            for record in records:
                high = max(high, record.delta.last_lsn)
        return high

    def view_names(self) -> list[str]:
        """Every view with persisted journal state."""
        return sorted(set(self._segments) | set(self._revisions))

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-view segment/record counters for fleet introspection."""
        return {
            name: {
                "segments": len(self._segments.get(name, [])),
                "records": sum(len(r) for _, r in self._segments.get(name, [])),
                "floor_lsn": self._floors.get(name, 0),
                "high_water_mark": self.high_water_mark(name),
                "revision": self._revisions.get(name, 0),
            }
            for name in self.view_names()
        }

    # -------------------------------------------------------------- #
    # replica checkpoints
    # -------------------------------------------------------------- #
    def save_replica_checkpoint(
        self, replica_name: str, applied: dict[str, int], revisions: dict[str, int]
    ) -> None:
        """Durably record a replica's per-view applied LSNs and revisions."""
        self.backend.write_checkpoint(
            f"replica:{replica_name}",
            {"applied": dict(applied), "revisions": dict(revisions)},
        )

    def load_replica_checkpoint(self, replica_name: str) -> tuple[dict[str, int], dict[str, int]]:
        """A replica's persisted applied LSNs and revisions (empty when new)."""
        payload = self.backend.read_checkpoint(f"replica:{replica_name}")
        if payload is None:
            return {}, {}
        applied = {str(k): int(v) for k, v in payload.get("applied", {}).items()}
        revisions = {str(k): int(v) for k, v in payload.get("revisions", {}).items()}
        return applied, revisions

    def drop_replica_checkpoint(self, replica_name: str) -> None:
        """Forget a replica's checkpoint (the replica left the fleet)."""
        self.backend.drop_checkpoint(f"replica:{replica_name}")

    # -------------------------------------------------------------- #
    # internals
    # -------------------------------------------------------------- #
    @staticmethod
    def _meta_key(view_name: str) -> str:
        return f"view-meta:{view_name}"

    def _save_meta(self, view_name: str) -> None:
        self.backend.write_checkpoint(self._meta_key(view_name), {
            "floor_lsn": self._floors.get(view_name, 0),
            "revision": self._revisions.get(view_name, 0),
        })

    def _append(self, record: JournalRecord) -> None:
        segments = self._segments.setdefault(record.view_name, [])
        if not segments or len(segments[-1][1]) >= self.segment_records:
            next_id = segments[-1][0] + 1 if segments else 1
            segments.append((next_id, []))
        segment_id, records = segments[-1]
        try:
            self.backend.append_line(record.view_name, segment_id, record.to_json())
        except Exception:
            # The persisted history now silently misses this delta.  Poison
            # it: advance the floor past the record so a restarted consumer
            # hits an explicit gap (and resyncs) instead of trusting an
            # incomplete merge that would diverge it forever.
            self._floors[record.view_name] = max(
                self._floors.get(record.view_name, 0), record.delta.last_lsn
            )
            try:
                self._save_meta(record.view_name)
            except Exception:  # noqa: BLE001 - same broken disk; floor held in memory
                pass
            raise
        records.append(record)
        self._revisions[record.view_name] = record.revision
        self._save_meta(record.view_name)

    def _drop_view(self, view_name: str) -> None:
        segments = self._segments.pop(view_name, [])
        self.backend.drop_segments(view_name, [segment_id for segment_id, _ in segments])
        # Belt and braces: remove any on-backend segments this store never saw.
        self.backend.drop_segments(view_name, self.backend.list_segments(view_name))

    def _recover(self) -> None:
        for view_name in self.backend.view_names():
            segments: list[tuple[int, list[JournalRecord]]] = []
            for segment_id in self.backend.list_segments(view_name):
                records = [
                    JournalRecord.from_json(line)
                    for line in self.backend.read_segment(view_name, segment_id)
                ]
                segments.append((segment_id, records))
                self.recovered_records += len(records)
            if segments:
                self._segments[view_name] = segments
                self._revisions[view_name] = segments[-1][1][-1].revision if segments[-1][1] else 0
            meta = self.backend.read_checkpoint(self._meta_key(view_name))
            if meta is not None:
                self._floors[view_name] = int(meta.get("floor_lsn", 0))
                self._revisions[view_name] = int(
                    meta.get("revision", self._revisions.get(view_name, 0))
                )
