"""The in-memory delta journal of every shipped view.

The :class:`JournalStore` is the one change history of a view: the
:class:`~repro.engine.views.ViewManager` keeps none, it only emits journal
events, and the shipper records those of every view it ships here.  Each view
keeps an LSN-ascending list of the :class:`ViewDelta` values its maintenance
flushes committed, held as the same values, and a **floor**: the LSN below
which its history is gone.  A replica that fell behind catches up from
``deltas_since(view, applied_lsn)`` instead of reloading the view.

Like the primary's log, stores and views, the journal lives in the serving
process: a new process rebuilds views from sources, possibly with other
content at the same LSN, so no history of an older process could be chained
onto them.

A from-scratch rebuild (:meth:`JournalStore.record_truncate`) empties the
view's history and raises its floor to the rebuild's LSN.  Compaction
(:meth:`JournalStore.truncate_below`) drops exactly the deltas every consumer
has applied and raises the floor to the last one dropped.  A consumer below
the floor gets an explicit :class:`~repro.errors.JournalGapError` instead of
a silently incomplete delta, and must resync from a snapshot.
"""

from __future__ import annotations

from repro.engine.views import ViewDelta
from repro.errors import JournalGapError, ServingError


class JournalStore:
    """Per-view committed deltas above a floor LSN, for a view fleet."""

    def __init__(self) -> None:
        self._deltas: dict[str, list[ViewDelta]] = {}
        self._floors: dict[str, int] = {}

    # -------------------------------------------------------------- #
    # recording (primary side)
    # -------------------------------------------------------------- #
    def append_delta(self, view_name: str, delta: ViewDelta) -> None:
        """Record one committed view delta."""
        if delta.is_empty():
            raise ServingError("refusing to journal an empty delta")
        self._deltas.setdefault(view_name, []).append(delta)
        self._floors.setdefault(view_name, 0)

    def record_truncate(self, view_name: str, lsn: int) -> None:
        """The view was rebuilt from scratch: drop history, raise the floor."""
        self._deltas[view_name] = []
        self._floors[view_name] = lsn

    def truncate_below(self, view_name: str, lsn: int) -> int:
        """Drop the deltas at or below *lsn*, which every consumer has applied.

        The floor rises to the last LSN dropped, so a consumer that fell
        behind the truncation point hits an explicit gap.  Returns the
        number of deltas dropped.
        """
        deltas = self._deltas.get(view_name, [])
        kept = [delta for delta in deltas if delta.last_lsn > lsn]
        dropped = len(deltas) - len(kept)
        if dropped:
            self._floors[view_name] = max(
                self._floors[view_name],
                max(delta.last_lsn for delta in deltas if delta.last_lsn <= lsn),
            )
            self._deltas[view_name] = kept
        return dropped

    # -------------------------------------------------------------- #
    # reading (replica side)
    # -------------------------------------------------------------- #
    def deltas_since(self, view_name: str, lsn: int) -> ViewDelta | None:
        """Net journaled delta after *lsn*, or ``None`` for an unknown view.

        Raises :class:`~repro.errors.JournalGapError` when history cannot
        reach back to *lsn* (truncated or compacted past it): the consumer
        must resync from a snapshot instead of trusting a partial delta.
        """
        floor = self._floors.get(view_name)
        if floor is None:
            return None
        if lsn < floor:
            raise JournalGapError(view_name, lsn, floor)
        merged = ViewDelta(first_lsn=lsn, last_lsn=lsn)
        for delta in self._deltas[view_name]:
            if delta.last_lsn > lsn:
                merged = merged.merge(delta)
        return merged

    def floor_lsn(self, view_name: str) -> int:
        """The LSN below which the view's history is unavailable."""
        return self._floors.get(view_name, 0)

    def high_water_mark(self, view_name: str) -> int:
        """The highest LSN with history (the floor when empty)."""
        deltas = self._deltas.get(view_name)
        return deltas[-1].last_lsn if deltas else self.floor_lsn(view_name)

    def view_names(self) -> list[str]:
        """Every view with journal state."""
        return sorted(self._floors)

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-view record counters for fleet introspection."""
        return {
            name: {
                "records": len(self._deltas[name]),
                "floor_lsn": self._floors[name],
                "high_water_mark": self.high_water_mark(name),
            }
            for name in self.view_names()
        }
