"""Metadata store: replay watermarks and freshness queries (Section 3.1).

Every orchestration agent records the LSN of the latest operation it has
successfully replayed.  Consumers use these watermarks to determine whether a
store serves at least some minimum version of the KG before routing a query
to it.

Store replay watermarks are the only thing kept here.  Every other freshness
fact is read from the object that owns it: a view's build position from the
view manager, a replica's applied LSN from the replica, an audited digest
from the anti-entropy auditor's last report (``docs/architecture.md`` has the
table).
"""

from __future__ import annotations

from dataclasses import dataclass, field


class WatermarkMap(dict):
    """Monotonic name → LSN map; the one freshness primitive every layer shares.

    Store replay progress and live-index feed versions (a replica's applied
    positions are its index's view feeds) all track "this consumer reflects
    the log up to LSN n" — same advance-if-greater, default-zero,
    lag-versus-head semantics.  A whole-feed replacement sets its entry.
    """

    def advance(self, name: str, lsn: int) -> None:
        """Record that *name* reached *lsn*; watermarks never move backwards."""
        if lsn > self.get(name, 0):
            self[name] = lsn

    def of(self, name: str) -> int:
        """The LSN *name* has reached (0 when unknown)."""
        return self.get(name, 0)

    def lagging(self, head_lsn: int) -> dict[str, int]:
        """Entries behind *head_lsn* and how many log positions behind."""
        return {
            name: head_lsn - lsn for name, lsn in self.items() if lsn < head_lsn
        }


@dataclass
class MetadataStore:
    """Per-store replay progress: which KG version each store serves."""

    watermarks: WatermarkMap = field(default_factory=WatermarkMap)

    def update_watermark(self, store_name: str, lsn: int) -> None:
        """Record that *store_name* has replayed operations up to *lsn*."""
        self.watermarks.advance(store_name, lsn)

    def watermark(self, store_name: str) -> int:
        """Return the replay watermark of *store_name* (0 when unknown)."""
        return self.watermarks.of(store_name)

    def minimum_watermark(self) -> int:
        """The KG version every registered store has reached."""
        if not self.watermarks:
            return 0
        return min(self.watermarks.values())

    def is_fresh(self, store_name: str, required_lsn: int) -> bool:
        """Whether *store_name* serves at least KG version *required_lsn*."""
        return self.watermark(store_name) >= required_lsn

    def lagging_stores(self, head_lsn: int) -> dict[str, int]:
        """Stores behind *head_lsn* and how far behind they are."""
        return self.watermarks.lagging(head_lsn)
