"""Metadata store: replay watermarks and freshness queries (Section 3.1).

Every orchestration agent records the LSN of the latest operation it has
successfully replayed.  Consumers use these watermarks to determine whether a
store serves at least some minimum version of the KG before routing a query
to it.

Materialized views carry watermarks too — the log position their artifact
reflects — but in a separate namespace: view freshness must not drag down
:meth:`MetadataStore.minimum_watermark`, which answers "what KG version does
every *store* serve" regardless of which views happen to be materialized.

A third namespace tracks **replica applied-LSN watermarks**: the log
position each serving replica has applied shipped view deltas up to.  The
read router uses these to answer bounded-staleness and read-your-writes
reads; like view marks, replica marks must not drag down
:meth:`MetadataStore.minimum_watermark`.

A fourth namespace mirrors per-view **row-checksum digests**: a content
digest of the view's artifact rows stamped with the LSN it was computed at.
Anti-entropy audits record the digest they verified against so divergence
checks are observable with the same machinery as freshness.

A fifth namespace holds **serving metrics**: the latest snapshot a serving
component (the multi-tenant front door, per component name) mirrored of its
request counters, latency percentiles, and saturation gauges.  Snapshots are
free-form dicts — the metrics layer owns their shape — replaced wholesale on
every mirror so the store always answers with the freshest picture.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class WatermarkMap(dict):
    """Monotonic name → LSN map; the one freshness primitive every layer shares.

    Store replay progress, view build positions, and live-index feed versions
    all track "this consumer reflects the log up to LSN n" — same advance-if-
    greater, default-zero, lag-versus-head semantics.
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
    """Track per-store replay progress and arbitrary platform metadata."""

    watermarks: WatermarkMap = field(default_factory=WatermarkMap)
    view_marks: WatermarkMap = field(default_factory=WatermarkMap)
    replica_marks: WatermarkMap = field(default_factory=WatermarkMap)
    checksum_marks: dict[str, tuple[int, str]] = field(default_factory=dict)
    serving_marks: dict[str, dict] = field(default_factory=dict)
    annotations: dict[str, dict] = field(default_factory=dict)

    # -------------------------------------------------------------- #
    # watermarks
    # -------------------------------------------------------------- #
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

    # -------------------------------------------------------------- #
    # view watermarks
    # -------------------------------------------------------------- #
    def update_view_watermark(self, view_name: str, lsn: int) -> None:
        """Record that view *view_name* reflects the log up to *lsn*."""
        self.view_marks.advance(view_name, lsn)

    def view_watermark(self, view_name: str) -> int:
        """The log position *view_name*'s artifact reflects (0 when unknown)."""
        return self.view_marks.of(view_name)

    def clear_view_watermark(self, view_name: str) -> None:
        """Forget a view's watermark (the view was dropped or redefined)."""
        self.view_marks.pop(view_name, None)

    # -------------------------------------------------------------- #
    # replica applied-LSN watermarks
    # -------------------------------------------------------------- #
    def update_replica_watermark(self, replica_name: str, lsn: int) -> None:
        """Record that *replica_name* has applied shipped deltas up to *lsn*."""
        self.replica_marks.advance(replica_name, lsn)

    def replica_watermark(self, replica_name: str) -> int:
        """The applied-LSN watermark of *replica_name* (0 when unknown)."""
        return self.replica_marks.of(replica_name)

    def clear_replica_watermark(self, replica_name: str) -> None:
        """Forget a replica's watermarks (the replica left the fleet).

        Clears both the bare name and every ``{replica}/{view}`` composite
        entry the serving fleet writes, so a retired replica's per-view
        marks stop polluting :meth:`lagging_replicas`.
        """
        self.replica_marks.pop(replica_name, None)
        prefix = f"{replica_name}/"
        for key in [k for k in self.replica_marks if k.startswith(prefix)]:
            self.replica_marks.pop(key, None)

    def lagging_replicas(self, head_lsn: int) -> dict[str, int]:
        """Replicas behind *head_lsn* and how many log positions behind."""
        return self.replica_marks.lagging(head_lsn)

    # -------------------------------------------------------------- #
    # view row-checksum digests
    # -------------------------------------------------------------- #
    def update_view_checksum(self, view_name: str, lsn: int, digest: str) -> None:
        """Record the row-checksum *digest* of *view_name* computed at *lsn*.

        Unlike watermarks a digest is not monotonic — a newer computation
        (higher LSN) always replaces the recorded one; an older one is
        dropped so a slow audit cannot overwrite a fresher digest.
        """
        recorded = self.checksum_marks.get(view_name)
        if recorded is None or lsn >= recorded[0]:
            self.checksum_marks[view_name] = (lsn, digest)

    def view_checksum(self, view_name: str) -> tuple[int, str] | None:
        """The ``(lsn, digest)`` last recorded for *view_name* (None if never)."""
        return self.checksum_marks.get(view_name)

    def clear_view_checksum(self, view_name: str) -> None:
        """Forget a view's checksum digest (the view was dropped or redefined)."""
        self.checksum_marks.pop(view_name, None)

    # -------------------------------------------------------------- #
    # serving metrics snapshots
    # -------------------------------------------------------------- #
    def update_serving_metrics(self, component: str, snapshot: dict) -> None:
        """Replace the mirrored metrics snapshot of serving *component*.

        Unlike watermarks a snapshot is not monotonic — counters only grow,
        but gauges (queue depth, in-flight) move both ways — so the latest
        mirror always wins wholesale.
        """
        self.serving_marks[component] = dict(snapshot)

    def serving_metrics(self, component: str) -> dict:
        """The last metrics snapshot *component* mirrored (empty when never)."""
        return dict(self.serving_marks.get(component, {}))

    def clear_serving_metrics(self, component: str) -> None:
        """Forget a component's metrics snapshot (the component shut down)."""
        self.serving_marks.pop(component, None)

    # -------------------------------------------------------------- #
    # annotations
    # -------------------------------------------------------------- #
    def annotate(self, key: str, **values: object) -> None:
        """Attach free-form platform metadata under *key*."""
        self.annotations.setdefault(key, {}).update(values)

    def annotation(self, key: str) -> dict:
        """Return the metadata stored under *key* (empty dict when absent)."""
        return dict(self.annotations.get(key, {}))
