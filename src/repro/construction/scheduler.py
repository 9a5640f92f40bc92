"""Parallel construction scheduling (Section 2.4, Figure 5).

The paper's central construction claim is that source-specific processing is
*embarrassingly parallel* and fusion is the only synchronization point.  The
:class:`ParallelConstructionScheduler` realizes that claim over the staged
pipeline of :mod:`repro.construction.incremental`:

1. **Partition.**  Incoming :class:`~repro.model.delta.SourceDelta`\\ s are
   partitioned by source and entity-type block
   (:meth:`IncrementalConstructor.prepare` with ``plan=False``).
2. **Parallel prepare.**  The pre-fusion stages (blocking → pair generation →
   matching → clustering) of every block run concurrently on a bounded worker
   pool — the same lazily created, explicitly closed thread-pool pattern the
   view manager uses for parallel branch flushing.  Preparation reads a KG
   view materialized once per batch and mutates nothing: no identifiers are
   minted, no store or link-table writes happen.
3. **Fusion barrier.**  Deltas commit strictly in input order through
   :meth:`IncrementalConstructor.commit`.  Each block plan is validated
   against the :class:`CommittedState` accumulated by earlier commits; a plan
   whose KG view may have changed is replanned serially at the barrier.  KG
   identifiers are minted at commit time in deterministic order, so the
   parallel run's store, link table, and reports are **byte-identical** to a
   sequential run over the same payloads (a seeded property suite asserts
   this).

Per-source failures are isolated: a failing delta yields a report with its
``error`` field set, the remaining sources keep fusing (against a
conservatively poisoned validation state), and a
:class:`~repro.errors.ConstructionBatchError` carrying every report is raised
at the end.
"""

from __future__ import annotations

import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.construction.incremental import (
    BlockPlan,
    CommittedState,
    ConstructionReport,
    IncrementalConstructor,
    PreparedDelta,
)
from repro.errors import ConstructionBatchError, ConstructionError
from repro.model.delta import SourceDelta
from repro.model.entity import materialize_entities


def lpt_makespan(durations: Sequence[float], workers: int) -> float:
    """Longest-processing-time makespan of *durations* over *workers* bins.

    The standard greedy schedule bound used to model what a worker pool of the
    given size would make of the measured per-block preparation times — the
    CONSTRUCT benchmark reports speedups from this model alongside measured
    wall clock.
    """
    if not durations:
        return 0.0
    bins = [0.0] * max(int(workers), 1)
    for duration in sorted(durations, reverse=True):
        bins[bins.index(min(bins))] += duration
    return max(bins)


@dataclass
class BatchStats:
    """Measurements of one scheduler batch (exposed as ``last_batch``)."""

    deltas: int = 0
    blocks: int = 0
    plans_reused: int = 0
    plans_replanned: int = 0
    failures: int = 0
    workers: int = 1
    shared_view_seconds: float = 0.0   # one-off KG materialization for the batch
    block_seconds: list[float] = field(default_factory=list)
    prepare_wall_seconds: float = 0.0  # wall clock of the (possibly pooled) prepare phase
    barrier_seconds: float = 0.0       # serialized fusion commits
    wall_seconds: float = 0.0

    def prepare_cpu_seconds(self) -> float:
        """Total per-block preparation work (the parallelizable portion)."""
        return sum(self.block_seconds)

    def modeled_parallel_seconds(self, workers: int) -> float:
        """Modeled batch latency with *workers* preparing blocks in parallel."""
        return (
            self.shared_view_seconds
            + self.barrier_seconds
            + lpt_makespan(self.block_seconds, workers)
        )

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view for benchmark JSON summaries."""
        return {
            "deltas": self.deltas,
            "blocks": self.blocks,
            "plans_reused": self.plans_reused,
            "plans_replanned": self.plans_replanned,
            "failures": self.failures,
            "workers": self.workers,
            "shared_view_seconds": self.shared_view_seconds,
            "prepare_cpu_seconds": self.prepare_cpu_seconds(),
            "prepare_wall_seconds": self.prepare_wall_seconds,
            "barrier_seconds": self.barrier_seconds,
            "wall_seconds": self.wall_seconds,
        }


class ParallelConstructionScheduler:
    """Schedule batch construction: parallel pre-fusion, serialized fusion.

    ``max_workers`` bounds the prepare pool (``None`` or ``1`` prepares
    inline, which is also the mode benchmarks use to measure undisturbed
    per-block times); ``executor`` selects ``"thread"`` (bounded pool) or
    ``"serial"`` (always inline, regardless of ``max_workers``).  The pool is
    created lazily, reused across batches, and released by :meth:`close` /
    ``with`` — the executor lifecycle pattern of
    :class:`~repro.engine.views.ViewManager`.
    """

    def __init__(
        self,
        constructor: IncrementalConstructor,
        max_workers: int | None = None,
        executor: str = "thread",
    ) -> None:
        if executor not in ("thread", "serial"):
            raise ConstructionError(
                f"unknown construction executor {executor!r} (use 'thread' or 'serial')"
            )
        if max_workers is not None and max_workers <= 0:
            raise ConstructionError("construction max_workers must be positive")
        self.constructor = constructor
        self.max_workers = max_workers
        self.executor = executor
        self.batches = 0
        self.last_batch: BatchStats | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._pool_size = 0
        self._pool_lock = threading.Lock()

    # -------------------------------------------------------------- #
    # batch consumption
    # -------------------------------------------------------------- #
    def consume_many(
        self,
        deltas: Sequence[SourceDelta],
        on_commit: Callable[[ConstructionReport], None] | None = None,
        max_workers: int | None = None,
    ) -> list[ConstructionReport]:
        """Consume a batch of deltas: parallel prepare, ordered fusion barrier.

        *on_commit* is invoked with each successful report immediately after
        its fusion commit, inside the barrier — in deterministic commit order
        (the input order), which is where growth-history clocks are stamped.
        Raises :class:`~repro.errors.ConstructionBatchError` after the barrier
        when any delta failed; the error carries every report (failed ones
        with ``error`` set) so callers keep the surviving results.
        """
        deltas = list(deltas)
        workers = max_workers if max_workers is not None else self.max_workers
        stats = BatchStats(deltas=len(deltas), workers=workers or 1)
        batch_started = time.perf_counter()

        prepared = self._prepare_batch(deltas, workers, stats)
        reports, failures = self._commit_batch(prepared, on_commit, stats)

        stats.wall_seconds = time.perf_counter() - batch_started
        self.last_batch = stats
        self.batches += 1
        if failures:
            raise ConstructionBatchError(reports, failures)
        return reports

    # -------------------------------------------------------------- #
    # phases
    # -------------------------------------------------------------- #
    def _prepare_batch(
        self,
        deltas: Sequence[SourceDelta],
        workers: int | None,
        stats: BatchStats,
    ) -> list[PreparedDelta]:
        """Partition every delta and plan all blocks (pool or inline).

        The KG view is materialized at most once per batch from the live
        store — nothing mutates it until the barrier — and every block slices
        its typed view from that shared materialization, exactly the content
        the sequential path would read at batch start.  A batch with no block
        to plan (only deleted / volatile / known-updated partitions) never
        pays the materialization at all, matching the sequential paths.
        """
        constructor = self.constructor
        link_snapshot = dict(constructor.link_table)
        prepared = [
            constructor.prepare(delta, link_table=link_snapshot, plan=False)
            for delta in deltas
        ]
        blocks: list[BlockPlan] = [
            block for prep in prepared for block in prep.blocks()
        ]
        stats.blocks = len(blocks)
        if not blocks:
            return prepared

        started = time.perf_counter()
        entities = materialize_entities(constructor.store)
        stats.shared_view_seconds = time.perf_counter() - started

        def view_source(entity_types: Sequence[str]) -> list:
            return constructor.filter_entities(entities, entity_types)

        prepare_started = time.perf_counter()
        pool = self._prepare_pool(workers, len(blocks))
        if pool is None:
            for block in blocks:
                constructor.plan_block(block, view_source)
        else:
            # plan_block captures its own failures, so the futures only carry
            # programming errors — let those propagate.
            list(pool.map(lambda block: constructor.plan_block(block, view_source), blocks))
        stats.prepare_wall_seconds = time.perf_counter() - prepare_started
        stats.block_seconds = [block.prepare_seconds for block in blocks]
        return prepared

    def _commit_batch(
        self,
        prepared: Sequence[PreparedDelta],
        on_commit: Callable[[ConstructionReport], None] | None,
        stats: BatchStats,
    ) -> tuple[list[ConstructionReport], list[tuple[str, Exception]]]:
        """Commit every delta in input order through the fusion barrier."""
        state = CommittedState()
        reports: list[ConstructionReport] = []
        failures: list[tuple[str, Exception]] = []
        barrier_started = time.perf_counter()
        for prep in prepared:
            try:
                report = self.constructor.commit(prep.delta, prepared=prep, committed=state)
            except Exception as exc:  # noqa: BLE001 - per-source failure isolation
                report = ConstructionReport(
                    source_id=prep.delta.source_id,
                    timestamp=prep.delta.to_timestamp,
                    error=f"{type(exc).__name__}: {exc}",
                )
                failures.append((prep.delta.source_id, exc))
                # The failed commit may have fused part of its delta before
                # raising; nothing proves what it touched, so every remaining
                # plan must be replanned at its own commit.
                state.poison()
                stats.failures += 1
            else:
                if on_commit is not None:
                    on_commit(report)
            reports.append(report)
            stats.plans_reused += report.plans_reused
            stats.plans_replanned += report.plans_replanned
        stats.barrier_seconds = time.perf_counter() - barrier_started
        return reports, failures

    # -------------------------------------------------------------- #
    # executor lifecycle (the view-manager flush-pool pattern)
    # -------------------------------------------------------------- #
    def _prepare_pool(
        self, workers: int | None, task_count: int
    ) -> ThreadPoolExecutor | None:
        if self.executor != "thread" or workers is None or workers <= 1 or task_count <= 1:
            return None
        with self._pool_lock:
            if self._pool is not None and self._pool_size != workers:
                self._pool.shutdown(wait=True)
                self._pool = None
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="construct-prepare"
                )
                self._pool_size = workers
                # Reap the workers when the scheduler is collected, not at exit.
                weakref.finalize(self, self._pool.shutdown, wait=False)
            return self._pool

    def close(self) -> None:
        """Release the prepare pool (idempotent; recreated on demand)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __enter__(self) -> "ParallelConstructionScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
