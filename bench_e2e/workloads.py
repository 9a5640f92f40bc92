"""The four workloads and how their metrics are computed.

A run is a few *rounds*, and every round walks the whole pipeline —
construct → flush → ship → serve:

* a cold ``ingest_batch`` of the four-source suite into a fresh platform
  (``bootstrap_eps``);
* freshness cycles: change → ``update_views`` → ``drain`` (``fresh_p50_ms``);
* closed-loop clients (``serve_qps``, ``serve_p50_ms``, ``serve_p95_ms``).

The workloads differ in which platform the last two stages run on and in the
requests (README.md has the table).  Rounds exist because this box's speed
wanders over seconds as well as over minutes: a metric whose samples all come
from one four-second stretch inherits that stretch's speed, one whose samples
are spread over the whole run does not.  Between the timed parts the run reads
the box's speed (``harness.Speedometer``), never inside one.

Work is fixed, not time: ``--seconds`` only scales the *counts* below, and a
seed fixes every request and delta, so the program's counters repeat exactly.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from bench_e2e import checks, harness, inputs, layers
from bench_e2e.tracing import NullTracer, Tracer
from repro import SagaPlatform
from repro.datagen.reference_kg import REFERENCE_SOURCE

WORKLOADS = ("construct", "serve_mix", "serve_paths", "serve_writes")

#: The ``run_seconds`` of BENCHMARK.json: at ``--seconds`` of this value the
#: counts below apply as written; other values scale the number of rounds.
RUN_SECONDS = 20

WRITE_PERIOD_S = 0.25       # the serve_writes writer's fixed 4 Hz schedule
WRITE_BATCH = 25            # subjects changed per publish cycle
READER_BLOCK = 200          # serve_writes reader: requests per same-mix block
WINDOW_S = 0.5              # serve_writes read metrics are medians over these
HIT_RATIO_BAND = (0.2, 0.4)
CHECKED_REQUESTS = 50       # requests compared against primary-side execution


@dataclass(frozen=True)
class Sizes:
    """How much work one run does (all counts; nothing here is a duration)."""

    construct_scale: float      # world every round's bootstrap ingests
    serve_scale: float          # world the serve workloads load with publish_store
    rounds: int
    cycles: int                 # freshness cycles per round
    segments: int               # measured serve segments per round (plus one warm-up)
    segment_requests: int       # per client and segment
    replay_requests: int        # traced run: requests replayed one layer down


# Three rounds, so ``bootstrap_eps`` is the median of 3 cold bootstraps.  The
# rest are README.md's floors (27+ segments, 400+ latency samples a segment,
# 12+ cycles) as far as the driver's time cap lets them go: a run is 20-25 s
# of wall time here when the box is quiet and half as much again when not.
_FULL = {
    "construct": Sizes(1.0, 0.0, 3, 4, 9, 260, 300),
    "serve_mix": Sizes(0.75, 6.0, 3, 20, 10, 260, 300),
    "serve_paths": Sizes(0.75, 6.0, 3, 20, 9, 50, 150),
    "serve_writes": Sizes(0.75, 6.0, 3, 21, 0, 0, 300),
}
_SMOKE = {
    "construct": Sizes(0.25, 0.0, 1, 3, 3, 40, 20),
    "serve_mix": Sizes(0.25, 0.5, 1, 3, 3, 40, 20),
    "serve_paths": Sizes(0.25, 0.5, 1, 3, 3, 20, 20),
    "serve_writes": Sizes(0.25, 0.5, 1, 6, 0, 0, 20),
}


def sizes_for(workload: str, seconds: float, smoke: bool) -> Sizes:
    """The counts for one run; ``--seconds`` scales the number of rounds."""
    base = (_SMOKE if smoke else _FULL)[workload]
    if smoke:
        return base
    rounds = max(1, round(base.rounds * seconds / RUN_SECONDS))
    return Sizes(**{**vars(base), "rounds": rounds})


@dataclass
class Result:
    """Everything one run reports."""

    workload: str
    seed: int
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)      # sample count per metric
    health: dict[str, object] = field(default_factory=dict)    # generator health
    counts: dict[str, int] = field(default_factory=dict)       # must repeat exactly per seed
    problems: list[str] = field(default_factory=list)          # correctness failures
    attempted: int = 0
    failed: int = 0
    trace_path: str = ""
    raw: dict[str, list] = field(default_factory=dict)          # every sample behind the medians
    box_speed: float = 1.0      # Speedometer.speed() over the run

    @property
    def correct(self) -> bool:
        return not self.problems


# ------------------------------------------------------------------ #
# statistics
# ------------------------------------------------------------------ #
def _segment_values(latencies_s: list[float], qps: float) -> tuple:
    ordered = sorted(latencies_s)
    return (
        qps,
        harness.percentile(ordered, 0.50) * 1000.0,
        harness.percentile(ordered, 0.95) * 1000.0,
        len(ordered),
    )


def fixed_time_windows(log: harness.ClientLog, started_at: float, ended_at: float):
    """Per-window (qps, p50 ms, p95 ms, samples) over whole WINDOW_S windows,
    skipping the first (the reader's caches are cold in it)."""
    windows = int((ended_at - started_at) / WINDOW_S)
    buckets: list[list[float]] = [[] for _ in range(windows)]
    completed = [0] * windows
    for done_at, latency in zip(log.done_at, log.latency_s):
        index = int((done_at - started_at) / WINDOW_S)
        if index < windows:
            completed[index] += 1
            if latency != harness.NOT_A_SAMPLE:
                buckets[index].append(latency)
    return [
        _segment_values(bucket, count / WINDOW_S)
        for bucket, count in list(zip(buckets, completed))[1:]
        if bucket
    ]


def _serve_metrics(result: Result, values) -> None:
    result.end_to_end["serve_qps"] = statistics.median(v[0] for v in values)
    result.end_to_end["serve_p50_ms"] = statistics.median(v[1] for v in values)
    result.end_to_end["serve_p95_ms"] = statistics.median(v[2] for v in values)
    for name in ("serve_qps", "serve_p50_ms", "serve_p95_ms"):
        result.samples[name] = len(values)
    per_segment = statistics.median_low(v[3] for v in values)
    result.health["segments_kept"] = len(values)
    result.health["latency_samples_per_segment"] = per_segment
    result.health["samples_beyond_p95"] = per_segment - math.ceil(0.95 * per_segment)


class _Timed:
    """Seconds spent inside each timed phase; everything else is set-up."""

    def __init__(self) -> None:
        self.by_phase: dict[str, float] = {}

    @contextmanager
    def phase(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            took = time.perf_counter() - started
            self.by_phase[name] = self.by_phase.get(name, 0.0) + took


# ------------------------------------------------------------------ #
# the run
# ------------------------------------------------------------------ #
class _Run:
    """What one run's set-up, rounds and report share."""

    def __init__(self, workload: str, seed: int, sizes: Sizes, trace: bool, smoke: bool) -> None:
        self.workload, self.seed, self.sizes, self.smoke = workload, seed, sizes, smoke
        self.tracer = Tracer() if trace else NullTracer()
        self.ops = harness.Ops()
        self.timed = _Timed()
        self.meter = harness.Speedometer()
        self.result = Result(workload, seed)
        self.write_stats = harness.IngestStats()
        self.serving: harness.Serving | None = None
        self.generator = inputs.path_requests if workload == "serve_paths" else inputs.mix_requests
        # the samples behind the end-to-end metrics
        self.bootstrap_eps: list[float] = []
        self.consume_seconds: list[float] = []
        self.round_setup_s: list[float] = []
        self.fresh_ms: list[float] = []
        self.late_ms: list[float] = []
        self.serve_values: list[tuple] = []
        # what the checks look at: the last round's logs and requests
        self.changed_subjects: list[str] = []
        self.logs: list[harness.ClientLog] = []
        self.round_requests: list[list] = []

    # ---- set-up, before any clock ------------------------------------- #
    def load(self) -> None:
        """Generate every input; the serve workloads also load the KG all
        their rounds serve."""
        sizes, meter = self.sizes, self.meter
        meter.read()
        self.snapshots = inputs.source_snapshots(
            inputs.make_world(sizes.construct_scale), self.seed,
            sizes.cycles if self.workload == "construct" else 0,
        )
        self.source_entities = sum(len(entities) for _, entities in self.snapshots[0])
        if self.workload == "construct":
            return
        store = inputs.serving_store(inputs.make_world(sizes.serve_scale))
        meter.read()
        platform = SagaPlatform()
        platform.graph_engine.publish_store(store, source_id=REFERENCE_SOURCE)
        meter.read()
        self.serving = harness.start_serving(platform, store)
        meter.read()
        profile_rows = platform.graph_engine.view_artifact("entity_profile")
        # One batch per cycle, then one per round for serve_writes to settle on.
        self.batches = inputs.write_batches(
            sorted(store.subjects()), self.seed, sizes.rounds * (sizes.cycles + 1), WRITE_BATCH
        )
        if self.workload == "serve_writes":
            # More requests than the reader can finish before the writer does.
            round_blocks = int(sizes.cycles * WRITE_PERIOD_S * 30)
            self.per_round = round_blocks * READER_BLOCK
            self.requests = [
                self.generator(profile_rows, self.seed, 0, round_blocks * sizes.rounds,
                               READER_BLOCK)
            ]
        else:
            # One warm-up segment a round, then the measured ones.
            self.per_round = (sizes.segments + 1) * sizes.segment_requests
            self.requests = [
                self.generator(profile_rows, self.seed, client,
                               sizes.rounds * (sizes.segments + 1), sizes.segment_requests)
                for client in range(len(harness.TENANTS))
            ]
        # A deployment freezes what it loaded once: without this, every full
        # collection walks the whole serving KG (0.3-0.6 s here) and lands in
        # whichever bootstrap, cycle or segment happens to be running.
        gc.collect()
        gc.freeze()

    # ---- the rounds ------------------------------------------------------ #
    def bootstrap(self, round_index: int) -> SagaPlatform:
        """construct: a cold bootstrap of the four-source suite."""
        self.meter.read()
        with self.timed.phase("bootstrap"):
            platform, took, stats = harness.bootstrap(
                self.snapshots[0], self.tracer, self.ops, f"bootstrap/{round_index}"
            )
        self.meter.read()
        self.bootstrap_eps.append(self.source_entities / took)
        self.consume_seconds.append(stats.consume_s)
        self.write_stats.add(stats)
        return platform

    def construct_round(self, round_index: int, platform: SagaPlatform) -> None:
        """Serve the KG the bootstrap just built: delta cycles, then the mix."""
        sizes = self.sizes
        if self.serving is not None:
            self.serving.stop()
        started = time.perf_counter()
        platform.graph_engine.register_standard_views()
        self.serving = harness.start_serving(platform)
        self.round_setup_s.append(time.perf_counter() - started)
        for cycle, snapshot in enumerate(self.snapshots[1:], start=round_index * sizes.cycles):
            self.meter.read()
            with self.timed.phase("fresh"):
                took_ms, stats = harness.ingest_cycle(
                    self.serving, snapshot, self.tracer, self.ops, f"cycle/{cycle}"
                )
            self.fresh_ms.append(took_ms)
            self.write_stats.add(stats)
            self.changed_subjects = stats.touched
        started = time.perf_counter()
        profile_rows = platform.graph_engine.view_artifact("entity_profile")
        self.round_requests = [
            self.generator(profile_rows, self.seed * 100 + round_index, client,
                           sizes.segments + 1, sizes.segment_requests)
            for client in range(len(harness.TENANTS))
        ]
        self.round_setup_s[-1] += time.perf_counter() - started
        self._serve_segments()

    def _slice_round(self, round_index: int) -> list:
        """This round's requests and write batches, cut from the run's."""
        first = round_index * self.per_round
        self.round_requests = [
            client_requests[first:first + self.per_round] for client_requests in self.requests
        ]
        first = round_index * self.sizes.cycles
        batches = self.batches[first:first + self.sizes.cycles]
        self.changed_subjects += [subject for batch in batches for subject, _ in batch[:2]]
        return batches

    def serve_round(self, round_index: int) -> None:
        """serve_mix, serve_paths: publish cycles with idle readers, then serve."""
        store = self.serving.source_store
        first = round_index * self.sizes.cycles
        for cycle, batch in enumerate(self._slice_round(round_index), start=first):
            harness.apply_write_batch(store, batch)
            self.meter.read()
            with self.timed.phase("fresh"):
                started = time.perf_counter()
                harness.publish_cycle(self.serving, batch, self.tracer, self.ops, f"cycle/{cycle}")
                self.fresh_ms.append((time.perf_counter() - started) * 1000.0)
        self._serve_segments()

    def _serve_segments(self) -> None:
        """A warm-up segment, then the measured ones: each an equal slice of
        every client's requests, the clients starting it together."""
        per_segment = self.sizes.segment_requests
        self.logs = [harness.ClientLog() for _ in self.round_requests]
        gc.collect()
        for segment in range(self.sizes.segments + 1):
            first = segment * per_segment
            self.meter.read()
            with self.timed.phase("serve"):
                started_at, ended_at = harness.run_clients(
                    self.serving,
                    [requests[first:first + per_segment] for requests in self.round_requests],
                    self.logs, self.tracer, self.ops,
                )
            if segment:
                latencies = [
                    value for log in self.logs for value in log.latency_s[first:]
                    if value != harness.NOT_A_SAMPLE
                ]
                rate = per_segment * len(self.logs) / (ended_at - started_at)
                self.serve_values.append(_segment_values(latencies, rate))
        self.meter.read()

    def writes_round(self, round_index: int) -> None:
        """serve_writes: a reader client against the 4 Hz writer thread."""
        batches = self._slice_round(round_index)
        first_cycle = round_index * self.sizes.cycles
        serving, tracer = self.serving, self.tracer
        writer_ops = harness.Ops()      # the writer thread keeps its own ledger
        writer_done = threading.Event()
        failure: list[BaseException] = []
        ended_at = [0.0]
        self.logs = [harness.ClientLog()]

        def writer() -> None:
            try:
                started = time.perf_counter()
                for cycle, batch in enumerate(batches):
                    due = started + cycle * WRITE_PERIOD_S
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    self.late_ms.append(max(0.0, (time.perf_counter() - due) * 1000.0))
                    harness.apply_write_batch(serving.source_store, batch)
                    harness.publish_cycle(
                        serving, batch, tracer, writer_ops, f"cycle/{first_cycle + cycle}"
                    )
                    # Open loop: freshness counts from when the change was due.
                    self.fresh_ms.append((time.perf_counter() - due) * 1000.0)
            except BaseException as exc:      # re-raised on the main thread below
                failure.append(exc)
            finally:
                ended_at[0] = time.perf_counter()
                writer_done.set()

        gc.collect()
        thread = threading.Thread(target=writer, name="bench-writer")
        self.meter.read()
        with self.timed.phase("serve"):
            thread.start()
            try:
                started_at, _ = harness.run_clients(
                    serving, self.round_requests, self.logs, tracer, self.ops, stop=writer_done
                )
            finally:
                thread.join()
        self.meter.read()
        if failure:
            raise failure[0]
        self.ops.attempted += writer_ops.attempted
        self.ops.failed += writer_ops.failed
        self.result.health["reader_ran_out"] = (
            len(self.logs[0].done_at) == len(self.round_requests[0])
        )
        # The door drops a view's result caches when the primary commits, but
        # a read that lands before the replicas apply the delta caches the
        # rows of the version before (README.md, "Correctness").  The round
        # ends with one more write with no reader running, which leaves the
        # caches empty and every replica current: from here on a stale
        # result is a failure.
        settle = self.batches[self.sizes.rounds * self.sizes.cycles + round_index]
        harness.apply_write_batch(serving.source_store, settle)
        harness.publish_cycle(serving, settle, NullTracer(), self.ops, None)     # not a sample
        self.changed_subjects += [subject for subject, _ in settle[:2]]
        self.serve_values += fixed_time_windows(self.logs[0], started_at, ended_at[0])

    # ---- the report ------------------------------------------------------- #
    def close_metrics(self, setup_once_s: float) -> None:
        """The end-to-end metrics, from the samples the rounds left."""
        result = self.result
        result.raw = {
            "bootstrap_eps": self.bootstrap_eps, "fresh_ms": self.fresh_ms,
            "late_ms": self.late_ms, "segments": self.serve_values,
            "round_setup_s": self.round_setup_s, "kernel_s": self.meter.readings,
        }
        result.box_speed = self.meter.speed()
        result.end_to_end["bootstrap_eps"] = statistics.median(self.bootstrap_eps)
        result.end_to_end["fresh_p50_ms"] = statistics.median(self.fresh_ms)
        _serve_metrics(result, self.serve_values)
        # Set-up done once, plus the median of what each round repeats.
        result.end_to_end["setup_s"] = setup_once_s + (
            statistics.median(self.round_setup_s) if self.round_setup_s else 0.0
        )
        result.end_to_end["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        result.samples.update(
            bootstrap_eps=len(self.bootstrap_eps), fresh_p50_ms=len(self.fresh_ms),
            setup_s=max(1, len(self.round_setup_s)), peak_rss_mb=1,
        )
        health = result.health
        health["box_speed"] = round(result.box_speed, 4)
        health["speed_readings"] = len(self.meter.readings)
        health["phase_seconds"] = {
            name: round(took, 3) for name, took in self.timed.by_phase.items()
        }
        if self.late_ms:
            health["writer_late_ms_p50"] = round(statistics.median(self.late_ms), 3)
            health["writer_late_ms_max"] = round(max(self.late_ms), 3)

    def check_and_count(self) -> dict[str, float]:
        """Counts, generator health and the correctness checks; returns the
        layers' counters as they stood when the last timed phase ended."""
        result, workload = self.result, self.workload
        engine = self.serving.platform.graph_engine
        counters = layers.read_counters(self.serving, self.write_stats)
        # Hit ratio and counts describe the last round's measured requests;
        # every round is alike.
        measured_from = self.sizes.segment_requests     # 0 on serve_writes: no warm-up segment
        kgq = [
            hit
            for log in self.logs
            for hit, latency in zip(log.from_cache[measured_from:], log.latency_s[measured_from:])
            if latency != harness.NOT_A_SAMPLE
        ]
        hit_ratio = sum(kgq) / len(kgq)
        result.health["result_cache_hit_ratio"] = round(hit_ratio, 4)
        if workload == "serve_mix" and not self.smoke:
            low, high = HIT_RATIO_BAND
            result.health["hit_ratio_in_band"] = low <= hit_ratio <= high
        result.counts["source_entities"] = self.source_entities
        result.counts["kg_entities"] = engine.triples.entity_count()
        result.counts["kg_facts"] = engine.triples.fact_count()
        if workload != "serve_writes":      # there the reader's count follows the clock
            result.counts["kgq_requests"] = len(kgq)
            result.counts["result_cache_hits"] = sum(kgq)
            result.counts.update(
                (name, value) for name, value in counters.items() if isinstance(value, int)
            )

        # Primary-side copies of the final artifacts; the traced replay reuses them.
        self.primary = checks.Primary(engine)
        result.problems += checks.compare_with_primary(
            self.serving, self.primary, self.round_requests[0], self.seed, CHECKED_REQUESTS,
            self.ops, result.health,
        )
        result.problems += checks.replicas_match_primary(self.serving, self.changed_subjects)
        if workload != "construct" and counters["views.full_rebuilds"]:
            result.problems.append(
                f"{counters['views.full_rebuilds']} full view rebuilds on a delta-only workload"
            )
        if self.ops.failed:
            result.problems.append(
                f"{self.ops.failed} of {self.ops.attempted} operations failed"
            )
        return counters


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    process_started: float,
    out_dir: str,
) -> Result:
    """Run one workload end to end and return its report."""
    sizes = sizes_for(workload, seconds, smoke)
    run = _Run(workload, seed, sizes, trace, smoke)
    result = run.result
    try:
        run.load()
        setup_once_s = time.perf_counter() - process_started
        for round_index in range(sizes.rounds):
            platform = run.bootstrap(round_index)
            if workload == "construct":
                run.construct_round(round_index, platform)
                continue
            del platform        # the serve workloads measure a bootstrap and move on
            if workload == "serve_writes":
                run.writes_round(round_index)
            else:
                run.serve_round(round_index)
        run.close_metrics(setup_once_s)
        counters = run.check_and_count()
        if trace:       # per-layer metrics: the traced run only
            result.per_layer = layers.collect(
                run.serving, run.primary, run.tracer, counters, run.logs, run.round_requests[0],
                sizes.replay_requests, run.consume_seconds, result.health,
            )
            result.trace_path = f"{out_dir}/trace-{workload}.json"
            run.tracer.write(result.trace_path)
    finally:
        if run.serving is not None:
            run.serving.stop()
        gc.unfreeze()
    result.attempted, result.failed = run.ops.attempted, run.ops.failed
    return result
