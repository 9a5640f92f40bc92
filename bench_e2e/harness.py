"""Platform set-up and the timed phases, over SagaPlatform's public API.

The phases are the building blocks of every workload (see workloads.py):

* :func:`bootstrap` — cold ``ingest_batch`` of the four-source suite;
* :func:`ingest_cycle` / :func:`publish_cycle` — one freshness cycle: hand a
  change to the platform, flush the views, drain the fleet;
* :func:`run_clients` — closed-loop clients replaying a pre-generated
  request list (front-door KGQ, routed point reads, cross-view joins).

With a :class:`~bench_e2e.tracing.Tracer` the write path is composed from the
same public calls ``SagaPlatform.ingest_batch`` makes, one span per layer.
"""

from __future__ import annotations

import asyncio
import gc
import math
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from functools import partial

from repro import SagaPlatform
from repro.engine.views import JoinInput, JoinViewDefinition, ViewDefinition, ViewDelta
from repro.errors import ConstructionBatchError, SagaError
from repro.model.triples import ExtendedTriple

SERVED_VIEWS = ("entity_profile", "kg_edges", "song_artist")
TENANTS = ("client-0", "client-1")
NUM_REPLICAS = 3

# Relationship predicates kg_edges carries (object values are entity ids).
EDGE_PREDICATES = (
    "part_of", "performed_by", "part_of_album", "record_label", "birth_place",
    "located_in", "spouse", "plays_for", "headquarters", "venue", "directed_by",
    "mayor", "capital", "head_of_state", "track",
)
_PROFILE_FACTS = ("popularity", "population", "duration_seconds", "genre", "release_date")

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / (1024 * 1024)


def current_rss_mb() -> float:
    """Resident set size right now (not the peak), from /proc/self/statm."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * _PAGE_MB


class Speedometer:
    """Reads how fast the box is, between the timed parts of a run.

    This box slows down by a quarter to a half for minutes at a time, and a
    whole run with it: more than any change a benchmark is asked to resolve.
    ``read()`` times a fixed pure-Python kernel that does what the program
    mostly does, interpreter arithmetic and dictionary lookups over more
    memory than the core's own cache holds.  It shares no code with the
    program, so a change to the program cannot move it.  Workloads call it
    before and after every bootstrap, freshness cycle and serve segment, never
    inside one.  ``speed()`` is the reference reading over the run's mean
    reading: 1.0 on the reference box, below 1 when this run had a slower
    one.  Timings are reported times ``speed()`` and rates divided by it,
    next to the values as measured.
    """

    ARITHMETIC = 40_000
    ENTRIES = 50_000
    LOOKUPS = 5_000         # a tenth of the table a reading, each reading the next tenth
    #: The kernel's time on this box when nothing else loads it.  It only
    #: fixes the unit: both sides of a comparison share it.
    REFERENCE_S = 0.0036

    def __init__(self) -> None:
        self.readings: list[float] = []
        self._table = {f"entity:{index}": index for index in range(self.ENTRIES)}
        self._keys = list(self._table)
        random.Random(0).shuffle(self._keys)

    def read(self) -> None:
        first = len(self.readings) * self.LOOKUPS % self.ENTRIES
        keys = self._keys[first:first + self.LOOKUPS]
        table = self._table
        total = 0
        # Thread CPU time: a reading is not the wait for a core.
        started = time.thread_time()
        for value in range(self.ARITHMETIC):
            total += value * value
        for key in keys:
            total += table[key]
        self.readings.append(time.thread_time() - started)

    def speed(self) -> float:
        return self.REFERENCE_S / statistics.fmean(self.readings)


@dataclass
class Ops:
    """Operations attempted and failed; a refused, shed, errored or stale
    request, a ``ConstructionReport.error`` and a ``drain`` timeout all fail."""

    attempted: int = 0
    failed: int = 0


@dataclass
class Serving:
    """A platform serving the three views through a fleet and a front door."""

    platform: SagaPlatform
    fleet: object
    door: object
    replica_rss_mb: float
    source_store: object = None     # the store publish_cycle publishes from

    def stop(self) -> None:
        self.platform.stop_serving_fleet()
        self.platform.graph_engine.view_manager.close()


# ------------------------------------------------------------------ #
# served views
# ------------------------------------------------------------------ #
def register_served_views(engine) -> None:
    """``entity_profile`` and ``kg_edges`` (apply_delta row views) and the
    two-input join view ``song_artist``, all over the engine's own stores."""
    triples = engine.triples

    def profile_row(subject: str) -> dict:
        row = {
            "subject": subject,
            "name": str(triples.value_of(subject, "name") or ""),
            "types": [str(triples.value_of(subject, "type") or "")],
            "fact_count": len(triples.facts_about(subject)),
        }
        for predicate in _PROFILE_FACTS:
            value = triples.value_of(subject, predicate)
            if value is not None:
                row[predicate] = value
        return row

    def edges_row(subject: str) -> dict:
        row = {
            "subject": subject,
            "name": str(triples.value_of(subject, "name") or ""),
            "types": [str(triples.value_of(subject, "type") or "")],
        }
        for predicate in EDGE_PREDICATES:
            targets = sorted(
                value for value in triples.values_of(subject, predicate)
                if isinstance(value, str)
            )
            if targets:
                row[predicate] = targets
        return row

    def row_view(name: str, row_of, description: str) -> None:
        def create(context):
            return {subject: row_of(subject) for subject in sorted(triples.subjects())}

        def apply_delta(context, delta: ViewDelta):
            artifact = dict(context.artifact(name))
            for subject in delta.changed:
                artifact[subject] = row_of(subject)
            for subject in delta.deleted:
                artifact.pop(subject, None)
            return artifact

        engine.register_view(ViewDefinition(
            name, "analytics", create=create, apply_delta=apply_delta,
            description=description,
        ))

    row_view("entity_profile", profile_row, "typed per-entity rows with fact_count")
    row_view("kg_edges", edges_row, "one row per entity carrying its relationship predicates")

    analytics = engine.analytics

    def song_rows(context, ids):
        rows = analytics.entity_rows(
            "song", ["name", "performed_by", "genre", "popularity"], ids
        )
        for row in rows:
            # The join key must be one hashable value; fusion may leave a
            # song with several performers or none.
            performers = row.get("performed_by")
            if isinstance(performers, list):
                performers = min(map(str, performers))
            row["performed_by"] = performers or ""
        return rows

    def artist_rows(context, ids):
        return [
            {
                "subject": row["subject"],
                "artist_id": row["subject"],
                "artist_name": row.get("name"),
                "artist_label": row.get("record_label"),
            }
            for row in analytics.entity_rows("music_artist", ["name", "record_label"], ids)
        ]

    engine.register_view(JoinViewDefinition(
        "song_artist",
        JoinInput("songs", "performed_by", song_rows),
        JoinInput("artists", "artist_id", artist_rows),
        how="left",
        description="songs joined to their performing artist",
    ))


def start_serving(platform: SagaPlatform, source_store=None) -> Serving:
    """Materialise every registered view, ship the served ones to a 3-replica
    fleet, and open a front door with one tenant per client."""
    engine = platform.graph_engine
    register_served_views(engine)
    engine.materialize_views()
    rss_before = current_rss_mb()
    fleet = platform.start_serving_fleet(views=SERVED_VIEWS, num_replicas=NUM_REPLICAS)
    if not fleet.drain(timeout=60.0):
        raise RuntimeError("the fleet did not drain its initial snapshots")
    replica_rss_mb = current_rss_mb() - rss_before
    door = platform.start_front_door(max_concurrency=len(TENANTS))
    for tenant in TENANTS:
        # Whole-KG tenants with a rate limit admission never reaches.
        door.registry.register(tenant, views=SERVED_VIEWS, rate=1e9, burst=1e9)
    return Serving(platform, fleet, door, replica_rss_mb, source_store)


# ------------------------------------------------------------------ #
# the write path
# ------------------------------------------------------------------ #
@dataclass
class IngestStats:
    """Counters one ``ingest`` call read from the reports it got back."""

    entities_in: int = 0
    linked_added: int = 0
    facts_added: int = 0
    plans_replanned: int = 0
    consume_s: float = 0.0
    touched: list[str] = field(default_factory=list)    # a few changed subjects, to re-read

    def add(self, other: "IngestStats") -> None:
        for name in vars(self):
            setattr(self, name, getattr(self, name) + getattr(other, name))


def ingest(platform: SagaPlatform, snapshots, tracer, ops: Ops, request_id) -> IngestStats:
    """``platform.ingest_batch(snapshots)``; traced, the same three public
    calls it is made of, one span each."""
    ops.attempted += len(snapshots)
    stats = IngestStats(entities_in=sum(len(entities) for _, entities in snapshots))
    try:
        if not tracer.enabled:
            reports = platform.ingest_batch(snapshots)
        else:
            with tracer.span("ingestion.run", request_id):
                results = [
                    platform.ingestion.get(source_id).run_entities(entities)
                    for source_id, entities in snapshots
                ]
            consume_started = time.perf_counter()
            try:
                with tracer.span("construction.consume", request_id):
                    reports = platform.construction.consume_many(results)
            finally:
                stats.consume_s = time.perf_counter() - consume_started
            with tracer.span("engine.publish", request_id):
                for report in reports:
                    delta = report.entity_delta
                    platform.graph_engine.publish_subjects(
                        platform.construction.store,
                        [*delta.added, *delta.updated],
                        source_id=report.source_id,
                        deleted_subjects=delta.deleted,
                        added_subjects=delta.added,
                    )
    except ConstructionBatchError as exc:
        reports = exc.reports
    for report in reports:
        if report.error is not None:
            ops.failed += 1
        stats.linked_added += report.linked_added
        stats.facts_added += report.fusion.facts_added
        stats.plans_replanned += report.plans_replanned
        stats.touched += [*report.entity_delta.added, *report.entity_delta.updated][:3]
    return stats


def bootstrap(snapshot, tracer, ops: Ops, request_id) -> tuple[SagaPlatform, float, IngestStats]:
    """Cold-ingest the four-source suite into a fresh platform; returns the
    platform, the seconds ``ingest_batch`` took and its counters."""
    platform = SagaPlatform()
    for source_id, _ in snapshot:
        platform.register_source(source_id)
    gc.collect()
    started = time.perf_counter()
    with tracer.span("bootstrap", request_id):
        stats = ingest(platform, snapshot, tracer, ops, request_id)
    return platform, time.perf_counter() - started, stats


def _flush_and_drain(serving: Serving, tracer, ops: Ops, request_id) -> None:
    with tracer.span("views.flush", request_id):
        serving.platform.graph_engine.update_views()
    with tracer.span("shipping.drain", request_id):
        drained = serving.fleet.drain()
    ops.attempted += 1
    if not drained:
        ops.failed += 1


def ingest_cycle(serving: Serving, snapshots, tracer, ops: Ops, request_id) -> tuple[float, IngestStats]:
    """One construction freshness cycle: ``ingest_batch`` → ``update_views``
    → ``drain``; returns its milliseconds and the ingest counters."""
    started = time.perf_counter()
    with tracer.span("fresh.cycle", request_id):
        stats = ingest(serving.platform, snapshots, tracer, ops, request_id)
        _flush_and_drain(serving, tracer, ops, request_id)
    return (time.perf_counter() - started) * 1000.0, stats


def apply_write_batch(store, batch) -> None:
    """Set each subject's ``popularity`` in the harness-owned source store."""
    for subject, popularity in batch:
        old = store.value_of(subject, "popularity")
        if old is not None:
            store.discard(ExtendedTriple(subject, "popularity", old))
        store.add(ExtendedTriple(subject, "popularity", popularity))


def publish_cycle(serving: Serving, batch, tracer, ops: Ops, request_id) -> None:
    """One serving freshness cycle: ``publish_subjects`` → ``update_views``
    → ``drain`` for the subjects *batch* changed."""
    ops.attempted += 1
    with tracer.span("fresh.cycle", request_id):
        with tracer.span("engine.publish", request_id):
            serving.platform.graph_engine.publish_subjects(
                serving.source_store, [subject for subject, _ in batch], source_id="writer"
            )
        _flush_and_drain(serving, tracer, ops, request_id)


# ------------------------------------------------------------------ #
# the read path
# ------------------------------------------------------------------ #
NOT_A_SAMPLE = -1.0


def percentile(sorted_values: list[float], share: float) -> float:
    """The smallest sample with at least *share* of the samples at or below it."""
    return sorted_values[max(0, math.ceil(share * len(sorted_values)) - 1)]


@dataclass
class ClientLog:
    """What one client saw, one entry per request it issued."""

    done_at: list[float] = field(default_factory=list)     # perf_counter at completion
    latency_s: list[float] = field(default_factory=list)   # KGQ latency, else NOT_A_SAMPLE
    from_cache: list[bool] = field(default_factory=list)   # answered by the result cache
    read_s: float = 0.0                                     # time inside fleet.read
    reads: int = 0


def join_request(fleet, request):
    """The cross-view join a ``("join", left, right)`` request stands for."""
    return fleet.join(
        request[1], "entity_profile", request[2], "kg_edges", "name", "name", how="left"
    )


async def _client(
    serving: Serving, tenant: str, requests, first: int, log: ClientLog, stop, tracer, ops: Ops
):
    door, fleet = serving.door, serving.fleet
    loop = asyncio.get_running_loop()
    clock = time.perf_counter
    for index, request in enumerate(requests, start=first):
        if stop is not None and stop.is_set():
            break
        kind = request[0]
        latency, from_cache = NOT_A_SAMPLE, False
        ops.attempted += 1
        started = clock()
        try:
            if kind == "kgq":
                with tracer.span("frontdoor.query", (tenant, index)):
                    result = await door.query(tenant, request[2], request[1])
                latency = clock() - started
                from_cache = result.from_cache
            elif kind == "read":
                with tracer.span("router.read", (tenant, index)):
                    document = fleet.read(request[1], request[2])
                log.read_s += clock() - started
                log.reads += 1
                if document is None:
                    ops.failed += 1         # every subject read here is served
            else:
                # A join is a synchronous scatter-gather; an application
                # server would not run it on its event loop either.
                with tracer.span("query_router.join", (tenant, index)):
                    await loop.run_in_executor(None, partial(join_request, fleet, request))
        except SagaError:
            ops.failed += 1
        log.latency_s.append(latency)
        log.from_cache.append(from_cache)
        log.done_at.append(clock())


def run_clients(
    serving: Serving, per_client_requests, logs: list[ClientLog], tracer, ops: Ops, stop=None
) -> tuple[float, float]:
    """Replay one request list per client, closed loop, on one event loop.

    Each client appends to its own log (a round calls this once per segment
    with the same logs); returns when the first client started and when the
    last one finished.
    """
    async def drive():
        started = time.perf_counter()
        await asyncio.gather(*(
            _client(
                serving, TENANTS[index], requests, len(logs[index].done_at), logs[index],
                stop, tracer, ops,
            )
            for index, requests in enumerate(per_client_requests)
        ))
        return started, time.perf_counter()

    return asyncio.run(drive())
