"""In-run correctness checks; any finding makes the run exit non-zero.

* Sampled requests return through the front door exactly the rows (ids,
  values, witnesses) that primary-side execution over the same view artifact
  returns.
* After the write phases ``fleet.audit(repair=False)`` is clean and a sample
  of changed subjects reads identically from every replica.
"""

from __future__ import annotations

import asyncio
import random

from bench_e2e import harness
from repro.errors import SagaError
from repro.live.executor import QueryExecutor, join_results
from repro.live.index import LiveIndex, document_checksum, view_row_document, view_row_documents
from repro.live.kgq import parse
from repro.live.planner import QueryPlanner


class Primary:
    """Primary-side execution over ``LiveIndex`` copies of the view artifacts,
    one index per view (a replica tells its feeds apart by fragment scope)."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.executors: dict[str, QueryExecutor] = {}
        self.planner = QueryPlanner()

    def plan(self, text: str):
        return self.planner.plan(parse(text))

    def executor(self, view: str) -> QueryExecutor:
        """The executor over *view*'s artifact, loaded on first use."""
        if view not in self.executors:
            index = LiveIndex()
            lsn = self.engine.view_manager.built_at_lsn(view)
            rows = self.engine.view_artifact(view).values()
            index.replace_feed(f"view:{view}", view_row_documents(view, f"view:{view}", rows, lsn), lsn)
            self.executors[view] = QueryExecutor(index)
        return self.executors[view]

    def execute(self, plan, view: str):
        return self.executor(view).execute(plan, use_cache=False, reach_feed=f"view:{view}")

    def join(self, request):
        """The primary-side reference of :func:`harness.join_request`."""
        left = self.execute(self.plan(request[1]), "entity_profile")
        right = self.execute(self.plan(request[2]), "kg_edges")
        return join_results(left, right, "name", "name", how="left")


def _rows(result) -> list[tuple]:
    return [(row.entity_id, row.values, row.witness) for row in result.rows]


def compare_with_primary(
    serving, primary: Primary, requests, seed: int, sample: int, ops, health: dict
) -> list[str]:
    """Re-issue *sample* of *requests* and compare with primary-side execution.

    A result that differs is a failed operation, whether it was executed or
    came from the door's result cache (a stale entry): no reader is in flight
    while the last write of any workload is flushed and shipped, so nothing
    cached may predate it.
    """
    rng = random.Random(39_000 + seed)
    served = [request for request in requests if request[0] != "read"]
    chosen = rng.sample(served, min(sample, len(served)))
    door, tenant = serving.door, harness.TENANTS[0]
    problems: list[str] = []

    async def through_the_door() -> None:
        for request in chosen:
            ops.attempted += 1
            stale = ""
            if request[0] == "join":
                got = harness.join_request(serving.fleet, request)
                expected = primary.join(request)
            else:
                _, view, text = request
                got = await door.query(tenant, text, view)
                expected = primary.execute(primary.plan(text), view)
                stale = " (a stale cached result)" if got.from_cache else ""
            if _rows(got) != _rows(expected):
                ops.failed += 1
                problems.append(
                    f"rows differ from primary-side execution{stale}: {request[1:]}"
                )

    try:
        asyncio.run(through_the_door())
    except SagaError as exc:
        ops.failed += 1
        problems.append(f"a checked request failed: {exc}")
    health["checked_requests"] = len(chosen)
    return problems


def replicas_match_primary(serving, subjects: list[str]) -> list[str]:
    """Audit the fleet, then read *subjects* from every replica."""
    problems = [
        f"audit of {view} is not clean"
        for view, report in serving.fleet.audit(repair=False).items()
        if not report.clean()
    ]
    manager = serving.platform.graph_engine.view_manager
    for view in harness.SERVED_VIEWS:
        artifact = manager.artifact(view)
        lsn = manager.built_at_lsn(view)
        for subject in subjects:
            row = artifact.get(subject)
            expected = (
                document_checksum(view_row_document(view, f"view:{view}", row, lsn))
                if row is not None else None
            )
            for name, node in sorted(serving.fleet.replicas.items()):
                document = node.get(view, subject)
                served = document_checksum(document) if document is not None else None
                if served != expected:
                    problems.append(f"{name} serves a different {view} row for {subject}")
    return problems
