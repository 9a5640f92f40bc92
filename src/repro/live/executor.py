"""KGQ physical-plan execution over the live index (§4.2).

The executor evaluates plans produced by :class:`repro.live.planner.QueryPlanner`
against the :class:`repro.live.index.LiveIndex`, and it has one strategy:
candidates stay *id sets* for as long as possible.  Type gates are
partition-membership checks, equality filters resolve through inverted-index
postings intersection (a probe superset verified per document, so
normalized-string postings can never change the answer), and the remaining
conditions and projections run over batched value columns with one
``get_many`` per traversal hop.

The per-document reference loop this replaced lives with the tests
(``tests/oracles/per_document_executor.py``): the seeded equivalence suite
and ``benchmarks/bench_kgq_executor.py`` compare rows, ordering and
``candidates_examined`` against it.

The latencies of the most recent :data:`LATENCY_WINDOW` queries are kept so
benchmarks can report the p95 figure the paper quotes for the production
deployment.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.errors import KGQPlanError, LiveGraphError
from repro.live.index import LiveEntityDocument, LiveIndex
from repro.live.planner import IndexLookup, PhysicalPlan, TypeScan
from repro.live.rpq import RpqEvaluator, Witness
from repro.ml.similarity import normalize_string


@dataclass
class QueryResultRow:
    """One result row: the matched entity plus its projected values.

    REACH answers additionally carry their provenance ``witness`` — the
    canonical edge sequence ``((src, label, dst), ...)`` proving the row is
    reachable from a seed (``None`` for non-REACH queries, ``()`` when the
    row is itself a seed and the expression accepts the empty path).
    """

    entity_id: str
    values: dict[str, object] = field(default_factory=dict)
    witness: Witness | None = None


@dataclass
class QueryResult:
    """Execution output plus timing metadata."""

    rows: list[QueryResultRow] = field(default_factory=list)
    latency_ms: float = 0.0
    from_cache: bool = False        # answered by the front door's result cache
    candidates_examined: int = 0

    def first_value(self, column: str | None = None) -> object | None:
        """Convenience: the first projected value of the first row."""
        if not self.rows:
            return None
        row = self.rows[0]
        if column is not None:
            return row.values.get(column)
        return next(iter(row.values.values()), None)


#: Separator composing a joined row's entity id from its operand row ids.
#: A left-join miss keeps the separator with an empty right half, so joined
#: ids never collide with plain row ids and stay deterministic to sort.
JOIN_ID_SEPARATOR = "⋈"


def canonical_join_key(value: object) -> str:
    """Canonical string of a join-key value: equal values, equal strings.

    The key-equality definition of the hash table in
    :func:`join_result_rows`.  Numerics (``3``, ``3.0``, ``True``) normalize
    to one numeric form, mirroring the executor's cross-type ``_equal``
    semantics; every other value canonicalizes through sorted-key JSON.
    """
    if isinstance(value, (bool, int, float)):
        as_float = float(value)
        if as_float.is_integer():
            return f"n:{int(as_float)}"
        return f"n:{as_float!r}"
    return "s:" + json.dumps(value, sort_keys=True, default=str, separators=(",", ":"))


def projected_join_key(row: QueryResultRow, key: str) -> object:
    """The row's join-key value, which must be among its projected columns.

    Join sides must ``RETURN`` their join key — a row that did not project
    it cannot be matched, and silently joining a missing key
    as ``None`` would fabricate matches, so this raises
    :class:`~repro.errors.LiveGraphError` naming the row and the column.
    """
    try:
        return row.values[key]
    except KeyError:
        raise LiveGraphError(
            f"result row {row.entity_id!r} does not project join key {key!r}; "
            "add the key column to the query's RETURN clause"
        ) from None


def join_result_rows(
    left_rows: Sequence[QueryResultRow],
    right_rows: Sequence[QueryResultRow],
    left_key: str,
    right_key: str,
    how: str = "inner",
) -> list[QueryResultRow]:
    """Hash-join two result-row sets on a projected key column.

    The join kernel of :func:`join_results`, which the primary and every
    replica (``ReplicaNode.join``) run alike.

    Joined rows merge the right row's values under the left row's (the left
    side wins a column-name collision) and compose their entity id as
    ``left_id ⋈ right_id``; with ``how="left"`` an unmatched left row
    survives as ``left_id ⋈`` carrying only its own values.  Output order is
    probe order — callers canonicalize through :func:`finalize_joined_rows`.
    """
    if how not in ("inner", "left"):
        raise LiveGraphError(f"unsupported join type {how!r}")
    table: dict[str, list[QueryResultRow]] = {}
    for row in right_rows:
        table.setdefault(canonical_join_key(projected_join_key(row, right_key)), []).append(row)
    joined: list[QueryResultRow] = []
    for left_row in left_rows:
        matches = table.get(canonical_join_key(projected_join_key(left_row, left_key)))
        if matches:
            for right_row in matches:
                values = dict(right_row.values)
                values.update(left_row.values)
                joined.append(QueryResultRow(
                    entity_id=(
                        f"{left_row.entity_id}{JOIN_ID_SEPARATOR}{right_row.entity_id}"
                    ),
                    values=values,
                ))
        elif how == "left":
            joined.append(QueryResultRow(
                entity_id=f"{left_row.entity_id}{JOIN_ID_SEPARATOR}",
                values=dict(left_row.values),
            ))
    return joined


def finalize_joined_rows(
    rows: Iterable[QueryResultRow], limit: int | None = None
) -> list[QueryResultRow]:
    """Canonicalize gathered join rows: dedup by id, order, apply LIMIT.

    Duplicate ids are dropped first-wins, rows sort by composite entity id,
    and *limit* bounds the final result (per-side LIMITs are rejected at
    planning time).
    """
    by_id: dict[str, QueryResultRow] = {}
    for row in rows:
        by_id.setdefault(row.entity_id, row)
    ordered = [by_id[entity_id] for entity_id in sorted(by_id)]
    if limit is not None:
        ordered = ordered[:limit]
    return ordered


def join_results(
    left: QueryResult,
    right: QueryResult,
    left_key: str,
    right_key: str,
    how: str = "inner",
    limit: int | None = None,
) -> QueryResult:
    """Join two query results — the primary-side reference for router joins.

    ``QueryRouter.execute_join`` runs exactly this on the one replica it
    places the join on, over both sides read at one replica state, so a
    routed join returns what the primary's own execution of the two side
    queries does at that state (the seeded equivalence suite property-tests
    that under kills and restarts).
    """
    rows = finalize_joined_rows(
        join_result_rows(left.rows, right.rows, left_key, right_key, how), limit
    )
    return QueryResult(
        rows=rows,
        latency_ms=left.latency_ms + right.latency_ms,
        candidates_examined=left.candidates_examined + right.candidates_examined,
    )


def _equality_probes(target: object) -> set[str]:
    """Normalized postings keys under which a value equal to *target* may post.

    The inverted index keys values by ``normalize_string`` only, while
    ``_equal`` admits cross-type matches (``3 == 3.0``,
    ``1 == True``, ``"3"`` vs ``3``).  The probe set covers every normalized
    rendering such a matching value can post under, so the postings union is
    a strict superset of the true match set — verification then prunes it
    with exact ``_equal`` semantics.  Returns an empty set when *target*
    is not probeable (caller falls back to the column path).
    """
    base = normalize_string(target)
    if not base:
        return set()
    probes = {base}
    if isinstance(target, bool):
        # A numeric fact equal to a bool posts under its numeric rendering.
        probes.update(("1", "1.0") if target else ("0", "0.0"))
    elif isinstance(target, (int, float)):
        as_float = float(target)
        probes.add(normalize_string(as_float))
        if as_float.is_integer():
            probes.add(normalize_string(int(as_float)))
        # A bool fact equals 1/0 numerically but posts under its repr.
        if as_float == 1.0:
            probes.add("true")
        elif as_float == 0.0:
            probes.add("false")
    return probes


#: How many recent query latencies an executor keeps for its percentiles.
LATENCY_WINDOW = 4096


class QueryExecutor:
    """Execute physical plans against the live index."""

    def __init__(self, index: LiveIndex) -> None:
        self.index = index
        self.rpq = RpqEvaluator(index.adjacency)
        self.queries_executed = 0
        self.latencies_ms: deque[float] = deque(maxlen=LATENCY_WINDOW)

    # -------------------------------------------------------------- #
    # execution
    # -------------------------------------------------------------- #
    def execute(
        self,
        plan: PhysicalPlan,
        use_cache: bool = True,
        scope: Callable[[LiveEntityDocument], bool] | None = None,
        reach_feed: str = "",
    ) -> QueryResult:
        """Run *plan* and return its result rows with timing.

        Every call executes: the executor keeps no result cache (the front
        door's per-tenant caches are the read path's only one).  *use_cache*
        is accepted and ignored, for callers written against the old
        signature.

        *scope* (when given) restricts execution to the documents it accepts,
        applied right after seeding and before any condition work — this is
        how a replica confines a query to one view's feed.
        ``candidates_examined`` counts in-scope candidates actually examined
        (a LIMIT early-break stops the count with the scan), so the figure
        shows the work this executor actually did.

        *reach_feed* names the adjacency feed a REACH clause expands over:
        ``""`` is the live graph (the engine's own documents), ``"view:X"``
        the subject-space graph of a loaded view feed (the replica path).
        Ignored for plans without a REACH stage.
        """
        started = time.perf_counter()
        if plan.reach is not None:
            rows, examined = self._execute_reach(plan, scope, reach_feed)
        else:
            survivors, examined = self.match_documents(plan, scope)
            rows = self._project_batch(survivors, plan)
        latency = (time.perf_counter() - started) * 1000.0
        self.queries_executed += 1
        self.latencies_ms.append(latency)
        return QueryResult(rows=rows, latency_ms=latency, candidates_examined=examined)

    # -------------------------------------------------------------- #
    # document matching (MATCH/WHERE pipeline; also the REACH seed phase)
    # -------------------------------------------------------------- #
    def match_documents(
        self,
        plan: PhysicalPlan,
        scope: Callable[[LiveEntityDocument], bool] | None = None,
        apply_limit: bool = True,
    ) -> tuple[list[LiveEntityDocument], int]:
        """The documents *plan*'s seed/filter pipeline matches, plus examined.

        This is execution up to (but excluding) projection — the REACH seed
        phase uses it with ``apply_limit=False``, because a LIMIT applies to
        the final answers, not the seeds.
        """
        limit = plan.limit.limit if apply_limit and plan.limit is not None else None
        candidate_ids, seed_type = self._seed_ids(plan)
        documents = self.index.get_many(candidate_ids)
        if scope is not None:
            candidate_ids = [
                entity_id
                for entity_id in candidate_ids
                if entity_id in documents and scope(documents[entity_id])
            ]
        elif len(documents) != len(candidate_ids):
            # An IndexLookup may post ids whose documents vanished.
            candidate_ids = [entity_id for entity_id in candidate_ids if entity_id in documents]

        # Type gate as partition membership: a candidate passes when it is
        # typed as the query asks or untyped.  Seeding from the query's own
        # type partition makes the gate a no-op.
        query_type = plan.query.entity_type
        typed_ids = untyped_ids = None
        if query_type and seed_type != query_type:
            typed_ids = self.index.kv.ids_by_type(query_type)
            untyped_ids = self.index.kv.ids_by_type("")

        if limit is not None and not plan.filters:
            # LIMIT early-break: walk ordered ids until the limit-th gate pass,
            # so examined counts the candidates actually looked at.
            examined = 0
            survivor_ids: list[str] = []
            for entity_id in candidate_ids:
                examined += 1
                if typed_ids is None or entity_id in typed_ids or entity_id in untyped_ids:
                    survivor_ids.append(entity_id)
                    if len(survivor_ids) >= limit:
                        break
        else:
            examined = len(candidate_ids)
            if typed_ids is None:
                survivor_ids = candidate_ids
            else:
                survivor_ids = [
                    entity_id
                    for entity_id in candidate_ids
                    if entity_id in typed_ids or entity_id in untyped_ids
                ]
            survivor_ids = self._apply_filters(plan, survivor_ids, documents)
            if limit is not None:
                survivor_ids = survivor_ids[:limit]
        return [documents[entity_id] for entity_id in survivor_ids], examined

    # -------------------------------------------------------------- #
    # REACH strategy (RPQ expansion over the adjacency bitmaps)
    # -------------------------------------------------------------- #
    def _execute_reach(
        self,
        plan: PhysicalPlan,
        scope: Callable[[LiveEntityDocument], bool] | None,
        reach_feed: str,
    ) -> tuple[list[QueryResultRow], int]:
        """Seed via the plan's match pipeline, expand via the RPQ evaluator.

        The MATCH/WHERE stages produce the seed set (LIMIT deferred — it
        bounds answers, not seeds); the compiled automaton expands it over
        *reach_feed*'s adjacency; answers are fetched back as documents,
        gated by the ``TO`` type (untyped documents pass, matching the type
        gate everywhere else), re-scoped, ordered by entity id, truncated,
        and projected — each row carrying its canonical witness path.
        ``candidates_examined`` adds the product-BFS expansion count (or the
        interval fast path's walk steps) to the seed phase's figure.
        """
        reach = plan.reach
        assert reach is not None
        seeds, examined = self.match_documents(plan, scope=scope, apply_limit=False)
        prefix = reach_feed[5:] + ":" if reach_feed.startswith("view:") else ""
        seed_nodes = []
        for document in seeds:
            entity_id = document.entity_id
            if prefix and entity_id.startswith(prefix):
                entity_id = entity_id[len(prefix):]
            seed_nodes.append(entity_id)
        answers, expanded = self.rpq.evaluate(
            reach_feed, seed_nodes, reach.automaton, reach.closure
        )
        examined += expanded
        answer_ids = [prefix + node for node in sorted(answers)]
        documents = self.index.get_many(answer_ids)
        survivors: list[LiveEntityDocument] = []
        witnesses: list[Witness] = []
        limit = plan.limit.limit if plan.limit is not None else None
        for node, entity_id in zip(sorted(answers), answer_ids):
            document = documents.get(entity_id)
            if document is None:
                continue
            if (
                reach.target_type
                and document.entity_type
                and document.entity_type != reach.target_type
            ):
                continue
            if scope is not None and not scope(document):
                continue
            survivors.append(document)
            witnesses.append(answers[node])
            if limit is not None and len(survivors) >= limit:
                break
        rows = self._project_batch(survivors, plan)
        for row, witness in zip(rows, witnesses):
            row.witness = witness
        return rows, examined

    def _seed_ids(self, plan: PhysicalPlan) -> tuple[list[str], str | None]:
        """Ordered candidate entity ids plus the seed's type (TypeScan only)."""
        seed = plan.seed
        if isinstance(seed, TypeScan):
            return sorted(self.index.kv.ids_by_type(seed.entity_type)), seed.entity_type
        if isinstance(seed, IndexLookup):
            predicate = seed.predicate_path[0]
            if predicate in ("name", "alias"):
                entity_ids = self.index.inverted.lookup_name(str(seed.value))
            else:
                entity_ids = self.index.inverted.lookup_value(predicate, seed.value)
            return sorted(entity_ids), None
        raise KGQPlanError(f"unknown seed operator {seed!r}")

    def _apply_filters(
        self,
        plan: PhysicalPlan,
        candidate_ids: list[str],
        documents: dict[str, LiveEntityDocument],
    ) -> list[str]:
        """Intersect the candidate id list with every filter's match set.

        Single-hop equality conditions resolve through postings intersection
        (cheapest postings first, so later verification touches the fewest
        ids); everything else — ranges, CONTAINS, ``!=``, multi-hop paths —
        evaluates over batched value columns.  Candidate order is preserved
        throughout.
        """
        if not plan.filters:
            return candidate_ids
        pushable = []
        columnar = []
        for filter_op in plan.filters:
            condition = filter_op.condition
            if (
                condition.operator == "="
                and len(condition.path) == 1
                and isinstance(condition.value, (str, int, float, bool))
                and _equality_probes(condition.value)
            ):
                pushable.append(condition)
            else:
                columnar.append(condition)
        pushable.sort(
            key=lambda condition: self.index.seed_selectivity(condition.path[0], condition.value)
        )
        ids = candidate_ids
        for condition in pushable:
            if not ids:
                return []
            matched = self._equality_match_ids(condition.path[0], condition.value, set(ids))
            ids = [
                entity_id
                for entity_id in ids
                if entity_id in matched
                and self._evaluate_condition(documents[entity_id], condition)
            ]
        for condition in columnar:
            if not ids:
                return []
            value_lists = self._walk_paths_batch(
                [documents[entity_id] for entity_id in ids], condition.path
            )
            ids = [
                entity_id
                for entity_id, values in zip(ids, value_lists)
                if self._match_values(values, condition.operator, condition.value)
            ]
        return ids

    def _equality_match_ids(
        self, predicate: str, target: object, candidate_ids: set[str]
    ) -> set[str]:
        """Candidates that *may* satisfy ``predicate = target``, via postings.

        Unions the postings of every equality probe, plus — because a string
        value may match by resolving to an entity whose *name* equals the
        target — the postings of every entity id so named.  The result is a
        superset of the true match set by construction; the caller verifies
        each survivor with the exact condition on its document.
        """
        inverted = self.index.inverted
        superset: set[str] = set()
        for probe in _equality_probes(target):
            superset |= inverted.value_postings(predicate, probe)
            if predicate == "name":
                superset |= inverted.exact_name_postings(probe)
            for named_id in inverted.exact_name_postings(probe):
                reference_key = normalize_string(named_id)
                superset |= inverted.value_postings(predicate, reference_key)
                if predicate == "name":
                    superset |= inverted.exact_name_postings(reference_key)
        return superset & candidate_ids

    # -------------------------------------------------------------- #
    # latency statistics
    # -------------------------------------------------------------- #
    def latency_percentile(self, percentile: float = 95.0) -> float:
        """The given latency percentile (ms) over the recent-query window."""
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        index = min(len(ordered) - 1, int(round(percentile / 100.0 * (len(ordered) - 1))))
        return ordered[index]

    # -------------------------------------------------------------- #
    # operator implementations
    # -------------------------------------------------------------- #
    def _evaluate_condition(self, document: LiveEntityDocument, condition) -> bool:
        values = self._walk_path(document, condition.path)
        return self._match_values(values, condition.operator, condition.value)

    def _match_values(self, values: list[object], operator: str, target: object) -> bool:
        for value in values:
            if operator == "=" and self._equal(value, target):
                return True
            if operator == "!=" and not self._equal(value, target):
                return True
            if operator == "CONTAINS" and normalize_string(target) in normalize_string(value):
                return True
            if operator in ("<", ">"):
                try:
                    left, right = float(value), float(target)  # type: ignore[arg-type]
                except (TypeError, ValueError):
                    continue
                if operator == "<" and left < right:
                    return True
                if operator == ">" and left > right:
                    return True
        return False

    def _project_batch(
        self, documents: list[LiveEntityDocument], plan: PhysicalPlan
    ) -> list[QueryResultRow]:
        """Project *documents* to result rows: one display/walk batch per column."""
        returns = plan.project.returns
        if not returns or any(len(path) == 0 for path in returns):
            display = self._display_map(
                {reference for document in documents for reference in document.references.values()}
            )
            rows = []
            for document in documents:
                row = QueryResultRow(entity_id=document.entity_id)
                row.values["name"] = document.name
                for predicate, values in document.facts.items():
                    row.values[predicate] = values[0] if len(values) == 1 else list(values)
                for predicate, reference in document.references.items():
                    row.values.setdefault(predicate, display.get(reference, reference))
                rows.append(row)
            return rows
        rows = [QueryResultRow(entity_id=document.entity_id) for document in documents]
        for path in returns:
            column = ".".join(path)
            value_lists = self._walk_paths_batch(documents, path, resolve_names=True)
            for row, values in zip(rows, value_lists):
                if not values:
                    row.values[column] = None
                elif len(values) == 1:
                    row.values[column] = values[0]
                else:
                    row.values[column] = values
        return rows

    # -------------------------------------------------------------- #
    # path traversal
    # -------------------------------------------------------------- #
    def _walk_path(self, document: LiveEntityDocument, path: tuple[str, ...]) -> list[object]:
        current: list[object] = [document]
        for predicate in path:
            next_values: list[object] = []
            for item in current:
                doc = self._as_document(item)
                if doc is None:
                    # An unresolved reference is a raw text mention; treat the
                    # text itself as its display name so queries still work.
                    if predicate == "name" and isinstance(item, str):
                        next_values.append(item)
                    continue
                if predicate == "name" and doc.name:
                    next_values.append(doc.name)
                    continue
                next_values.extend(doc.values(predicate))
            current = next_values
            if not current:
                return []
        return current

    def _walk_paths_batch(
        self,
        documents: list[LiveEntityDocument],
        path: tuple[str, ...],
        resolve_names: bool = False,
    ) -> list[list[object]]:
        """Walk *path* from every document at once: one ``get_many`` per hop.

        Returns one value list per input document, each identical to
        ``_walk_path(document, path)``; *resolve_names* then replaces every
        reference id that names a served document by that document's name.
        """
        frontiers: list[list[object]] = [[document] for document in documents]
        for predicate in path:
            pending = {
                item
                for frontier in frontiers
                for item in frontier
                if isinstance(item, str)
            }
            resolved = self.index.get_many(pending) if pending else {}
            for position, frontier in enumerate(frontiers):
                next_values: list[object] = []
                for item in frontier:
                    if isinstance(item, LiveEntityDocument):
                        doc = item
                    elif isinstance(item, str):
                        doc = resolved.get(item)
                        if doc is None:
                            if predicate == "name":
                                next_values.append(item)
                            continue
                    else:
                        continue
                    if predicate == "name" and doc.name:
                        next_values.append(doc.name)
                        continue
                    next_values.extend(doc.values(predicate))
                frontiers[position] = next_values
        if resolve_names:
            display = self._display_map(
                {item for frontier in frontiers for item in frontier if isinstance(item, str)}
            )
            return [
                [display.get(item, item) if isinstance(item, str) else item for item in frontier]
                for frontier in frontiers
            ]
        return frontiers

    def _display_map(self, references: Iterable[str]) -> dict[str, object]:
        """Reference id -> display name, for the references that have one."""
        pending = set(references)
        if not pending:
            return {}
        resolved = self.index.get_many(pending)
        return {
            reference: document.name if document.name else reference
            for reference, document in resolved.items()
        }

    def _as_document(self, value: object) -> LiveEntityDocument | None:
        if isinstance(value, LiveEntityDocument):
            return value
        if isinstance(value, str):
            return self.index.get(value)
        return None

    def _equal(self, value: object, target: object) -> bool:
        if isinstance(value, str) or isinstance(target, str):
            if normalize_string(value) == normalize_string(target):
                return True
            # An unresolved reference may still match by name.
            document = self._as_document(value) if isinstance(value, str) else None
            if document is not None:
                return normalize_string(document.name) == normalize_string(target)
            return False
        return value == target
