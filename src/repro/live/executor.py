"""KGQ physical-plan execution over the live index (§4.2).

The executor evaluates plans produced by :class:`repro.live.planner.QueryPlanner`
against the :class:`repro.live.index.LiveIndex`, and it has one strategy:
walk candidate ids in id order, cheapest test first, and stop at the
LIMIT-th survivor.  A type scan reads a ``(feed, type)`` partition of the
key-value store, already in id order; a replica scopes a query to its view
by naming the feed (``execute(plan, feed=...)``), so a scan never touches
another feed's rows.  A single-hop range against a number compares over the
partition's numeric column; equality seeds and filters resolve through the
inverted index's postings (a probe superset verified per document, so
normalized-string postings can never change the answer); everything else is
evaluated on the document.  A type scan projects single-hop ``RETURN``
columns from the partition's value columns at its survivor positions and
reads no document; an index lookup, a REACH answer, a multi-hop path and
``RETURN *`` project off the documents, walking longer paths with one
``get_many`` per hop.  A row is an immutable value
(:class:`QueryResultRow`), so the front door's result cache shares the
executor's rows with every hit.

The per-document reference loop this replaced lives with the tests
(``tests/oracles/per_document_executor.py``): the seeded equivalence suite
and ``benchmarks/bench_kgq_executor.py`` compare rows, ordering and
``candidates_examined`` against it.

The latencies of the most recent :data:`LATENCY_WINDOW` queries are kept so
benchmarks can report the p95 figure the paper quotes for the production
deployment.
"""

from __future__ import annotations

import heapq
import json
import time
from bisect import bisect_left
from collections import deque, namedtuple
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import groupby, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from repro.errors import KGQPlanError, LiveGraphError
from repro.live.index import LiveEntityDocument, LiveIndex
from repro.live.kgq import Condition
from repro.live.planner import IndexLookup, PhysicalPlan, TypeScan
from repro.live.rpq import RpqEvaluator, Witness
from repro.ml.similarity import normalize_string


class RowValues(dict):
    """A result row's projected columns: a dict that refuses every write.

    The front door's result cache hands the executor's own rows to every
    hit, so a write raises :class:`TypeError` instead of reaching a later
    reader.  ``dict(values)`` is a private, writable copy.
    """

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("result row values are read-only; copy them with dict(values)")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return (RowValues, (dict(self),))


class QueryResultRow(namedtuple("QueryResultRow", ("entity_id", "values", "witness"))):
    """One result row, an immutable value: the matched entity, its projected
    columns (:class:`RowValues`, a read-only mapping) and, for a REACH
    answer, its provenance ``witness``.

    The witness is the canonical edge sequence ``((src, label, dst), ...)``
    proving the row is reachable from a seed (``None`` for non-REACH
    queries, ``()`` when the row is itself a seed and the expression accepts
    the empty path).  The constructor copies *values* into a
    :class:`RowValues`; the executor builds its rows with :func:`_new_row`
    from values it already holds read-only, with no per-row Python call.
    """

    __slots__ = ()

    def __new__(
        cls, entity_id: str, values: Mapping[str, object] = (), witness: Witness | None = None
    ) -> "QueryResultRow":
        return tuple.__new__(cls, (entity_id, RowValues(values), witness))


#: ``_new_row((entity_id, row_values, witness))``: a row from a
#: :class:`RowValues` the caller built, without the constructor's copy.
_new_row = partial(tuple.__new__, QueryResultRow)


def _rows(
    entity_ids: Iterable[str],
    columns: Sequence[str],
    cells: Sequence[Sequence[object]],
    witnesses: Iterable[Witness | None],
) -> list[QueryResultRow]:
    """Rows from per-column cell lists aligned with *entity_ids*."""
    values = map(RowValues, map(zip, repeat(columns), zip(*cells)))
    return list(map(_new_row, zip(entity_ids, values, witnesses)))


def _take(values: list, positions: Sequence[int]) -> list:
    """``[values[p] for p in positions]``; a slice when *positions* is a range."""
    if type(positions) is range:
        return values[positions.start:positions.stop]
    return list(map(values.__getitem__, positions))


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
    semantics; every other value canonicalizes through sorted-key JSON.  A
    string, the common key, is quoted by the JSON encoder's own escaping
    function, which gives the string ``json.dumps`` would.
    """
    if type(value) is str:
        return "s:" + encode_basestring_ascii(value)
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
                joined.append(_new_row((
                    f"{left_row.entity_id}{JOIN_ID_SEPARATOR}{right_row.entity_id}",
                    RowValues({**right_row.values, **left_row.values}),
                    None,
                )))
        elif how == "left":
            joined.append(_new_row(
                (f"{left_row.entity_id}{JOIN_ID_SEPARATOR}", left_row.values, None)
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


def _postings_probes(operator: str, path: tuple[str, ...], target: object) -> set[str]:
    """The probes of a single-hop equality the postings answer — their
    superset holds every match, and each id kept is verified on its
    document — or an empty set for any other condition."""
    if operator != "=" or len(path) != 1 or not isinstance(target, (str, int, float, bool)):
        return set()
    return _equality_probes(target)


def _column_condition(condition: Condition) -> bool:
    """A single-hop ``<`` / ``>`` against a number: a numeric column answers it."""
    return (
        condition.operator in ("<", ">")
        and len(condition.path) == 1
        and isinstance(condition.value, (int, float))
    )


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
        feed: str | None = None,
        reach_feed: str = "",
    ) -> QueryResult:
        """Run *plan* and return its result rows with timing.

        Every call executes: the executor keeps no result cache (the front
        door's per-tenant caches are the read path's only one).  *use_cache*
        is accepted and ignored, for callers written against the old
        signature.

        *feed* (when given) confines execution to the documents whose
        ``source_id`` is *feed* — how a replica serves one view: a type scan
        reads that feed's partition only, and index-lookup candidates and
        REACH answers of other feeds are dropped before any other work.
        ``candidates_examined`` counts the in-feed candidates examined (a
        LIMIT early-break stops the count with the scan), so the figure
        shows the work this executor actually did.

        *reach_feed* names the adjacency feed a REACH clause expands over:
        ``""`` is the live graph (the engine's own documents), ``"view:X"``
        the subject-space graph of a loaded view feed (the replica path).
        Ignored for plans without a REACH stage.
        """
        started = time.perf_counter()
        if plan.reach is not None:
            rows, examined = self._execute_reach(plan, feed, reach_feed)
        else:
            rows, examined = self._match_rows(plan, feed)
        latency = (time.perf_counter() - started) * 1000.0
        self.queries_executed += 1
        self.latencies_ms.append(latency)
        return QueryResult(rows=rows, latency_ms=latency, candidates_examined=examined)

    def _match_rows(
        self, plan: PhysicalPlan, feed: str | None
    ) -> tuple[list[QueryResultRow], int]:
        """A MATCH plan's rows and examined count.

        A type scan whose ``RETURN`` columns are all single hops projects
        from its partitions' value columns at the survivor positions and
        reads no document; every other plan projects its matched documents.
        """
        returns = plan.project.returns
        if isinstance(plan.seed, TypeScan) and returns and all(len(path) == 1 for path in returns):
            limit = plan.limit.limit if plan.limit is not None else None
            runs, examined = self._scan(plan, feed, limit)
            return self._project_columns(runs, returns), examined
        documents, examined = self.match_documents(plan, feed)
        return self._project_batch(documents, plan), examined

    # -------------------------------------------------------------- #
    # document matching (MATCH/WHERE pipeline; also the REACH seed phase)
    # -------------------------------------------------------------- #
    def match_documents(
        self,
        plan: PhysicalPlan,
        feed: str | None = None,
        apply_limit: bool = True,
    ) -> tuple[list[LiveEntityDocument], int]:
        """The documents *plan*'s seed/filter pipeline matches, plus examined.

        This is execution up to (but excluding) projection — the REACH seed
        phase uses it with ``apply_limit=False``, because a LIMIT applies to
        the final answers, not the seeds.
        """
        limit = plan.limit.limit if apply_limit and plan.limit is not None else None
        seed = plan.seed
        if isinstance(seed, TypeScan):
            runs, examined = self._scan(plan, feed, limit)
            survivor_ids = [
                entity_id for _, ids, positions in runs for entity_id in _take(ids, positions)
            ]
            documents = self.index.get_many(survivor_ids)
            return [documents[entity_id] for entity_id in survivor_ids], examined
        if isinstance(seed, IndexLookup):
            return self._lookup(plan, feed, limit)
        raise KGQPlanError(f"unknown seed operator {seed!r}")

    def _scan(
        self, plan: PhysicalPlan, feed: str | None, limit: int | None
    ) -> tuple[list[tuple[tuple[str, str], list[str], Sequence[int]]], int]:
        """A TypeScan: the feed's partition of the type, or (unscoped) every
        feed's partition of it, merged in id order.

        The survivors come back as runs ``((feed, type), ids, positions)``
        in id order: one run for a single partition, and for several the
        merged ``(id, partition, position)`` sequence cut at *limit* and
        split where the partition changes.
        """
        kv = self.index.kv
        entity_type = plan.seed.entity_type
        feeds = kv.partition_feeds(entity_type) if feed is None else [feed]
        # Every id of a partition has its type, so the type gate is one test.
        gated = entity_type in ("", plan.query.entity_type)
        examined = 0
        runs = []
        for partition_feed in feeds:
            key = (partition_feed, entity_type)
            ids = kv.partition(*key)
            examined += len(ids)
            if gated:
                runs.append((key, ids, self._survivors(plan, ids, limit, key)))
        if len(runs) > 1:
            merged = heapq.merge(*(
                [(ids[position], run, position) for position in positions]
                for run, (_, ids, positions) in enumerate(runs)
            ))
            runs = [
                (runs[run][0], runs[run][1], [position for _, _, position in group])
                for run, group in groupby(islice(merged, limit), key=itemgetter(1))
            ]
        if limit is not None and not plan.filters and sum(len(run[2]) for run in runs) == limit:
            examined = limit        # the LIMIT early-break walked no further
        return runs, examined

    def _lookup(
        self, plan: PhysicalPlan, feed: str | None, limit: int | None
    ) -> tuple[list[LiveEntityDocument], int]:
        """An IndexLookup: the in-feed documents that satisfy the seed
        condition, found through the postings probe superset and verified
        like a pushed-down filter, then gated by type (untyped documents
        pass)."""
        seed = plan.seed
        predicate, target = seed.predicate_path[0], seed.value
        probes = _postings_probes(seed.operator, seed.predicate_path, target)
        if probes:
            superset: Iterable[str] = self._equality_superset(predicate, probes)
        else:
            superset = (document.entity_id for document in self.index.kv)
        documents = self.index.get_many(superset)
        candidate_ids = sorted(
            entity_id
            for entity_id, document in documents.items()
            if (feed is None or document.source_id == feed)
            and self._match_values(document.hop(predicate), seed.operator, target)
        )
        query_type = plan.query.entity_type
        typed_ids = [
            entity_id
            for entity_id in candidate_ids
            if documents[entity_id].entity_type in ("", query_type)
        ]
        survivor_ids = _take(typed_ids, self._survivors(plan, typed_ids, limit))
        examined = len(candidate_ids)
        if limit is not None and not plan.filters and len(survivor_ids) == limit:
            # The LIMIT early-break walked up to the limit-th survivor.
            examined = bisect_left(candidate_ids, survivor_ids[-1]) + 1 if limit else 0
        return [documents[entity_id] for entity_id in survivor_ids], examined

    def _survivors(
        self,
        plan: PhysicalPlan,
        ids: list[str],
        limit: int | None,
        partition: tuple[str, str] | None = None,
    ) -> Sequence[int]:
        """The positions in *ids* of the ids that pass every filter, in order
        (a ``range`` when there are no filters).

        The walk is lazy, cheapest test first, and stops at the *limit*-th
        survivor.  Over a ``(feed, type)`` *partition*, a single-hop ``<`` /
        ``>`` against a number compares over the partition's numeric column;
        single-hop equalities test membership in their postings probe
        superset (smallest postings first) before verifying; every other
        condition is evaluated on the document.
        """
        if not plan.filters:
            return range(len(ids))[:limit]
        kv = self.index.kv
        get = kv.get
        staged = []
        for filter_op in plan.filters:
            condition = filter_op.condition
            if partition is not None and _column_condition(condition):
                staged.append((0, 0, condition, None))
                continue
            probes = _postings_probes(condition.operator, condition.path, condition.value)
            if probes:
                cost = self.index.seed_selectivity(condition.path[0], condition.value)
                staged.append((1, cost, condition, probes))
            else:
                staged.append((2, 0, condition, None))
        staged.sort(key=lambda stage: stage[:2])
        survivors: Iterable[int] = range(len(ids))
        for kind, _, condition, probes in staged:
            if kind == 0:
                low, high = kv.numeric_column(*partition, condition.path[0])  # type: ignore[misc]
                threshold = float(condition.value)  # type: ignore[arg-type]
                if condition.operator == ">":
                    column, keep = high, threshold.__lt__
                else:
                    column, keep = low, threshold.__gt__
                survivors = filter(
                    lambda position, column=column, keep=keep: keep(column[position]), survivors
                )
                continue
            matched = None if probes is None else self._equality_superset(condition.path[0], probes)

            def passes(position: int, condition=condition, matched=matched) -> bool:
                entity_id = ids[position]
                if matched is not None and entity_id not in matched:
                    return False
                return self._evaluate_condition(get(entity_id), condition)

            survivors = filter(passes, survivors)
        return list(islice(survivors, limit))

    # -------------------------------------------------------------- #
    # REACH strategy (RPQ expansion over the adjacency rows)
    # -------------------------------------------------------------- #
    def _execute_reach(
        self,
        plan: PhysicalPlan,
        feed: str | None,
        reach_feed: str,
    ) -> tuple[list[QueryResultRow], int]:
        """Seed via the plan's match pipeline, expand via the RPQ evaluator.

        The MATCH/WHERE stages produce the seed set (LIMIT deferred — it
        bounds answers, not seeds); the compiled automaton expands it over
        *reach_feed*'s adjacency.  The answers are walked in entity id
        order, each fetched back as a document (one counted read for the
        walk), gated by the ``TO`` type (untyped documents pass, matching
        the type gate everywhere else) and kept to *feed*; the walk stops
        at the LIMIT-th survivor, and only the survivors build their
        canonical witness paths.  ``candidates_examined`` adds the
        product-BFS expansion count (or the interval fast path's walk
        steps) to the seed phase's figure.
        """
        reach = plan.reach
        assert reach is not None
        seeds, examined = self.match_documents(plan, feed, apply_limit=False)
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
        get = self.index.kv.reader()
        target_type = reach.target_type
        limit = plan.limit.limit if plan.limit is not None else None
        survivors: list[LiveEntityDocument] = []
        nodes: list[str] = []
        for node in sorted(answers):
            if len(survivors) == limit:
                break
            document = get(prefix + node)
            if document is None:
                continue
            if target_type and document.entity_type and document.entity_type != target_type:
                continue
            if feed is not None and document.source_id != feed:
                continue
            survivors.append(document)
            nodes.append(node)
        return self._project_batch(survivors, plan, answers.witnesses(nodes)), examined

    def _equality_superset(self, predicate: str, probes: set[str]) -> set[str]:
        """Ids that *may* satisfy ``predicate = target``, from the target's
        :func:`_equality_probes`.

        Unions the postings of every probe, plus — because a string value
        may match by resolving to an entity whose *name* equals the target —
        the postings of every entity id so named.  The result is a superset
        of the true match set by construction; the caller verifies each id
        it keeps with the exact condition on its document.
        """
        value_postings = self.index.inverted.value_postings
        exact_name_postings = self.index.inverted.exact_name_postings
        by_name = predicate == "name"
        superset: set[str] = set()
        for probe in probes:
            superset.update(value_postings(predicate, probe))
            named = exact_name_postings(probe)
            if by_name:
                superset.update(named)
            for named_id in named:
                reference_key = normalize_string(named_id)
                superset.update(value_postings(predicate, reference_key))
                if by_name:
                    superset.update(exact_name_postings(reference_key))
        return superset

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

    def _project_columns(
        self,
        runs: list[tuple[tuple[str, str], list[str], Sequence[int]]],
        returns: tuple[tuple[str, ...], ...],
    ) -> list[QueryResultRow]:
        """Project single-hop *returns* at the survivor positions of a scan's
        *runs* from the partitions' value columns, reading no document.

        Display names are resolved at read time
        (:meth:`~repro.live.index.GraphKVStore.display`), so a renamed
        target shows its new name whether or not its partition changed.
        """
        kv = self.index.kv
        entity_ids: list[str] = []
        for _, ids, positions in runs:
            entity_ids.extend(_take(ids, positions))
        cells = []
        for (predicate,) in returns:
            column: list[object] = []
            for key, _, positions in runs:
                single, many = kv.value_column(*key, predicate)
                taken = kv.display(_take(single, positions))
                if many:
                    for slot, position in enumerate(positions):
                        held = many.get(position)
                        if held is not None:
                            taken[slot] = kv.display(list(held))
                column.extend(taken)
            cells.append(column)
        return _rows(entity_ids, [predicate for (predicate,) in returns], cells, repeat(None))

    def _project_batch(
        self,
        documents: list[LiveEntityDocument],
        plan: PhysicalPlan,
        witnesses: Iterable[Witness | None] | None = None,
    ) -> list[QueryResultRow]:
        """Project *documents* to result rows, each row carrying its witness
        from *witnesses* (REACH answers).

        A single-hop column reads each document's own values
        (:meth:`~repro.live.index.LiveEntityDocument.hop`); a multi-hop one
        walks with one ``get_many`` per hop.  Every string that is the id of
        a served, named document then reads as that name
        (:meth:`~repro.live.index.GraphKVStore.display`).
        """
        if witnesses is None:
            witnesses = repeat(None)
        display = self.index.kv.display
        returns = plan.project.returns
        if not returns or any(len(path) == 0 for path in returns):
            rows = []
            for document, witness in zip(documents, witnesses):
                values = {"name": document.name}
                for predicate, held in document.facts.items():
                    values[predicate] = held[0] if len(held) == 1 else list(held)
                references = document.references
                for predicate, shown in zip(references, display(list(references.values()))):
                    values.setdefault(predicate, shown)
                rows.append(_new_row((document.entity_id, RowValues(values), witness)))
            return rows
        cells = [
            [
                None if not values else values[0] if len(values) == 1 else values
                for values in map(
                    display,
                    [document.hop(path[0]) for document in documents]
                    if len(path) == 1
                    else self._walk_paths_batch(documents, path),
                )
            ]
            for path in returns
        ]
        entity_ids = [document.entity_id for document in documents]
        return _rows(entity_ids, [".".join(path) for path in returns], cells, witnesses)

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
                next_values.extend(doc.hop(predicate))
            current = next_values
            if not current:
                return []
        return current

    def _walk_paths_batch(
        self, documents: list[LiveEntityDocument], path: tuple[str, ...]
    ) -> list[list[object]]:
        """Walk *path* from every document at once: one ``get_many`` per hop.

        Returns one value list per input document, each identical to
        ``_walk_path(document, path)``.
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
                    next_values.extend(doc.hop(predicate))
                frontiers[position] = next_values
        return frontiers

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
