"""Vectorized-vs-per-document executor equivalence, property-tested.

The executor's contract: postings-intersection / batched-column evaluation
and the per-document reference loop return
**identical** rows, in identical order, with identical
``candidates_examined`` accounting, for every plan.  The seeded suite
(``kgq_seed``, parametrized from ``--runs-seeded`` like the columnar-store
suite) proves it over random document universes and random plans: index and
type-scan seeds, ``=`` / ``!=`` / ``<`` / ``>`` / CONTAINS filters over
one- and two-hop paths, multi-hop projections, ``RETURN *``, limits, and
feed-scoped execution over universes whose documents span several feeds
and sometimes change type — plus the same queries routed through a real
``QueryRouter`` fleet whose replicas run either one.

``src/`` holds the set-based executor only; the per-document loop is the
test-side oracle ``oracles.per_document_executor.PerDocumentExecutor``, so
every comparison builds two executors over one index: ``QueryExecutor(index)``
and ``PerDocumentExecutor(index)``.

The fixed tests pin the cross-type equality semantics the postings probes
must preserve (``3`` vs ``3.0`` vs ``"3"`` vs ``True``, reference-by-name
matches) whether a condition seeds or filters, the range semantics the
numeric columns must preserve (multi-valued facts, numeric strings, bools,
NaN, unparsable strings, references, non-numeric targets), and the exact
LIMIT early-break ``candidates_examined`` counts.
"""

from __future__ import annotations

import dataclasses
import random

from oracles.per_document_executor import PerDocumentExecutor
from repro.live.executor import LATENCY_WINDOW, QueryExecutor
from repro.live.index import LiveEntityDocument, LiveIndex
from repro.live.kgq import Condition, Query, parse
from repro.live.planner import (
    FilterOp,
    LimitOp,
    PhysicalPlan,
    ProjectOp,
    QueryPlanner,
    TypeScan,
)
from repro.serving.query_router import QueryRouter
from repro.serving.replica import ReplicaNode
from repro.serving.router import ShardRouter
from repro.serving.shipping import ShipmentBatch

# ------------------------------------------------------------------ #
# random universes and random plans
# ------------------------------------------------------------------ #
TYPES = ("alpha", "beta", "gamma", "")
GENRES = ("pop", "rock", "jazz")
FIRST = ("Ada", "Grace", "Alan", "Edsger", "Barbara")
LAST = ("Lovelace", "Hopper", "Turing", "Dijkstra", "Liskov")
VALUE_POOL = (0, 1, 2, 3, 7, 2.5, 3.0, True, False, "3", "seven")


FEEDS = ("view:a", "view:b", "stream")


def build_universe(rng: random.Random) -> LiveIndex:
    """A random live index: typed/untyped docs over 2-3 feeds, mixed-type
    facts, references, and some documents re-upserted under another type."""
    index = LiveIndex()
    count = rng.randint(25, 45)
    feeds = FEEDS[: rng.randint(2, 3)]
    entity_ids = [f"e{i:02d}" for i in range(count)]
    for position, entity_id in enumerate(entity_ids):
        facts: dict[str, list[object]] = {}
        if rng.random() < 0.85:
            facts["value"] = [rng.choice(VALUE_POOL) for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.7:
            facts["genre"] = [rng.choice(GENRES)]
        if rng.random() < 0.2:
            facts["alias"] = [f"{rng.choice(FIRST)} alias"]
        references: dict[str, str] = {}
        if rng.random() < 0.6:
            references["friend"] = (
                rng.choice(entity_ids) if rng.random() < 0.8 else f"missing:{position}"
            )
        if rng.random() < 0.3:
            references["team"] = rng.choice(entity_ids)
        index.upsert(
            LiveEntityDocument(
                entity_id=entity_id,
                entity_type=rng.choice(TYPES),
                name=f"{rng.choice(FIRST)} {rng.choice(LAST)}" if rng.random() < 0.75 else "",
                facts=facts,
                references=references,
                source_id=rng.choice(feeds),
                timestamp=1,
                is_live=True,
            )
        )
    for entity_id in rng.sample(entity_ids, count // 5):
        index.replace(dataclasses.replace(
            index.get(entity_id), entity_type=rng.choice(TYPES), timestamp=2
        ))
    return index


CONDITION_PATHS = (
    ("value",),
    ("genre",),
    ("name",),
    ("alias",),
    ("friend",),
    ("friend", "name"),
    ("friend", "value"),
    ("team", "genre"),
)
RETURN_CHOICES = (
    [()],
    [("name",)],
    [("value",)],
    [("genre",), ("friend", "name")],
    [("team", "genre")],
    [("friend", "value"), ("name",)],
)


def random_condition(rng: random.Random, index: LiveIndex) -> Condition:
    path = rng.choice(CONDITION_PATHS)
    operator = rng.choice(("=", "=", "=", "!=", "<", ">", "CONTAINS"))
    if operator in ("<", ">"):
        target: object = rng.choice((1, 2.5, 4, 7))
    elif operator == "CONTAINS":
        target = rng.choice(("ada", "ring", "3", "pop", "xyz"))
    elif path[-1] == "genre":
        target = rng.choice(GENRES + ("blues",))
    elif path[-1] in ("name", "alias"):
        target = rng.choice(
            (f"{rng.choice(FIRST)} {rng.choice(LAST)}", f"{rng.choice(FIRST)} alias")
        )
    elif path == ("friend",):
        # Equality against a reference: by raw entity id or by referent name.
        target = rng.choice((f"e{rng.randint(0, 44):02d}", f"{rng.choice(FIRST)} {rng.choice(LAST)}"))
    else:
        target = rng.choice(VALUE_POOL)
    return Condition(path, operator, target)


def random_query(rng: random.Random, index: LiveIndex) -> Query:
    return Query(
        entity_type=rng.choice(("alpha", "beta", "gamma")),
        conditions=[random_condition(rng, index) for _ in range(rng.randint(0, 2))],
        returns=list(rng.choice(RETURN_CHOICES)),
        limit=rng.randint(1, 6) if rng.random() < 0.4 else None,
    )


def rows_of(result):
    return [(row.entity_id, row.values) for row in result.rows]


def both_modes(index: LiveIndex) -> tuple[QueryExecutor, QueryExecutor]:
    """The vectorized executor and the per-document reference over *index*."""
    return QueryExecutor(index), PerDocumentExecutor(index)


def assert_modes_agree(index: LiveIndex, plan, feed=None):
    executor, reference_executor = both_modes(index)
    vectorized = executor.execute(plan, feed=feed)
    reference = reference_executor.execute(plan, feed=feed)
    assert rows_of(vectorized) == rows_of(reference), plan.explain()
    assert vectorized.candidates_examined == reference.candidates_examined, plan.explain()


def test_vectorized_equivalence_seeded(kgq_seed):
    rng = random.Random(61_000 + kgq_seed)
    index = build_universe(rng)
    planner = QueryPlanner(selectivity=index.seed_selectivity)
    for _ in range(8):
        plan = planner.plan(random_query(rng, index))
        assert_modes_agree(index, plan)


def test_vectorized_equivalence_scoped_seeded(kgq_seed):
    """Feed-scoped execution (how a replica serves one view) agrees across
    modes, for every feed the universe holds and unscoped."""
    rng = random.Random(87_000 + kgq_seed)
    index = build_universe(rng)
    planner = QueryPlanner(selectivity=index.seed_selectivity)
    for _ in range(6):
        plan = planner.plan(random_query(rng, index))
        for feed in (None, *FEEDS):
            assert_modes_agree(index, plan, feed=feed)


# ------------------------------------------------------------------ #
# fixed cross-type equality semantics the postings probes must cover
# ------------------------------------------------------------------ #
def make_index(documents):
    index = LiveIndex()
    for document in documents:
        index.upsert(document)
    return index


def doc(entity_id, entity_type="thing", name="", facts=None, refs=None):
    return LiveEntityDocument(
        entity_id=entity_id, entity_type=entity_type, name=name,
        facts=facts or {}, references=refs or {}, timestamp=1, is_live=True,
    )


def filter_plan(entity_type, condition, returns=(("value",),)):
    """A TypeScan plan keeping *condition* as a FilterOp — the planner would
    otherwise push a single-hop equality into the (exact-normalized) seed."""
    query = Query(
        entity_type=entity_type, conditions=[condition], returns=list(returns)
    )
    return PhysicalPlan(
        query=query,
        seed=TypeScan(entity_type),
        filters=[FilterOp(condition)],
        project=ProjectOp(tuple(query.returns)),
        limit=None,
    )


def test_vectorized_equality_matches_cross_type_values():
    index = make_index([
        doc("e1", facts={"value": [3]}),
        doc("e2", facts={"value": [3.0]}),
        doc("e3", facts={"value": ["3"]}),
        doc("e4", facts={"value": [True]}),
        doc("e5", facts={"value": [1]}),
        doc("e6", facts={"value": ["three"]}),
    ])
    planner = QueryPlanner(selectivity=index.seed_selectivity)
    executor = QueryExecutor(index)
    for target, expected in (
        # int 3 matches 3.0 numerically and "3" by normalized string;
        # 3.0 renders as "3.0" so the string fact "3" no longer matches.
        (3, ["e1", "e2", "e3"]),
        (3.0, ["e1", "e2"]),
        ("3", ["e1", "e3"]),
        (True, ["e4", "e5"]),
        (1, ["e4", "e5"]),
    ):
        # As a filter, equality is cross-type (3 == 3.0 == "3", True == 1):
        # the postings probes must surface every rendering for verification.
        plan = filter_plan("thing", Condition(("value",), "=", target))
        assert_modes_agree(index, plan)
        result = executor.execute(plan)
        assert [row.entity_id for row in result.rows] == expected, target
        # Pushed into the seed, the same condition matches the same rows.
        seeded = planner.plan(plan.query)
        assert_modes_agree(index, seeded)
        assert [row.entity_id for row in executor.execute(seeded).rows] == expected, target


def test_vectorized_equality_matches_references_by_name():
    index = make_index([
        doc("team1", entity_type="team", name="Springfield Wolves"),
        doc("g1", entity_type="game", refs={"home_team": "team1"}),
        doc("g2", entity_type="game", refs={"home_team": "elsewhere"}),
    ])
    executor = QueryExecutor(index)
    plan = filter_plan(
        "game",
        Condition(("home_team",), "=", "Springfield Wolves"),
        returns=[("home_team", "name")],
    )
    assert_modes_agree(index, plan)
    result = executor.execute(plan)
    assert [row.entity_id for row in result.rows] == ["g1"]
    assert result.rows[0].values["home_team.name"] == "Springfield Wolves"


def test_rows_do_not_depend_on_which_condition_seeds():
    """An index seed verifies its condition like a filter: a name seed does
    not match an alias, and a value seed matches ``3.0`` for ``3``, so the
    cost-based seed choice (moved here by five more ``Beta`` documents)
    cannot change the rows."""
    a = doc("a", name="Alpha", facts={"alias": ["Beta"], "score": [3.0], "genre": ["rock"]})
    b = doc("b", name="Beta", facts={"score": [3], "genre": ["rock"]})
    others = [doc(f"x{i}", name="Beta", facts={"score": [3], "genre": ["pop"]}) for i in range(5)]
    for text, expected in (
        ('MATCH thing WHERE genre = "rock" AND name = "Beta" RETURN name', ["b"]),
        ('MATCH thing WHERE genre = "rock" AND score = 3 RETURN name', ["a", "b"]),
    ):
        seeds = set()
        for documents in ([a, b], [a, b, *others]):
            index = make_index(documents)
            plan = QueryPlanner(selectivity=index.seed_selectivity).plan(parse(text))
            seeds.add(plan.seed.predicate_path)
            assert_modes_agree(index, plan)
            for executor in both_modes(index):
                assert [row.entity_id for row in executor.execute(plan).rows] == expected, text
        assert len(seeds) == 2, text        # the additions did move the seed


# ------------------------------------------------------------------ #
# range filters over the numeric columns
# ------------------------------------------------------------------ #
def test_range_filters_match_the_oracle_on_column_edge_cases():
    index = make_index([
        doc("m1", facts={"value": [1, 9]}),             # multi-valued
        doc("m2", facts={"value": ["3.5"]}),            # numeric string
        doc("m3", facts={"value": [True]}),             # a bool is 1.0
        doc("m4", facts={"value": ["nan"]}),            # NaN compares false
        doc("m5", facts={"value": ["abc", 6]}),         # unparsable beside a number
        doc("m6", refs={"value": "7"}),                 # a reference under the predicate
        doc("m7", facts={"value": [2]}, refs={"value": "m1"}),
        doc("m8"),                                      # no value at all
        doc("m9", facts={"value": [float("inf")]}),
    ])
    executor = QueryExecutor(index)
    for operator, target, expected in (
        (">", 5, ["m1", "m5", "m6", "m9"]),
        ("<", 5, ["m1", "m2", "m3", "m7"]),
        (">", 3.5, ["m1", "m5", "m6", "m9"]),
        ("<", 1, []),
        (">", 0.5, ["m1", "m2", "m3", "m5", "m6", "m7", "m9"]),
        (">", True, ["m1", "m2", "m5", "m6", "m7", "m9"]),
        (">", float("nan"), []),
        (">", float("inf"), []),
        # A non-numeric target takes the per-document path: "5" still
        # compares as a number there, "abc" never does.
        (">", "5", ["m1", "m5", "m6", "m9"]),
        ("<", "abc", []),
    ):
        plan = filter_plan("thing", Condition(("value",), operator, target))
        assert_modes_agree(index, plan)
        assert [row.entity_id for row in executor.execute(plan).rows] == expected, (operator, target)


def test_range_equality_and_limit_together_match_the_oracle():
    index = make_index([
        doc(f"r{i:02d}", facts={"value": [i % 7], "genre": ["rock" if i % 3 else "pop"]})
        for i in range(30)
    ])
    planner = QueryPlanner(selectivity=index.seed_selectivity)
    plans = [
        planner.plan(parse('MATCH thing WHERE value > 3 AND genre = "rock" RETURN value LIMIT 4')),
        filter_plan("thing", Condition(("value",), "<", 2)),
    ]
    conditions = [Condition(("value",), ">", 3), Condition(("genre",), "=", "rock")]
    query = Query(entity_type="thing", conditions=conditions, returns=[("value",)], limit=4)
    plans.append(PhysicalPlan(
        query=query, seed=TypeScan("thing"), filters=[FilterOp(c) for c in conditions],
        project=ProjectOp((("value",),)), limit=LimitOp(4),
    ))
    for plan in plans:
        assert_modes_agree(index, plan)
    result = QueryExecutor(index).execute(plans[2])
    assert [row.entity_id for row in result.rows] == ["r04", "r05", "r11", "r13"]
    assert result.candidates_examined == 30


# ------------------------------------------------------------------ #
# LIMIT accounting regressions
# ------------------------------------------------------------------ #
def test_limit_break_counts_only_examined_candidates():
    index = make_index([doc(f"e{i}", facts={"value": [i]}) for i in range(10)])
    planner = QueryPlanner(selectivity=index.seed_selectivity)
    # No filters: the scan stops at the limit-th match — exactly 3 examined.
    plan = planner.plan(parse("MATCH thing RETURN name LIMIT 3"))
    for executor in both_modes(index):
        result = executor.execute(plan)
        assert len(result.rows) == 3
        assert result.candidates_examined == 3
    # With a filter every candidate must be examined, limit or not.
    plan = planner.plan(parse("MATCH thing WHERE value > 1 RETURN name LIMIT 2"))
    for executor in both_modes(index):
        result = executor.execute(plan)
        assert len(result.rows) == 2
        assert result.candidates_examined == 10


def test_latency_window_is_bounded_and_queries_are_counted_apart():
    """A replica executes queries for its whole life: the latency sample must
    not grow with them (it once held one float per query, sorted whole per
    percentile)."""
    index = make_index([doc("e1", name="Ada", facts={"value": [1]})])
    executor = QueryExecutor(index)
    plan = QueryPlanner(selectivity=index.seed_selectivity).plan(
        parse("MATCH thing RETURN name, value")
    )
    executor.latencies_ms.append(1e9)           # an outlier older than the window
    total = 10 * LATENCY_WINDOW
    for _ in range(total):
        executor.execute(plan)
    assert executor.queries_executed == total
    assert len(executor.latencies_ms) == LATENCY_WINDOW
    recent = sorted(executor.latencies_ms)
    assert executor.latency_percentile(100.0) == recent[-1] < 1e9
    assert executor.latency_percentile(50.0) == recent[round(0.5 * (LATENCY_WINDOW - 1))]


# ------------------------------------------------------------------ #
# distributed: the same fleet answers identically whichever executor its
# replicas run
# ------------------------------------------------------------------ #
def test_query_router_equivalence_across_modes():
    rows = tuple(
        {
            "subject": f"s{i:02d}",
            "name": f"Entity {i % 7}",
            "value": i % 10,
            "types": ["alpha" if i % 3 else "beta"],
        }
        for i in range(30)
    )
    batch = ShipmentBatch(
        kind="snapshot", view_name="profile_rows", lsn=5, rows=rows
    )
    nodes = [ReplicaNode(name).start() for name in ("r1", "r2", "r3")]
    router = ShardRouter({node.name: node for node in nodes}, head_lsn_source=lambda: 5)
    try:
        for node in nodes:
            node.offer(batch)
        for node in nodes:
            assert node.drain()
        query_router = QueryRouter(router)
        texts = (
            "MATCH alpha RETURN name, value",
            "MATCH alpha WHERE value > 4 RETURN name",
            'MATCH beta WHERE name CONTAINS "2" RETURN * LIMIT 3',
            "MATCH alpha WHERE value = 3 RETURN value",
            'MATCH beta WHERE name = "Entity 3" RETURN name',
        )

        def answers():
            return [query_router.execute(text, "profile_rows") for text in texts]

        vectorized_answers = answers()
        for node in nodes:
            assert type(node.executor) is QueryExecutor
            node.executor = PerDocumentExecutor(node.index)
        for text, vectorized, reference in zip(texts, vectorized_answers, answers()):
            assert rows_of(vectorized) == rows_of(reference), text
            assert vectorized.candidates_examined == reference.candidates_examined, text
    finally:
        for node in nodes:
            node.stop()
