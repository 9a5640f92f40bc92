"""Regular path queries: syntax, automata, adjacency, and equivalence.

Three contracts, property-tested over seeded inputs:

* **bitmap-RPQ ≡ naive BFS** — executing a REACH plan over the incrementally
  maintained adjacency bitmaps (including the interval-encoding fast path for
  tree closures) returns exactly the rows *and witness paths* a from-scratch
  set-based BFS (:func:`repro.live.rpq.naive_rpq`) derives from the same
  documents (``rpq_seed`` sequences, scaled by ``--runs-seeded``);
* **distributed ≡ primary** — a REACH routed through the ``QueryRouter`` to
  one replica of a fleet (its evaluator over the ``view:X`` feed, with
  mid-sequence kills and restarts) returns the same rows, values, ordering,
  ``candidates_examined`` and witnesses as primary-side execution over the
  same view feed (``rpq_fleet_seed`` sequences);
* **tenancy** — REACH widens a plan's type scope, so a type-sliced tenant can
  run ``REACH ... TO type`` inside its slice but an unbounded REACH (or a TO
  outside the slice) is refused at plan time.
"""

from __future__ import annotations

import random

import pytest

from oracles.per_document_executor import PerDocumentExecutor
from repro.errors import KGQPlanError, KGQSyntaxError
from repro.live.executor import QueryExecutor, QueryResultRow
from repro.live.index import LiveEntityDocument, LiveIndex, view_row_document
from repro.live.kgq import RpqAlt, RpqConcat, RpqLabel, RpqPlus, RpqStar, parse
from repro.live.planner import (
    QueryPlanner,
    ensure_plan_within_types,
    plan_scope,
)
from repro.live.rpq import (
    compile_automaton,
    naive_rpq,
    single_label_closure,
)
from repro.serving.frontdoor.tenancy import QueryCache
from test_query_router import QueryModel, build_query_harness, delta_at, start_fleet

# The rpq_seed / rpq_fleet_seed fixtures are parametrized by the repo-level
# conftest.py from --runs-seeded (rpq_fleet_seed capped: each sequence spins
# up fleet worker threads).


# ------------------------------------------------------------------ #
# syntax: parsing, rendering, precedence
# ------------------------------------------------------------------ #
def test_reach_clause_parses_and_renders_round_trip():
    text = 'MATCH district WHERE name = "Old Town" REACH part_of* TO region RETURN name'
    query = parse(text)
    assert isinstance(query.reach, RpqStar)
    assert query.reach_type == "region"
    assert query.render() == text
    # render() round-trips through the parser (cache keys depend on it)
    assert parse(query.render()).render() == query.render()


def test_rpq_expression_precedence_and_shapes():
    query = parse('MATCH person REACH mentor/(knows|^knows)+ TO person RETURN name')
    expr = query.reach
    assert isinstance(expr, RpqConcat)
    assert isinstance(expr.parts[0], RpqLabel) and expr.parts[0].predicate == "mentor"
    plus = expr.parts[1]
    assert isinstance(plus, RpqPlus) and isinstance(plus.inner, RpqAlt)
    inverse = plus.inner.options[1]
    assert isinstance(inverse, RpqLabel) and inverse.inverse
    assert expr.render() == "mentor/(knows|^knows)+"
    # alternation binds loosest, closures tightest
    alt = parse("MATCH t REACH a/b|c* RETURN name").reach
    assert isinstance(alt, RpqAlt)
    assert alt.options[0].render() == "a/b"
    assert isinstance(alt.options[1], RpqStar)


@pytest.mark.parametrize(
    "bad",
    [
        "MATCH t REACH RETURN name",                 # missing expression
        "MATCH t REACH part_of* TO RETURN name",     # TO without a type
        "MATCH t REACH (part_of RETURN name",        # unclosed group
        "MATCH t REACH ^ RETURN name",               # caret without a label
        "MATCH t REACH part_of | RETURN name",       # dangling alternation
    ],
)
def test_malformed_reach_clauses_raise(bad):
    with pytest.raises(KGQSyntaxError):
        parse(bad)


# ------------------------------------------------------------------ #
# automaton compilation
# ------------------------------------------------------------------ #
def test_automaton_shapes_and_empty_path_acceptance():
    star = compile_automaton(parse("MATCH t REACH part_of* RETURN name").reach)
    plus = compile_automaton(parse("MATCH t REACH part_of+ RETURN name").reach)
    assert star.matches_empty() and not plus.matches_empty()
    concat = compile_automaton(parse("MATCH t REACH a/b RETURN name").reach)
    assert not concat.matches_empty()
    # deterministic: the same expression compiles identically every time
    again = compile_automaton(parse("MATCH t REACH part_of* RETURN name").reach)
    assert again.transitions == star.transitions
    assert again.accepting == star.accepting


def test_single_label_closure_detection():
    assert single_label_closure(parse("MATCH t REACH p* RETURN name").reach) == ("p", False, True)
    assert single_label_closure(parse("MATCH t REACH ^p+ RETURN name").reach) == ("p", True, False)
    assert single_label_closure(parse("MATCH t REACH p/q RETURN name").reach) is None
    assert single_label_closure(parse("MATCH t REACH (p|q)* RETURN name").reach) is None


# ------------------------------------------------------------------ #
# adjacency maintenance: bitmaps and intervals follow mutations
# ------------------------------------------------------------------ #
def _doc(eid, etype="node", **facts):
    return LiveEntityDocument(
        entity_id=eid,
        entity_type=etype,
        name=eid.upper(),
        facts={k: v if isinstance(v, list) else [v] for k, v in facts.items()},
    )


def test_adjacency_follows_upserts_and_deletes():
    index = LiveIndex()
    index.upsert(_doc("a", part_of="b"))
    index.upsert(_doc("b", part_of="c"))
    index.upsert(_doc("c"))
    auto = compile_automaton(parse("MATCH node REACH part_of+ RETURN name").reach)
    evaluate = lambda seeds: sorted(  # noqa: E731 - tiny local closure
        QueryExecutor(index).rpq.evaluate("", seeds, auto)[0]
    )
    assert evaluate(["a"]) == ["b", "c"]
    # a delta re-routes the edge: a now hangs under c directly
    index.upsert(_doc("a", part_of="c"))
    assert evaluate(["a"]) == ["c"]
    # deleting the document clears its bits
    index.delete("b")
    assert evaluate(["a"]) == ["c"]
    assert evaluate(["b"]) == []


def test_interval_index_invalidated_by_shipped_mutations():
    index = LiveIndex()
    for i in range(1, 8):
        index.upsert(_doc(f"n{i}", part_of=f"n{i // 2}" if i > 1 else []))
    interval = index.adjacency.interval_index("", "part_of")
    assert interval is not None
    graph = index.adjacency.graph("")
    n1 = graph.ids["n1"]
    assert sorted(graph.names[o] for o in interval.descendants(n1)) == [
        f"n{i}" for i in range(1, 8)
    ]
    builds = index.adjacency.interval_builds
    # unchanged graph: the cached encoding is reused
    assert index.adjacency.interval_index("", "part_of") is interval
    assert index.adjacency.interval_builds == builds
    # a re-upsert that adds a non-edge fact moves no edge: still reused
    index.upsert(_doc("n4", part_of="n2", weight=3))
    assert index.adjacency.interval_index("", "part_of") is interval
    assert index.adjacency.interval_builds == builds
    # a second parent breaks tree shape -> the encoding honestly refuses
    index.upsert(_doc("n7", part_of=["n3", "n5"]))
    assert index.adjacency.interval_index("", "part_of") is None
    # restoring tree shape rebuilds a fresh encoding
    index.upsert(_doc("n7", part_of="n3"))
    rebuilt = index.adjacency.interval_index("", "part_of")
    assert rebuilt is not None and rebuilt is not interval


def test_interval_index_refuses_cycles():
    index = LiveIndex()
    index.upsert(_doc("a", part_of="b"))
    index.upsert(_doc("b", part_of="a"))
    assert index.adjacency.interval_index("", "part_of") is None
    # the product path still terminates and answers honestly
    executor = QueryExecutor(index)
    auto = compile_automaton(parse("MATCH node REACH part_of+ RETURN name").reach)
    answers, _ = executor.rpq.evaluate("", ["a"], auto)
    assert sorted(answers) == ["a", "b"]


# ------------------------------------------------------------------ #
# seeded equivalence: bitmaps (and intervals) ≡ naive BFS
# ------------------------------------------------------------------ #
REACH_BATTERY = (
    'MATCH node WHERE kind = "seed" REACH part_of* RETURN name',
    'MATCH node WHERE kind = "seed" REACH part_of+ TO node RETURN name',
    'MATCH node WHERE kind = "seed" REACH ^part_of+ RETURN name',
    'MATCH node WHERE kind = "seed" REACH ^part_of* RETURN name LIMIT 5',
    'MATCH node WHERE kind = "seed" REACH knows RETURN name',
    'MATCH node WHERE kind = "seed" REACH knows/(part_of|^part_of) RETURN name',
    'MATCH node WHERE kind = "seed" REACH (knows|likes)+ RETURN name LIMIT 7',
    'MATCH node WHERE kind = "seed" REACH ^knows/likes* RETURN name',
    'MATCH node WHERE kind = "seed" REACH (part_of/part_of)* RETURN name',
)


def _random_graph_index(rng: random.Random) -> LiveIndex:
    """A seeded random graph: a part_of forest + random knows/likes edges.

    Some sequences deliberately break the forest shape (a node with two
    parents) so the interval fast path's honest fallback is exercised too.
    """
    index = LiveIndex()
    n = rng.randint(6, 18)
    break_tree = rng.random() < 0.3
    for i in range(n):
        facts: dict = {"kind": ["seed"] if rng.random() < 0.4 else ["other"]}
        if i > 0:
            parents = [f"v{rng.randrange(i):02d}"]
            if break_tree and rng.random() < 0.2:
                parents.append(f"v{rng.randrange(i):02d}")
            facts["part_of"] = sorted(set(parents))
        for predicate in ("knows", "likes"):
            if rng.random() < 0.5:
                facts[predicate] = [f"v{rng.randrange(n):02d}"]
        index.upsert(_doc(f"v{i:02d}", **facts))
    return index


def test_bitmap_rpq_matches_naive_bfs_over_seeded_graphs(rpq_seed):
    rng = random.Random(47000 + rpq_seed)
    index = _random_graph_index(rng)
    planner = QueryPlanner(selectivity=index.seed_selectivity)
    documents = [index.get(eid) for eid in sorted(index.kv.ids_by_type("node"))]
    queries = rng.sample(REACH_BATTERY, k=4)
    for text in queries:
        plan = planner.plan(parse(text))
        # the reference: per-document seed pipeline + set-based BFS
        reference_executor = PerDocumentExecutor(index)
        seeds, _ = reference_executor.match_documents(plan, apply_limit=False)
        automaton = compile_automaton(plan.reach.expression)
        answers, _ = naive_rpq(documents, [d.entity_id for d in seeds], automaton)
        expected = []
        for node in sorted(answers):
            document = index.get(node)
            if document is None:
                continue
            if (
                plan.reach.target_type
                and document.entity_type
                and document.entity_type != plan.reach.target_type
            ):
                continue
            expected.append((node, answers[node]))
        if plan.limit is not None:
            expected = expected[: plan.limit.limit]
        # the executor and its per-document oracle must agree with the reference
        for executor in (QueryExecutor(index), reference_executor):
            result = executor.execute(plan)
            got = [(row.entity_id, row.witness) for row in result.rows]
            assert got == expected, (text, type(executor).__name__)


def test_interval_fast_path_is_taken_and_agrees_with_product():
    rng = random.Random(99)
    index = LiveIndex()
    for i in range(40):
        facts = {"kind": ["seed"] if i % 7 == 0 else ["other"]}
        if i > 0:
            facts["part_of"] = [f"v{(i - 1) // 3:02d}"]
        index.upsert(_doc(f"v{i:02d}", **facts))
    planner = QueryPlanner(selectivity=index.seed_selectivity)
    for text in (
        'MATCH node WHERE kind = "seed" REACH part_of* RETURN name',
        'MATCH node WHERE kind = "seed" REACH ^part_of+ RETURN name',
    ):
        plan = planner.plan(parse(text))
        fast = QueryExecutor(index)
        fast_result = fast.execute(plan)
        assert fast.rpq.interval_hits == 1 and fast.rpq.product_runs == 0
        # force the product path by stripping the closure marker
        slow = QueryExecutor(index)
        slow_answers, _ = slow.rpq.evaluate(
            "",
            [d.entity_id for d in slow.match_documents(plan, apply_limit=False)[0]],
            plan.reach.automaton,
            closure=None,
        )
        assert {row.entity_id: row.witness for row in fast_result.rows} == slow_answers
    del rng  # seeded layout documented above; nothing random-dependent below


# ------------------------------------------------------------------ #
# witnesses are canonical and survive the result cache
# ------------------------------------------------------------------ #
def test_witness_is_shortest_then_lexicographically_least():
    index = LiveIndex()
    # two paths a->z: a/knows->z (short) and a/knows->b/knows->z (long)
    index.upsert(_doc("a", knows=["b", "z"]))
    index.upsert(_doc("b", knows="z"))
    index.upsert(_doc("z"))
    executor = QueryExecutor(index)
    auto = compile_automaton(parse("MATCH node REACH knows+ RETURN name").reach)
    answers, _ = executor.rpq.evaluate("", ["a"], auto)
    assert answers["z"] == (("a", "knows", "z"),)
    # equal-length tie: the lexicographically least edge sequence wins
    index.upsert(_doc("a", knows=["b", "c"]))
    index.upsert(_doc("b", knows="z"))
    index.upsert(_doc("c", knows="z"))
    answers, _ = executor.rpq.evaluate("", ["a"], auto)
    assert answers["z"] == (("a", "knows", "b"), ("b", "knows", "z"))


def test_query_cache_preserves_witnesses():
    # the front door's result cache hands back the REACH rows' witnesses
    cache = QueryCache(capacity=4)
    witness = (("a", "part_of", "b"),)
    cache.put("k", [QueryResultRow("a", {"name": "A"}, witness=witness)])
    cached = cache.get("k")
    assert cached is not None and cached[0].witness == witness
    # a cached REACH result returns the same witnesses as its execution
    index = LiveIndex()
    index.upsert(_doc("a", etype="seedling", part_of="b"))
    index.upsert(_doc("b"))
    executor = QueryExecutor(index)
    planner = QueryPlanner(selectivity=index.seed_selectivity)
    plan = planner.plan(parse("MATCH seedling REACH part_of+ RETURN name"))
    first = executor.execute(plan)
    assert any(row.witness for row in first.rows)
    cache.put("reach", first.rows)
    assert [(r.entity_id, r.witness) for r in cache.get("reach")] == [
        (r.entity_id, r.witness) for r in first.rows
    ]


# ------------------------------------------------------------------ #
# tenancy: REACH scope enforcement at plan time
# ------------------------------------------------------------------ #
def test_reach_widens_plan_scope_and_tenancy_enforces_it():
    planner = QueryPlanner()
    bounded = planner.plan(parse("MATCH district REACH part_of* TO region RETURN name"))
    assert plan_scope(bounded) == frozenset({"district", "region"})
    unbounded = planner.plan(parse("MATCH district REACH part_of* RETURN name"))
    assert plan_scope(unbounded) == frozenset({"district", "*"})
    # a slice holding both types admits the bounded plan
    ensure_plan_within_types(bounded, frozenset({"district", "region"}))
    # ...but not one missing the TO type
    with pytest.raises(KGQPlanError):
        ensure_plan_within_types(bounded, frozenset({"district"}))
    # an unbounded REACH is refused for every type-sliced caller, with a
    # message telling them to bound it
    with pytest.raises(KGQPlanError, match="TO"):
        ensure_plan_within_types(unbounded, frozenset({"district", "region"}))
    # an unrestricted caller (whole-KG slice) may run anything
    ensure_plan_within_types(unbounded, None)


# ------------------------------------------------------------------ #
# distributed ≡ primary over seeded fleet sequences
# ------------------------------------------------------------------ #
DISTRIBUTED_BATTERY = (
    'MATCH alpha REACH part_of* RETURN name, value',
    'MATCH alpha WHERE value > 20 REACH part_of+ TO beta RETURN name',
    'MATCH beta REACH ^part_of+ RETURN name LIMIT 6',
    'MATCH beta REACH knows/(part_of|^part_of) RETURN name',
    'MATCH alpha REACH (knows|part_of)+ RETURN name LIMIT 8',
)


class ReachQueryModel(QueryModel):
    """Rows carry a ``part_of`` forest and random ``knows`` edges."""

    def __init__(self, rng: random.Random):
        super().__init__()
        self.rng = rng
        self.edges: dict[str, dict[str, str]] = {}

    def add(self, eid: str, etype: str, value: int):
        self.entities[eid] = {"type": etype, "value": value}
        edges = {}
        others = sorted(set(self.entities) - {eid})
        if others and self.rng.random() < 0.8:
            edges["part_of"] = self.rng.choice(others)
        if others and self.rng.random() < 0.5:
            edges["knows"] = self.rng.choice(others)
        self.edges[eid] = edges

    def row(self, eid: str) -> dict:
        row = super().row(eid)
        row.update(self.edges.get(eid, {}))
        return row


def primary_reach_results(manager, queries):
    """Execute *queries* primary-side over a fresh feed of the artifact."""
    index = LiveIndex()
    lsn = manager.built_at_lsn("profile_rows")
    index.replace_feed(
        "view:profile_rows",
        (
            view_row_document("profile_rows", "view:profile_rows", row, lsn)
            for row in manager.artifact("profile_rows").values()
        ),
        lsn,
    )
    executor = QueryExecutor(index)
    planner = QueryPlanner(selectivity=index.seed_selectivity)
    results = {}
    for text in queries:
        result = executor.execute(
            planner.plan(parse(text)), reach_feed="view:profile_rows"
        )
        results[text] = (reach_rows(result), result.candidates_examined)
    return results


def reach_rows(result):
    return [(row.entity_id, row.values, row.witness) for row in result.rows]


def assert_fleet_reach_matches_primary(fleet, manager):
    expected = primary_reach_results(manager, DISTRIBUTED_BATTERY)
    for text, (rows, examined) in expected.items():
        result = fleet.query(text, "profile_rows")
        assert reach_rows(result) == rows, text
        assert result.candidates_examined == examined, text


def test_distributed_reach_matches_primary_over_seeded_sequences(rpq_fleet_seed):
    rng = random.Random(52000 + rpq_fleet_seed)
    model = ReachQueryModel(rng)
    counter = rng.randint(8, 16)
    for i in range(counter):
        model.add(f"e{i:02d}", rng.choice(("alpha", "beta")), rng.randint(0, 99))
    _, manager, clock = build_query_harness(model)
    manager.materialize()
    fleet = start_fleet(manager)
    killed: list[str] = []

    def enqueue(changed=(), deleted=(), added=()):
        clock["lsn"] += 1
        manager.enqueue(delta_at(
            clock["lsn"], added=added, updated=set(changed) - set(added), deleted=deleted,
        ))

    try:
        for _ in range(rng.randint(6, 14)):
            op = rng.choices(
                ["add", "rewire", "delete", "flush", "kill", "restart"],
                weights=[18, 22, 12, 28, 8, 12],
            )[0]
            if op == "add":
                counter += 1
                eid = f"e{counter:02d}"
                model.add(eid, rng.choice(("alpha", "beta")), rng.randint(0, 99))
                enqueue([eid], added=[eid])
            elif op == "rewire" and model.entities:
                eid = rng.choice(sorted(model.entities))
                others = sorted(set(model.entities) - {eid})
                if others:
                    model.edges[eid]["part_of"] = rng.choice(others)
                    enqueue([eid])
            elif op == "delete" and len(model.entities) > 2:
                eid = rng.choice(sorted(model.entities))
                del model.entities[eid]
                model.edges.pop(eid, None)
                enqueue(deleted=[eid])
            elif op == "flush":
                manager.flush()
                assert fleet.drain()
                assert_fleet_reach_matches_primary(fleet, manager)
            elif op == "kill" and len(killed) < 2:       # keep one replica alive
                name = rng.choice(sorted(set(fleet.replicas) - set(killed)))
                fleet.kill_replica(name)
                killed.append(name)
            elif op == "restart" and killed:
                fleet.restart_replica(killed.pop(rng.randrange(len(killed))))
        manager.flush()
        assert fleet.drain()
        assert_fleet_reach_matches_primary(fleet, manager)
        stats = fleet.query_router.stats()
        assert stats["reach_queries"] > 0
        assert stats["fragments_dispatched"] == stats["queries_routed"]
    finally:
        fleet.stop()


def test_replica_death_mid_reach_re_dispatches_to_survivors():
    rng = random.Random(11)
    model = ReachQueryModel(rng)
    for i in range(10):
        model.add(f"e{i:02d}", "alpha", i * 10)
    _, manager, _ = build_query_harness(model)
    manager.materialize()
    fleet = start_fleet(manager, num_replicas=3)
    try:
        text = "MATCH alpha WHERE value > 40 REACH (knows|part_of)+ RETURN name"
        rows, examined = primary_reach_results(manager, (text,))[text]
        # the answers carry real paths, so witness identity is not vacuous
        assert any(witness for _, _, witness in rows)
        # the replica the text is placed on dies *between* placement and
        # execution, so the router must hand the plan to the next owner
        victim_name = fleet.router.owners(text)[0]
        victim = fleet.replicas[victim_name]
        original = victim.query

        def dies_on_first_query(*args, **kwargs):
            victim.kill()
            return original(*args, **kwargs)

        victim.query = dies_on_first_query
        result = fleet.query(text, "profile_rows")
        assert (reach_rows(result), result.candidates_examined) == (rows, examined)
        assert fleet.query_router.fragment_retries == 1
        assert fleet.replicas[fleet.router.owners(text)[1]].local_queries == 1
    finally:
        fleet.stop()
