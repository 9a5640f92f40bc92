"""Incremental maintenance of join-shaped views + distributed cross-view joins.

Two equivalence contracts, both property-tested over seeded sequences:

* **delta rules ≡ full rebuild** — a :class:`JoinViewDefinition` maintained
  through random add/update/rekey/delete/flush sequences stays row-identical
  to a from-scratch ``create`` of the same inputs, while the manager's
  counters prove the work went through ``apply_delta`` (zero maintenance
  ``full_rebuilds``) and the journal carries the **output-row** delta
  (``DeltaApplyResult``), so a journal consumer replaying from any LSN
  converges without resync.

* **distributed ≡ primary** — a cross-view join routed through
  ``QueryRouter.execute_join`` runs whole on one replica and returns results
  identical to primary-side ``join_results`` over the same artifacts, under
  replica kills and restarts mid-sequence — and, with replicas at different
  LSNs, equal to the primary at one state, never a mix of two.

The warehouse satellites ride along: ``Relation.from_columns`` ragged-column
rejection, ``hash_join`` missing-key rejection, and operator edge cases
(duplicate right keys, inner fan-out, empty group-by).

Sequence counts follow ``--runs-seeded`` (see ``conftest.py``);
``join_fleet_seed`` is capped like the other fleet-backed suites.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.engine.analytics import JoinAccessPattern, Relation
from repro.engine.views import (
    JoinInput,
    JoinViewDefinition,
    ViewCatalog,
    ViewDefinition,
    ViewDelta,
    ViewManager,
)
from repro.errors import (
    KGQPlanError,
    LiveGraphError,
    ServingError,
    StaleReadError,
    StoreError,
    ViewError,
)
from repro.live.executor import (
    QueryExecutor,
    canonical_join_key,
    join_results,
)
from repro.live.index import LiveIndex, view_row_document
from repro.live.kgq import parse
from repro.live.planner import QueryPlanner
from repro.serving import Consistency, ServingFleet


def delta_at(lsn, added=(), updated=(), deleted=()):
    """The delta of the one operation at log position *lsn*."""
    return ViewDelta(
        added=frozenset(added), updated=frozenset(updated), deleted=frozenset(deleted),
        first_lsn=lsn, last_lsn=lsn,
    )


# ------------------------------------------------------------------ #
# warehouse operators (the join-input layer)
# ------------------------------------------------------------------ #
def test_from_columns_rejects_ragged_columns():
    with pytest.raises(StoreError) as excinfo:
        Relation.from_columns("r", {"a": [1, 2, 3], "b": [4, 5]})
    message = str(excinfo.value)
    assert "'r'" in message and "a=3" in message and "b=2" in message
    # equal lengths (including zero) still build
    assert len(Relation.from_columns("r", {"a": [], "b": []})) == 0
    assert Relation.from_columns("r", {"a": [1], "b": [2]}).rows == [
        {"a": 1, "b": 2}
    ]


def test_hash_join_rejects_rows_missing_the_join_key():
    left = Relation("orders", [{"sku": "a"}, {"qty": 2}])
    right = Relation("items", [{"sku": "a", "price": 5}])
    with pytest.raises(StoreError) as excinfo:
        left.hash_join(right, "sku", "sku")
    message = str(excinfo.value)
    assert "'orders'" in message and "row 1" in message and "'sku'" in message
    # the right side is validated too, on both build-side choices
    ragged_right = Relation("items", [{"price": 5}])
    for how in ("inner", "left"):
        with pytest.raises(StoreError):
            Relation("orders", [{"sku": "a"}]).hash_join(
                ragged_right, "sku", "sku", how=how
            )
    # a None key VALUE is legal and joins other None keys
    joined = Relation("l", [{"k": None, "x": 1}]).hash_join(
        Relation("r", [{"k": None, "y": 2}]), "k", "k"
    )
    assert joined.rows == [{"k": None, "x": 1, "y": 2}]


def test_left_join_fans_out_over_duplicate_right_keys():
    left = Relation("l", [{"k": 1, "x": "a"}, {"k": 2, "x": "b"}])
    right = Relation("r", [{"k": 1, "y": "p"}, {"k": 1, "y": "q"}])
    joined = left.hash_join(right, "k", "k", how="left")
    # k=1 fans out to both right rows; k=2 survives unmatched
    assert joined.rows == [
        {"k": 1, "x": "a", "y": "p"},
        {"k": 1, "x": "a", "y": "q"},
        {"k": 2, "x": "b"},
    ]


def test_inner_join_fan_out_multiplies_and_drops_misses():
    left = Relation("l", [{"k": 1, "x": i} for i in range(3)] + [{"k": 9, "x": 9}])
    right = Relation("r", [{"k": 1, "y": j} for j in range(4)])
    joined = left.hash_join(right, "k", "k")
    assert len(joined) == 3 * 4                       # k=9 dropped, k=1 multiplies
    assert all(row["k"] == 1 for row in joined.rows)
    # probe/build side choice is a plan detail, not a result change
    flipped = right.hash_join(left, "k", "k")
    assert len(flipped) == 12


def test_group_by_on_empty_relation_yields_no_groups():
    empty = Relation("e", [])
    grouped = empty.group_by(["k"], {"n": len, "total": lambda rows: sum(
        row.get("v", 0) for row in rows)})
    assert grouped.rows == []
    # and grouping by a column nobody has produces one None-keyed group
    grouped = Relation("r", [{"v": 1}, {"v": 2}]).group_by(["k"], {"n": len})
    assert grouped.rows == [{"k": None, "n": 2}]


# ------------------------------------------------------------------ #
# the access-pattern building block
# ------------------------------------------------------------------ #
def test_join_access_pattern_validation_and_membership():
    with pytest.raises(StoreError):
        JoinAccessPattern("", "k")
    with pytest.raises(StoreError):
        JoinAccessPattern("input", "")
    pattern = JoinAccessPattern("input", "city")
    with pytest.raises(StoreError):
        pattern.rebuild([{"city": "a"}])                     # no subject
    with pytest.raises(StoreError):
        pattern.rebuild([{"subject": "p1"}])                 # no key column
    assert pattern.rebuild([
        {"subject": "p1", "city": "a"},
        {"subject": "p1", "city": "b"},
        {"subject": "p2", "city": "a"},
    ]) == 3
    assert len(pattern) == 2 and pattern.contains("p1")
    assert pattern.subjects_for_keys(["a"]) == {"p1", "p2"}
    # replace returns the retracted and asserted key values (the probe sets)
    old, new = pattern.replace_subject_rows("p1", [{"subject": "p1", "city": "c"}])
    assert old == {"a", "b"} and new == {"c"}
    assert pattern.subjects_for_keys(["a"]) == {"p2"}
    # a row naming a different subject is a schema mistake
    with pytest.raises(StoreError):
        pattern.replace_subject_rows("p2", [{"subject": "px", "city": "a"}])
    # empty replacement retracts membership entirely
    assert pattern.replace_subject_rows("p2", []) == ({"a"}, set())
    assert not pattern.contains("p2")


# ------------------------------------------------------------------ #
# harness: a two-input model maintained by a JoinViewDefinition
# ------------------------------------------------------------------ #
CITY_POOL = [f"c{i}" for i in range(5)]


class JoinModel:
    """People (left, keyed by home city) and cities (right)."""

    def __init__(self):
        self.people: dict[str, dict] = {}
        self.cities: dict[str, dict] = {}

    def person_rows(self, subjects=None):
        pool = sorted(self.people) if subjects is None else [
            s for s in sorted(set(subjects)) if s in self.people
        ]
        return [
            {"subject": s, "home": self.people[s]["home"],
             "age": self.people[s]["age"]}
            for s in pool
        ]

    def city_rows(self, subjects=None):
        pool = sorted(self.cities) if subjects is None else [
            s for s in sorted(set(subjects)) if s in self.cities
        ]
        return [
            {"subject": s, "home": s, "population": self.cities[s]["population"]}
            for s in pool
        ]

    def subjects(self):
        return list(self.people) + list(self.cities)


def join_definition(model: JoinModel, name="person_city", how="left"):
    return JoinViewDefinition(
        name,
        JoinInput("people", "home",
                  lambda context, ids: model.person_rows(ids),
                  scope=lambda e: e.startswith("p")),
        JoinInput("cities", "home",
                  lambda context, ids: model.city_rows(ids),
                  scope=lambda e: e.startswith("c")),
        how=how,
    )


def build_join_harness(model: JoinModel, how="left"):
    catalog = ViewCatalog()
    definition = join_definition(model, how=how)
    catalog.register(definition)
    clock = {"lsn": 1}
    manager = ViewManager(
        catalog, engines={},
        lsn_source=lambda: clock["lsn"], entity_source=model.subjects,
    )
    return definition, manager, clock


def record_appends(manager) -> list:
    """The ``append`` journal events *manager* commits from now on."""
    appends = []
    manager.add_journal_listener(
        lambda event: appends.append(event) if event.kind == "append" else None
    )
    return appends


def appended_since(appends, lsn: int) -> ViewDelta:
    """Net output-row delta of the recorded appends committed after *lsn*."""
    net = ViewDelta(first_lsn=lsn, last_lsn=lsn)
    for event in appends:
        if event.lsn > lsn:
            net = net.merge(event.delta)
    return net


def seed_join_model(model: JoinModel, rng, people=None):
    for city in rng.sample(CITY_POOL, rng.randint(2, len(CITY_POOL))):
        model.cities[city] = {"population": rng.randint(1, 9) * 1000}
    count = people if people is not None else rng.randint(6, 15)
    for i in range(count):
        model.people[f"p{i:02d}"] = {
            "home": rng.choice(CITY_POOL + ["nowhere"]),
            "age": rng.randint(18, 80),
        }
    return count


# ------------------------------------------------------------------ #
# join-view construction validation
# ------------------------------------------------------------------ #
def test_join_view_definition_validation():
    model = JoinModel()
    people = JoinInput("people", "home", lambda c, ids: model.person_rows(ids))
    cities = JoinInput("cities", "home", lambda c, ids: model.city_rows(ids))
    with pytest.raises(ViewError):
        JoinViewDefinition("v", people, cities, how="outer")
    with pytest.raises(ViewError):
        JoinViewDefinition(
            "v", people,
            JoinInput("people", "home", lambda c, ids: []),  # same input name
        )
    with pytest.raises(ViewError):
        JoinInput("", "home", lambda c, ids: [])
    with pytest.raises(ViewError):
        JoinInput("people", "", lambda c, ids: [])
    with pytest.raises(ViewError):
        JoinInput("people", "home", loader="not-callable")
    # both-sided scopes combine into a view scope; one-sided stays unscoped
    assert JoinViewDefinition("v1", people, cities).scope is None
    scoped = JoinViewDefinition(
        "v2",
        JoinInput("people", "home", lambda c, ids: [],
                  scope=lambda e: e.startswith("p")),
        JoinInput("cities", "home", lambda c, ids: [],
                  scope=lambda e: e.startswith("c")),
    )
    assert scoped.scope("p01") and scoped.scope("c1") and not scoped.scope("x")


def test_join_view_create_and_basic_delta_round():
    model = JoinModel()
    model.cities["c0"] = {"population": 1000}
    model.people["p00"] = {"home": "c0", "age": 30}
    model.people["p01"] = {"home": "nowhere", "age": 40}
    definition, manager, clock = build_join_harness(model)
    manager.materialize()
    artifact = manager.artifact("person_city")
    assert artifact["p00"] == {
        "subject": "p00", "home": "c0", "age": 30, "population": 1000,
    }
    assert artifact["p01"] == {"subject": "p01", "home": "nowhere", "age": 40}
    assert definition.ivm_stats()["full_builds"] == 1
    # a right-side change journals the affected LEFT subject (output delta)
    appends = record_appends(manager)
    lsn0 = manager.built_at_lsn("person_city")
    model.cities["c0"]["population"] = 2000
    clock["lsn"] += 1
    manager.enqueue(delta_at(clock["lsn"], updated={"c0"}))
    manager.flush()
    net = appended_since(appends, lsn0)
    assert set(net.updated) == {"p00"}
    assert "c0" not in net.changed
    assert manager.artifact("person_city")["p00"]["population"] == 2000
    assert definition.ivm_stats()["delta_rounds"] == 1
    assert manager.stats()["full_rebuilds"] == 0


def test_inner_join_view_drops_and_revives_unmatched_subjects():
    model = JoinModel()
    model.cities["c0"] = {"population": 1000}
    model.people["p00"] = {"home": "c0", "age": 30}
    model.people["p01"] = {"home": "nowhere", "age": 40}
    definition, manager, clock = build_join_harness(model, how="inner")
    manager.materialize()
    assert set(manager.artifact("person_city")) == {"p00"}
    # rekeying p01 onto a real city ADDS its output row through the delta path
    model.people["p01"]["home"] = "c0"
    clock["lsn"] += 1
    manager.enqueue(delta_at(clock["lsn"], updated={"p01"}))
    manager.flush()
    assert set(manager.artifact("person_city")) == {"p00", "p01"}
    # deleting the city removes BOTH output rows, journaled as deletions
    appends = record_appends(manager)
    lsn0 = manager.built_at_lsn("person_city")
    del model.cities["c0"]
    clock["lsn"] += 1
    manager.enqueue(delta_at(clock["lsn"], deleted={"c0"}))
    manager.flush()
    assert manager.artifact("person_city") == {}
    net = appended_since(appends, lsn0)
    assert set(net.deleted) == {"p00", "p01"}
    assert manager.stats()["full_rebuilds"] == 0


# ------------------------------------------------------------------ #
# the core IVM property: delta rules ≡ full rebuild, seeded
# ------------------------------------------------------------------ #
def test_join_view_delta_maintenance_matches_full_rebuild(ivm_seed):
    rng = random.Random(74000 + ivm_seed)
    how = rng.choice(["left", "inner"])
    model = JoinModel()
    counter = seed_join_model(model, rng)
    definition, manager, clock = build_join_harness(model, how=how)
    manager.materialize()
    replayed = dict(manager.artifact("person_city"))     # journal consumer copy
    replay_lsn = manager.built_at_lsn("person_city")
    appends = record_appends(manager)

    def enqueue(changed=(), deleted=(), added=()):
        clock["lsn"] += 1
        manager.enqueue(delta_at(
            clock["lsn"], added=added, updated=set(changed) - set(added), deleted=deleted,
        ))

    for _ in range(rng.randint(8, 20)):
        op = rng.choices(
            ["add_person", "rekey", "age", "del_person",
             "add_city", "repop", "del_city", "flush"],
            weights=[15, 15, 10, 10, 8, 12, 8, 22],
        )[0]
        if op == "add_person":
            counter += 1
            eid = f"p{counter:02d}"
            model.people[eid] = {"home": rng.choice(CITY_POOL + ["nowhere"]),
                                 "age": rng.randint(18, 80)}
            enqueue([eid], added=[eid])
        elif op == "rekey" and model.people:
            eid = rng.choice(sorted(model.people))
            model.people[eid]["home"] = rng.choice(CITY_POOL + ["nowhere"])
            enqueue([eid])
        elif op == "age" and model.people:
            eid = rng.choice(sorted(model.people))
            model.people[eid]["age"] += 1
            enqueue([eid])
        elif op == "del_person" and model.people:
            eid = rng.choice(sorted(model.people))
            del model.people[eid]
            enqueue(deleted=[eid])
        elif op == "add_city":
            missing = sorted(set(CITY_POOL) - set(model.cities))
            if missing:
                city = rng.choice(missing)
                model.cities[city] = {"population": rng.randint(1, 9) * 1000}
                enqueue([city], added=[city])
        elif op == "repop" and model.cities:
            city = rng.choice(sorted(model.cities))
            model.cities[city]["population"] += 500
            enqueue([city])
        elif op == "del_city" and model.cities:
            city = rng.choice(sorted(model.cities))
            del model.cities[city]
            enqueue(deleted=[city])
        elif op == "flush":
            manager.flush()
            artifact = manager.artifact("person_city")
            # (1) row-identical to a from-scratch rebuild of the same inputs
            oracle = join_definition(model, name="oracle", how=how)
            assert artifact == oracle._create(None)
            # (2) a journal consumer replaying the OUTPUT deltas converges
            net = appended_since(appends, replay_lsn)
            for subject in net.changed:
                replayed[subject] = artifact[subject]
            for subject in net.deleted:
                replayed.pop(subject, None)
            replay_lsn = manager.built_at_lsn("person_city")
            assert replayed == artifact

    manager.flush()
    artifact = manager.artifact("person_city")
    oracle = join_definition(model, name="oracle", how=how)
    assert artifact == oracle._create(None)
    # the work went through the delta rules, not rebuilds
    stats = manager.stats()
    assert stats["full_rebuilds"] == 0
    ivm = definition.ivm_stats()
    assert ivm["full_builds"] == 1                       # the initial create only
    assert ivm["delta_rounds"] == stats["incremental_applies"]
    assert len(definition._left_index) == len(model.people)
    assert len(definition._right_index) == len(model.cities)


def test_manager_maintenance_stats():
    model = JoinModel()
    seed_join_model(model, random.Random(5), people=8)
    definition, manager, clock = build_join_harness(model)
    manager.materialize()
    assert manager.stats()["flushes"] == 0
    # a delta-only workload: counters move, no rebuilds
    eid = sorted(model.people)[0]
    model.people[eid]["age"] += 1
    clock["lsn"] += 1
    manager.enqueue(delta_at(clock["lsn"], updated={eid}))
    manager.flush()
    stats = manager.stats()
    assert stats["full_rebuilds"] == 0
    assert stats["incremental_applies"] == 1
    assert stats["delta_rows_journaled"] >= 1
    # an unaffected flush is still counted, and rebuilds nothing
    clock["lsn"] += 1
    manager.enqueue(delta_at(clock["lsn"], updated={"zz_unrelated"}))
    manager.flush()
    stats = manager.stats()
    assert stats["flushes"] == 2
    assert stats["full_rebuilds"] == 0


# ------------------------------------------------------------------ #
# distributed cross-view joins: fleet harness
# ------------------------------------------------------------------ #
TWO_VIEW_QUERIES = (
    ("MATCH person RETURN name, home, age", "MATCH city RETURN name, home, pop"),
    ("MATCH person WHERE age > 30 RETURN name, home",
     "MATCH city RETURN home, pop"),
)


class FleetModel:
    """Two row views (people / cities) served by one fleet."""

    def __init__(self):
        self.people: dict[str, dict] = {}
        self.cities: dict[str, dict] = {}

    def person_row(self, eid):
        fields = self.people[eid]
        return {"subject": eid, "name": f"Person {eid}", "home": fields["home"],
                "age": fields["age"], "types": ["person"]}

    def city_row(self, eid):
        fields = self.cities[eid]
        return {"subject": eid, "name": f"City {eid}", "home": eid,
                "pop": fields["pop"], "types": ["city"]}

    def subjects(self):
        return list(self.people) + list(self.cities)


def build_fleet_harness(model: FleetModel):
    catalog = ViewCatalog()

    def row_view(name, store, row_of, prefix):
        def create(context):
            return {eid: row_of(eid) for eid in sorted(store)}

        def apply_delta(context, delta):
            artifact = dict(context.artifact(name))
            for eid in delta.changed:
                if eid in store:
                    artifact[eid] = row_of(eid)
            for eid in delta.deleted:
                artifact.pop(eid, None)
            return artifact

        catalog.register(ViewDefinition(
            name, "analytics", create=create, apply_delta=apply_delta,
            scope=lambda e: e.startswith(prefix),
        ))

    row_view("people_rows", model.people, model.person_row, "p")
    row_view("city_rows", model.cities, model.city_row, "c")
    clock = {"lsn": 1}
    manager = ViewManager(
        catalog, engines={},
        lsn_source=lambda: clock["lsn"], entity_source=model.subjects,
    )
    return manager, clock


def start_join_fleet(manager, num_replicas=3):
    fleet = ServingFleet(manager, num_replicas=num_replicas).start()
    fleet.serve_view("people_rows")
    fleet.serve_view("city_rows")
    assert fleet.drain()
    return fleet


def primary_join(manager, left_text, right_text, how, limit=None):
    """The primary-side oracle: execute both sides, join via join_results."""
    planner = QueryPlanner()
    sides = {}
    for view, text in (("people_rows", left_text), ("city_rows", right_text)):
        index = LiveIndex()
        lsn = manager.built_at_lsn(view)
        index.replace_feed(
            f"view:{view}",
            (view_row_document(view, f"view:{view}", row, lsn)
             for row in manager.artifact(view).values()),
            lsn,
        )
        sides[view] = QueryExecutor(index).execute(planner.plan(parse(text)))
    return join_results(sides["people_rows"], sides["city_rows"],
                        "home", "home", how=how, limit=limit)


def joined(result):
    return [(row.entity_id, row.values) for row in result.rows]


def assert_join_matches_primary(fleet, manager, how="left"):
    for left_text, right_text in TWO_VIEW_QUERIES:
        expected = primary_join(manager, left_text, right_text, how)
        result = fleet.join(left_text, "people_rows", right_text,
                            "city_rows", "home", "home", how=how)
        assert joined(result) == joined(expected), left_text


def seed_fleet_model(model: FleetModel, rng):
    for city in rng.sample(CITY_POOL, rng.randint(2, len(CITY_POOL))):
        model.cities[city] = {"pop": rng.randint(1, 9) * 1000}
    count = rng.randint(6, 14)
    for i in range(count):
        model.people[f"p{i:02d}"] = {"home": rng.choice(CITY_POOL + ["nowhere"]),
                                     "age": rng.randint(18, 80)}
    return count


# ------------------------------------------------------------------ #
# distributed join: the equivalence property under kills/restarts
# ------------------------------------------------------------------ #
def test_distributed_join_matches_primary_over_seeded_sequences(join_fleet_seed):
    rng = random.Random(88000 + join_fleet_seed)
    how = rng.choice(["left", "inner"])
    model = FleetModel()
    counter = seed_fleet_model(model, rng)
    manager, clock = build_fleet_harness(model)
    manager.materialize()
    fleet = start_join_fleet(manager)
    killed: list[str] = []

    def enqueue(changed=(), deleted=(), added=()):
        clock["lsn"] += 1
        manager.enqueue(delta_at(
            clock["lsn"], added=added, updated=set(changed) - set(added), deleted=deleted,
        ))

    try:
        for _ in range(rng.randint(6, 14)):
            op = rng.choices(
                ["add", "rekey", "repop", "delete", "flush", "kill", "restart"],
                weights=[16, 16, 12, 10, 28, 9, 9],
            )[0]
            if op == "add":
                counter += 1
                eid = f"p{counter:02d}"
                model.people[eid] = {"home": rng.choice(CITY_POOL + ["nowhere"]),
                                     "age": rng.randint(18, 80)}
                enqueue([eid], added=[eid])
            elif op == "rekey" and model.people:
                eid = rng.choice(sorted(model.people))
                model.people[eid]["home"] = rng.choice(CITY_POOL + ["nowhere"])
                enqueue([eid])
            elif op == "repop" and model.cities:
                city = rng.choice(sorted(model.cities))
                model.cities[city]["pop"] += 111
                enqueue([city])
            elif op == "delete" and model.people:
                eid = rng.choice(sorted(model.people))
                del model.people[eid]
                enqueue(deleted=[eid])
            elif op == "flush":
                manager.flush()
                assert fleet.drain()
                assert_join_matches_primary(fleet, manager, how)
            elif op == "kill" and len(killed) < 2:       # keep one replica alive
                name = rng.choice(sorted(set(fleet.replicas) - set(killed)))
                fleet.kill_replica(name)
                killed.append(name)
            elif op == "restart" and killed:
                fleet.restart_replica(killed.pop(rng.randrange(len(killed))))

        manager.flush()
        assert fleet.drain()
        assert_join_matches_primary(fleet, manager, how)
        stats = fleet.query_router.stats()
        assert stats["join_queries"] > 0
        # every join was answered by exactly one replica call
        assert stats["fragments_dispatched"] == stats["join_queries"]
    finally:
        fleet.stop()


def test_replica_death_mid_join_redispatches_the_whole_join():
    rng = random.Random(17)
    model = FleetModel()
    seed_fleet_model(model, rng)
    manager, _ = build_fleet_harness(model)
    manager.materialize()
    left_text, right_text = TWO_VIEW_QUERIES[0]
    fleet = start_join_fleet(manager)
    try:
        died: list[str] = []

        def dying_once(node, original):
            def dying(*args, **kwargs):
                if not died:                     # the first replica called
                    died.append(node.name)       # crashes mid-dispatch
                    fleet.kill_replica(node.name)
                return original(*args, **kwargs)
            return dying

        for node in fleet.replicas.values():
            node.join = dying_once(node, node.join)
        result = fleet.join(left_text, "people_rows", right_text,
                            "city_rows", "home", "home", how="left")
        expected = primary_join(manager, left_text, right_text, "left")
        assert joined(result) == joined(expected)
        assert died and fleet.query_router.fragment_retries == 1
    finally:
        fleet.stop()


def test_join_limit_and_counters():
    rng = random.Random(23)
    model = FleetModel()
    seed_fleet_model(model, rng)
    manager, _ = build_fleet_harness(model)
    manager.materialize()
    fleet = start_join_fleet(manager)
    left_text, right_text = TWO_VIEW_QUERIES[0]
    try:
        router = fleet.query_router
        for _ in range(2):
            fleet.join(left_text, "people_rows", right_text, "city_rows",
                       "home", "home")
        # the join counters land in stats() and on the answering replicas
        stats = router.stats()
        assert stats["join_queries"] == 2
        assert stats["fragments_dispatched"] == 2
        assert sum(node.status()["joins_executed"]
                   for node in fleet.replicas.values()) == 2
        # limit bounds the FINAL joined result, identically to primary
        limited = fleet.join(left_text, "people_rows", right_text, "city_rows",
                             "home", "home", how="left", limit=3)
        expected = primary_join(manager, left_text, right_text, "left", limit=3)
        assert joined(limited) == joined(expected)
        assert len(limited.rows) == 3
    finally:
        fleet.stop()


# ------------------------------------------------------------------ #
# distributed join: one replica, one state
# ------------------------------------------------------------------ #
#: Left texts spread over the ring; p00 (age 80) is in every one's result.
LEFT_TEXT_RANGE = [
    f"MATCH person WHERE age > {floor} RETURN name, home, age"
    for floor in range(20, 80, 3)
]
CITY_TEXT = TWO_VIEW_QUERIES[0][1]


def lagging_replica_fleet():
    """Two replicas over fixed people/cities; replica-1 gets no more batches.

    Its ``offer`` drops every batch, as a backpressure drop does, so it
    keeps serving the state it holds until something resyncs it.
    """
    model = FleetModel()
    model.cities.update({"c0": {"pop": 1000}, "c1": {"pop": 2000}})
    for i in range(8):
        model.people[f"p{i:02d}"] = {"home": f"c{i % 2}", "age": 20 + 8 * i}
    model.people["p00"]["age"] = 80
    manager, clock = build_fleet_harness(model)
    manager.materialize()
    fleet = start_join_fleet(manager, num_replicas=2)
    fleet.replicas["replica-1"].offer = lambda batch: False
    return model, manager, clock, fleet


def flush_city_and_person(model, manager, clock, fleet):
    """One flush changing city c0 and p00, a person joined to it."""
    model.cities["c0"]["pop"] += 111
    model.people["p00"]["age"] += 1
    clock["lsn"] += 1
    manager.enqueue(delta_at(clock["lsn"], updated={"c0", "p00"}))
    manager.flush()
    assert fleet.drain()
    return clock["lsn"]


def primary_joins(manager):
    return {text: joined(primary_join(manager, text, CITY_TEXT, "left"))
            for text in LEFT_TEXT_RANGE}


def test_join_never_mixes_two_replica_states():
    model, manager, clock, fleet = lagging_replica_fleet()
    try:
        old = primary_joins(manager)
        flush_city_and_person(model, manager, clock, fleet)
        new = primary_joins(manager)
        called: list[str] = []

        def spying(node, original):
            def spy(*args, **kwargs):
                called.append(node.name)
                return original(*args, **kwargs)
            return spy

        for node in fleet.replicas.values():
            node.query = spying(node, node.query)
        served = set()
        for text in LEFT_TEXT_RANGE:
            called.clear()
            result = fleet.join(text, "people_rows", CITY_TEXT, "city_rows",
                                "home", "home", how="left",
                                consistency=Consistency.any())
            assert len(set(called)) == 1, (text, called)
            got = joined(result)
            # the primary join at the old state or the new one, never a mix
            assert got in (old[text], new[text]), text
            served.add("old" if got == old[text] else "new")
        # both replicas answered: the lagging one really served the old state
        assert served == {"old", "new"}
    finally:
        fleet.stop()


def test_join_needs_one_replica_fresh_on_both_views():
    model, manager, clock, fleet = lagging_replica_fleet()
    try:
        lsn = flush_city_and_person(model, manager, clock, fleet)
        lagging = fleet.replicas["replica-1"]
        lagging.resync("people_rows")                 # fresh on people_rows only
        assert lagging.applied_lsn("people_rows") == lsn
        assert lagging.applied_lsn("city_rows") < lsn
        fresh_writes = Consistency.read_your_writes(lsn)
        router = fleet.router
        expected = primary_joins(manager)
        for text in LEFT_TEXT_RANGE:
            result = fleet.join(text, "people_rows", CITY_TEXT, "city_rows",
                                "home", "home", how="left",
                                consistency=fresh_writes)
            assert joined(result) == expected[text], text
        # replica-1 was skipped wherever it was the preferred owner
        assert lagging.joins_executed == 0
        assert fleet.replicas["replica-0"].joins_executed == len(LEFT_TEXT_RANGE)
        assert router.consistency_rejections == router.fallback_reads > 0
        # with replica-0 down no replica qualifies, and the error names replica-1
        fleet.kill_replica("replica-0")
        with pytest.raises(StaleReadError) as excinfo:
            fleet.join(LEFT_TEXT_RANGE[0], "people_rows", CITY_TEXT, "city_rows",
                       "home", "home", consistency=fresh_writes)
        assert excinfo.value.lagging == {
            "replica-1": lsn - lagging.applied_lsn("city_rows")
        }
        # a query of people_rows alone still qualifies replica-1
        result = fleet.query(LEFT_TEXT_RANGE[0], "people_rows", fresh_writes)
        assert result.rows
    finally:
        fleet.stop()


def test_join_side_validation_rejects_limit_reach_and_bad_options():
    model = FleetModel()
    seed_fleet_model(model, random.Random(29))
    manager, _ = build_fleet_harness(model)
    manager.materialize()
    fleet = start_join_fleet(manager, num_replicas=1)
    left_text, right_text = TWO_VIEW_QUERIES[0]
    try:
        # a side carrying LIMIT is rejected: limit= bounds the joined result
        for bad_side in ("left", "right"):
            args = [left_text, "people_rows", right_text, "city_rows"]
            args[0 if bad_side == "left" else 2] += " LIMIT 3"
            with pytest.raises(KGQPlanError) as excinfo:
                fleet.join(args[0], args[1], args[2], args[3], "home", "home")
            assert bad_side in str(excinfo.value)
        # REACH sides are not joinable: only plain MATCH pipelines are
        with pytest.raises(KGQPlanError):
            fleet.join("MATCH person REACH knows* RETURN name", "people_rows",
                       right_text, "city_rows", "home", "home")
        # a side must project its join key
        with pytest.raises(LiveGraphError) as excinfo:
            fleet.join("MATCH person RETURN name", "people_rows",
                       right_text, "city_rows", "home", "home")
        assert "RETURN" in str(excinfo.value)
        with pytest.raises(ServingError):
            fleet.join(left_text, "people_rows", right_text, "city_rows",
                       "home", "home", how="outer")
    finally:
        fleet.stop()


def test_canonical_join_key_unifies_numeric_and_structured_values():
    # the join hash table's key equality: numerically equal values share a
    # canonical key...
    assert canonical_join_key(3) == canonical_join_key(3.0)
    assert canonical_join_key(0) == canonical_join_key(0.0)
    assert canonical_join_key(1) == canonical_join_key(True)
    assert canonical_join_key(2.5) == canonical_join_key(2.5)
    # ...distinct values never collide across types
    assert canonical_join_key(3) != canonical_join_key("3")
    assert canonical_join_key(None) != canonical_join_key("null")
    assert canonical_join_key(["a", 1]) == canonical_join_key(["a", 1])
    assert canonical_join_key(["a", 1]) != canonical_join_key(["a", 2])


@pytest.mark.parametrize("key", [
    "kg:e1", "", "Beyoncé", "東京", "emoji 🎵", 'say "hi"', "back\\slash",
    "tab\tnew\nline\x00\x1f\x7f", "\u2028", "3", "null",
])
def test_canonical_join_key_of_a_string_is_the_json_dumps_form(key):
    """A string key's canonical form is quoted by the JSON encoder's escaping
    function: the very string the sorted-key ``json.dumps`` call gives."""
    expected = "s:" + json.dumps(key, sort_keys=True, default=str, separators=(",", ":"))
    assert canonical_join_key(key) == expected
