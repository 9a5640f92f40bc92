"""Tests for the analytics warehouse and Relation operators.

The warehouse is a read-only projection of a ``TripleStore``: every test
writes into the store and reads through ``AnalyticsStore(store)``."""

import pytest

from repro.engine.analytics import AnalyticsStore, EntityViewSpec, Relation
from repro.errors import StoreError
from repro.model.provenance import Provenance
from repro.model.triples import ExtendedTriple, TripleStore


def triple(subject, predicate, obj, r_id=None, r_pred=None):
    return ExtendedTriple(subject=subject, predicate=predicate, obj=obj,
                          relationship_id=r_id, relationship_predicate=r_pred,
                          provenance=Provenance.from_source("src", 0.9))


@pytest.fixture
def store():
    return TripleStore([
        triple("kg:a1", "type", "music_artist"),
        triple("kg:a1", "name", "Echo Valley"),
        triple("kg:a1", "genre", "pop"),
        triple("kg:a1", "record_label", "kg:l1"),
        triple("kg:a2", "type", "music_artist"),
        triple("kg:a2", "name", "Crimson Skies"),
        triple("kg:a2", "genre", "rock"),
        triple("kg:l1", "type", "record_label"),
        triple("kg:l1", "name", "Apex Records"),
        triple("kg:l1", "headquarters", "kg:c1"),
        triple("kg:c1", "type", "city"),
        triple("kg:c1", "name", "Springfield"),
        triple("kg:s1", "type", "song"),
        triple("kg:s1", "name", "Night Drive"),
        triple("kg:s1", "performed_by", "kg:a1"),
    ])


@pytest.fixture
def warehouse(store):
    return AnalyticsStore(store)


# --------------------------------------------------------------------- #
# Relation operators
# --------------------------------------------------------------------- #
def test_relation_rename():
    relation = Relation("r", [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
    assert relation.rename({"a": "alpha"}).rows == [
        {"alpha": 1, "b": "x"}, {"alpha": 2, "b": "y"},
    ]


def test_relation_hash_join_inner_and_left():
    left = Relation("l", [{"id": 1, "x": "a"}, {"id": 2, "x": "b"}])
    right = Relation("r", [{"ref": 1, "y": "A"}])
    inner = left.hash_join(right, "id", "ref")
    assert len(inner) == 1 and inner.rows[0]["y"] == "A"
    outer = left.hash_join(right, "id", "ref", how="left")
    assert len(outer) == 2
    missing = [row for row in outer.rows if row["id"] == 2][0]
    assert "y" not in missing
    with pytest.raises(StoreError):
        left.hash_join(right, "id", "ref", how="full")


def test_relation_group_by():
    relation = Relation("r", [{"k": "a", "v": 1}, {"k": "a", "v": 3}, {"k": "b", "v": 5}])
    grouped = relation.group_by(["k"], {"total": lambda rows: sum(r["v"] for r in rows)})
    totals = {row["k"]: row["total"] for row in grouped.rows}
    assert totals == {"a": 4, "b": 5}


# --------------------------------------------------------------------- #
# AnalyticsStore
# --------------------------------------------------------------------- #
def test_ingest_and_basic_lookups(warehouse):
    assert warehouse.triple_count() == 15
    assert warehouse.subjects_of_type("music_artist") == ["kg:a1", "kg:a2"]
    assert "record_label" in warehouse.entity_types()
    assert warehouse.display_name("kg:a1") == "Echo Valley"
    assert warehouse.display_name("kg:unknown") == "kg:unknown"
    assert warehouse.entity_rows("music_artist", ["genre"]) == [
        {"subject": "kg:a1", "genre": "pop"}, {"subject": "kg:a2", "genre": "rock"},
    ]
    relation = warehouse.full_relation()
    assert len(relation) == 15
    # subjects sorted, each subject's facts in facts_about order
    assert [row["subject"] for row in relation.rows[:4]] == ["kg:a1"] * 4
    assert relation.rows[:4] == [t.to_row() for t in warehouse.triples.facts_about("kg:a1")]


def test_entity_view_with_reference_join(warehouse):
    spec = EntityViewSpec(
        name="artists",
        entity_type="music_artist",
        predicates=("genre",),
        reference_joins={"label_name": "record_label"},
    )
    view = warehouse.entity_view(spec)
    rows = {row["subject"]: row for row in view.rows}
    assert rows["kg:a1"]["genre"] == "pop"
    assert rows["kg:a1"]["label_name"] == "Apex Records"
    assert rows["kg:a2"].get("label_name") is None
    assert warehouse.joins_executed > 0


def test_entity_view_with_nested_join(warehouse):
    spec = EntityViewSpec(
        name="artist_label_city",
        entity_type="music_artist",
        nested_joins={"label_city": ("record_label", "headquarters")},
    )
    view = warehouse.entity_view(spec)
    rows = {row["subject"]: row for row in view.rows}
    assert rows["kg:a1"]["label_city"] == "Springfield"


def test_remove_and_refresh_subjects(store, warehouse):
    """Subjects removed from and rewritten in the store show in the
    warehouse at once: it reads the store, it copies nothing."""
    assert store.remove_subject("kg:a2") == 3
    assert warehouse.subjects_of_type("music_artist") == ["kg:a1"]
    store.remove_subject("kg:a1")
    store.add_all([
        triple("kg:a1", "type", "music_artist"), triple("kg:a1", "name", "Echo Valley (new)"),
        triple("kg:a1", "genre", "indie"),
    ])
    assert warehouse.display_name("kg:a1") == "Echo Valley (new)"
    assert warehouse.entity_rows("music_artist", ["genre"]) == [
        {"subject": "kg:a1", "genre": "indie"},
    ]
    assert warehouse.triple_count() == 11


def test_composite_triples_index_under_relationship_predicate(store, warehouse):
    store.add(triple("kg:a1", "educated_at", "UW", r_id="rel:1", r_pred="school"))
    rows = warehouse.entity_rows("music_artist", ["school", "educated_at"])
    assert rows[0] == {"subject": "kg:a1", "school": "UW"}


def test_subject_indexed_triples_match_a_naive_list(store_seed):
    """A warehouse over a store edited subject by subject equals one over a
    store rebuilt from a flat list of the surviving facts — the relations'
    row order depends on the facts alone, not on the edits' order."""
    import random

    rng = random.Random(52000 + store_seed)
    subjects = [f"kg:e{i}" for i in range(9)]

    def facts_for(subject):
        facts = [triple(subject, "type", rng.choice(["song", "music_artist"]))]
        for _ in range(rng.randint(0, 5)):
            if rng.random() < 0.3:
                facts.append(triple(subject, "educated_at", rng.choice("XYZ"),
                                    r_id=f"rel:{rng.randint(0, 2)}",
                                    r_pred=rng.choice(["school", "degree"])))
            else:
                facts.append(triple(subject, rng.choice(["name", "alias", "genre", "plays"]),
                                    rng.choice(["A", "B", 1, 1.0, 7])))
        return facts

    store = TripleStore()
    warehouse = AnalyticsStore(store)
    flat: list[ExtendedTriple] = []
    for _ in range(rng.randint(10, 20)):
        op = rng.choice(["refresh", "refresh", "remove", "remove_missing"])
        chosen = rng.sample(subjects, rng.randint(1, 3))
        if op == "refresh":
            fresh = [fact for subject in chosen for fact in facts_for(subject)]
            flat = [t for t in flat if t.subject not in chosen] + fresh
            store.remove_subjects_batch(chosen)
            store.add_all(fresh)
        elif op == "remove":
            flat = [t for t in flat if t.subject not in chosen]
            store.remove_subjects_batch(chosen)
        else:
            assert store.remove_subject("kg:never-ingested") == 0
        rebuilt = AnalyticsStore(TripleStore(flat))
        # the store reads the warehouse rests on, against the flat list
        held = sorted({t.subject for t in flat})
        for entity_type in ("song", "music_artist"):
            assert store.subjects_with("type", entity_type) == {
                t.subject for t in flat
                if t.predicate == "type" and t.relationship_id is None and t.obj == entity_type
            }
        for predicate in ("type", "name", "genre", "plays", "educated_at", "school", "degree"):
            naive = {
                subject: [t.obj for t in store.facts_about(subject)
                          if (t.relationship_predicate or t.predicate) == predicate]
                for subject in held
            }
            assert list(store.objects_by_subject(predicate).items()) == [
                (subject, objects) for subject, objects in naive.items() if objects
            ]
        assert warehouse.triple_count() == rebuilt.triple_count()
        assert warehouse.full_relation().rows == rebuilt.full_relation().rows
        assert warehouse.entity_types() == rebuilt.entity_types()
        predicates = ["name", "alias", "genre", "plays", "school", "degree"]
        for entity_type in ("song", "music_artist"):
            assert warehouse.subjects_of_type(entity_type) == rebuilt.subjects_of_type(entity_type)
            assert warehouse.entity_rows(entity_type, predicates) == (
                rebuilt.entity_rows(entity_type, predicates)
            )
            assert warehouse.entity_rows(entity_type, predicates, subjects) == (
                rebuilt.entity_rows(entity_type, predicates, subjects)
            )
        for subject in subjects:
            assert warehouse.display_name(subject) == rebuilt.display_name(subject)
        spec = EntityViewSpec(
            name="v", entity_type="song", predicates=("genre",),
            reference_joins={"named": "plays"}, nested_joins={"far": ("plays", "genre")},
        )
        assert warehouse.entity_view(spec).rows == rebuilt.entity_view(spec).rows
