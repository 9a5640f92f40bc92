"""Tests for the analytics warehouse and Relation operators."""

import pytest

from repro.engine.analytics import AnalyticsStore, EntityViewSpec, Relation
from repro.errors import StoreError
from repro.model.provenance import Provenance
from repro.model.triples import ExtendedTriple


def triple(subject, predicate, obj, r_id=None, r_pred=None):
    return ExtendedTriple(subject=subject, predicate=predicate, obj=obj,
                          relationship_id=r_id, relationship_predicate=r_pred,
                          provenance=Provenance.from_source("src", 0.9))


@pytest.fixture
def warehouse():
    store = AnalyticsStore()
    store.ingest([
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
    return store


# --------------------------------------------------------------------- #
# Relation operators
# --------------------------------------------------------------------- #
def test_relation_filter_project_rename_distinct():
    relation = Relation("r", [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}, {"a": 1, "b": "x"}])
    assert len(relation.filter(lambda row: row["a"] == 1)) == 2
    assert relation.project(["a"]).columns() == ["a"]
    assert relation.rename({"a": "alpha"}).columns() == ["alpha", "b"]
    assert len(relation.distinct()) == 2


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
    assert len(warehouse.predicate_relation("genre")) == 2
    assert len(warehouse.full_relation()) == 15


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


def test_remove_and_refresh_subjects(warehouse):
    removed = warehouse.remove_subjects(["kg:a2"])
    assert removed == 3
    assert warehouse.subjects_of_type("music_artist") == ["kg:a1"]
    warehouse.refresh_subjects(
        ["kg:a1"],
        [triple("kg:a1", "type", "music_artist"), triple("kg:a1", "name", "Echo Valley (new)"),
         triple("kg:a1", "genre", "indie")],
    )
    assert warehouse.display_name("kg:a1") == "Echo Valley (new)"
    rows = warehouse.predicate_relation("genre").rows
    assert [row["object"] for row in rows if row["subject"] == "kg:a1"] == ["indie"]


def test_composite_triples_index_under_relationship_predicate(warehouse):
    warehouse.ingest([
        triple("kg:a1", "educated_at", "UW", r_id="rel:1", r_pred="school"),
    ])
    assert len(warehouse.predicate_relation("school")) == 1
    assert len(warehouse.predicate_relation("educated_at")) == 0


def test_subject_indexed_triples_match_a_naive_list(store_seed):
    """``remove_subjects`` / ``refresh_subjects`` reach a subject's rows
    through the per-subject index; a flat list filtered in full — the layout
    it replaced — is the oracle for ``triple_count`` and ``full_relation``
    (same rows in the same order), and the derived indexes must agree with a
    warehouse rebuilt from that list."""
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
                facts.append(triple(subject, rng.choice(["name", "genre", "plays"]),
                                    rng.choice(["A", "B", 1, 1.0, 7])))
        return facts

    warehouse = AnalyticsStore()
    flat: list[ExtendedTriple] = []
    for _ in range(rng.randint(10, 20)):
        op = rng.choice(["refresh", "refresh", "remove", "remove_missing"])
        chosen = rng.sample(subjects, rng.randint(1, 3))
        if op == "refresh":
            fresh = [fact for subject in chosen for fact in facts_for(subject)]
            flat = [t for t in flat if t.subject not in chosen] + fresh
            assert warehouse.refresh_subjects(chosen, fresh) == len(fresh)
        elif op == "remove":
            expected = sum(1 for t in flat if t.subject in chosen)
            flat = [t for t in flat if t.subject not in chosen]
            assert warehouse.remove_subjects(chosen) == expected
        else:
            assert warehouse.remove_subjects(["kg:never-ingested"]) == 0
        assert warehouse.triple_count() == len(flat)
        assert warehouse.full_relation().rows == [t.to_row() for t in flat]
        rebuilt = AnalyticsStore()
        rebuilt.ingest(flat)
        for entity_type in ("song", "music_artist"):
            assert warehouse.subjects_of_type(entity_type) == rebuilt.subjects_of_type(entity_type)
            assert warehouse.entity_rows(entity_type, ["name", "genre", "school"]) == (
                rebuilt.entity_rows(entity_type, ["name", "genre", "school"])
            )
        for predicate in ("type", "name", "genre", "plays", "school", "degree"):
            assert warehouse.predicate_relation(predicate).rows == (
                rebuilt.predicate_relation(predicate).rows
            )
        assert warehouse.name_relation().rows == rebuilt.name_relation().rows
