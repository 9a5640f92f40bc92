"""Tests for the extended-triples model and TripleStore (repro.model.triples)."""

import pytest

from repro.errors import DataModelError
from repro.model.provenance import Provenance
from repro.model.triples import ExtendedTriple, TripleStore


def make_triple(subject="kg:e1", predicate="name", obj="J. Smith", source="src1", trust=0.9,
                relationship_id=None, relationship_predicate=None):
    return ExtendedTriple(
        subject=subject,
        predicate=predicate,
        obj=obj,
        relationship_id=relationship_id,
        relationship_predicate=relationship_predicate,
        provenance=Provenance.from_source(source, trust),
    )


# --------------------------------------------------------------------- #
# ExtendedTriple
# --------------------------------------------------------------------- #
def test_triple_requires_subject_and_predicate():
    with pytest.raises(DataModelError):
        ExtendedTriple(subject="", predicate="name", obj="x")
    with pytest.raises(DataModelError):
        ExtendedTriple(subject="kg:e1", predicate="", obj="x")


def test_relationship_fields_must_be_set_together():
    with pytest.raises(DataModelError):
        ExtendedTriple(subject="kg:e1", predicate="educated_at", obj="UW",
                       relationship_id="rel:1", relationship_predicate=None)


def test_composite_flag_and_key():
    simple = make_triple()
    composite = make_triple(predicate="educated_at", obj="UW",
                            relationship_id="rel:1", relationship_predicate="school")
    assert not simple.is_composite
    assert composite.is_composite
    assert simple.key() != composite.key()


def test_to_row_from_row_roundtrip():
    triple = make_triple(predicate="educated_at", obj="UW",
                         relationship_id="rel:1", relationship_predicate="school")
    row = triple.to_row()
    assert row["r_id"] == "rel:1"
    restored = ExtendedTriple.from_row(row)
    assert restored.key() == triple.key()
    assert restored.sources == triple.sources
    assert restored.trust == triple.trust


def test_with_subject_and_with_object_do_not_share_provenance():
    triple = make_triple()
    relinked = triple.with_subject("kg:e2")
    relinked.provenance.add("src2")
    assert triple.sources == ["src1"]
    assert relinked.subject == "kg:e2"
    resolved = triple.with_object("kg:e3")
    assert resolved.obj == "kg:e3"
    assert triple.obj == "J. Smith"


# --------------------------------------------------------------------- #
# TripleStore
# --------------------------------------------------------------------- #
def test_store_add_merges_provenance_of_equal_facts():
    store = TripleStore()
    store.add(make_triple(source="src1"))
    store.add(make_triple(source="src2"))
    assert store.fact_count() == 1
    stored = store.facts_about("kg:e1")[0]
    assert sorted(stored.sources) == ["src1", "src2"]


def test_store_indexes_and_lookups():
    store = TripleStore([
        make_triple(),
        make_triple(predicate="birth_date", obj="1980-01-01"),
        make_triple(subject="kg:e2", predicate="name", obj="A. Jones"),
        make_triple(subject="kg:e2", predicate="spouse", obj="kg:e1"),
    ])
    assert store.entity_count() == 2
    assert store.fact_count() == 4
    assert store.value_of("kg:e1", "birth_date") == "1980-01-01"
    assert store.values_of("kg:e1", "name") == ["J. Smith"]
    assert {t.subject for t in store.facts_with_predicate("name")} == {"kg:e1", "kg:e2"}
    assert [t.subject for t in store.facts_with_object("kg:e1")] == ["kg:e2"]
    assert store.predicates() == {"name", "birth_date", "spouse"}


def test_store_relationship_facts_grouping():
    store = TripleStore([
        make_triple(predicate="educated_at", obj="UW",
                    relationship_id="rel:1", relationship_predicate="school"),
        make_triple(predicate="educated_at", obj="PhD",
                    relationship_id="rel:1", relationship_predicate="degree"),
        make_triple(predicate="educated_at", obj="MIT",
                    relationship_id="rel:2", relationship_predicate="school"),
    ])
    grouped = store.relationship_facts("kg:e1", "educated_at")
    assert set(grouped) == {"rel:1", "rel:2"}
    assert len(grouped["rel:1"]) == 2


def test_remove_subject_and_discard():
    store = TripleStore([make_triple(), make_triple(subject="kg:e2")])
    assert store.remove_subject("kg:e1") == 1
    assert store.entity_count() == 1
    assert store.discard(make_triple(subject="kg:e2")) is True
    assert store.fact_count() == 0


def test_remove_source_purges_unsupported_facts():
    store = TripleStore()
    store.add(make_triple(source="a"))
    store.add(make_triple(source="b"))               # same fact, second source
    store.add(make_triple(predicate="birth_date", obj="1980", source="a"))
    removed = store.remove_source("a")
    assert removed == 1                              # only the single-source fact vanishes
    assert store.fact_count() == 1
    assert store.facts_about("kg:e1")[0].sources == ["b"]


def test_snapshot_is_independent():
    store = TripleStore([make_triple()])
    snapshot = store.snapshot()
    store.add(make_triple(predicate="birth_date", obj="1980"))
    assert snapshot.fact_count() == 1
    assert store.fact_count() == 2


def test_filter_and_rows_roundtrip():
    store = TripleStore([make_triple(), make_triple(predicate="birth_date", obj="1980")])
    names_only = store.filter(lambda t: t.predicate == "name")
    assert names_only.fact_count() == 1
    restored = TripleStore.from_rows(store.to_rows())
    assert restored.fact_count() == store.fact_count()


def test_contains_and_iteration():
    triple = make_triple()
    store = TripleStore([triple])
    assert triple in store
    assert make_triple(predicate="other") not in store
    assert len(list(store)) == 1
