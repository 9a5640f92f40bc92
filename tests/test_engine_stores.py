"""Tests for the entity store, text index, vector DB, and entity importance."""

import numpy as np
import pytest

from repro.engine.entity_store import EntityStore
from repro.engine import importance
from repro.engine.importance import compute_importance, importance_view_rows
from repro.engine.text_index import InvertedTextIndex, TextDocument
from repro.engine.vector_db import VectorDB
from repro.errors import StoreError
from repro.model.provenance import Provenance
from repro.model.triples import ExtendedTriple, TripleStore


def triple(subject, predicate, obj, source="wiki"):
    return ExtendedTriple(subject=subject, predicate=predicate, obj=obj,
                          provenance=Provenance.from_source(source, 0.9))


# --------------------------------------------------------------------- #
# EntityStore
# --------------------------------------------------------------------- #
def test_entity_store_update_from_triple_store():
    store = TripleStore([
        triple("kg:e1", "name", "Echo Valley"),
        triple("kg:e1", "type", "music_artist"),
        triple("kg:e2", "name", "Apex Records"),
    ])
    entity_store = EntityStore()
    refreshed = entity_store.update_from_store(store)
    assert refreshed == 2
    document = entity_store.get("kg:e1")
    assert document.name == "Echo Valley"
    assert document.types == ["music_artist"]
    assert "kg:e1" in entity_store and len(entity_store) == 2
    assert entity_store.get_many(["kg:e1", "kg:missing"])[0].entity_id == "kg:e1"

    # Incremental update for a deleted subject removes the document.
    store.remove_subject("kg:e2")
    entity_store.update_from_store(store, ["kg:e2"])
    assert entity_store.get("kg:e2") is None


# --------------------------------------------------------------------- #
# InvertedTextIndex
# --------------------------------------------------------------------- #
def test_text_index_ranks_relevant_documents_first():
    index = InvertedTextIndex()
    index.index_many([
        TextDocument("kg:e1", "Echo Valley pop music artist"),
        TextDocument("kg:e2", "Crimson Skies rock band"),
        TextDocument("kg:e3", "Echo chamber effects pedal"),
    ])
    hits = index.search("Echo Valley", k=3)
    assert hits[0].doc_id == "kg:e1"
    assert len(index) == 3
    assert index.search("zzz nonexistent") == []
    assert index.search("", k=5) == []


def test_text_index_boost_and_incremental_updates():
    index = InvertedTextIndex()
    index.index(TextDocument("a", "madison concert", boost=1.0))
    index.index(TextDocument("b", "madison concert", boost=3.0))
    assert index.search("madison")[0].doc_id == "b"
    index.index(TextDocument("a", "completely different now"))
    assert all(hit.doc_id != "a" for hit in index.search("madison"))
    assert index.remove("b") is True
    assert index.remove("b") is False
    assert "b" not in index


# --------------------------------------------------------------------- #
# VectorDB
# --------------------------------------------------------------------- #
def test_vector_db_knn_and_filters():
    db = VectorDB(dimension=3)
    db.upsert("a", [1.0, 0.0, 0.0], {"type": "person"})
    db.upsert("b", [0.9, 0.1, 0.0], {"type": "person"})
    db.upsert("c", [0.0, 0.0, 1.0], {"type": "song"})
    hits = db.search([1.0, 0.0, 0.0], k=2)
    assert [hit.key for hit in hits] == ["a", "b"]
    filtered = db.search([1.0, 0.0, 0.0], k=3, attribute_filter={"type": "song"})
    assert [hit.key for hit in filtered] == ["c"]
    excluded = db.search([1.0, 0.0, 0.0], k=2, exclude=["a"])
    assert excluded[0].key == "b"
    people_view = db.filtered_view({"type": "person"})
    assert len(people_view) == 2


def test_vector_db_upsert_delete_and_validation():
    db = VectorDB(dimension=2)
    db.upsert("a", [1.0, 0.0])
    db.upsert("a", [0.0, 1.0])                      # replace
    assert np.allclose(db.get("a"), [0.0, 1.0])
    assert db.delete("a") is True
    assert db.delete("a") is False
    assert db.get("a") is None
    with pytest.raises(StoreError):
        db.upsert("bad", [1.0, 2.0, 3.0])
    with pytest.raises(StoreError):
        db.search([1.0, 2.0, 3.0])
    with pytest.raises(StoreError):
        VectorDB(dimension=0)
    with pytest.raises(StoreError):
        VectorDB(dimension=2, metric="manhattan")


def test_vector_db_delete_renumbers_rows():
    db = VectorDB(dimension=2)
    db.upsert("a", [1.0, 0.0])
    db.upsert("b", [0.0, 1.0])
    db.upsert("c", [1.0, 1.0])
    db.delete("b")
    assert [hit.key for hit in db.search([0.9, 0.1], k=1)] == ["a"]
    assert "c" in db and len(db) == 2


# --------------------------------------------------------------------- #
# Entity importance
# --------------------------------------------------------------------- #
@pytest.fixture
def linked_store():
    store = TripleStore()
    # hub entity referenced by three others; all from two sources
    for index in range(1, 4):
        store.add(triple(f"kg:e{index}", "name", f"Entity {index}", source="wiki"))
        store.add(triple(f"kg:e{index}", "spouse", "kg:hub", source="wiki"))
    store.add(triple("kg:hub", "name", "Hub Entity", source="wiki"))
    store.add(triple("kg:hub", "name", "Hub Entity", source="musicdb"))
    store.add(triple("kg:isolated", "name", "Nobody", source="wiki"))
    return store


def test_importance_favours_connected_multi_source_entities(linked_store):
    scores = compute_importance(linked_store)
    assert scores["kg:hub"].in_degree == 3
    assert scores["kg:hub"].identity_count == 2
    assert scores["kg:hub"].score > scores["kg:isolated"].score
    top = max(scores.values(), key=lambda s: (s.score, s.entity_id))
    assert top.entity_id == "kg:hub"


def test_importance_rows_and_weights(linked_store):
    scores = compute_importance(linked_store)
    hub = scores["kg:hub"]
    # the hub holds every maximum but out-degree: three in-edges, two
    # sources, the highest rank, and no out-edge
    assert (hub.in_degree, hub.out_degree, hub.identity_count) == (3, 0, 2)
    assert hub.pagerank == max(s.pagerank for s in scores.values())
    assert hub.score == pytest.approx(
        importance.WEIGHT_IN_DEGREE + importance.WEIGHT_IDENTITIES + importance.WEIGHT_PAGERANK
    )
    leaf = scores["kg:e1"]
    assert (leaf.in_degree, leaf.out_degree, leaf.identity_count) == (0, 1, 1)
    assert leaf.score == pytest.approx(
        importance.WEIGHT_OUT_DEGREE
        + importance.WEIGHT_IDENTITIES / 2
        + importance.WEIGHT_PAGERANK * leaf.pagerank / hub.pagerank
    )
    rows = importance_view_rows(scores.values())
    assert rows[0]["subject"] == "kg:hub"
    assert set(rows[0]) == {"subject", "in_degree", "out_degree", "identity_count",
                            "pagerank", "importance"}


def test_importance_of_empty_store():
    assert compute_importance(TripleStore()) == {}
