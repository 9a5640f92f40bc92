"""Tests for the GraphEngine facade: polystore consistency, freshness, views."""

import copy

import pytest

from repro.engine.analytics import EntityViewSpec
from repro.engine.graph_engine import GraphEngine
from repro.model.provenance import Provenance
from repro.model.triples import ExtendedTriple, TripleStore


def triple(subject, predicate, obj, source="wiki"):
    return ExtendedTriple(subject=subject, predicate=predicate, obj=obj,
                          provenance=Provenance.from_source(source, 0.9))


@pytest.fixture
def construction_store():
    store = TripleStore([
        triple("kg:a1", "type", "music_artist"),
        triple("kg:a1", "name", "Echo Valley"),
        triple("kg:a1", "genre", "pop"),
        triple("kg:a1", "record_label", "kg:l1"),
        triple("kg:l1", "type", "record_label"),
        triple("kg:l1", "name", "Apex Records"),
        triple("kg:p1", "type", "person", source="fanwiki"),
        triple("kg:p1", "name", "Fan Person", source="fanwiki"),
    ])
    return store


@pytest.fixture
def engine(ontology, construction_store):
    engine = GraphEngine(ontology)
    engine.publish_store(construction_store, source_id="construction")
    return engine


def test_publish_keeps_all_stores_consistent(engine, construction_store):
    assert engine.triples.fact_count() == construction_store.fact_count()
    assert engine.analytics.triple_count() == construction_store.fact_count()
    assert len(engine.entity_store) == construction_store.entity_count()
    assert engine.entity("kg:a1").name == "Echo Valley"
    hits = engine.search("Echo Valley")
    assert hits and hits[0].doc_id == "kg:a1"
    assert engine.freshness() == {"primary": 0, "analytics": 0, "entity_store": 0,
                                  "text_index": 0}
    assert engine.minimum_version() == engine.log.head_lsn()


def test_incremental_publish_updates_only_changed_subjects(engine, construction_store):
    construction_store.add(triple("kg:a1", "genre", "indie", source="musicdb"))
    construction_store.add(triple("kg:a2", "type", "music_artist", source="musicdb"))
    construction_store.add(triple("kg:a2", "name", "Crimson Skies", source="musicdb"))
    engine.publish_subjects(construction_store, ["kg:a1", "kg:a2"], source_id="musicdb")
    assert engine.entity("kg:a2").name == "Crimson Skies"
    assert sorted(engine.triples.values_of("kg:a1", "genre")) == ["indie", "pop"]
    assert engine.search("Crimson")[0].doc_id == "kg:a2"


def test_deleted_subjects_are_removed_everywhere(engine, construction_store):
    construction_store.remove_subject("kg:p1")
    engine.publish_subjects(construction_store, [], deleted_subjects=["kg:p1"],
                            source_id="construction")
    assert engine.triples.facts_about("kg:p1") == []
    assert engine.entity("kg:p1") is None
    assert all(hit.doc_id != "kg:p1" for hit in engine.search("Fan Person"))


def test_remove_source_operation(engine):
    assert engine.triples.facts_about("kg:p1")
    engine.remove_source("fanwiki")
    assert engine.triples.facts_about("kg:p1") == []


def test_deferred_replay_and_lag(ontology, construction_store):
    engine = GraphEngine(ontology)
    engine.publish_store(construction_store, replay=False)
    lag = engine.freshness()
    assert all(value == 1 for value in lag.values())
    engine.replay()
    assert all(value == 0 for value in engine.freshness().values())


def test_entity_view_and_importance(engine):
    view = engine.entity_view(EntityViewSpec(
        name="artists", entity_type="music_artist",
        predicates=("genre",), reference_joins={"label": "record_label"},
    ))
    row = view.rows[0]
    assert row["label"] == "Apex Records"
    scores = engine.importance_scores()
    assert "kg:l1" in scores


def test_importance_scores_leave_the_entity_store_unchanged(engine):
    # A score depends on the whole graph; a copy kept on a document would be
    # stale after the next publish.
    store = engine.entity_store
    before = copy.deepcopy(store.get_many(store.ids()))
    scores = engine.importance_scores()
    assert any(score.score > 0 for score in scores.values())
    assert store.get_many(store.ids()) == before


def test_standard_views_dependency_graph(engine, construction_store):
    names = engine.register_standard_views()
    assert set(names) == {"entity_importance", "entity_features", "ranked_entity_index",
                          "entity_neighbourhood"}
    timings = engine.materialize_views()
    assert set(timings) == set(names)
    features = engine.view_artifact("entity_features")
    assert any(row["subject"] == "kg:a1" for row in features)
    ranked_hits = engine.search("Echo Valley")
    assert any(hit.doc_id.startswith("ranked:") or hit.doc_id == "kg:a1" for hit in ranked_hits)
    neighbourhood = engine.view_artifact("entity_neighbourhood")
    assert any(edge["source"] == "kg:a1" and edge["target"] == "kg:l1" for edge in neighbourhood)
    # registering twice is a no-op
    assert engine.register_standard_views() == names
    engine.publish_subjects(construction_store, ["kg:a1"])
    assert set(engine.update_views()) == set(names)
