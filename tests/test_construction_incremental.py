"""Tests for incremental, delta-based construction and the multi-source pipeline."""

import pytest

from repro.construction.incremental import IncrementalConstructor
from repro.construction.pipeline import KnowledgeConstructionPipeline
from repro.model.delta import SourceDelta, compute_delta
from repro.model.entity import SourceEntity


def artist(entity_id, name, popularity=0.5, **props):
    properties = {"name": name, "popularity": popularity}
    properties.update(props)
    return SourceEntity(entity_id=entity_id, entity_type="music_artist",
                        properties=properties, source_id=entity_id.split(":")[0], trust=0.8)


@pytest.fixture
def constructor(ontology):
    return IncrementalConstructor(ontology)


def test_added_payload_creates_entities_and_links(constructor):
    delta = SourceDelta.initial("musicdb", [
        artist("musicdb:1", "Echo Valley", genre="pop"),
        artist("musicdb:2", "Crimson Skies", genre="rock"),
    ])
    report = constructor.consume(delta)
    assert report.linked_added == 2
    assert report.new_entities == 2
    assert constructor.entity_count() >= 2
    assert set(constructor.link_table) == {"musicdb:1", "musicdb:2"}


def test_second_source_links_to_existing_entities(constructor):
    constructor.consume(SourceDelta.initial("musicdb", [
        artist("musicdb:1", "Echo Valley", genre="pop"),
    ]))
    report = constructor.consume(SourceDelta.initial("wiki", [
        artist("wiki:1", "Echo Valley", genre="pop"),
    ]))
    assert report.new_entities == 0
    assert constructor.link_table["wiki:1"] == constructor.link_table["musicdb:1"]
    kg_id = constructor.link_table["musicdb:1"]
    name_fact = [t for t in constructor.store.facts_about(kg_id) if t.predicate == "name"][0]
    assert set(name_fact.sources) == {"musicdb", "wiki"}


def test_updated_payload_uses_id_lookup_not_relinking(constructor):
    constructor.consume(SourceDelta.initial("musicdb", [
        artist("musicdb:1", "Echo Valley", genre="pop"),
    ]))
    kg_id = constructor.link_table["musicdb:1"]
    update = SourceDelta(source_id="musicdb",
                         updated=[artist("musicdb:1", "Echo Valley", genre="indie")],
                         to_timestamp=2)
    report = constructor.consume(update)
    assert report.updated_entities == 1
    assert report.linked_added == 0
    assert constructor.link_table["musicdb:1"] == kg_id
    assert constructor.store.values_of(kg_id, "genre") == ["indie"]


def test_unknown_updated_entity_falls_back_to_linking(constructor):
    update = SourceDelta(source_id="musicdb",
                         updated=[artist("musicdb:99", "Never Seen Before")],
                         to_timestamp=1)
    report = constructor.consume(update)
    assert "musicdb:99" in constructor.link_table
    assert report.linked_added == 1


def test_unknown_updated_entities_add_to_the_added_counts(constructor):
    """Unseen updated entities are linked after the added partition; the
    report counts both partitions' links and mints, not the last one's."""
    delta = SourceDelta(source_id="musicdb",
                        added=[artist("musicdb:1", "Echo Valley", genre="pop")],
                        updated=[artist("musicdb:2", "Crimson Skies", genre="rock")],
                        to_timestamp=1)
    report = constructor.consume(delta)
    assert len(constructor.link_table) == 2
    assert len(report.entity_delta.added) == 2
    assert report.linked_added == 2
    assert report.new_entities == 2


def test_deleted_payload_retracts_source_facts(constructor):
    constructor.consume(SourceDelta.initial("musicdb", [
        artist("musicdb:1", "Echo Valley", genre="pop"),
    ]))
    kg_id = constructor.link_table["musicdb:1"]
    before = constructor.fact_count()
    delete = SourceDelta(source_id="musicdb",
                         deleted=[artist("musicdb:1", "Echo Valley")],
                         to_timestamp=2)
    report = constructor.consume(delete)
    assert report.deleted_entities == 1
    assert constructor.fact_count() < before
    remaining = [t for t in constructor.store.facts_about(kg_id) if t.predicate != "same_as"]
    assert remaining == []


def test_volatile_payload_overwrites_popularity(constructor):
    constructor.consume(SourceDelta.initial("musicdb", [
        artist("musicdb:1", "Echo Valley", popularity=0.4),
    ]))
    kg_id = constructor.link_table["musicdb:1"]
    volatile_entity = SourceEntity(entity_id="musicdb:1", entity_type="music_artist",
                                   properties={"popularity": 0.95}, source_id="musicdb")
    report = constructor.consume(SourceDelta(source_id="musicdb",
                                             volatile=[volatile_entity], to_timestamp=2))
    assert report.volatile_entities == 1
    assert constructor.store.value_of(kg_id, "popularity") == 0.95


def test_a_repeated_volatile_payload_changes_nothing(constructor):
    constructor.consume(SourceDelta.initial("musicdb", [
        artist("musicdb:1", "Echo Valley", popularity=0.4),
    ]))
    kg_id = constructor.link_table["musicdb:1"]

    def popularity(value, timestamp):
        entity = SourceEntity(entity_id="musicdb:1", entity_type="music_artist",
                              properties={"popularity": value}, source_id="musicdb")
        return SourceDelta(source_id="musicdb", volatile=[entity], to_timestamp=timestamp)

    first = constructor.consume(popularity(0.95, 2))
    assert first.entity_delta.updated == (kg_id,)
    version = constructor.store.version
    second = constructor.consume(popularity(0.95, 3))
    assert constructor.store.version == version
    assert kg_id not in second.entity_delta.updated
    assert second.fusion.facts_added == second.fusion.facts_removed == 0
    assert constructor.store.value_of(kg_id, "popularity") == 0.95
    third = constructor.consume(popularity(0.5, 4))
    assert third.entity_delta.updated == (kg_id,)
    assert constructor.store.value_of(kg_id, "popularity") == 0.5


def test_object_resolution_rewrites_references(constructor, ontology):
    constructor.consume(SourceDelta.initial("wiki", [
        SourceEntity(entity_id="wiki:label1", entity_type="record_label",
                     properties={"name": "Apex Records"}, source_id="wiki", trust=0.9),
    ]))
    report = constructor.consume(SourceDelta.initial("musicdb", [
        artist("musicdb:1", "Echo Valley", record_label="Apex Records"),
    ]))
    kg_id = constructor.link_table["musicdb:1"]
    label_value = constructor.store.value_of(kg_id, "record_label")
    assert label_value == constructor.link_table["wiki:label1"]
    assert report.object_resolution.resolved >= 1


def test_kg_view_filters_by_type(constructor):
    constructor.consume(SourceDelta.initial("musicdb", [
        artist("musicdb:1", "Echo Valley"),
        SourceEntity(entity_id="musicdb:song1", entity_type="song",
                     properties={"name": "Night Drive"}, source_id="musicdb"),
    ]))
    artists_view = constructor.kg_view(("music_artist",))
    types = {t for e in artists_view for t in e.types}
    assert "music_artist" in types
    full_view = constructor.kg_view()
    assert len(full_view) >= len(artists_view)


def test_pipeline_tracks_growth_history(ontology):
    pipeline = KnowledgeConstructionPipeline(ontology)
    pipeline.consume_delta(SourceDelta.initial("musicdb", [artist("musicdb:1", "Echo Valley")]))
    pipeline.consume_delta(SourceDelta.initial("wiki", [
        artist("wiki:1", "Echo Valley"), artist("wiki:2", "Crimson Skies"),
    ]))
    metrics = pipeline.metrics()
    assert metrics["sources_consumed"] == 2
    assert metrics["payloads_consumed"] == 2
    assert metrics["facts"] == pipeline.store.fact_count()
    growth = pipeline.growth.relative_growth()
    assert growth["facts"] >= 1.0
    assert len(pipeline.growth.series()) == 2


def test_pipeline_consume_many_handles_deltas(ontology):
    pipeline = KnowledgeConstructionPipeline(ontology)
    deltas = [
        SourceDelta.initial("musicdb", [artist("musicdb:1", "Echo Valley")]),
        SourceDelta.initial("wiki", [artist("wiki:9", "Other Artist")]),
    ]
    reports = pipeline.consume_many(deltas)
    assert len(reports) == 2


def test_compute_delta_plus_constructor_round_trip(constructor, ontology):
    snapshot1 = [artist("musicdb:1", "Echo Valley", genre="pop"),
                 artist("musicdb:2", "Crimson Skies")]
    constructor.consume(SourceDelta.initial("musicdb", snapshot1))
    facts_before = constructor.fact_count()
    snapshot2 = [artist("musicdb:1", "Echo Valley", genre="pop"),
                 artist("musicdb:3", "New Arrival")]
    delta = compute_delta("musicdb", snapshot1, snapshot2,
                          volatile_predicates=ontology.volatile_predicates())
    report = constructor.consume(delta)
    assert report.linked_added == 1           # only the new arrival is linked
    assert report.deleted_entities == 1       # musicdb:2 retracted
    assert constructor.fact_count() != facts_before
