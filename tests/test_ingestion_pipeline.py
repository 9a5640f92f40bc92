"""Tests for the ingestion pipeline, delta computer, and export stage."""

import pytest

from repro.errors import IngestionError
from repro.ingestion.delta import DeltaComputer
from repro.ingestion.export import export_delta, export_entities
from repro.ingestion.pipeline import IngestionHub, IngestionPipeline
from repro.model.delta import SourceDelta
from repro.model.entity import SourceEntity


def artist(entity_id, name, popularity=0.5):
    return SourceEntity(
        entity_id=entity_id,
        entity_type="music_artist",
        properties={"name": name, "popularity": popularity},
        source_id="musicdb",
        trust=0.8,
    )


# --------------------------------------------------------------------- #
# DeltaComputer
# --------------------------------------------------------------------- #
def test_delta_computer_tracks_snapshots(ontology):
    computer = DeltaComputer(ontology=ontology)
    first = computer.compute("musicdb", [artist("musicdb:1", "A")])
    assert len(first.added) == 1
    assert computer.has_snapshot("musicdb")
    second = computer.compute("musicdb", [artist("musicdb:1", "A"), artist("musicdb:2", "B")])
    assert [e.entity_id for e in second.added] == ["musicdb:2"]
    assert second.updated == [] and second.deleted == []
    assert computer.last_timestamp("musicdb") == 2


def test_delta_computer_routes_volatile_predicates(ontology):
    computer = DeltaComputer(ontology=ontology)
    computer.compute("musicdb", [artist("musicdb:1", "A", popularity=0.5)])
    delta = computer.compute("musicdb", [artist("musicdb:1", "A", popularity=0.99)])
    assert delta.updated == []
    assert len(delta.volatile) == 1


def test_delta_computer_peek_does_not_advance(ontology):
    computer = DeltaComputer(ontology=ontology)
    computer.compute("musicdb", [artist("musicdb:1", "A")])
    peeked = computer.peek("musicdb", [])
    assert len(peeked.deleted) == 1
    again = computer.peek("musicdb", [])
    assert len(again.deleted) == 1        # snapshot unchanged


def test_delta_computer_forget(ontology):
    computer = DeltaComputer(ontology=ontology)
    computer.compute("musicdb", [artist("musicdb:1", "A")])
    computer.forget("musicdb")
    delta = computer.compute("musicdb", [artist("musicdb:1", "A")])
    assert len(delta.added) == 1


# --------------------------------------------------------------------- #
# export
# --------------------------------------------------------------------- #
def test_export_entities_keys_by_entity_id():
    exported = export_entities([artist("musicdb:1", "A")])
    assert set(exported) == {"musicdb:1"}
    assert all(t.subject == "musicdb:1" for t in exported["musicdb:1"])


def test_export_delta_counts_triples():
    delta = SourceDelta.initial("musicdb", [artist("musicdb:1", "A"), artist("musicdb:2", "B")])
    exported = export_delta(delta)
    assert exported.source_id == "musicdb"
    assert set(exported.added) == {"musicdb:1", "musicdb:2"}
    assert exported.deleted == []
    assert exported.triple_count() > 0


# --------------------------------------------------------------------- #
# IngestionPipeline / IngestionHub
# --------------------------------------------------------------------- #
def test_pipeline_runs_entities_through_all_stages(ontology):
    pipeline = IngestionPipeline("musicdb", ontology)
    result = pipeline.run_entities([artist("musicdb:a1", "Artist A"), artist("musicdb:a2", "Artist B")])
    assert len(result.delta.added) == 2
    assert result.exported.triple_count() > 0
    summary = result.summary()
    assert summary["entities"] == 2
    assert summary["delta"]["added"] == 2


def test_pipeline_incremental_runs_produce_deltas(ontology):
    pipeline = IngestionPipeline("musicdb", ontology)
    first = pipeline.run_entities([artist("musicdb:1", "A")])
    assert len(first.delta.added) == 1
    first.commit()
    second = pipeline.run_entities([artist("musicdb:1", "A"), artist("musicdb:2", "B")])
    assert len(second.delta.added) == 1
    assert second.delta.added[0].entity_id == "musicdb:2"
    second.commit()
    third = pipeline.run_entities([artist("musicdb:2", "B")])
    assert len(third.delta.deleted) == 1


def test_pipeline_run_does_not_advance_until_committed(ontology):
    pipeline = IngestionPipeline("musicdb", ontology)
    pipeline.run_entities([artist("musicdb:1", "A")]).commit()
    uncommitted = pipeline.run_entities([])
    assert len(uncommitted.delta.deleted) == 1
    retried = pipeline.run_entities([])
    assert len(retried.delta.deleted) == 1     # still diffed against the last commit
    retried.commit()
    assert pipeline.delta_computer.last_timestamp("musicdb") == retried.timestamp
    assert pipeline.run_entities([]).delta.deleted == []


def test_hub_registers_and_runs_sources(ontology):
    hub = IngestionHub(ontology)
    hub.register_source("musicdb")
    hub.register_source("wiki")
    with pytest.raises(IngestionError):
        hub.get("unknown")
    payloads = {
        "musicdb": [artist("musicdb:1", "A")],
        "wiki": [SourceEntity(entity_id="wiki:p1", entity_type="person",
                              properties={"name": "P"}, source_id="wiki")],
    }
    results = [hub.get(source_id).run_entities(entities)
               for source_id, entities in payloads.items()]
    assert [result.source_id for result in results] == ["musicdb", "wiki"]
