"""Tests for the Linker: in-source dedup and subject linking."""

import pytest

from repro.construction.linking import Linker, evaluate_linking
from repro.construction.records import LinkableRecord, records_by_type
from repro.model.entity import KGEntity, SourceEntity
from repro.model.identifiers import IdGenerator


def source_artist(entity_id, name, **props):
    properties = {"name": name}
    properties.update(props)
    return SourceEntity(entity_id=entity_id, entity_type="music_artist",
                        properties=properties, source_id="musicdb", trust=0.8)


def kg_artist(entity_id, name, **facts):
    entity = KGEntity(entity_id=entity_id, types=["music_artist"], names=[name])
    for predicate, value in facts.items():
        entity.facts[predicate] = value if isinstance(value, list) else [value]
    return entity


@pytest.fixture
def linker(ontology):
    return Linker(ontology, id_generator=IdGenerator())


def test_records_by_type_groups():
    records = [
        LinkableRecord("a", entity_type="song"),
        LinkableRecord("b", entity_type="song"),
        LinkableRecord("c", entity_type="movie"),
    ]
    grouped = records_by_type(records)
    assert {len(grouped["song"]), len(grouped["movie"])} == {2, 1}


def test_linkable_record_from_source_and_kg_entity():
    source = source_artist("musicdb:1", "Artist A", genre="pop",
                           educated_at=[{"school": "UW"}])
    record = LinkableRecord.from_source_entity(source)
    assert record.names() == ["Artist A"]
    assert record.values("genre") == ["pop"]
    assert "UW" in record.values("educated_at")
    assert not record.is_kg

    kg = kg_artist("kg:e1", "Artist A", genre="pop")
    kg_record = LinkableRecord.from_kg_entity(kg)
    assert kg_record.is_kg
    assert kg_record.entity_type == "music_artist"
    assert kg_record.name_features.names[0] == "Artist A"


def test_linking_matches_source_to_existing_kg_entity(linker):
    sources = [source_artist("musicdb:1", "Nova Starlight", genre="pop")]
    kg_view = [kg_artist("kg:e1", "Nova Starlight", genre="pop"),
               kg_artist("kg:e2", "Completely Unrelated Band")]
    result = linker.link(sources, kg_view)
    assert result.kg_id_for("musicdb:1") == "kg:e1"
    assert result.new_entities == set()
    assert ("kg:e1", "musicdb:1") in result.same_as_links()


def test_linking_creates_new_entity_when_no_match(linker):
    sources = [source_artist("musicdb:9", "Brand New Artist")]
    result = linker.link(sources, [kg_artist("kg:e1", "Someone Else Entirely")])
    assigned = result.kg_id_for("musicdb:9")
    assert assigned in result.new_entities
    assert assigned.startswith("kg:")


def test_in_source_duplicates_share_one_kg_id(linker):
    sources = [
        source_artist("musicdb:1", "Echo Valley", genre="pop"),
        source_artist("musicdb:1-dup", "Echo Valley", genre="pop"),
        source_artist("musicdb:2", "Totally Different Name"),
    ]
    result = linker.link(sources, [])
    assert result.kg_id_for("musicdb:1") == result.kg_id_for("musicdb:1-dup")
    assert result.kg_id_for("musicdb:2") != result.kg_id_for("musicdb:1")


def test_typos_still_link(linker):
    sources = [source_artist("musicdb:1", "Crimson Horizon", genre="rock")]
    kg_view = [kg_artist("kg:e1", "Crimson Horizno", genre="rock")]
    result = linker.link(sources, kg_view)
    assert result.kg_id_for("musicdb:1") == "kg:e1"


def test_cross_type_payloads_are_linked_per_type(linker):
    sources = [
        source_artist("musicdb:1", "Echo Valley"),
        SourceEntity(entity_id="musicdb:s1", entity_type="song",
                     properties={"name": "Echo Valley"}, source_id="musicdb"),
    ]
    result = linker.link(sources, [])
    # Same surface name but different types must not collapse to one entity.
    assert result.kg_id_for("musicdb:1") != result.kg_id_for("musicdb:s1")


def test_compatible_types_can_link(linker):
    source = SourceEntity(entity_id="wiki:p1", entity_type="person",
                          properties={"name": "Nova Starlight"}, source_id="wiki")
    kg_view = [kg_artist("kg:e1", "Nova Starlight")]
    result = linker.link([source], kg_view)
    assert result.kg_id_for("wiki:p1") == "kg:e1"


def test_evaluate_linking_metrics():
    from repro.construction.linking import LinkingResult

    result = LinkingResult(assignments={
        "s:1": "kg:a", "s:2": "kg:a", "s:3": "kg:b", "s:4": "kg:c",
    })
    truth = {"s:1": "t1", "s:2": "t1", "s:3": "t2", "s:4": "t2"}
    metrics = evaluate_linking(result, truth)
    assert metrics["precision"] == 1.0           # only predicted pair (s1,s2) is correct
    assert metrics["recall"] == 0.5              # missed (s3,s4)
    empty = evaluate_linking(LinkingResult(), {})
    assert empty["f1"] == 1.0
