"""Tests for ontology alignment and PGFs (repro.ingestion.alignment)."""

import pytest

from repro.errors import AlignmentError
from repro.ingestion.alignment import (
    PGF,
    AlignmentConfig,
    OntologyAligner,
    join_title,
    split_list,
    to_int,
)
from repro.model.entity import SourceEntity
from repro.model.ontology import default_ontology


@pytest.fixture
def movie_entity():
    return SourceEntity(
        entity_id="moviedb:m1",
        entity_type="film",
        properties={
            "title": "The Lost Kingdom",
            "sequel_number": "II",
            "category": "adventure",
            "director": "R. Smith",
            "year": "2009",
            "internal_code": "zzz",
        },
        source_id="moviedb",
        trust=0.7,
    )


@pytest.fixture
def movie_config():
    config = AlignmentConfig(
        source_id="moviedb",
        type_map={"film": "movie"},
        drop_predicates=("internal_code",),
    )
    config.pgfs.extend([
        PGF("name", ("title",)),
        PGF("full_title", ("title", "sequel_number"), combine=join_title),
        PGF("genre", ("category",)),
        PGF("directed_by", ("director",)),
        PGF("release_date", ("year",), transform=to_int),
    ])
    return config


def test_pgf_validates_inputs():
    with pytest.raises(AlignmentError):
        PGF("", ("a",))
    with pytest.raises(AlignmentError):
        PGF("target", ())


def test_pgf_single_source_copy_and_transform():
    pgf = PGF("release_date", ("year",), transform=to_int)
    assert pgf.apply({"year": "1999"}) == 1999
    assert pgf.apply({"year": None}) is None


def test_pgf_combines_multiple_sources():
    pgf = PGF("full_title", ("title", "sequel_number"), combine=join_title)
    assert pgf.apply({"title": "Movie", "sequel_number": "II"}) == "Movie II"
    assert pgf.apply({"title": "Movie"}) == "Movie"
    assert pgf.apply({}) is None


def test_pgf_default_combination_joins_with_space():
    pgf = PGF("name", ("first", "last"))
    assert pgf.apply({"first": "Ada", "last": "Lovelace"}) == "Ada Lovelace"


def test_pgf_transform_applies_to_list_values():
    pgf = PGF("genre", ("categories",), transform=split_list("|"))
    assert pgf.apply({"categories": "pop|rock"}) == ["pop", "rock"]


def test_aligner_maps_schema_and_type(movie_entity, movie_config):
    aligner = OntologyAligner(default_ontology(), movie_config)
    aligned, report = aligner.align([movie_entity])
    entity = aligned[0]
    assert entity.entity_type == "movie"
    assert entity.properties["name"] == "The Lost Kingdom"
    assert entity.properties["full_title"] == "The Lost Kingdom II"
    assert entity.properties["genre"] == "adventure"
    assert entity.properties["release_date"] == 2009
    assert "internal_code" not in entity.properties
    assert report.aligned == 1
    assert report.unknown_types == {}


def test_aligner_passthrough_of_ontology_predicates(movie_config):
    entity = SourceEntity(
        entity_id="moviedb:m2",
        entity_type="film",
        properties={"title": "X", "popularity": 0.4, "unmapped_column": "noise"},
        source_id="moviedb",
    )
    aligner = OntologyAligner(default_ontology(), movie_config)
    aligned, report = aligner.align([entity])
    assert aligned[0].properties["popularity"] == 0.4            # already in ontology
    assert "unmapped_column" not in aligned[0].properties
    assert "unmapped_column" in report.unknown_predicates


def test_aligner_reports_missing_required_predicates():
    config = AlignmentConfig(source_id="src")
    config.pgfs.append(PGF("name", ("title",), required=True))
    aligner = OntologyAligner(default_ontology(), config)
    entity = SourceEntity(entity_id="src:1", properties={"other": "x"}, source_id="src")
    _, report = aligner.align([entity])
    assert report.missing_required == ["src:1:name"]


def test_aligner_reports_unknown_entity_type():
    config = AlignmentConfig(source_id="src", default_type="person")
    aligner = OntologyAligner(default_ontology(), config)
    entity = SourceEntity(entity_id="src:1", entity_type="martian",
                          properties={"name": "Zork"}, source_id="src")
    aligned, report = aligner.align([entity])
    assert report.unknown_types == {"martian": 1}
    assert aligned[0].entity_type == "person"
    report.note_unknown_type("martian")
    assert report.unknown_types == {"martian": 2}


def test_add_rename_convenience():
    config = AlignmentConfig(source_id="src").add_rename("category", "genre")
    assert config.pgfs[0].target_predicate == "genre"
    assert config.mapped_source_predicates() == {"category"}
