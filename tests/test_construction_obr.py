"""Tests for object resolution (repro.construction.object_resolution)."""

import pytest

from repro.construction.object_resolution import (
    NameIndexResolver,
    ObjectResolutionStage,
    ResolutionContext,
)
from repro.model.entity import SourceEntity
from repro.model.identifiers import IdGenerator
from repro.model.provenance import Provenance
from repro.model.triples import ExtendedTriple, TripleStore


@pytest.fixture
def kg_store():
    store = TripleStore()
    prov = Provenance.from_source("wiki", 0.9)
    facts = [
        ("kg:city1", "name", "Hanover"),
        ("kg:city1", "type", "city"),
        ("kg:city2", "name", "Springfield"),
        ("kg:city2", "type", "city"),
        ("kg:label1", "name", "Apex Records"),
        ("kg:label1", "type", "record_label"),
        ("kg:person1", "name", "Hanover"),          # a person sharing the city name
        ("kg:person1", "type", "person"),
    ]
    for subject, predicate, obj in facts:
        store.add(ExtendedTriple(subject=subject, predicate=predicate, obj=obj,
                                 provenance=prov))
    return store


def test_name_index_resolver_exact_match(kg_store, ontology):
    resolver = NameIndexResolver(kg_store, ontology)
    resolution = resolver.resolve("Springfield", ResolutionContext())
    assert resolution is not None
    assert resolution.entity_id == "kg:city2"
    assert resolution.confidence > 0.9


def test_name_index_resolver_type_hints_disambiguate(kg_store, ontology):
    resolver = NameIndexResolver(kg_store, ontology)
    as_city = resolver.resolve("Hanover", ResolutionContext(expected_types=("city",)))
    as_person = resolver.resolve("Hanover", ResolutionContext(expected_types=("person",)))
    assert as_city.entity_id == "kg:city1"
    assert as_person.entity_id == "kg:person1"


def test_name_index_resolver_fuzzy_and_miss(kg_store, ontology):
    resolver = NameIndexResolver(kg_store, ontology, fuzzy_threshold=0.85)
    fuzzy = resolver.resolve("Springfeild", ResolutionContext(expected_types=("city",)))
    assert fuzzy is not None and fuzzy.entity_id == "kg:city2"
    assert resolver.resolve("Zzyzx Completely Unknown", ResolutionContext()) is None
    assert resolver.resolve("", ResolutionContext()) is None


def test_resolution_stage_rewrites_reference_objects(kg_store, ontology):
    entity = SourceEntity(
        entity_id="kg:new1",
        entity_type="music_artist",
        properties={"name": "Artist X", "birth_place": "Hanover",
                    "record_label": "Apex Records", "genre": "pop"},
        source_id="musicdb",
    )
    triples = entity.to_triples()
    stage = ObjectResolutionStage(
        ontology=ontology,
        resolver=NameIndexResolver(kg_store, ontology),
        confidence_threshold=0.9,
    )
    resolved, created, stats = stage.resolve_triples(triples)
    by_predicate = {t.predicate: t for t in resolved}
    assert by_predicate["birth_place"].obj == "kg:city1"
    assert by_predicate["record_label"].obj == "kg:label1"
    assert by_predicate["genre"].obj == "pop"           # literal predicate untouched
    assert created == []
    assert stats.resolved == 2
    assert stats.unresolved == 0


def test_resolution_stage_creates_entities_for_unknown_mentions(kg_store, ontology):
    entity = SourceEntity(
        entity_id="kg:new2",
        entity_type="music_artist",
        properties={"name": "Artist Y", "record_label": "Unknown Label Ltd"},
        source_id="musicdb",
    )
    stage = ObjectResolutionStage(
        ontology=ontology,
        resolver=NameIndexResolver(kg_store, ontology),
        id_generator=IdGenerator(),
        create_missing=True,
    )
    resolved, created, stats = stage.resolve_triples(entity.to_triples())
    label_triple = next(t for t in resolved if t.predicate == "record_label")
    assert label_triple.obj.startswith("kg:")
    assert stats.created == 1
    created_subjects = {t.subject for t in created}
    assert label_triple.obj in created_subjects
    created_predicates = {t.predicate for t in created}
    assert created_predicates == {"name", "type"}

    # A second mention of the same unknown label reuses the created entity.
    resolved2, created2, stats2 = stage.resolve_triples(
        SourceEntity(entity_id="kg:new3", entity_type="music_artist",
                     properties={"record_label": "Unknown Label Ltd"},
                     source_id="musicdb").to_triples()
    )
    label2 = next(t for t in resolved2 if t.predicate == "record_label")
    assert label2.obj == label_triple.obj
    assert created2 == []
    assert stats2.resolved + stats2.created <= 1


def test_resolution_stage_leaves_unresolved_when_not_creating(kg_store, ontology):
    stage = ObjectResolutionStage(
        ontology=ontology,
        resolver=NameIndexResolver(kg_store, ontology),
        create_missing=False,
    )
    triples = [ExtendedTriple(subject="kg:new4", predicate="birth_place",
                              obj="Atlantis", provenance=Provenance.from_source("src"))]
    resolved, created, stats = stage.resolve_triples(triples)
    assert resolved[0].obj == "Atlantis"
    assert stats.unresolved == 1
    assert created == []


def test_already_resolved_objects_are_skipped(kg_store, ontology):
    stage = ObjectResolutionStage(ontology=ontology,
                                  resolver=NameIndexResolver(kg_store, ontology))
    triples = [ExtendedTriple(subject="kg:new5", predicate="birth_place",
                              obj="kg:city1", provenance=Provenance.from_source("src"))]
    resolved, _, stats = stage.resolve_triples(triples)
    assert resolved[0].obj == "kg:city1"
    assert stats.examined == 0


def test_composite_reference_predicates_are_resolved(kg_store, ontology):
    entity = SourceEntity(
        entity_id="kg:new6",
        entity_type="person",
        properties={"educated_at": [{"school": "Apex Records", "year": 2000}]},
        source_id="wiki",
    )
    # 'school' is not an ontology predicate with REFERENCE kind, so only check
    # that composite triples pass through without error.
    stage = ObjectResolutionStage(ontology=ontology,
                                  resolver=NameIndexResolver(kg_store, ontology))
    resolved, _, stats = stage.resolve_triples(entity.to_triples())
    assert len(resolved) == len(entity.to_triples())


def test_resolvers_see_each_subjects_first_string_objects(ontology):
    """Every mention's context is its subject's first 12 string objects, in
    triple order, however the subjects' triples interleave."""

    class RecordingResolver:
        def __init__(self):
            self.seen = []

        def resolve(self, mention, context):
            self.seen.append((mention, context.subject_id, context.context_values))
            return None

    prov = Provenance.from_source("src")
    triples = []
    for i in range(15):
        for subject in ("kg:a", "kg:b", "kg:c"):
            triples.append(ExtendedTriple(subject, "genre", f"{subject}-g{i}", provenance=prov))
            if i % 4 == 0:
                triples.append(ExtendedTriple(subject, "popularity", i, provenance=prov))
            if i % 5 == 2 and subject != "kg:c":
                triples.append(ExtendedTriple(subject, "birth_place", f"Town {i}",
                                              provenance=prov))
    resolver = RecordingResolver()
    stage = ObjectResolutionStage(ontology=ontology, resolver=resolver)
    stage.resolve_triples(triples)

    def scanned(subject):
        # The scan each examined triple used to run over the whole list.
        return tuple(
            str(other.obj) for other in triples
            if other.subject == subject and isinstance(other.obj, str)
        )[:12]

    assert [(m, s) for m, s, _ in resolver.seen] == [
        (t.obj, t.subject) for t in triples if t.predicate == "birth_place"
    ]
    assert len(resolver.seen) == 6
    for _, subject, context_values in resolver.seen:
        assert context_values == scanned(subject)
        assert len(context_values) == 12
