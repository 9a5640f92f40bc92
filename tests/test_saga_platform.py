"""Integration tests for the end-to-end Saga platform facade."""

import pytest

from repro import SagaPlatform
from repro.datagen import evolve_source
from repro.ingestion import AlignmentConfig, PGF
from repro.live import LiveGraphEngine
from repro.ml.nerd import NERDService
from repro.model.entity import SourceEntity


def test_platform_ingests_all_sources(constructed_platform, source_suite):
    metrics = constructed_platform.metrics()
    # The session-scoped platform may have consumed extra payloads in other
    # integration tests, so the counts are lower bounds.
    assert metrics.sources >= len(source_suite)
    assert metrics.facts > 0
    assert metrics.entities > 0
    assert metrics.engine_operations >= len(source_suite)
    assert all(lag == 0 for lag in metrics.store_freshness.values())


def test_platform_cross_source_linking_merges_duplicates(constructed_platform, source_suite,
                                                         truth_map, world):
    link_table = constructed_platform.construction.link_table
    # At least some entities covered by two sources must share a KG id.
    by_truth = {}
    for source_entity_id, kg_id in link_table.items():
        truth_id = truth_map.get(source_entity_id)
        if truth_id:
            by_truth.setdefault(truth_id, set()).add(kg_id)
    multi_source = [truth_id for truth_id, kg_ids in by_truth.items() if len(kg_ids) == 1]
    merged_fraction = len(multi_source) / max(len(by_truth), 1)
    assert merged_fraction > 0.5


def test_platform_serving_layer_answers_queries(constructed_platform, world):
    engine = constructed_platform.graph_engine
    artist = world.of_type("music_artist")[0]
    hits = engine.search(artist.name, k=5)
    assert hits, f"full-text search should find {artist.name}"
    document = engine.entity(hits[0].doc_id)
    assert document is not None
    assert document.facts or document.types


def test_platform_incremental_second_snapshot(constructed_platform, world, source_suite):
    source = source_suite[0]
    evolved = evolve_source(world, source, added_fraction=0.2, updated_fraction=0.2,
                            deleted_fraction=0.05)
    facts_before = constructed_platform.graph_engine.triples.fact_count()
    report = constructed_platform.ingest_snapshot(source.source_id, evolved.entities)
    assert report.source_id == source.source_id
    summary = report.summary()
    assert summary["linked_added"] >= 0
    assert constructed_platform.graph_engine.triples.fact_count() != facts_before or (
        summary["facts_added"] == 0
    )
    assert all(lag == 0 for lag in constructed_platform.graph_engine.freshness().values())


def test_platform_annotation_and_live_graph(constructed_platform, world, live_events):
    """NERD and the live graph are built over the platform's KG by their caller."""
    platform = constructed_platform
    store = platform.graph_engine.triples
    nerd = NERDService.from_store(store, platform.ontology)
    artist = world.of_type("music_artist")[0]
    annotations = nerd.annotate(f"A new single from {artist.name} tops the charts.")
    assert annotations, "the artist mention should be detected"
    live = LiveGraphEngine(resolution_service=nerd)
    live.load_stable_view(store)
    live.ingest_events(live_events[:20])
    stats = live.stats()
    assert stats["events_processed"] >= 1
    assert stats["documents"] > 0


def test_platform_source_onboarding_with_alignment():
    platform = SagaPlatform()
    alignment = AlignmentConfig(source_id="moviefeed", type_map={"film": "movie"})
    alignment.pgfs.extend([
        PGF("name", ("title",)),
        PGF("genre", ("category",)),
    ])
    platform.register_source("moviefeed", alignment=alignment)
    report = platform.ingest_snapshot("moviefeed", [
        SourceEntity(entity_id=f"moviefeed:{movie_id}", entity_type="film", source_id="moviefeed",
                     properties={"title": title, "category": category})
        for movie_id, title, category in [
            ("m1", "The Lost Kingdom", "adventure"), ("m2", "Silent Harbor", "drama"),
        ]
    ])
    assert report.linked_added == 2
    kg_id = platform.construction.link_table["moviefeed:m1"]
    assert platform.graph_engine.triples.value_of(kg_id, "genre") == "adventure"
    assert platform.graph_engine.triples.value_of(kg_id, "name") == "The Lost Kingdom"


def test_platform_unregistered_source_rejected(constructed_platform):
    from repro.errors import IngestionError

    with pytest.raises(IngestionError):
        constructed_platform.ingest_snapshot("never_registered", [])
