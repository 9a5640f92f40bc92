"""Integration tests for the end-to-end Saga platform facade."""

import pytest

from repro import SagaPlatform
from repro.datagen import evolve_source
from repro.datagen.streams import LiveEvent
from repro.ingestion import AlignmentConfig, PGF, EntityTransformer
from repro.ingestion.importers import InMemoryImporter
from repro.ml.nerd import NERDEntityView
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
    platform = constructed_platform
    artist = world.of_type("music_artist")[0]
    annotations = platform.annotate(f"A new single from {artist.name} tops the charts.")
    assert annotations, "the artist mention should be detected"
    platform.ingest_live_events(live_events[:20])
    stats = platform.live.stats()
    assert stats["events_processed"] >= 1
    assert stats["documents"] > 0


def test_nerd_and_live_graph_follow_the_log():
    """NERD records embed their neighbours' names, and the live graph serves
    the stable KG: both must follow every publish, a source removal
    included, not only the subjects a commit touched."""
    platform = SagaPlatform()
    platform.register_source("musicdb")
    platform.register_source("wiki")

    def artists(*names):
        return [SourceEntity(f"m{i}", "music_artist", {"name": name}, source_id="musicdb")
                for i, name in enumerate(names)]

    platform.ingest_snapshot("musicdb", artists("Nova Quill"))
    platform.ingest_snapshot("wiki", [SourceEntity(
        "w1", "album", {"name": "Azure Endless", "performed_by": "Nova Quill"},
        source_id="wiki",
    )])
    engine = platform.graph_engine
    nerd, live = platform.nerd, platform.live

    def assert_nerd_matches_a_fresh_build():
        # Importance is structural, so the fresh build ranks by the KG's
        # importance now, not by the map NERD was first built with.
        importance = {entity_id: score.score
                      for entity_id, score in engine.importance_scores().items()}
        fresh = NERDEntityView.build(engine.triples, importance)
        assert {r.entity_id: r for r in nerd.view.records()} == (
            {r.entity_id: r for r in fresh.records()}
        )

    album = nerd.link_mention("Azure Endless").entity_id
    assert album is not None
    platform.ingest_snapshot("musicdb", artists("Nova Quill Band"))
    assert ("performed_by", "Nova Quill Band") in nerd.view.get(album).relations
    assert_nerd_matches_a_fresh_build()

    engine.remove_source("wiki")
    assert_nerd_matches_a_fresh_build()
    assert nerd.link_mention("Azure Endless").entity_id is None
    assert nerd.generate_mentions("Azure Endless tops the charts") == []

    platform.ingest_snapshot("musicdb", artists("Nova Quill Band", "Lumen Drift"))
    assert_nerd_matches_a_fresh_build()
    assert len(live.query("MATCH music_artist").rows) == 2
    assert live.index.watermark("stable") == engine.minimum_version()


def test_live_references_resolve_against_the_current_kg():
    """The live graph caches NERD's answers for repeated references; a
    rename that NERD applied from the log must reach the next event."""
    platform = SagaPlatform()
    platform.register_source("musicdb")

    def artists(*names):
        return [SourceEntity(f"m{i}", "music_artist", {"name": name}, source_id="musicdb")
                for i, name in enumerate(names)]

    def concert(number):
        return LiveEvent(source_id="tour", event_id=f"show{number}", entity_type="concert",
                         payload={"name": f"Show {number}"},
                         references={"headliner": "Nova Quill"}, timestamp=number)

    platform.ingest_snapshot("musicdb", artists("Nova Quill", "Lumen Drift"))
    nova, lumen = (platform.construction.link_table[m] for m in ("m0", "m1"))
    platform.ingest_live_events([concert(1)])
    assert platform.live.index.get("show1").references["headliner"] == nova

    # the two artists swap names: "Nova Quill" now names the other entity
    platform.ingest_snapshot("musicdb", artists("Lumen Drift", "Nova Quill"))
    assert platform.nerd.link_mention("Nova Quill").entity_id == lumen
    platform.ingest_live_events([concert(2)])
    assert platform.live.index.get("show2").references["headliner"] == lumen


def test_platform_source_onboarding_with_alignment():
    platform = SagaPlatform()
    alignment = AlignmentConfig(source_id="moviefeed", type_map={"film": "movie"})
    alignment.pgfs.extend([
        PGF("name", ("title",)),
        PGF("genre", ("category",)),
    ])
    transformer = EntityTransformer(source_id="moviefeed", id_column="movie_id",
                                    type_column="kind", default_type="movie")
    platform.register_source("moviefeed", transformer=transformer, alignment=alignment)
    importer = InMemoryImporter([
        {"movie_id": "m1", "kind": "film", "title": "The Lost Kingdom", "category": "adventure"},
        {"movie_id": "m2", "kind": "film", "title": "Silent Harbor", "category": "drama"},
    ])
    report = platform.ingest_importer("moviefeed", importer)
    assert report.linked_added == 2
    kg_id = platform.construction.link_table["moviefeed:m1"]
    assert platform.graph_engine.triples.value_of(kg_id, "genre") == "adventure"
    assert platform.graph_engine.triples.value_of(kg_id, "name") == "The Lost Kingdom"


def test_platform_unregistered_source_rejected(constructed_platform):
    from repro.errors import IngestionError

    with pytest.raises(IngestionError):
        constructed_platform.ingest_snapshot("never_registered", [])
