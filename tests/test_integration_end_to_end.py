"""End-to-end integration tests across construction, serving, ML, and live layers."""


from repro import SagaPlatform
from repro.datagen import LiveStreamGenerator, StreamConfig
from repro.live import CurationDecision, LiveGraphEngine
from repro.ml.nerd import NERDService
from repro.model.delta import SourceDelta
from repro.model.entity import SourceEntity


def artist(entity_id, name, source_id, **props):
    properties = {"name": name}
    properties.update(props)
    return SourceEntity(entity_id=entity_id, entity_type="music_artist",
                        properties=properties, source_id=source_id, trust=0.85)


def test_full_lifecycle_single_entity():
    """One entity flows through onboarding, update, deletion, and governance."""
    platform = SagaPlatform()
    platform.register_source("musicdb")
    platform.register_source("wiki")

    platform.ingest_snapshot("musicdb", [
        artist("musicdb:1", "Nova Starlight", "musicdb", genre="electropop", popularity=0.9),
    ])
    platform.ingest_snapshot("wiki", [
        artist("wiki:Nova", "Nova Starlight", "wiki", birth_date="1991-03-14"),
    ])
    kg_id = platform.construction.link_table["musicdb:1"]
    assert platform.construction.link_table["wiki:Nova"] == kg_id

    engine = platform.graph_engine
    document = engine.entity(kg_id)
    assert document is not None
    assert "electropop" in document.facts.get("genre", [])
    assert "1991-03-14" in document.facts.get("birth_date", [])

    # Second musicdb snapshot: genre changes, popularity churns.
    platform.ingest_snapshot("musicdb", [
        artist("musicdb:1", "Nova Starlight", "musicdb", genre="synthpop", popularity=0.95),
    ])
    assert engine.triples.values_of(kg_id, "genre") == ["synthpop"]
    assert engine.triples.value_of(kg_id, "popularity") == 0.95
    # wiki's contribution is untouched by the musicdb update
    assert engine.triples.value_of(kg_id, "birth_date") == "1991-03-14"

    # Third snapshot deletes the artist from musicdb; wiki facts survive.
    platform.ingest_snapshot("musicdb", [])
    assert engine.triples.value_of(kg_id, "birth_date") == "1991-03-14"
    assert engine.triples.values_of(kg_id, "genre") == []

    # Governance: removing wiki entirely leaves nothing but linkage provenance.
    engine.remove_source("wiki")
    remaining = [t for t in engine.triples.facts_about(kg_id) if t.predicate != "same_as"]
    assert remaining == []


def test_every_store_reaches_the_same_version(constructed_platform):
    engine = constructed_platform.graph_engine
    head = engine.log.head_lsn()
    assert constructed_platform.metrics().store_freshness == engine.freshness()
    for store_name, lag in engine.freshness().items():
        assert lag == 0, f"{store_name} lags behind the log head"
    assert engine.minimum_version() == head


def test_curation_feedback_loop_reaches_stable_kg(reference_store, ontology, world):
    """Curation hot-fixes the live index and feeds stable construction."""
    nerd = NERDService.from_store(reference_store, ontology)
    live = LiveGraphEngine(resolution_service=nerd)
    live.load_stable_view(reference_store)
    events = LiveStreamGenerator(world, StreamConfig(num_games=2, seed=9)).sports_events()
    live.ingest_events(events)

    game = live.index.kv.by_type("sports_game")[0]
    live.curation.report(game.entity_id, "home_score", game.value("home_score"))
    live.apply_curation_decision(CurationDecision(
        entity_id=game.entity_id, predicate="home_score", action="edit", replacement=1,
    ))
    assert live.index.get(game.entity_id).value("home_score") == 1

    # The accepted edit becomes a curation source entity for stable construction.
    curation_entities = live.curation.as_source_entities()
    assert curation_entities
    platform = SagaPlatform(ontology=ontology)
    platform.register_source("curation")
    report = platform.ingest_snapshot("curation", curation_entities)
    assert report.source_id == "curation"
    assert report.fusion.facts_added >= 1


def test_live_graph_over_constructed_kg(constructed_platform, live_events, world):
    """The live engine serves the *constructed* KG (not just the reference one)."""
    platform = constructed_platform
    store = platform.graph_engine.triples
    live = LiveGraphEngine(resolution_service=NERDService.from_store(store, platform.ontology))
    live.load_stable_view(store)
    live.ingest_events(live_events[:30])
    games = live.index.kv.by_type("sports_game")
    assert games
    # Stable entities coming from construction carry kg: identifiers.
    stable_docs = [doc for doc in live.index.kv if not doc.is_live]
    assert any(doc.entity_id.startswith("kg:") for doc in stable_docs)
    result = live.query('MATCH sports_game WHERE game_status = "final" RETURN name LIMIT 3')
    assert result.latency_ms >= 0.0


def test_incremental_timestamps_monotonic(constructed_platform):
    reports = constructed_platform.construction.reports
    assert reports
    growth = constructed_platform.construction.growth.points
    assert [p.timestamp for p in growth] == sorted(p.timestamp for p in growth)


def test_empty_delta_is_a_noop(ontology):
    platform = SagaPlatform(ontology=ontology)
    platform.register_source("musicdb")
    platform.ingest_snapshot("musicdb", [artist("musicdb:1", "Echo Valley", "musicdb")])
    facts_before = platform.graph_engine.triples.fact_count()
    report = platform.construction.consume_delta(SourceDelta(source_id="musicdb"))
    assert report.fusion.facts_added == 0
    assert platform.graph_engine.triples.fact_count() == facts_before
