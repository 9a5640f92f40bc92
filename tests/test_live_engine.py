"""Tests for live construction, query execution, intents, context, and curation."""

import pytest

from repro.errors import IntentError
from repro.live import (
    CurationDecision,
    Intent,
    LiveGraphEngine,
)
from repro.live.curation import CurationPipeline, VandalismDetector
from repro.live.index import LiveEntityDocument
from repro.ml.nerd import NERDService


@pytest.fixture(scope="module")
def nerd_service(reference_store, ontology):
    return NERDService.from_store(reference_store, ontology)


@pytest.fixture()
def live_engine(reference_store, nerd_service, live_events):
    engine = LiveGraphEngine(resolution_service=nerd_service)
    engine.load_stable_view(reference_store)
    engine.ingest_events(live_events)
    return engine


# --------------------------------------------------------------------- #
# construction
# --------------------------------------------------------------------- #
def test_live_construction_resolves_references(live_engine, world):
    stats = live_engine.construction.stats
    assert stats.events_processed == len(set(e.timestamp for e in [])) or stats.events_processed > 0
    assert stats.references_resolved > 0
    resolution_rate = stats.references_resolved / max(
        stats.references_resolved + stats.references_unresolved, 1
    )
    assert resolution_rate > 0.8
    # a game document references the stable team entity by its truth id
    games = live_engine.index.kv.by_type("sports_game")
    assert games
    assert any(ref.startswith("truth:") for game in games for ref in game.references.values())


def test_live_and_stable_documents_coexist(live_engine, reference_store):
    stable_count = reference_store.entity_count()
    assert len(live_engine.index) > stable_count
    assert any(doc.is_live for doc in live_engine.index.kv)
    assert any(not doc.is_live for doc in live_engine.index.kv)


# --------------------------------------------------------------------- #
# querying
# --------------------------------------------------------------------- #
def test_kgq_query_answers_leader_of_country(live_engine, world):
    country = world.of_type("country")[0]
    leader = world.get(country.facts["head_of_state"])
    result = live_engine.query(
        f'MATCH country WHERE name = "{country.name}" RETURN head_of_state.name'
    )
    assert result.rows
    answer = result.rows[0].values["head_of_state.name"]
    assert answer in leader.all_names


def test_kgq_traversal_and_score_query(live_engine, world):
    games = live_engine.index.kv.by_type("sports_game")
    target = games[0]
    home_name = target.references["home_team"]
    home_doc = live_engine.index.get(home_name)
    display = home_doc.name if home_doc else home_name
    result = live_engine.query(
        f'MATCH sports_game WHERE home_team.name CONTAINS "{display}" '
        f"RETURN name, home_score, away_score, game_status"
    )
    assert any(row.entity_id == target.entity_id for row in result.rows)
    row = [r for r in result.rows if r.entity_id == target.entity_id][0]
    assert row.values["home_score"] == target.value("home_score")


def test_repeat_queries_execute_and_latency_tracking(live_engine, world):
    country = world.of_type("country")[0]
    text = f'MATCH country WHERE name = "{country.name}" RETURN head_of_state.name'
    executed = live_engine.executor.queries_executed
    first = live_engine.query(text)
    second = live_engine.query(text)
    # the live engine keeps no result cache: the repeat runs again, same rows
    assert not first.from_cache and not second.from_cache
    assert live_engine.executor.queries_executed == executed + 2
    assert [(r.entity_id, r.values) for r in second.rows] == \
        [(r.entity_id, r.values) for r in first.rows]
    assert live_engine.latency_p95_ms() >= 0.0
    stats = live_engine.stats()
    assert stats["queries"] >= 2
    assert stats["documents"] == len(live_engine.index)


def test_virtual_operator_call_query(live_engine, world):
    country = world.of_type("country")[0]
    result = live_engine.query(f'CALL HeadOfState("{country.name}")')
    assert result.rows


def test_explain_shows_pushdown(live_engine):
    steps = live_engine.explain('MATCH city WHERE name = "Springfield" RETURN mayor.name')
    assert steps[0].startswith("IndexLookup")


# --------------------------------------------------------------------- #
# intents and context
# --------------------------------------------------------------------- #
def test_intent_routing_depends_on_argument_semantics(live_engine, world):
    country = world.of_type("country")[0]
    city = world.of_type("city")[0]
    country_answer = live_engine.answer_intent(Intent("LeaderOf", (country.name,)))
    city_answer = live_engine.answer_intent(Intent("LeaderOf", (city.name,)))
    assert country_answer.route_column == "head_of_state.name"
    assert city_answer.route_column == "mayor.name"
    assert country_answer.answer is not None
    assert city_answer.answer is not None


def test_intent_error_for_unknown_intent_or_argument(live_engine):
    with pytest.raises(IntentError):
        live_engine.answer_intent(Intent("UnknownIntent", ("x",)))
    with pytest.raises(IntentError):
        live_engine.answer_intent(Intent("LeaderOf", ("Completely Unknown Entity 123",)))


def test_multi_turn_follow_up_uses_previous_intent(live_engine, world):
    artists = [a for a in world.of_type("music_artist") if a.facts.get("spouse")]
    assert artists
    first_artist = artists[0]
    second_artist = artists[1] if len(artists) > 1 else artists[0]
    live_engine.answer_intent(Intent("SpouseOf", (first_artist.name,)))
    follow_up = live_engine.answer_follow_up(f"How about {second_artist.name}?")
    assert follow_up.intent.name == "SpouseOf"
    assert follow_up.intent.arguments == (second_artist.name,)
    expected = world.name_of(second_artist.facts["spouse"])
    assert follow_up.answer in (expected, *world.get(second_artist.facts["spouse"]).aliases)


def test_pronoun_follow_up_binds_previous_answer(live_engine, world):
    artists = [a for a in world.of_type("music_artist") if a.facts.get("spouse")]
    artist = artists[0]
    spouse = world.get(artist.facts["spouse"])
    live_engine.context.clear()
    live_engine.answer_intent(Intent("SpouseOf", (artist.name,)))
    answer = live_engine.answer_intent(Intent("Birthplace", ("she",)))
    birth_city = world.get(spouse.facts["birth_place"])
    assert answer.answer in birth_city.all_names
    with pytest.raises(IntentError):
        LiveGraphEngine().answer_follow_up("How about someone?")


# --------------------------------------------------------------------- #
# curation
# --------------------------------------------------------------------- #
def test_vandalism_detector_flags_outliers_and_suspicious_text():
    detector = VandalismDetector()
    bad_doc = LiveEntityDocument(
        entity_id="g1", entity_type="sports_game", name="Game",
        facts={"home_score": [9999], "description": ["totally fake!!! lol"]},
    )
    findings = detector.inspect(bad_doc)
    kinds = {finding.kind.value for finding in findings}
    assert "numeric_outlier" in kinds
    assert "suspicious_text" in kinds
    clean = LiveEntityDocument(entity_id="g2", entity_type="sports_game", name="Game",
                               facts={"home_score": [3]})
    assert detector.inspect(clean) == []


def test_curation_hotfix_edits_live_index(live_engine):
    game = live_engine.index.kv.by_type("sports_game")[0]
    live_engine.curation.report(game.entity_id, "home_score", game.value("home_score"))
    applied = live_engine.apply_curation_decision(
        CurationDecision(entity_id=game.entity_id, predicate="home_score",
                         action="edit", replacement=42)
    )
    assert applied == 1
    assert live_engine.index.get(game.entity_id).value("home_score") == 42


def test_curation_block_removes_entity(live_engine):
    game = live_engine.index.kv.by_type("sports_game")[-1]
    live_engine.curation.report(game.entity_id, "game_status", "vandalized")
    applied = live_engine.apply_curation_decision(
        CurationDecision(entity_id=game.entity_id, predicate="game_status", action="block")
    )
    assert applied == 1
    assert live_engine.index.get(game.entity_id) is None


def test_curation_pipeline_feeds_stable_construction():
    pipeline = CurationPipeline()
    pipeline.report("kg:e1", "population", -5)
    events = pipeline.decide(CurationDecision(entity_id="kg:e1", predicate="population",
                                              action="edit", replacement=1000))
    assert events and events[0].source_id == "curation"
    entities = pipeline.as_source_entities()
    assert entities[0].properties == {"population": 1000}
    assert entities[0].source_id == "curation"
    assert pipeline.pending() == []
