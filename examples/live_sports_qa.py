"""Live-graph example: real-time sports scores with open-domain QA (§4, §6.1).

Builds the live knowledge graph — a stable-KG view joined with streaming
sports/stock/flight feeds whose text references are resolved against the
stable graph by the entity-resolution service — and then serves it:

* ad-hoc KGQ queries with traversal constraints and pushdown;
* query intents whose routing depends on argument semantics
  ("LeaderOf(Canada)" vs "LeaderOf(Chicago)");
* multi-turn context ("How about X?", "Where is she from?");
* human-in-the-loop curation hot-fixing a vandalized score.

Run with:  python examples/live_sports_qa.py
"""

from __future__ import annotations

from repro.datagen import (
    LiveStreamGenerator,
    StreamConfig,
    WorldConfig,
    generate_world,
    world_to_store,
)
from repro.live import CurationDecision, Intent, LiveGraphEngine
from repro.ml.nerd import NERDService
from repro.model import default_ontology


def main() -> None:
    ontology = default_ontology()
    world = generate_world(WorldConfig(seed=42))
    stable_kg = world_to_store(world)

    # The entity-resolution service used to link streaming references to the
    # stable graph is the same NERD stack that powers object resolution.
    nerd = NERDService.from_store(stable_kg, ontology)
    live = LiveGraphEngine(resolution_service=nerd)

    loaded = live.load_stable_view(stable_kg)
    events = LiveStreamGenerator(world, StreamConfig(num_games=6, num_stocks=4,
                                                     num_flights=4, seed=5)).all_events()
    live.ingest_events(events)
    stats = live.stats()
    print(f"Live KG: {stats['documents']} documents "
          f"({loaded} stable-view entities + streaming updates), "
          f"{stats['references_resolved']} stream references resolved to stable entities "
          f"({stats['references_unresolved']} left as text)")

    # ------------------------------------------------------------------ #
    # Ad-hoc KGQ queries.
    # ------------------------------------------------------------------ #
    team = world.of_type("sports_team")[0]
    score_query = (f'MATCH sports_game WHERE home_team.name CONTAINS "{team.name}" '
                   f"RETURN name, home_score, away_score, game_status")
    print(f"\nKGQ> {score_query}")
    print("  plan:", " -> ".join(live.explain(score_query)))
    for row in live.query(score_query).rows:
        print(f"  {row.values}")

    country = world.of_type("country")[0]
    leader_query = f'MATCH country WHERE name = "{country.name}" RETURN head_of_state.name'
    result = live.query(leader_query)
    print(f"\nKGQ> {leader_query}")
    print(f"  -> {result.first_value('head_of_state.name')}  "
          f"({result.latency_ms:.2f} ms)")

    # Virtual operators encapsulate reusable expressions.
    print(f"\nKGQ> CALL GameScore(\"{team.name}\")")
    for row in live.query(f'CALL GameScore("{team.name}")').rows[:2]:
        print(f"  {row.values}")

    # ------------------------------------------------------------------ #
    # Intents with semantics-dependent routing + multi-turn context.
    # ------------------------------------------------------------------ #
    city = world.of_type("city")[0]
    print("\n== question answering over the live KG ==")
    for intent in (Intent("LeaderOf", (country.name,)), Intent("LeaderOf", (city.name,))):
        answer = live.answer_intent(intent)
        print(f"  {intent.render():<40} -> {answer.answer}   "
              f"[routed to {answer.route_column}]")

    married = [a for a in world.of_type("music_artist") if a.facts.get("spouse")]
    first, second = married[0], married[1]
    live.context.clear()
    answer = live.answer_intent(Intent("SpouseOf", (first.name,)))
    print(f"  Who is {first.name} married to?          -> {answer.answer}")
    follow = live.answer_follow_up(f"How about {second.name}?")
    print(f"  How about {second.name}?                 -> {follow.answer}")
    where = live.answer_intent(Intent("Birthplace", ("she",)))
    print(f"  Where is she from?                       -> {where.answer}")

    # ------------------------------------------------------------------ #
    # Curation: quarantine a vandalized fact and hot-fix the live index.
    # ------------------------------------------------------------------ #
    game = live.index.kv.by_type("sports_game")[0]
    print(f"\n== curation ==")
    print(f"  incoming vandalized update for {game.name!r}: home_score=9999")
    vandalized = game
    vandalized.facts["home_score"] = [9999]
    findings = live.curation.screen(vandalized)
    print(f"  detector quarantined {len(findings)} fact(s): "
          f"{[f.kind.value for f in findings]}")
    live.apply_curation_decision(CurationDecision(
        entity_id=game.entity_id, predicate="home_score", action="edit", replacement=3,
    ))
    print(f"  after curation hot-fix: home_score="
          f"{live.index.get(game.entity_id).value('home_score')}")

    print(f"\np95 query latency so far: {live.latency_p95_ms():.2f} ms "
          f"over {live.executor.queries_executed} queries")


if __name__ == "__main__":
    main()
