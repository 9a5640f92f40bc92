"""Music-vertical example: continuous construction from noisy catalog feeds.

This is the workload the paper's introduction motivates for batch sources:
a music catalog and an encyclopedia feed both describe overlapping artists,
albums, and songs with typos, aliases, duplicate records, and churning
popularity.  The example shows:

* onboarding both sources and ingesting their first snapshots;
* measuring linking quality against the known ground truth of the synthetic
  world (the pairwise precision/recall the platform team would track);
* consuming an *evolved* snapshot incrementally — only the delta is processed
  and the volatile popularity partition takes the optimized overwrite path;
* registering and maintaining Graph Engine views (entity features, ranked
  entity index) and reading entity cards for a popular artist;
* removing a source on demand: the artist's entity card and search hit lose
  exactly the facts only that source supported.

Run with:  python examples/music_catalog.py
"""

from __future__ import annotations

from repro import SagaPlatform
from repro.construction.linking import LinkingResult, evaluate_linking
from repro.datagen import (
    WorldConfig,
    evolve_source,
    generate_source,
    generate_world,
    music_catalog_spec,
    wiki_people_spec,
)
from repro.engine import EntityViewSpec


def main() -> None:
    world = generate_world(WorldConfig(num_people=60, num_artists=25, num_movies=10,
                                       num_cities=16, seed=11))
    platform = SagaPlatform()

    music = generate_source(world, music_catalog_spec(seed=301))
    wiki = generate_source(world, wiki_people_spec(seed=302))
    platform.register_source(music.source_id)
    platform.register_source(wiki.source_id)

    # ------------------------------------------------------------------ #
    # First snapshots: full Added payloads.
    # ------------------------------------------------------------------ #
    print("== initial snapshots ==")
    for source in (music, wiki):
        report = platform.ingest_snapshot(source.source_id, source.entities)
        print(f"  {source.source_id:<8} {report.summary()}")

    metrics = platform.metrics()
    print(f"\nKG after onboarding: {metrics.facts} facts, {metrics.entities} entities")

    # Linking quality against ground truth (possible because the synthetic
    # world records which source record describes which real-world entity).
    truth_map = {**music.truth_map, **wiki.truth_map}
    linking_result = LinkingResult(assignments=dict(platform.construction.link_table))
    quality = evaluate_linking(linking_result, truth_map)
    print(f"pairwise linking quality vs ground truth: "
          f"precision={quality['precision']:.3f} recall={quality['recall']:.3f} "
          f"f1={quality['f1']:.3f}")

    # ------------------------------------------------------------------ #
    # Incremental consumption of an evolved snapshot.
    # ------------------------------------------------------------------ #
    print("\n== incremental update (evolved music catalog) ==")
    evolved = evolve_source(world, music, added_fraction=0.2, updated_fraction=0.15,
                            deleted_fraction=0.03)
    report = platform.ingest_snapshot(music.source_id, evolved.entities)
    print(f"  delta consumed: {report.summary()}")
    print(f"  volatile popularity facts refreshed for {report.volatile_entities} entities "
          f"(optimized partition-overwrite path)")

    # ------------------------------------------------------------------ #
    # Graph Engine views and entity cards.
    # ------------------------------------------------------------------ #
    engine = platform.graph_engine
    engine.register_standard_views()
    timings = engine.materialize_views()
    print("\n== registered KG views ==")
    for name, seconds in sorted(timings.items()):
        print(f"  {name:<22} built in {seconds * 1000:.1f} ms")

    artists_view = engine.entity_view(EntityViewSpec(
        name="artist_cards",
        entity_type="music_artist",
        predicates=("genre", "birth_date"),
        reference_joins={"label": "record_label", "birthplace": "birth_place"},
    ))
    print(f"\nartist_cards view: {len(artists_view)} rows; first three:")
    for row in artists_view.rows[:3]:
        print(f"  {row}")

    # Entity card for the most important artist in the graph.
    scores = engine.importance_scores()
    artist_ids = set(engine.analytics.subjects_of_type("music_artist"))
    top_artist_id = max(artist_ids, key=lambda entity_id: scores[entity_id].score
                        if entity_id in scores else 0.0)
    card = engine.entity(top_artist_id)
    print(f"\nEntity card — {card.name} (importance "
          f"{scores[top_artist_id].score:.3f}):")
    for predicate in ("genre", "birth_date", "occupation", "record_label"):
        if predicate in card.facts:
            print(f"  {predicate}: {card.facts[predicate]}")
    print(f"  contributing sources stay attached to every fact "
          f"(non-destructive integration)")

    # Licensing / governance: drop a source on demand and show the KG shrink.
    # The removal is published like any other change, so the entity card and
    # the search index lose exactly the facts only musicdb supported.
    musicdb_only = {
        (fact.predicate, fact.obj)
        for fact in engine.triples.facts_about(top_artist_id)
        if fact.sources == ["musicdb"] and fact.predicate in card.facts
    }

    def own_hit() -> str:
        hits = engine.search(card.name, k=100)
        hit = next((hit for hit in hits if hit.doc_id == top_artist_id), None)
        return "no hit" if hit is None else f"{hit.payload['name']!r} (score {hit.score:.2f})"

    hit_before = own_hit()
    before = engine.triples.fact_count()
    engine.remove_source("musicdb")
    after = engine.triples.fact_count()
    print(f"\nOn-demand source removal: dropping 'musicdb' removed "
          f"{before - after} facts that no other source supported")
    card_after = engine.entity(top_artist_id)
    facts_after = card_after.facts if card_after is not None else {}
    lost = {
        (predicate, value)
        for predicate, values in card.facts.items()
        for value in values
        if value not in facts_after.get(predicate, [])
    }
    if lost != musicdb_only:
        raise SystemExit(f"entity card lost {sorted(lost)}, expected {sorted(musicdb_only)}")
    print(f"  entity card of {card.name} lost the facts only musicdb supported:")
    for predicate, value in sorted(lost, key=repr):
        print(f"    {predicate}: {value}")
    print(f"  its search hit for {card.name!r}: {hit_before} -> {own_hit()}")


if __name__ == "__main__":
    main()
