"""FIG12 — relative growth of the KG after introducing Saga (Figure 12).

The paper plots the relative growth of facts and entities since 2018: after
Saga's hybrid batch-incremental construction was introduced, the KG grew to
over 33x the facts and 6.5x the entities of the initial measurement, driven by
continuous onboarding of new sources and incremental updates.  We reproduce
the measurement by simulating the onboarding timeline on the synthetic world:
a single bootstrap source is consumed first (the pre-Saga baseline point),
then the remaining sources are onboarded and every source keeps publishing
evolved snapshots.  The benchmark reports the growth series and the final
relative factors.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_table
from repro.construction import KnowledgeConstructionPipeline
from repro.datagen import SourceSpec, evolve_source, generate_source
from repro.ingestion import IngestionHub


def _bootstrap_spec() -> SourceSpec:
    """The small pre-Saga source: low coverage of people only."""
    return SourceSpec(
        source_id="legacy_feed",
        entity_types=("person", "music_artist"),
        coverage=0.25,
        typo_rate=0.05,
        include_volatile=False,
        seed=901,
    )


def _onboarded_specs() -> list[SourceSpec]:
    """Sources onboarded after Saga is introduced (self-serve onboarding)."""
    return [
        SourceSpec(source_id="wiki", coverage=0.9, seed=902,
                   entity_types=("person", "music_artist", "actor", "athlete", "city",
                                 "country", "school", "company", "sports_team", "stadium")),
        SourceSpec(source_id="musicdb", coverage=0.95, seed=903,
                   entity_types=("music_artist", "album", "song", "playlist", "record_label")),
        SourceSpec(source_id="moviedb", coverage=0.95, seed=904,
                   entity_types=("movie", "actor")),
        SourceSpec(source_id="sportsref", coverage=0.9, seed=905,
                   entity_types=("athlete", "sports_team", "stadium")),
    ]


@pytest.fixture(scope="module")
def growth_run(ontology, bench_world):
    """Run the onboarding timeline once and keep the growth history."""
    hub = IngestionHub(ontology)
    pipeline = KnowledgeConstructionPipeline(ontology)

    bootstrap = generate_source(bench_world, _bootstrap_spec())
    hub.register_source(bootstrap.source_id)
    result = hub.get(bootstrap.source_id).run_entities(bootstrap.entities)
    pipeline.consume_many([result])

    snapshots = {bootstrap.source_id: bootstrap}
    for spec in _onboarded_specs():
        source = generate_source(bench_world, spec)
        snapshots[spec.source_id] = source
        hub.register_source(spec.source_id)
        result = hub.get(spec.source_id).run_entities(source.entities)
        pipeline.consume_many([result])

    # Continuous operation: every source publishes two evolved snapshots.
    for _ in range(2):
        for source_id, snapshot in list(snapshots.items()):
            evolved = evolve_source(bench_world, snapshot, added_fraction=0.3,
                                    updated_fraction=0.15, deleted_fraction=0.01)
            snapshots[source_id] = evolved
            result = hub.get(source_id).run_entities(evolved.entities)
            pipeline.consume_many([result])
    return pipeline


def bench_fig12_growth_series(benchmark, growth_run):
    """Report the growth series and the final relative factors (paper: 33x / 6.5x)."""
    pipeline = growth_run
    series = pipeline.growth.series()
    first = series[0]
    rows = [
        [point["timestamp"], point["source_id"],
         point["facts"], point["entities"],
         point["facts"] / max(first["facts"], 1),
         point["entities"] / max(first["entities"], 1)]
        for point in series
    ]
    print_table(
        "Figure 12 — relative KG growth while onboarding sources "
        "(paper final point: 33x facts, 6.5x entities)",
        ["t", "source", "facts", "entities", "facts_rel", "entities_rel"],
        rows,
    )
    growth = pipeline.growth.relative_growth()
    # Shape claims: both series grow monotonically overall and facts grow
    # faster than entities (integration adds facts to existing entities).
    assert growth["facts"] > 3.0
    assert growth["entities"] > 1.5
    assert growth["facts"] > growth["entities"]
    # The series may dip slightly when sources retract entities, but the KG
    # must remain near its peak size after continuous operation.
    facts_series = [point["facts"] for point in series]
    assert facts_series[-1] >= 0.9 * max(facts_series)

    benchmark(lambda: pipeline.growth.relative_growth())


def bench_fig12_single_source_consumption(benchmark, ontology, bench_world):
    """Micro-benchmark: consuming one full source snapshot end-to-end."""
    source = generate_source(bench_world, _bootstrap_spec())

    def consume_once():
        hub = IngestionHub(ontology)
        pipeline = KnowledgeConstructionPipeline(ontology)
        hub.register_source(source.source_id)
        result = hub.get(source.source_id).run_entities(source.entities)
        return pipeline.consume_many([result])[0]

    report = benchmark(consume_once)
    assert report.linked_added > 0
