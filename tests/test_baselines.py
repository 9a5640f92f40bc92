"""Tests for the baseline implementations (legacy views, embedding regimes)."""

import pytest

from repro.baselines import DGLKEStyleTrainer, LegacyViewEngine, PBGStyleTrainer
from repro.engine.analytics import AnalyticsStore, EntityViewSpec
from repro.ml.embeddings import EmbeddingConfig, InMemoryTrainer, TrainerConfig, extract_edges
from repro.model.provenance import Provenance
from repro.model.triples import ExtendedTriple, TripleStore


def triple(subject, predicate, obj):
    return ExtendedTriple(subject=subject, predicate=predicate, obj=obj,
                          provenance=Provenance.from_source("src", 0.9))


@pytest.fixture
def small_kg_triples():
    return [
        triple("kg:a1", "type", "music_artist"),
        triple("kg:a1", "name", "Echo Valley"),
        triple("kg:a1", "genre", "pop"),
        triple("kg:a1", "record_label", "kg:l1"),
        triple("kg:l1", "type", "record_label"),
        triple("kg:l1", "name", "Apex Records"),
        triple("kg:l1", "headquarters", "kg:c1"),
        triple("kg:c1", "type", "city"),
        triple("kg:c1", "name", "Springfield"),
    ]


def test_legacy_view_engine_matches_optimized_output(small_kg_triples):
    spec = EntityViewSpec(
        name="artists",
        entity_type="music_artist",
        predicates=("genre",),
        reference_joins={"label_name": "record_label"},
        nested_joins={"label_city": ("record_label", "headquarters")},
    )
    optimized_store = AnalyticsStore(TripleStore(small_kg_triples))
    optimized = {row["subject"]: row for row in optimized_store.entity_view(spec).rows}

    legacy = LegacyViewEngine.from_triples(small_kg_triples)
    legacy_rows = {row["subject"]: row for row in legacy.entity_view(spec).rows}

    assert set(optimized) == set(legacy_rows)
    for subject, optimized_row in optimized.items():
        legacy_row = legacy_rows[subject]
        assert optimized_row["genre"] == legacy_row["genre"]
        assert optimized_row["label_name"] == legacy_row["label_name"]
        assert optimized_row["label_city"] == legacy_row["label_city"]


def test_legacy_view_engine_scans_many_more_rows(small_kg_triples):
    spec = EntityViewSpec(name="artists", entity_type="music_artist",
                          predicates=("genre",), reference_joins={"label": "record_label"})
    legacy = LegacyViewEngine.from_triples(small_kg_triples)
    legacy.entity_view(spec)
    optimized = AnalyticsStore(TripleStore(small_kg_triples))
    optimized.entity_view(spec)
    assert legacy.rows_scanned > optimized.rows_scanned


def test_legacy_view_engine_compute_views_batch(small_kg_triples):
    legacy = LegacyViewEngine.from_triples(small_kg_triples)
    specs = [
        EntityViewSpec(name="artists", entity_type="music_artist", predicates=("genre",)),
        EntityViewSpec(name="labels", entity_type="record_label", predicates=("name",)),
    ]
    views = legacy.compute_views(specs)
    assert set(views) == {"artists", "labels"}


def test_embedding_baselines_account_resources(reference_store):
    edges = extract_edges(reference_store)
    config = EmbeddingConfig(dimension=8, seed=1)
    trainer_config = TrainerConfig(epochs=1, batch_size=256, seed=1)

    marius_like = InMemoryTrainer("transe", config, trainer_config).train(edges)
    dglke = DGLKEStyleTrainer("transe", config, trainer_config).train(edges)
    pbg = PBGStyleTrainer("transe", config, trainer_config, utilization=0.25).train(edges)

    assert dglke.model_name.startswith("dglke-style/")
    assert dglke.peak_memory_bytes > marius_like.peak_memory_bytes
    assert dglke.extra["cluster_exclusive"] is True

    assert pbg.model_name.startswith("pbg-style/")
    assert pbg.seconds > marius_like.seconds
    assert pbg.extra["utilization"] == 0.25
