"""Tests for KG embeddings: models, trainers, partition buffer, and tasks."""

import numpy as np
import pytest

from repro.engine.vector_db import VectorDB
from repro.errors import EmbeddingError
from repro.ml.embeddings import (
    EmbeddingConfig,
    EmbeddingTasks,
    InMemoryTrainer,
    PartitionBufferTrainer,
    PartitionConfig,
    TrainerConfig,
    TransE,
    evaluate_link_prediction,
    extract_edges,
    make_model,
    sample_negatives,
)
from repro.ml.embeddings.training import METADATA_PREDICATES
from repro.model.triples import TripleStore


@pytest.fixture(scope="module")
def edge_list(reference_store):
    return extract_edges(reference_store)


@pytest.fixture(scope="module")
def trained(edge_list):
    trainer = InMemoryTrainer(
        "transe",
        EmbeddingConfig(dimension=16, seed=3),
        TrainerConfig(epochs=8, batch_size=128, seed=3),
    )
    report = trainer.train(edge_list)
    return trainer.model, report


# --------------------------------------------------------------------- #
# edge extraction
# --------------------------------------------------------------------- #
def test_extract_edges_filters_metadata(reference_store, edge_list):
    assert edge_list.num_edges > 0
    assert edge_list.num_entities > 0
    assert "name" not in edge_list.relation_ids
    assert "type" not in edge_list.relation_ids
    assert "performed_by" in edge_list.relation_ids or "birth_place" in edge_list.relation_ids
    assert edge_list.edges.max() < edge_list.num_entities


def test_extract_edges_equals_a_loop_over_the_stored_triples(reference_store, edge_list):
    subjects = reference_store.subjects()
    entity_ids: list[str] = []
    relation_ids: list[str] = []
    rows = []
    for triple in reference_store:
        predicate = triple.relationship_predicate or triple.predicate
        if predicate in METADATA_PREDICATES or triple.obj not in subjects:
            continue
        for name, ids in ((triple.subject, entity_ids), (predicate, relation_ids),
                          (triple.obj, entity_ids)):
            if name not in ids:
                ids.append(name)
        rows.append((entity_ids.index(triple.subject), relation_ids.index(predicate),
                     entity_ids.index(triple.obj)))
    assert edge_list.entity_ids == entity_ids
    assert edge_list.relation_ids == relation_ids
    assert edge_list.edges.tolist() == [list(row) for row in rows]


def test_extract_edges_requires_relationship_facts():
    with pytest.raises(EmbeddingError):
        extract_edges(TripleStore())


def test_edge_list_split_shares_vocabulary(edge_list):
    train, test = edge_list.split(test_fraction=0.2, seed=1)
    assert train.num_edges + test.num_edges == edge_list.num_edges
    assert train.entity_index is edge_list.entity_index
    assert test.num_edges >= 1


def test_sample_negatives_corrupts_one_side(edge_list):
    rng = np.random.default_rng(0)
    positives = edge_list.edges[:50]
    negatives = sample_negatives(positives, edge_list.num_entities, rng)
    assert negatives.shape == positives.shape
    changed = (negatives != positives).any(axis=1)
    assert changed.mean() > 0.5
    # relations are never corrupted
    assert (negatives[:, 1] == positives[:, 1]).all()


# --------------------------------------------------------------------- #
# models
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("model_name", ["transe", "distmult"])
def test_models_score_and_train_step(model_name, edge_list):
    model = make_model(model_name, edge_list.num_entities, edge_list.num_relations,
                       EmbeddingConfig(dimension=8, seed=1))
    positives = edge_list.edges[:32]
    rng = np.random.default_rng(1)
    negatives = sample_negatives(positives, edge_list.num_entities, rng)
    scores = model.score(positives[:, 0], positives[:, 1], positives[:, 2])
    assert scores.shape == (32,)
    loss = model.train_step(positives, negatives)
    assert loss >= 0.0
    all_scores = model.score_all_objects(0, 0)
    assert all_scores.shape == (edge_list.num_entities,)
    assert model.predicted_object_vector(0, 0).shape == (8,)


def test_make_model_rejects_unknown_name(edge_list):
    with pytest.raises(EmbeddingError):
        make_model("complex", 10, 2)
    with pytest.raises(EmbeddingError):
        TransE(0, 1, EmbeddingConfig())


def test_training_improves_link_prediction_over_random(edge_list, trained):
    model, report = trained
    assert report.final_loss <= report.loss_history[0]
    train, test = edge_list.split(test_fraction=0.1, seed=2)
    untrained = make_model("transe", edge_list.num_entities, edge_list.num_relations,
                           EmbeddingConfig(dimension=16, seed=99))
    trained_metrics = evaluate_link_prediction(model, test.edges[:60])
    untrained_metrics = evaluate_link_prediction(untrained, test.edges[:60])
    assert trained_metrics["mrr"] > untrained_metrics["mrr"]
    assert 0.0 <= trained_metrics["hits@10"] <= 1.0


def test_distmult_training_reduces_loss(edge_list):
    trainer = InMemoryTrainer("distmult", EmbeddingConfig(dimension=8, seed=2),
                              TrainerConfig(epochs=4, batch_size=128, seed=2))
    report = trainer.train(edge_list)
    assert report.model_name == "distmult"
    assert report.final_loss <= report.loss_history[0]
    assert report.peak_memory_bytes > 0


# --------------------------------------------------------------------- #
# partition-buffer (Marius-style) training
# --------------------------------------------------------------------- #
def test_partition_buffer_training_bounds_memory(edge_list):
    full = InMemoryTrainer("transe", EmbeddingConfig(dimension=16, seed=4),
                           TrainerConfig(epochs=2, seed=4))
    full_report = full.train(edge_list)
    partitioned = PartitionBufferTrainer(
        "transe",
        EmbeddingConfig(dimension=16, seed=4),
        TrainerConfig(epochs=2, seed=4),
        PartitionConfig(num_partitions=8, buffer_partitions=2),
    )
    partition_report = partitioned.train(edge_list)
    assert partition_report.peak_memory_bytes < full_report.peak_memory_bytes
    assert partition_report.partition_swaps > 0
    assert partition_report.extra["buffer_partitions"] == 2
    # quality remains usable despite the bounded buffer
    _, test = edge_list.split(test_fraction=0.1, seed=5)
    metrics = evaluate_link_prediction(partitioned.model, test.edges[:40])
    assert metrics["mrr"] > 0.0


def test_partition_config_validation():
    with pytest.raises(EmbeddingError):
        PartitionConfig(num_partitions=2, buffer_partitions=1)
    with pytest.raises(EmbeddingError):
        PartitionConfig(num_partitions=2, buffer_partitions=4)


# --------------------------------------------------------------------- #
# downstream tasks
# --------------------------------------------------------------------- #
def test_fact_ranking_and_verification(trained, edge_list, world):
    model, _ = trained
    tasks = EmbeddingTasks(model, edge_list)
    artist = next(a for a in world.of_type("music_artist")
                  if a.truth_id in edge_list.entity_index
                  and a.facts.get("record_label") in edge_list.entity_index)
    true_label = artist.facts["record_label"]
    other_labels = [l.truth_id for l in world.of_type("record_label")
                    if l.truth_id in edge_list.entity_index][:3]
    ranked = tasks.rank_facts(artist.truth_id, "record_label",
                              [true_label, *[l for l in other_labels if l != true_label]])
    assert ranked[0].rank == 1
    assert len({fact.rank for fact in ranked}) == len(ranked)

    facts = [(artist.truth_id, "record_label", label) for label in other_labels]
    all_facts = facts + [(artist.truth_id, "record_label", true_label)]
    findings = tasks.verify_facts(all_facts, zscore_threshold=-10.0)
    assert findings == []                                 # nothing is 10 sigmas below the mean
    loose = tasks.verify_facts(all_facts, zscore_threshold=0.0)
    assert all(finding.zscore <= 0.0 for finding in loose)
    assert tasks.verify_facts([]) == []


def test_missing_fact_imputation_and_vector_db(trained, edge_list):
    model, _ = trained
    tasks = EmbeddingTasks(model, edge_list)
    subject, relation, obj = edge_list.edges[0]
    subject_id = edge_list.entity_ids[subject]
    relation_id = edge_list.relation_ids[relation]
    candidates = tasks.impute_missing(subject_id, relation_id, k=5)
    assert len(candidates) == 5
    assert all(c.subject == subject_id for c in candidates)
    assert subject_id not in [c.candidate for c in candidates]

    vector_db = VectorDB(dimension=model.entity_embeddings.shape[1])
    exported = tasks.export_to_vector_db(vector_db)
    assert exported == edge_list.num_entities
    via_db = tasks.impute_with_vector_db(vector_db, subject_id, relation_id, k=3)
    assert len(via_db) == 3


def test_tasks_error_on_unknown_entities(trained, edge_list):
    model, _ = trained
    tasks = EmbeddingTasks(model, edge_list)
    with pytest.raises(EmbeddingError):
        tasks.fact_score("truth:unknown", "performed_by", edge_list.entity_ids[0])
    with pytest.raises(EmbeddingError):
        tasks.impute_missing(edge_list.entity_ids[0], "not_a_relation")
