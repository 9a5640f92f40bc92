"""Tests for correlation clustering resolution (repro.construction.clustering)."""

from repro.construction import clustering
from repro.construction.clustering import (
    MATCH_THRESHOLD,
    NON_MATCH_THRESHOLD,
    CorrelationClustering,
    build_linkage_graph,
    materialize_clusters,
)
from repro.construction.matching import ScoredPair
from repro.construction.pairs import CandidatePair
from repro.construction.records import LinkableRecord


def record(record_id, name="X", is_kg=False):
    return LinkableRecord(record_id=record_id, entity_type="person",
                          properties={"name": [name]}, is_kg=is_kg)


def scored(left, right, probability):
    return ScoredPair(CandidatePair(left, right), probability)


def test_build_linkage_graph_thresholds_edges():
    a, b, c, d = record("a"), record("b"), record("c"), record("d")
    # Both thresholds are inclusive; a score strictly between them adds no edge.
    graph = build_linkage_graph([
        scored(a, b, MATCH_THRESHOLD),
        scored(b, c, NON_MATCH_THRESHOLD),
        scored(a, c, (MATCH_THRESHOLD + NON_MATCH_THRESHOLD) / 2),
        scored(a, d, MATCH_THRESHOLD - 1e-9),
        scored(c, d, NON_MATCH_THRESHOLD + 1e-9),
    ])
    assert "b" in graph.positive["a"]
    assert "c" in graph.negative["b"]
    for left, right in (("a", "c"), ("a", "d"), ("c", "d")):
        assert right not in graph.positive[left] and right not in graph.negative[left]
    assert set(graph.node_ids()) == {"a", "b", "c", "d"}


def test_clustering_groups_positive_components():
    a, b, c, d = record("a"), record("b"), record("c"), record("d")
    graph = build_linkage_graph(
        [scored(a, b, 0.95), scored(b, c, 0.95), scored(c, d, 0.05)],
    )
    clusters = CorrelationClustering().cluster(graph)
    cluster_of = {}
    for index, cluster in enumerate(clusters):
        for member in cluster:
            cluster_of[member] = index
    assert cluster_of["a"] == cluster_of["b"] == cluster_of["c"]
    assert cluster_of["d"] != cluster_of["a"]


def test_negative_edges_block_merging():
    a, b, c = record("a"), record("b"), record("c")
    # a-b and a-c look like matches but b-c is a strong non-match.
    graph = build_linkage_graph(
        [scored(a, b, 0.95), scored(a, c, 0.95), scored(b, c, 0.05)],
    )
    clusters = CorrelationClustering().cluster(graph)
    cluster_of = {member: index for index, cluster in enumerate(clusters) for member in cluster}
    assert cluster_of["b"] != cluster_of["c"]


def test_single_kg_entity_constraint_splits_clusters():
    kg1, kg2 = record("kg:1", is_kg=True), record("kg:2", is_kg=True)
    s1, s2 = record("src:1"), record("src:2")
    graph = build_linkage_graph(
        [
            scored(s1, kg1, 0.95),
            scored(s2, kg2, 0.95),
            scored(s1, s2, 0.95),      # glue that would merge the two KG entities
        ],
    )
    clusters = CorrelationClustering().cluster(graph)
    for cluster in clusters:
        kg_members = [m for m in cluster if m.startswith("kg:")]
        assert len(kg_members) <= 1
    materialized = materialize_clusters(clusters, graph)
    with_kg = [c for c in materialized if c.kg_record is not None]
    assert len(with_kg) == 2
    # Every source record ends up in exactly one cluster.
    all_sources = [r.record_id for c in materialized for r in c.source_records]
    assert sorted(all_sources) == ["src:1", "src:2"]


def test_isolated_records_become_singletons():
    a = record("a")
    graph = build_linkage_graph([], extra_records=[a])
    clusters = CorrelationClustering().cluster(graph)
    assert clusters == [{"a"}]


def test_disagreement_objective():
    a, b, c = record("a"), record("b"), record("c")
    graph = build_linkage_graph([scored(a, b, 0.95), scored(a, c, 0.05)])
    perfect = [{"a", "b"}, {"c"}]
    bad = [{"a", "c"}, {"b"}]
    assert graph.disagreement(perfect) == 0
    assert graph.disagreement(bad) == 2


def test_clustering_is_deterministic_for_fixed_seed(monkeypatch):
    records = [record(f"r{i}") for i in range(6)]
    pairs = [scored(records[i], records[i + 1], 0.95) for i in range(5)]
    graph = build_linkage_graph(pairs)
    for seed in (clustering.CLUSTERING_SEED, 11):
        monkeypatch.setattr(clustering, "CLUSTERING_SEED", seed)
        first = CorrelationClustering().cluster(graph)
        second = CorrelationClustering().cluster(graph)
        assert first == second
