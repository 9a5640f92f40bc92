"""Entity resolution via correlation clustering over the linkage graph.

Section 2.3 (step 5): calibrated match probabilities are thresholded into
high-confidence positive (+1) and negative (-1) edges of a linkage graph;
a correlation-clustering algorithm then finds entity clusters.  We implement
the classic pivot algorithm (KwikCluster), which is the algorithm the
parallel correlation clustering literature cited by the paper builds on, plus
the platform-specific constraint that each cluster contains at most one KG
entity (a cluster with several KG records is split around them).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.construction.matching import ScoredPair
from repro.construction.records import LinkableRecord


@dataclass
class LinkageGraph:
    """Signed graph over record ids built from scored pairs."""

    positive: dict[str, set[str]] = field(default_factory=lambda: defaultdict(set))
    negative: dict[str, set[str]] = field(default_factory=lambda: defaultdict(set))
    records: dict[str, LinkableRecord] = field(default_factory=dict)

    def add_positive(self, left: LinkableRecord, right: LinkableRecord) -> None:
        """Record a high-confidence match edge."""
        self._register(left, right)
        self.positive[left.record_id].add(right.record_id)
        self.positive[right.record_id].add(left.record_id)

    def add_negative(self, left: LinkableRecord, right: LinkableRecord) -> None:
        """Record a high-confidence non-match edge."""
        self._register(left, right)
        self.negative[left.record_id].add(right.record_id)
        self.negative[right.record_id].add(left.record_id)

    def add_record(self, record: LinkableRecord) -> None:
        """Ensure an isolated record still appears in the graph."""
        self.records.setdefault(record.record_id, record)

    def _register(self, left: LinkableRecord, right: LinkableRecord) -> None:
        self.records.setdefault(left.record_id, left)
        self.records.setdefault(right.record_id, right)

    def node_ids(self) -> list[str]:
        """All record ids present in the graph."""
        return sorted(self.records)

    def disagreement(self, clusters: Sequence[set[str]]) -> int:
        """Correlation-clustering objective: violated edge count.

        Counts positive edges cut across clusters plus negative edges kept
        inside a cluster.  Used by tests to check the clustering is sensible.
        """
        cluster_of: dict[str, int] = {}
        for index, cluster in enumerate(clusters):
            for node in cluster:
                cluster_of[node] = index
        violations = 0
        seen: set[tuple[str, str]] = set()
        for node, neighbors in self.positive.items():
            for neighbor in neighbors:
                edge = tuple(sorted((node, neighbor)))
                if edge in seen:
                    continue
                seen.add(edge)
                if cluster_of.get(node) != cluster_of.get(neighbor):
                    violations += 1
        for node, neighbors in self.negative.items():
            for neighbor in neighbors:
                edge = tuple(sorted((node, neighbor)))
                if edge in seen:
                    continue
                seen.add(edge)
                if cluster_of.get(node) == cluster_of.get(neighbor):
                    violations += 1
        return violations


MATCH_THRESHOLD = 0.85
"""A pair scoring at least this becomes a positive (+1) edge."""

NON_MATCH_THRESHOLD = 0.35
"""A pair scoring at most this becomes a negative (-1) edge."""

CLUSTERING_SEED = 5
"""Seed of the pivot order, so one linkage graph always clusters alike."""


def build_linkage_graph(
    scored_pairs: Iterable[ScoredPair],
    extra_records: Iterable[LinkableRecord] = (),
) -> LinkageGraph:
    """Threshold scored pairs into a signed linkage graph."""
    graph = LinkageGraph()
    for record in extra_records:
        graph.add_record(record)
    for scored in scored_pairs:
        if scored.probability >= MATCH_THRESHOLD:
            graph.add_positive(scored.left, scored.right)
        elif scored.probability <= NON_MATCH_THRESHOLD:
            graph.add_negative(scored.left, scored.right)
        else:
            # Uncertain pairs contribute no edge; their records must still be
            # present so that they end up in singleton clusters if unmatched.
            graph.add_record(scored.left)
            graph.add_record(scored.right)
    return graph


class CorrelationClustering:
    """Pivot-based correlation clustering with the one-KG-entity constraint."""

    def cluster(self, graph: LinkageGraph) -> list[set[str]]:
        """Cluster the linkage graph into groups of co-referent record ids."""
        rng = np.random.default_rng(CLUSTERING_SEED)
        unassigned = set(graph.node_ids())
        order = sorted(unassigned)
        rng.shuffle(order)
        clusters: list[set[str]] = []
        for pivot in order:
            if pivot not in unassigned:
                continue
            cluster = {pivot}
            unassigned.discard(pivot)
            for neighbor in sorted(graph.positive.get(pivot, ())):
                if neighbor not in unassigned:
                    continue
                # Respect explicit negative evidence against any member.
                if any(neighbor in graph.negative.get(member, set()) for member in cluster):
                    continue
                cluster.add(neighbor)
                unassigned.discard(neighbor)
            clusters.append(cluster)
        return self._enforce_single_kg_entity(clusters, graph)

    def _enforce_single_kg_entity(
        self, clusters: list[set[str]], graph: LinkageGraph
    ) -> list[set[str]]:
        """Split clusters containing more than one KG-view record.

        The resolution step requires at most one graph entity per cluster;
        when the pivot heuristic glues two KG entities together (usually via
        an ambiguous source record) the cluster is re-partitioned around the
        KG entities, assigning each source record to the KG record it shares
        a positive edge with (or the smallest KG record id otherwise).
        """
        adjusted: list[set[str]] = []
        for cluster in clusters:
            # sorted: a set's order varies with the hash seed
            kg_ids = sorted(rid for rid in cluster if graph.records[rid].is_kg)
            if len(kg_ids) <= 1:
                adjusted.append(cluster)
                continue
            buckets: dict[str, set[str]] = {kg_id: {kg_id} for kg_id in kg_ids}
            for record_id in cluster:
                if record_id in buckets:
                    continue
                home = None
                for kg_id in kg_ids:
                    if record_id in graph.positive.get(kg_id, set()):
                        home = kg_id
                        break
                if home is None:
                    home = kg_ids[0]
                buckets[home].add(record_id)
            adjusted.extend(buckets.values())
        return adjusted


@dataclass
class EntityCluster:
    """A resolved cluster with its (optional) existing KG entity."""

    members: list[LinkableRecord]
    kg_record: LinkableRecord | None = None

    @property
    def source_records(self) -> list[LinkableRecord]:
        """The non-KG members of the cluster."""
        return [record for record in self.members if not record.is_kg]


def cluster_records(
    scored_pairs: Iterable[ScoredPair],
    records: Iterable[LinkableRecord],
) -> list[EntityCluster]:
    """Cluster *records* into co-referent groups given their scored pairs.

    Thresholds the pairs into a signed linkage graph that holds every record
    (so an unmatched record still becomes a singleton cluster), runs the
    seeded pivot clustering and materializes :class:`EntityCluster` objects.
    Clusters without a KG record get no identifier here:
    :meth:`~repro.construction.linking.Linker.link` mints them afterwards, in
    sorted type order.
    """
    graph = build_linkage_graph(scored_pairs, extra_records=records)
    return materialize_clusters(CorrelationClustering().cluster(graph), graph)


def materialize_clusters(
    clusters: Sequence[set[str]], graph: LinkageGraph
) -> list[EntityCluster]:
    """Convert id clusters into :class:`EntityCluster` objects."""
    materialized = []
    for cluster in clusters:
        members = [graph.records[record_id] for record_id in sorted(cluster)]
        kg_members = [record for record in members if record.is_kg]
        materialized.append(
            EntityCluster(members=members, kg_record=kg_members[0] if kg_members else None)
        )
    return materialized
