"""Entity importance from graph structure (Section 3.3).

Popularity signals (song plays, search frequency) cover head entities only, so
Saga scores *every* entity from four structural signals: in-degree, out-degree,
number of identities (how many sources contribute facts about the entity), and
PageRank over the entity graph.  Each metric is divided by its maximum over the
graph and the four are blended with fixed weights into a single importance
score; the computation is registered as a maintained view over the KG.

The entity graph comes from one pass over the store's columns
(:meth:`~repro.model.triples.TripleStore.scan_tuples`):

* **Edges.**  A fact adds the edge subject -> object when its object is a
  string other than the subject that is a KG identifier or names a subject.
  Facts repeating a (subject, object) pair, under any predicate, add one edge;
  the degrees count these distinct edges.
* **Nodes.**  Every subject plus every edge target, ordered by id.  Edges are
  summed in (source, target) order, so the scores do not depend on the
  process's hash seed.
* **Identities.**  The distinct sources in the provenance of a subject's facts;
  a target that is no subject has none.

PageRank is ``networkx.pagerank``'s power iteration: uniform start and
teleport vectors, damping 0.85, the rank held by nodes without out-edges
spread uniformly over all nodes, and a stop once a round moves the vector by
less than N x 1e-6 in L1 norm.  A graph that has not met that tolerance after
50 rounds (a star, say) keeps the 50th iterate instead of failing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.model.identifiers import is_kg_identifier
from repro.model.triples import TripleStore

WEIGHT_IN_DEGREE = 0.25
WEIGHT_OUT_DEGREE = 0.15
WEIGHT_IDENTITIES = 0.25
WEIGHT_PAGERANK = 0.35
DAMPING = 0.85
TOLERANCE = 1e-6        # per node, in the L1 norm of one round's change
MAX_ROUNDS = 50


@dataclass
class ImportanceScore:
    """Structural importance metrics and the aggregate score for one entity."""

    entity_id: str
    in_degree: int = 0
    out_degree: int = 0
    identity_count: int = 0
    pagerank: float = 0.0
    score: float = 0.0


def compute_importance(store: TripleStore) -> dict[str, ImportanceScore]:
    """Importance scores for every node of *store*'s entity graph, keyed in
    id order."""
    subjects = store.subjects()
    sources: dict[str, set[str]] = {}
    pairs: set[tuple[str, str]] = set()
    for subject, _, _, obj, provenance in store.scan_tuples():
        sources.setdefault(subject, set()).update(provenance.sources)
        if isinstance(obj, str) and obj != subject and (
            obj in subjects or is_kg_identifier(obj)
        ):
            pairs.add((subject, obj))
    nodes = sorted(subjects.union(target for _, target in pairs))
    if not nodes:
        return {}
    position = {node: index for index, node in enumerate(nodes)}
    edges = np.array(
        sorted((position[source], position[target]) for source, target in pairs),
        dtype=np.int64,
    ).reshape(-1, 2)
    out_degree = np.bincount(edges[:, 0], minlength=len(nodes))
    in_degree = np.bincount(edges[:, 1], minlength=len(nodes))
    identities = np.array([len(sources.get(node, ())) for node in nodes])
    pagerank = _pagerank(edges, out_degree)
    score = (
        WEIGHT_IN_DEGREE * in_degree / (in_degree.max() or 1)
        + WEIGHT_OUT_DEGREE * out_degree / (out_degree.max() or 1)
        + WEIGHT_IDENTITIES * identities / (identities.max() or 1)
        + WEIGHT_PAGERANK * pagerank / pagerank.max()
    )
    return {
        node: ImportanceScore(node, *metrics)
        for node, *metrics in zip(
            nodes, in_degree.tolist(), out_degree.tolist(), identities.tolist(),
            pagerank.tolist(), score.tolist(),
        )
    }


def _pagerank(edges: np.ndarray, out_degree: np.ndarray) -> np.ndarray:
    """Power iteration over the (source, target) index pairs in *edges*."""
    n = len(out_degree)
    sources, targets = edges[:, 0], edges[:, 1]
    share = 1.0 / out_degree[sources]       # each edge's part of its source's rank
    dangling = out_degree == 0
    uniform = 1.0 / n
    rank = np.full(n, uniform)
    for _ in range(MAX_ROUNDS):
        last = rank
        inflow = np.bincount(targets, weights=last[sources] * share, minlength=n)
        rank = DAMPING * (inflow + last[dangling].sum() * uniform) + (1 - DAMPING) * uniform
        if np.abs(rank - last).sum() < n * TOLERANCE:
            break
    return rank


def importance_view_rows(scores: Iterable[ImportanceScore]) -> list[dict]:
    """Render importance scores as relational rows (the registered view output)."""
    return [
        {
            "subject": score.entity_id,
            "in_degree": score.in_degree,
            "out_degree": score.out_degree,
            "identity_count": score.identity_count,
            "pagerank": score.pagerank,
            "importance": score.score,
        }
        for score in sorted(scores, key=lambda s: (-s.score, s.entity_id))
    ]
