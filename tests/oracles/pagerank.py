"""Textbook PageRank and the structural importance metrics, over dicts.

The entity graph is a dict of successor sets built one ``ExtendedTriple`` at a
time; PageRank pushes each node's rank along its out-edges, round by round.
The rules are the ones :mod:`repro.engine.importance` documents: an edge per
distinct (subject, object) pair whose object is a string other than the
subject that is a KG identifier or names a subject; uniform start and
teleport; the rank of nodes without out-edges spread over all nodes; a stop
once a round's L1 change is below N x 1e-6, or after 50 rounds.
``tests/test_engine_importance.py`` checks ``compute_importance`` against
:func:`importance_metrics` node by node.
"""

from __future__ import annotations

from repro.model.triples import TripleStore


def entity_graph(store: TripleStore) -> dict[str, set[str]]:
    """Successor sets of every subject and every edge target."""
    subjects = store.subjects()
    successors: dict[str, set[str]] = {subject: set() for subject in subjects}
    for triple in store:
        obj = triple.obj
        if not isinstance(obj, str) or obj == triple.subject:
            continue
        if obj.startswith("kg:") or obj in subjects:
            successors[triple.subject].add(obj)
            successors.setdefault(obj, set())
    return successors


def pagerank(
    successors: dict[str, set[str]],
    damping: float = 0.85,
    tolerance: float = 1e-6,
    max_rounds: int = 50,
) -> dict[str, float]:
    """Power iteration with uniform teleport and uniform dangling mass."""
    nodes = list(successors)
    n = len(nodes)
    if not n:
        return {}
    rank = {node: 1.0 / n for node in nodes}
    for _ in range(max_rounds):
        dangling = sum(rank[node] for node in nodes if not successors[node])
        base = (1 - damping) / n + damping * dangling / n
        pushed = {node: base for node in nodes}
        for node in nodes:
            for target in successors[node]:
                pushed[target] += damping * rank[node] / len(successors[node])
        change = sum(abs(pushed[node] - rank[node]) for node in nodes)
        rank = pushed
        if change < n * tolerance:
            break
    return rank


def importance_metrics(store: TripleStore) -> dict[str, tuple[int, int, int, float]]:
    """``(in_degree, out_degree, identity_count, pagerank)`` per node."""
    successors = entity_graph(store)
    in_degree = dict.fromkeys(successors, 0)
    for targets in successors.values():
        for target in targets:
            in_degree[target] += 1
    sources: dict[str, set[str]] = {}
    for triple in store:
        sources.setdefault(triple.subject, set()).update(triple.provenance.sources)
    rank = pagerank(successors)
    return {
        node: (in_degree[node], len(successors[node]), len(sources.get(node, ())), rank[node])
        for node in successors
    }
