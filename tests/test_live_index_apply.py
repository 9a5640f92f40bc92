"""A replica's index applies a document's diff; the result equals a rebuild.

``InvertedGraphIndex.index_document`` and ``AdjacencyIndex.index_document``
move only the postings and edges a re-indexed document left or joined.
Seeded sequences of ``apply_feed_delta`` / ``replace_feed`` / ``delete`` over
random documents (changing names, aliases, feeds, a fact equal to a
reference, a node gaining a second parent, a re-shipped document whose
popularity alone moved or that lost one edge predicate) are checked after
every step against a fresh :class:`~repro.live.index.LiveIndex` loaded with
the documents that survived: the documents served, every postings map and
``_doc_keys``, the forward / reverse bitmaps, ``doc_edges`` and the
interval encodings, compared in node-name space because the two indexes
intern nodes in different orders.

Sequence counts follow ``--runs-seeded`` (``index_seed``, see conftest.py).
"""

from __future__ import annotations

import dataclasses
import random

from repro.live.index import LiveEntityDocument, LiveIndex
from repro.live.rpq import _iter_bits

SUBJECTS = [f"s{i:02d}" for i in range(12)]
VIEWS = ["a", "b"]
WORDS = ["blue", "river", "night", "golden", "echo"]
PREDICATES = ("part_of", "knows")


def random_document(rng: random.Random, view: str, subject: str, lsn: int) -> LiveEntityDocument:
    """One served row of *view*: a ``part_of`` parent (sometimes two), maybe a
    ``knows`` reference that a fact repeats, and non-edge facts."""
    position = SUBJECTS.index(subject)
    facts: dict[str, list[object]] = {"popularity": [rng.randint(0, 3)]}
    if position and rng.random() < 0.8:
        parents = {SUBJECTS[rng.randrange(position)]}
        if rng.random() < 0.15:
            parents.add(SUBJECTS[rng.randrange(position)])
        facts["part_of"] = sorted(parents)
    if rng.random() < 0.5:
        facts["alias"] = [" ".join(rng.sample(WORDS, 2)) for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.5:
        facts["genre"] = [rng.choice(WORDS)]
    references = {}
    if rng.random() < 0.4:
        references["knows"] = rng.choice(SUBJECTS)
        if rng.random() < 0.5:
            facts["knows"] = [references["knows"]]
    feed = f"view:{view}" if rng.random() < 0.85 else rng.choice(["", "view:other"])
    return LiveEntityDocument(
        entity_id=f"{view}:{subject}",
        entity_type=rng.choice(["node", "place"]),
        name=" ".join(rng.sample(WORDS, rng.randint(1, 2))),
        facts=facts,
        references=references,
        source_id=feed,
        timestamp=lsn,
    )


def edited_document(rng: random.Random, document: LiveEntityDocument, lsn: int) -> LiveEntityDocument:
    """A re-shipped *document* that moved one thing: its popularity (no edge
    changes, the ``serve_mix`` republish) or one edge predicate dropped
    (edges only leave)."""
    facts = {predicate: list(values) for predicate, values in document.facts.items()}
    references = dict(document.references)
    if rng.random() < 0.5:
        facts["popularity"] = [rng.randint(4, 9)]
    else:
        predicate = rng.choice(PREDICATES)
        facts.pop(predicate, None)
        references.pop(predicate, None)
    return dataclasses.replace(document, facts=facts, references=references, timestamp=lsn)


def graph_state(index: LiveIndex, feed: str) -> tuple:
    """One feed's adjacency in node names: bitmaps, doc_edges, intervals."""
    adjacency = index.adjacency
    graph = adjacency.graph(feed)
    if graph is None:       # a feed with no documents left encodes an empty forest
        return {}, {}, {}, {predicate: ([], {}, {}) for predicate in PREDICATES}
    names = graph.names

    def rows(by_predicate):
        return {
            predicate: {names[key]: {names[bit] for bit in _iter_bits(bitmap)}
                        for key, bitmap in row.items()}
            for predicate, row in by_predicate.items()
        }

    doc_edges = {
        doc_id: (names[source], tuple((p, names[t]) for p, t in recorded))
        for doc_id, (source, recorded) in graph.doc_edges.items()
    }
    intervals = {}
    for predicate in PREDICATES:
        interval = adjacency.interval_index(feed, predicate)
        if interval is not None:
            intervals[predicate] = (
                [names[node] for node in interval.order],
                {names[child]: names[parent] for child, parent in interval.parent.items()},
                {names[node]: [names[d] for d in interval.descendants(node)]
                 for node in interval.pre},
            )
        else:
            intervals[predicate] = None
    return rows(graph.forward), rows(graph.reverse), doc_edges, intervals


def assert_index_equals_rebuild(index: LiveIndex, documents: dict[str, LiveEntityDocument]) -> None:
    assert len(index) == len(documents)
    assert all(index.get(doc_id) is document for doc_id, document in documents.items())
    fresh = LiveIndex()
    for document in documents.values():
        fresh.upsert(document)
    mine, theirs = index.inverted, fresh.inverted
    assert mine._name_postings == theirs._name_postings
    assert mine._exact_names == theirs._exact_names
    assert mine._value_postings == theirs._value_postings
    assert mine._doc_keys == theirs._doc_keys
    assert index.adjacency._doc_feed == fresh.adjacency._doc_feed
    for feed in ["", "view:other", *(f"view:{view}" for view in VIEWS)]:
        assert graph_state(index, feed) == graph_state(fresh, feed), feed


def test_index_diff_apply_matches_a_rebuild(index_seed):
    rng = random.Random(47000 + index_seed)
    index = LiveIndex()
    documents: dict[str, LiveEntityDocument] = {}     # what the index must serve
    served: dict[str, set[str]] = {}                  # feed -> ids it loaded
    lsn = 0
    for _ in range(rng.randint(15, 30)):
        lsn += 1
        view = rng.choice(VIEWS)
        feed = f"view:{view}"
        op = rng.choices(["delta", "edit", "replace", "delete"], weights=[45, 20, 20, 15])[0]
        if op == "delta":
            upserts = [
                random_document(rng, view, subject, lsn)
                for subject in rng.sample(SUBJECTS, rng.randint(1, 5))
            ]
            fresh_ids = {document.entity_id for document in upserts}
            held = sorted(served.get(feed, set()) - fresh_ids)
            deleted = rng.sample(held, min(len(held), rng.randint(0, 2)))
            index.apply_feed_delta(feed, upserts, deleted, lsn)
            for document in upserts:
                documents[document.entity_id] = document
            served.setdefault(feed, set()).update(fresh_ids)
            for doc_id in deleted:
                documents.pop(doc_id, None)
                served[feed].discard(doc_id)
        elif op == "edit" and served.get(feed):
            document = edited_document(rng, documents[rng.choice(sorted(served[feed]))], lsn)
            index.apply_feed_delta(feed, [document], [], lsn)
            documents[document.entity_id] = document
        elif op == "replace":
            loaded = [
                random_document(rng, view, subject, lsn)
                for subject in rng.sample(SUBJECTS, rng.randint(0, len(SUBJECTS)))
            ]
            index.replace_feed(feed, loaded, lsn)
            fresh_ids = {document.entity_id for document in loaded}
            for doc_id in served.get(feed, set()) - fresh_ids:
                documents.pop(doc_id, None)
            for document in loaded:
                documents[document.entity_id] = document
            served[feed] = fresh_ids
        elif documents:
            doc_id = rng.choice(sorted(documents))
            assert index.delete(doc_id)
            del documents[doc_id]
            for held in served.values():
                held.discard(doc_id)
        assert_index_equals_rebuild(index, documents)
