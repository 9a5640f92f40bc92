"""A replica's index applies a document's diff; the result equals a rebuild.

``InvertedGraphIndex.index_document`` and ``AdjacencyIndex.index_document``
diff a document against the one it replaces and move only the postings and
edges it left or joined.  Seeded sequences of ``apply_feed_delta`` /
``replace_feed`` / ``delete`` over random documents (changing names,
aliases, feeds, a fact equal to a reference, a node gaining a second
parent, a re-shipped document whose popularity alone moved or that lost one
edge predicate) are checked after every step against a fresh
:class:`~repro.live.index.LiveIndex` loaded with the documents that
survived: the documents served (the very objects), every postings map, the
forward / reverse bitmaps and the interval encodings, compared in node-name
space because the two indexes intern nodes in different orders.  Replicas
in one process share the documents a batch decodes to, so the same
sequence also runs through two indexes holding the same objects, one a step
behind the other; and a streaming upsert must leave a document another
index holds untouched.

Sequence counts follow ``--runs-seeded`` (``index_seed``, see conftest.py).
"""

from __future__ import annotations

import copy
import dataclasses
import random
from typing import Callable

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
    """One feed's adjacency in node names: bitmaps and intervals."""
    adjacency = index.adjacency
    graph = adjacency.graph(feed)
    if graph is None:       # a feed with no documents left encodes an empty forest
        return {}, {}, {predicate: ([], {}, {}) for predicate in PREDICATES}
    names = graph.names

    def rows(by_predicate):
        return {
            predicate: {names[key]: {names[bit] for bit in _iter_bits(bitmap)}
                        for key, bitmap in row.items()}
            for predicate, row in by_predicate.items()
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
    return rows(graph.forward), rows(graph.reverse), intervals


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
    for feed in ["", "view:other", *(f"view:{view}" for view in VIEWS)]:
        assert graph_state(index, feed) == graph_state(fresh, feed), feed


#: One step of a sequence: apply it to an index, and the documents served after it.
Step = tuple[Callable[[LiveIndex], None], dict[str, LiveEntityDocument]]


def random_steps(rng: random.Random) -> list[Step]:
    """A seeded sequence of feed deltas, edits, feed replaces and deletes."""
    steps: list[Step] = []
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

            def apply(index, feed=feed, upserts=upserts, deleted=deleted, lsn=lsn):
                index.apply_feed_delta(feed, upserts, deleted, lsn)

            for document in upserts:
                documents[document.entity_id] = document
            served.setdefault(feed, set()).update(fresh_ids)
            for doc_id in deleted:
                documents.pop(doc_id, None)
                served[feed].discard(doc_id)
        elif op == "edit" and served.get(feed):
            document = edited_document(rng, documents[rng.choice(sorted(served[feed]))], lsn)

            def apply(index, feed=feed, document=document, lsn=lsn):
                index.apply_feed_delta(feed, [document], [], lsn)

            documents[document.entity_id] = document
        elif op == "replace":
            loaded = [
                random_document(rng, view, subject, lsn)
                for subject in rng.sample(SUBJECTS, rng.randint(0, len(SUBJECTS)))
            ]

            def apply(index, feed=feed, loaded=loaded, lsn=lsn):
                index.replace_feed(feed, loaded, lsn)

            fresh_ids = {document.entity_id for document in loaded}
            for doc_id in served.get(feed, set()) - fresh_ids:
                documents.pop(doc_id, None)
            for document in loaded:
                documents[document.entity_id] = document
            served[feed] = fresh_ids
        elif documents:
            doc_id = rng.choice(sorted(documents))

            def apply(index, doc_id=doc_id):
                assert index.delete(doc_id)

            del documents[doc_id]
            for held in served.values():
                held.discard(doc_id)
        else:
            continue
        steps.append((apply, dict(documents)))
    return steps


def test_index_diff_apply_matches_a_rebuild(index_seed):
    index = LiveIndex()
    for apply, documents in random_steps(random.Random(47000 + index_seed)):
        apply(index)
        assert_index_equals_rebuild(index, documents)


def test_indexes_sharing_documents_each_match_a_rebuild(index_seed):
    """Two indexes apply the same document objects, one a step behind (a
    lagging replica): neither disturbs what the other holds."""
    steps = random_steps(random.Random(48000 + index_seed))
    leader, follower = LiveIndex(), LiveIndex()
    for position, (apply, documents) in enumerate(steps):
        apply(leader)
        assert_index_equals_rebuild(leader, documents)
        if position:
            lagged, lagged_documents = steps[position - 1]
            lagged(follower)
            assert_index_equals_rebuild(follower, lagged_documents)
    if steps:
        apply, documents = steps[-1]
        apply(follower)
        assert_index_equals_rebuild(follower, documents)


def test_streaming_upsert_leaves_a_document_another_index_holds_unchanged():
    held = LiveEntityDocument(
        entity_id="g1", entity_type="game", name="Wolves vs Hawks",
        facts={"score": [1], "venue": ["arena"]}, references={"home": "t1"},
        source_id="stream", timestamp=1, is_live=True,
    )
    original = copy.deepcopy(held)
    writer, bystander = LiveIndex(), LiveIndex()
    writer.upsert(held)
    bystander.upsert(held)
    writer.upsert(dataclasses.replace(
        held, name="Wolves at Hawks", facts={"score": [4]}, references={"home": "t2"},
        timestamp=2,
    ))
    merged = writer.get("g1")
    assert merged is not held
    assert merged.value("score") == 4 and merged.value("venue") == "arena"
    assert merged.value("home") == "t2"
    assert held == original
    assert bystander.get("g1") is held
    assert_index_equals_rebuild(bystander, {"g1": held})
    assert bystander.inverted.lookup_value("score", 1) == {"g1"}
    assert bystander.inverted.lookup_value("score", 4) == set()
    assert_index_equals_rebuild(writer, {"g1": merged})
