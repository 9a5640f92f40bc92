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
space because the two indexes intern nodes in different orders, every
``(feed, type)`` id partition, and every numeric and value column read so
far (columns are read between steps, so a column left stale by an apply
shows).  Replicas
in one process share the documents a batch decodes to, so the same
sequence also runs through two indexes holding the same objects, one a step
behind the other, and through an index and its ``copy()`` taken part-way
(a replica seeded from a peer); and a streaming upsert must leave a
document another index holds untouched.

Sequence counts follow ``--runs-seeded`` (``index_seed``, see conftest.py).
"""

from __future__ import annotations

import copy
import dataclasses
import random
from typing import Callable

from repro.live.executor import QueryExecutor
from repro.live.index import LiveEntityDocument, LiveIndex
from repro.live.kgq import parse
from repro.live.planner import QueryPlanner
from repro.live.rpq import row_targets

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
    """One feed's adjacency in node names: rows and intervals."""
    adjacency = index.adjacency
    graph = adjacency.graph(feed)
    if graph is None:       # a feed with no documents left encodes an empty forest
        return {}, {}, {predicate: ([], {}, {}) for predicate in PREDICATES}
    names = graph.names

    def rows(by_predicate):
        return {
            predicate: {names[key]: {names[target] for target in row_targets(targets)}
                        for key, targets in row.items()}
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
    assert partition_state(index) == partition_state(fresh)
    for (feed, entity_type), partition in index.kv._id_partitions.items():
        for predicate in list(partition.columns):
            assert index.kv.numeric_column(feed, entity_type, predicate) == (
                fresh.kv.numeric_column(feed, entity_type, predicate)
            ), (feed, entity_type, predicate)
        for predicate in list(partition.value_columns):
            assert index.kv.value_column(feed, entity_type, predicate) == (
                fresh.kv.value_column(feed, entity_type, predicate)
            ), (feed, entity_type, predicate)


def partition_state(index: LiveIndex) -> dict[tuple[str, str], list[str]]:
    """Every ``(feed, type)`` partition's ids, as the index orders them."""
    return {key: list(partition.ids) for key, partition in index.kv._id_partitions.items()}


def build_columns(rng: random.Random, index: LiveIndex) -> None:
    """Read a column or two, as range queries and scans would between applies."""
    for feed, entity_type in rng.sample(sorted(partition_state(index)), min(2, len(partition_state(index)))):
        index.kv.numeric_column(feed, entity_type, rng.choice(("popularity", "part_of", "knows")))
        index.kv.value_column(
            feed, entity_type, rng.choice(("name", "popularity", "part_of", "knows", "alias"))
        )


def mutable_parts(index: LiveIndex) -> list:
    """Every container *index* edits in place: its maps, id lists, feed id
    sets, set-valued postings and rows, and interned node tables."""
    parts: list = [
        index.watermarks, index._feed_documents, *index._feed_documents.values(),
        index.kv._documents, index.kv._id_partitions, index.adjacency._feeds,
        index.adjacency._intervals, *index.inverted._postings(),
    ]
    for partition in index.kv._id_partitions.values():
        parts += [partition.ids, partition.columns, partition.value_columns]
    for graph in index.adjacency._feeds.values():
        parts += [graph.ids, graph.names, graph.forward, graph.reverse, graph.mutations]
        parts += [*graph.forward.values(), *graph.reverse.values()]
    parts += [
        held for store in parts if isinstance(store, dict)
        for held in store.values() if held.__class__ is set
    ]
    return parts


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
    rng = random.Random(47000 + index_seed)
    index = LiveIndex()
    for apply, documents in random_steps(rng):
        apply(index)
        assert_index_equals_rebuild(index, documents)
        build_columns(rng, index)


def test_indexes_sharing_documents_each_match_a_rebuild(index_seed):
    """Two indexes apply the same document objects, one a step behind (a
    lagging replica): neither disturbs what the other holds."""
    rng = random.Random(48000 + index_seed)
    steps = random_steps(rng)
    leader, follower = LiveIndex(), LiveIndex()
    for position, (apply, documents) in enumerate(steps):
        apply(leader)
        assert_index_equals_rebuild(leader, documents)
        build_columns(rng, leader)
        if position:
            lagged, lagged_documents = steps[position - 1]
            lagged(follower)
            assert_index_equals_rebuild(follower, lagged_documents)
            build_columns(rng, follower)
    if steps:
        apply, documents = steps[-1]
        apply(follower)
        assert_index_equals_rebuild(follower, documents)


def test_a_copy_and_its_source_each_match_a_rebuild(index_seed):
    """A replica that starts from a copy of a peer's index: the two share no
    container either edits in place, and after the copy both apply the same
    steps, either one first, and each matches a rebuild after every step —
    the one that has not applied a step yet still matches the documents
    before it, so neither sees a set, id list or feed map the other edits."""
    rng = random.Random(49000 + index_seed)
    steps = random_steps(rng)
    split = rng.randint(0, len(steps))
    source = LiveIndex()
    documents: dict[str, LiveEntityDocument] = {}
    for apply, documents in steps[:split]:
        apply(source)
        assert_index_equals_rebuild(source, documents)
        build_columns(rng, source)
    copied = source.copy()
    assert_index_equals_rebuild(copied, documents)
    assert not {id(part) for part in mutable_parts(source)} & {
        id(part) for part in mutable_parts(copied)
    }
    for apply, after in steps[split:]:
        first, second = rng.sample([source, copied], 2)
        served = {feed: set(ids) for feed, ids in second._feed_documents.items()}
        watermarks = dict(second.watermarks)
        apply(first)
        assert_index_equals_rebuild(first, after)
        build_columns(rng, first)
        assert_index_equals_rebuild(second, documents)
        assert second._feed_documents == served and second.watermarks == watermarks
        apply(second)
        assert_index_equals_rebuild(second, after)
        build_columns(rng, second)
        documents = after
    assert source._feed_documents == copied._feed_documents
    assert source.watermarks == copied.watermarks


def test_a_range_query_sees_a_delta_applied_after_its_column_was_built():
    feed = "view:a"
    rows = [
        LiveEntityDocument(
            entity_id=f"a:{subject}", entity_type="node", name=subject,
            facts={"popularity": [position / 10]}, source_id=feed, timestamp=1,
        )
        for position, subject in enumerate(SUBJECTS)
    ]
    index = LiveIndex()
    index.replace_feed(feed, rows, 1)
    executor = QueryExecutor(index)
    plan = QueryPlanner().plan(parse("MATCH node WHERE popularity > 0.95 RETURN name"))
    assert [row.entity_id for row in executor.execute(plan, feed=feed).rows] == ["a:s10", "a:s11"]
    moved = dataclasses.replace(rows[3], facts={"popularity": [2.0]}, timestamp=2)
    index.apply_feed_delta(feed, [moved], [], 2)      # the partition's ids stay as they were
    assert [row.entity_id for row in executor.execute(plan, feed=feed).rows] == [
        "a:s03", "a:s10", "a:s11",
    ]
    assert index.kv.numeric_column(feed, "node", "popularity")[1][3] == 2.0


def test_a_scan_shows_a_target_renamed_in_another_partition():
    """A scan projects its columns from value columns cached per partition.
    A shipped delta that renames only the referenced target moves the
    target's partition, not the scanned one, so a display name baked into
    the scanned partition's column would go stale."""
    feed = "view:a"
    target = LiveEntityDocument(
        entity_id="a:t1", entity_type="team", name="Wolves", source_id=feed, timestamp=1,
    )
    players = [
        LiveEntityDocument(
            entity_id=f"a:p{position}", entity_type="player", name=f"Player {position}",
            facts={"plays_for": ["a:t1"], "number": [position]}, source_id=feed, timestamp=1,
        )
        for position in range(3)
    ]
    index = LiveIndex()
    index.replace_feed(feed, [target, *players], 1)
    executor = QueryExecutor(index)
    plan = QueryPlanner().plan(parse("MATCH player RETURN name, plays_for LIMIT 2"))

    def scanned() -> list[tuple[str, object]]:
        return [
            (row.entity_id, row.values["plays_for"])
            for row in executor.execute(plan, feed=feed).rows
        ]

    assert scanned() == [("a:p0", "Wolves"), ("a:p1", "Wolves")]
    changes = index.kv._id_partitions[(feed, "player")].changes
    index.apply_feed_delta(feed, [dataclasses.replace(target, name="Hawks", timestamp=2)], [], 2)
    assert index.kv._id_partitions[(feed, "player")].changes == changes
    assert scanned() == [("a:p0", "Hawks"), ("a:p1", "Hawks")]
    assert executor.execute(plan).rows == executor.execute(plan, feed=feed).rows


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
