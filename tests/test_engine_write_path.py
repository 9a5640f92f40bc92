"""The publish path stages one columnar batch; every store replays it.

Seeded equivalence of ``GraphEngine.publish_subjects`` — one
:class:`~repro.model.triples.TripleBatch` staged from the source store's
columns and consumed by all three agents — against the dict-row path it
replaced, kept here as the oracle: relational rows staged with
``facts_about`` + ``to_row``, the primary fed through ``add_rows``, and the
entity store and text index each re-reading the primary.  After every
publish the primary's facts and provenance (``canonical_rows``, not
``to_rows()`` order: the primary applies a subject's diff, so unchanged
facts keep their place), the relations of the warehouse over each primary
(which must not depend on that order), the entity documents and the text
hits must be identical, over random stores with
composite facts, multi-source provenance, deletes, re-adds, publishes
staged with ``replay=False`` and replayed after the source store moved on,
source removals (``GraphEngine.remove_source`` against the oracle's
``TripleStore.remove_source`` on its primary, with every touched subject
re-derived in the entity store and the text index), publishes
that change one simple fact of a few subjects or only a description (the
entity store and the text index apply the primary's diff instead of
re-deriving), and facts written straight into ``engine.triples`` outside
replay before their subject is published, sometimes after another subject's
publish (the derived stores never saw them, so from then on every publish
must be re-derived whole).

Sequence counts follow ``--runs-seeded`` (``store_seed``, see conftest.py).
"""

from __future__ import annotations

import random

from repro.engine.analytics import AnalyticsStore
from repro.engine.entity_store import EntityStore
from repro.engine.graph_engine import GraphEngine
from repro.engine.text_index import InvertedTextIndex, TextDocument
from repro.model.entity import KGEntity
from repro.model.provenance import Provenance
from repro.model.triples import ExtendedTriple, TripleStore

SUBJECTS = [f"kg:e{i}" for i in range(10)]
TYPES = ["song", "music_artist"]
WORDS = ["blue", "river", "night", "golden", "echo", "stone", "ember"]
SOURCES = ["musicdb", "wiki", "fanwiki"]
TRUSTS = [0.3, 0.6, 0.9]
RELATIONSHIP_IDS = [f"rel:{i}" for i in range(3)]
# 1 == 1.0 == True collide as dict keys; the value provided must survive.
NUMBERS = [1, 1.0, True, 0, 7, 3.5]


def random_fact(rng: random.Random, subject: str) -> ExtendedTriple:
    kind = rng.choice(
        ["type", "name", "alias", "description", "genre", "popularity", "spouse", "composite",
         "schooling"]
    )
    relationship_id = relationship_predicate = None
    if kind == "type":
        predicate, obj = "type", rng.choice(TYPES)
    elif kind in ("name", "alias"):
        predicate, obj = kind, f"{rng.choice(WORDS)} {rng.choice(WORDS)}".title()
    elif kind == "description":
        predicate, obj = kind, " ".join(rng.sample(WORDS, 3))
    elif kind == "genre":
        predicate, obj = kind, rng.choice(WORDS)
    elif kind == "popularity":
        predicate, obj = kind, rng.choice(NUMBERS)
    elif kind == "spouse":
        predicate, obj = kind, rng.choice(SUBJECTS)
    elif kind == "schooling":
        # a simple fact of the composite facts' predicate
        predicate, obj = "educated_at", rng.choice(WORDS)
    else:
        predicate = "educated_at"
        relationship_id = rng.choice(RELATIONSHIP_IDS)
        relationship_predicate = rng.choice(["school", "degree"])
        obj = rng.choice(WORDS)
    return ExtendedTriple(
        subject=subject,
        predicate=predicate,
        obj=obj,
        relationship_id=relationship_id,
        relationship_predicate=relationship_predicate,
        locale=rng.choice(["en", "fr"]),
        provenance=Provenance.from_source(rng.choice(SOURCES), rng.choice(TRUSTS)),
    )


class DictRowOracle:
    """The stores, fed the way the agents fed them before the batch; the
    warehouse is a projection of the oracle's own primary."""

    def __init__(self) -> None:
        self.primary = TripleStore()
        self.analytics = AnalyticsStore(self.primary)
        self.entity_store = EntityStore()
        self.text_index = InvertedTextIndex()

    @staticmethod
    def stage(source: TripleStore, subjects, deleted) -> dict:
        subjects = sorted(set(subjects))
        rows = [t.to_row() for subject in subjects for t in source.facts_about(subject)]
        return {"subjects": subjects, "deleted": sorted(set(deleted)), "triples": rows}

    def apply(self, payload: dict) -> None:
        subjects, deleted, rows = payload["subjects"], payload["deleted"], payload["triples"]
        self.primary.remove_subjects_batch(deleted)
        self.primary.remove_subjects_batch(subjects)
        self.primary.add_rows(rows)
        self.entity_store.update_from_store(self.primary, subjects + deleted)
        for subject in deleted:
            self.text_index.remove(subject)
        self.index_text(subjects)

    def remove_source(self, source_id: str) -> None:
        """The primary's own ``remove_source``, then every subject the source
        touched re-derived in the entity store and the text index."""
        touched = sorted({t.subject for t in self.primary if source_id in t.provenance})
        self.primary.remove_source(source_id)
        self.entity_store.update_from_store(self.primary, touched)
        self.index_text(touched)

    def index_text(self, subjects) -> None:
        for subject in subjects:
            facts = self.primary.facts_about(subject)
            if not facts:
                self.text_index.remove(subject)
                continue
            entity = KGEntity.from_triples(subject, facts)
            description = entity.value("description")
            parts = [*entity.names, *(str(description) if description else "").split()]
            self.text_index.index(TextDocument(
                doc_id=subject,
                text=" ".join(str(part) for part in parts),
                payload={"types": entity.types, "name": entity.primary_name},
            ))


def assert_stores_identical(engine: GraphEngine, oracle: DictRowOracle) -> None:
    # primary: facts with provenance.  A republish keeps unchanged facts in
    # place, so to_rows() order is not the rewrite's.
    assert engine.triples.canonical_rows() == oracle.primary.canonical_rows()
    # warehouse
    assert engine.analytics.triple_count() == oracle.analytics.triple_count()
    assert engine.analytics.full_relation().rows == oracle.analytics.full_relation().rows
    assert engine.analytics.entity_types() == oracle.analytics.entity_types()
    predicates = ["name", "alias", "genre", "popularity", "spouse", "school", "degree"]
    for entity_type in TYPES:
        assert engine.analytics.entity_rows(entity_type, predicates) == (
            oracle.analytics.entity_rows(entity_type, predicates)
        )
        assert engine.analytics.entity_rows(entity_type, predicates, SUBJECTS) == (
            oracle.analytics.entity_rows(entity_type, predicates, SUBJECTS)
        )
    for subject in SUBJECTS:
        assert engine.analytics.display_name(subject) == oracle.analytics.display_name(subject)
    # entity documents
    assert engine.entity_store.ids() == oracle.entity_store.ids()
    for entity_id in engine.entity_store.ids():
        assert engine.entity_store.get(entity_id) == oracle.entity_store.get(entity_id)
    # text hits: same documents, same scores
    assert len(engine.text_index) == len(oracle.text_index)
    for word in WORDS:
        assert engine.text_index.search(word, k=20) == oracle.text_index.search(word, k=20)


def test_staged_publish_matches_the_dict_row_path(ontology, store_seed):
    rng = random.Random(88000 + store_seed)
    source = TripleStore()
    engine = GraphEngine(ontology)
    oracle = DictRowOracle()
    pending: list[dict] = []          # oracle payloads staged with replay=False

    def publish(subjects, deleted=()):
        replay = rng.random() < 0.7
        pending.append(oracle.stage(source, subjects, deleted))
        engine.publish_subjects(source, subjects, deleted_subjects=deleted, replay=replay)
        if replay:
            while pending:
                oracle.apply(pending.pop(0))
            assert_stores_identical(engine, oracle)

    for subject in SUBJECTS[:6]:
        source.add(ExtendedTriple(subject, "type", rng.choice(TYPES)))
        for _ in range(rng.randint(2, 8)):
            source.add(random_fact(rng, subject))
    publish(source.subjects())

    def remove(source_id):
        engine.remove_source(source_id)       # replays what is pending first
        while pending:
            oracle.apply(pending.pop(0))
        oracle.remove_source(source_id)
        assert_stores_identical(engine, oracle)

    def replace_fact(subject, predicate, obj):
        for fact in source.facts_about(subject):
            if fact.predicate == predicate and fact.relationship_id is None:
                source.discard(fact)
        source.add(ExtendedTriple(
            subject, predicate, obj, locale=rng.choice(["en", "fr"]),
            provenance=Provenance.from_source(rng.choice(SOURCES), rng.choice(TRUSTS)),
        ))

    live = set(source.subjects())
    # the last three ops joined later: 11-20 ops keep the expected count of
    # each earlier op per sequence
    for _ in range(rng.randint(11, 20)):
        op = rng.choices(
            ["grow", "rewrite", "delete", "readd", "resource", "remove", "touch", "describe",
             "outside"],
            weights=[30, 25, 15, 15, 15, 10, 25, 10, 10],
        )[0]
        if op == "grow":
            touched = rng.sample(SUBJECTS, rng.randint(1, 3))
            for subject in touched:
                for _ in range(rng.randint(1, 4)):
                    source.add(random_fact(rng, subject))
            live.update(touched)
            publish(touched)
        elif op == "rewrite" and live:
            subject = rng.choice(sorted(live))
            source.remove_subject(subject)
            for _ in range(rng.randint(1, 6)):
                source.add(random_fact(rng, subject))
            publish([subject])
        elif op == "delete" and live:
            subject = rng.choice(sorted(live))
            source.remove_subject(subject)
            live.discard(subject)
            # sometimes the producer names the subject on both lists
            publish([subject] if rng.random() < 0.3 else [], deleted=[subject])
        elif op == "readd":
            subject = rng.choice(SUBJECTS)
            source.add(ExtendedTriple(subject, "type", rng.choice(TYPES)))
            source.add(random_fact(rng, subject))
            live.add(subject)
            publish([subject])
        elif op == "resource" and live:
            # a second source asserts a fact the store already holds
            subject = rng.choice(sorted(live))
            fact = rng.choice(source.facts_about(subject))
            source.add(ExtendedTriple(
                subject, fact.predicate, fact.obj, fact.relationship_id,
                fact.relationship_predicate, fact.locale,
                Provenance.from_source(rng.choice(SOURCES), rng.choice(TRUSTS)),
            ))
            publish([subject])
        elif op == "remove":
            remove(rng.choice(SOURCES))
        elif op == "touch" and live:
            # the serve writes' shape: one simple fact moves on a few subjects
            touched = rng.sample(sorted(live), min(len(live), rng.randint(1, 4)))
            for subject in touched:
                replace_fact(subject, "popularity", rng.choice(NUMBERS))
            publish(touched)
        elif op == "describe" and live:
            subject = rng.choice(sorted(live))
            replace_fact(subject, "description", " ".join(rng.sample(WORDS, 3)))
            publish([subject])
        elif op == "outside":
            # a hot fix written into the primary outside replay, then
            # published from the source that holds it too, sometimes after
            # another subject's publish
            subject = rng.choice(SUBJECTS)
            fact = random_fact(rng, subject)
            engine.triples.add(fact)
            oracle.primary.add(fact)
            source.add(fact)
            others = sorted(live - {subject})
            if others and rng.random() < 0.5:
                publish([rng.choice(others)])
            live.add(subject)
            publish([subject])

    remove(rng.choice(SOURCES))
    engine.replay()
    while pending:
        oracle.apply(pending.pop(0))
    assert_stores_identical(engine, oracle)
    assert engine.freshness() == {name: 0 for name in engine.coordinator.agents}


def test_replay_false_replays_what_was_published_not_what_the_source_became(ontology):
    source = TripleStore([
        ExtendedTriple("kg:a", "type", "song", provenance=Provenance.from_source("wiki", 0.5)),
        ExtendedTriple("kg:a", "name", "First", provenance=Provenance.from_source("wiki", 0.5)),
    ])
    engine = GraphEngine(ontology)
    engine.publish_subjects(source, ["kg:a"], replay=False)
    # the source moves on before anything replays: a new fact, a dropped
    # fact, and a second source re-asserting a staged one
    source.add(ExtendedTriple("kg:a", "alias", "Later"))
    source.discard(ExtendedTriple("kg:a", "name", "First"))
    source.add(ExtendedTriple("kg:a", "type", "song",
                              provenance=Provenance.from_source("fanwiki", 0.9)))
    assert source.facts_about("kg:a")[1].sources == ["wiki", "fanwiki"]
    engine.replay()
    assert [(t.predicate, t.obj, t.sources) for t in engine.triples.facts_about("kg:a")] == [
        ("name", "First", ["wiki"]),
        ("type", "song", ["wiki"]),
    ]
    assert engine.entity("kg:a").name == "First"
    assert [hit.doc_id for hit in engine.search("first")] == ["kg:a"]
    assert engine.search("later") == []


def test_publish_shares_provenance_values(ontology):
    """Staging and publishing copy no provenance: the batch and the primary
    hold the construction store's own values."""
    source = TripleStore([
        ExtendedTriple("kg:a", "type", "song", provenance=Provenance.from_source("wiki", 0.5)),
        ExtendedTriple("kg:a", "name", "First",
                       provenance=Provenance.from_mapping({"wiki": 0.5, "fanwiki": 0.9})),
        ExtendedTriple("kg:b", "type", "song", provenance=Provenance.from_source("wiki", 0.5)),
    ])
    expected = [t.provenance for s in ("kg:a", "kg:b") for t in source.facts_about(s)]
    batch = source.stage(["kg:a", "kg:b"])
    staged = [
        row[6]
        for index in range(len(batch.subjects))
        for row in batch.rows_of(index, source.predicates())
    ]
    assert len(staged) == len(expected) == 3
    assert all(mine is theirs.references for mine, theirs in zip(staged, expected))

    engine = GraphEngine(ontology)
    engine.publish_subjects(source, ["kg:a", "kg:b"])
    published = [t.provenance for s in ("kg:a", "kg:b") for t in engine.triples.facts_about(s)]
    assert len(published) == len(expected)
    assert all(mine is theirs for mine, theirs in zip(published, expected))


def test_publishing_from_the_primary_store_itself(ontology):
    """The examples hot-fix a row by editing ``engine.triples`` and publishing
    from it: the batch must survive the primary removing the very rows it
    was staged from."""
    engine = GraphEngine(ontology)
    engine.publish_store(TripleStore([
        ExtendedTriple("kg:a", "type", "song"),
        ExtendedTriple("kg:a", "name", "First"),
        ExtendedTriple("kg:b", "type", "song"),
    ]))
    engine.triples.add(ExtendedTriple("kg:a", "genre", "rock"))
    before = engine.triples.canonical_rows()
    engine.publish_subjects(engine.triples, ["kg:a"], source_id="hotfix")
    assert engine.triples.canonical_rows() == before
    assert engine.entity("kg:a").facts["genre"] == ["rock"]
    assert engine.analytics.triple_count() == 4


def test_republish_keeps_unchanged_rows(ontology):
    """A republish that changes one fact of a subject rewrites that fact
    only: the subject's other rows keep their materialized triples."""
    source = TripleStore([
        ExtendedTriple("kg:a", "type", "song", provenance=Provenance.from_source("wiki", 0.5)),
        ExtendedTriple("kg:a", "name", "First", provenance=Provenance.from_source("wiki", 0.5)),
        ExtendedTriple("kg:a", "popularity", 3, provenance=Provenance.from_source("wiki", 0.5)),
    ])
    engine = GraphEngine(ontology)
    engine.publish_subjects(source, ["kg:a"])
    before = {t.predicate: t for t in engine.triples.facts_about("kg:a")}

    source.discard(ExtendedTriple("kg:a", "popularity", 3))
    source.add(ExtendedTriple("kg:a", "popularity", 4,
                              provenance=Provenance.from_source("wiki", 0.5)))
    engine.publish_subjects(source, ["kg:a"])
    after = {t.predicate: t for t in engine.triples.facts_about("kg:a")}
    assert after["type"] is before["type"]
    assert after["name"] is before["name"]
    assert after["popularity"].obj == 4
    assert engine.triples.canonical_rows() == source.canonical_rows()


def test_republish_replaces_dict_equal_literals(ontology):
    """``True``, ``1.0`` and ``1`` share an object id; a republish must
    still store the literal the source now holds, not keep the old one."""
    source = TripleStore()
    engine = GraphEngine(ontology)
    source.add(ExtendedTriple("kg:a", "type", "song"))
    for value in (True, 1.0, 1):
        source.remove_subject("kg:a")
        source.add(ExtendedTriple("kg:a", "type", "song"))
        source.add(ExtendedTriple("kg:a", "popularity", value))
        engine.publish_subjects(source, ["kg:a"])
        stored = engine.triples.value_of("kg:a", "popularity")
        assert type(stored) is type(value) and stored == value
        assert engine.triples.canonical_rows() == source.canonical_rows()
        assert engine.entity("kg:a").facts["popularity"] == [value]


def test_a_popularity_only_publish_assembles_no_entity(ontology, monkeypatch):
    """On a loaded engine, a publish that moves one ``popularity`` fact of
    each of 25 subjects assembles no entity and indexes no text: the entity
    store and the text index apply the primary's diff, and every store still
    equals the oracle's re-derived one."""
    rng = random.Random(5)
    source = TripleStore()
    subjects = [f"kg:p{i}" for i in range(40)]
    for subject in subjects:
        source.add(ExtendedTriple(subject, "type", rng.choice(TYPES)))
        source.add(ExtendedTriple(subject, "name", f"{rng.choice(WORDS)} {subject}"))
        source.add(ExtendedTriple(subject, "popularity", rng.randint(0, 99)))
        for _ in range(rng.randint(2, 8)):
            source.add(random_fact(rng, subject))
    engine = GraphEngine(ontology)
    oracle = DictRowOracle()
    engine.publish_store(source)
    oracle.apply(oracle.stage(source, source.subjects(), ()))
    assert_stores_identical(engine, oracle)

    touched = rng.sample(subjects, 25)
    for subject in touched:
        for fact in source.facts_about(subject):
            if fact.predicate == "popularity":
                source.discard(fact)
        source.add(ExtendedTriple(subject, "popularity", 100 + rng.randint(0, 99)))
    assembled, indexed = [], []
    from_facts, index = KGEntity.from_facts, InvertedTextIndex.index

    def counted_from_facts(cls, entity_id, facts):
        assembled.append(entity_id)
        return from_facts(entity_id, facts)

    def counted_index(self, document):
        indexed.append(document.doc_id)
        index(self, document)

    monkeypatch.setattr(KGEntity, "from_facts", classmethod(counted_from_facts))
    monkeypatch.setattr(InvertedTextIndex, "index", counted_index)
    rederived, patched = dict(engine.stats.rederived), dict(engine.stats.patched)
    engine.publish_subjects(source, touched)
    assert assembled == [] and indexed == []
    assert {name: engine.stats.rederived[name] - count for name, count in rederived.items()} == (
        {"entity_store": 0, "text_index": 0}
    )
    assert {name: engine.stats.patched[name] - count for name, count in patched.items()} == (
        {"entity_store": 25, "text_index": 25}
    )
    monkeypatch.undo()
    oracle.apply(oracle.stage(source, touched, ()))
    assert_stores_identical(engine, oracle)
    assert {engine.entity(s).facts["popularity"][0] for s in touched} == {
        source.value_of(s, "popularity") for s in touched
    }
