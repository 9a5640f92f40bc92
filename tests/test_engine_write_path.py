"""The publish path stages one columnar batch; every store replays it.

Seeded equivalence of ``GraphEngine.publish_subjects`` — one
:class:`~repro.model.triples.TripleBatch` staged from the source store's
columns and consumed by all four agents — against the dict-row path it
replaced, kept here as the oracle: relational rows staged with
``facts_about`` + ``to_row``, the primary fed through ``add_rows``, the
warehouse through ``ExtendedTriple.from_row``, and the entity store and text
index each re-reading the primary.  After every publish the primary's facts
and provenance (``canonical_rows``, not ``to_rows()`` order: the primary
applies a subject's diff, so unchanged facts keep their place), the
warehouse's relations, the entity documents and the text hits must be
identical, over random stores with
composite facts, multi-source provenance, deletes, re-adds, publishes
staged with ``replay=False`` and replayed after the source store moved on,
and source removals: ``GraphEngine.remove_source`` against the oracle's
``TripleStore.remove_source`` on its primary, with every touched subject
re-derived in the warehouse, the entity store and the text index.

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
        ["type", "name", "alias", "description", "genre", "popularity", "spouse", "composite"]
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
    """The four stores, fed the way the agents fed them before the batch."""

    def __init__(self) -> None:
        self.primary = TripleStore()
        self.analytics = AnalyticsStore()
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
        self.analytics.remove_subjects(deleted)
        self.analytics.refresh_subjects(
            subjects, [ExtendedTriple.from_row(row) for row in rows]
        )
        self.entity_store.update_from_store(self.primary, subjects + deleted)
        for subject in deleted:
            self.text_index.remove(subject)
        self.index_text(subjects)

    def remove_source(self, source_id: str) -> None:
        """The primary's own ``remove_source``, then every subject the source
        touched re-derived in the other three stores."""
        touched = sorted({t.subject for t in self.primary if source_id in t.provenance})
        self.primary.remove_source(source_id)
        self.analytics.refresh_subjects(
            touched, [t for subject in touched for t in self.primary.facts_about(subject)]
        )
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
    for predicate in predicates + ["type"]:
        assert engine.analytics.predicate_relation(predicate).rows == (
            oracle.analytics.predicate_relation(predicate).rows
        )
    assert engine.analytics.name_relation().rows == oracle.analytics.name_relation().rows
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

    live = set(source.subjects())
    for _ in range(rng.randint(8, 14)):
        op = rng.choices(["grow", "rewrite", "delete", "readd", "resource", "remove"],
                         weights=[30, 25, 15, 15, 15, 10])[0]
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
    staged = [row[6] for row in source.stage(["kg:a", "kg:b"]).rows()]
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
