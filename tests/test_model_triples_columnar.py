"""Seeded equivalence suite: columnar TripleStore vs the frozen legacy store.

Random operation sequences (add / merge-provenance / discard / remove_subject /
remove_source / fusion-style retract_source_from_subjects) run against
:class:`repro.model.triples.TripleStore` (columnar) and
:class:`oracles.legacy_store.LegacyTripleStore` (the pre-refactor
implementation, kept verbatim), asserting ``canonical_rows()`` equality — the
single byte-level oracle — plus iteration order, serialized rows, and every
lookup surface.  The batch operators are additionally checked against their
row-at-a-time equivalents, and an end-to-end test publishes a columnar store
through the Graph Engine and cross-checks the primary store against a legacy
rebuild.

``store_seed`` is parametrized from the repo conftest: 25 sequences locally,
200 at the CI depth (``--runs-seeded``), 1000 in the nightly soak
(``--runs-seeded 1000``).
"""

import random

import pytest

from oracles.legacy_store import LegacyTripleStore
from repro.model.entity import KGEntity
from repro.model.provenance import Provenance
from repro.model.triples import ExtendedTriple, TripleStore

SUBJECTS = [f"kg:e{i}" for i in range(8)]
SIMPLE_PREDICATES = ["name", "genre", "popularity", "spouse"]
COMPOSITE_PREDICATE = "educated_at"
PREDICATES = [*SIMPLE_PREDICATES, COMPOSITE_PREDICATE]
RELATIONSHIP_PREDICATES = ["school", "degree"]
RELATIONSHIP_IDS = [f"rel:{i}" for i in range(4)]
# Deliberate dict-equality colliders (1 == 1.0 == True, 0 == 0.0 == False):
# the legacy key dict conflates them and the columnar ObjectDict must too,
# while repr/serialization must preserve the value actually stored.
OBJECTS = ["X", "Y", "kg:e1", "kg:e3", 1, 1.0, True, 0, 0.0, False, 3.5, "Z"]
SOURCES = [f"src{i}" for i in range(5)]
LOCALES = ["en", "fr"]
TRUSTS = [0.2, 0.5, 0.8, 0.9]


def random_triple(rng: random.Random) -> ExtendedTriple:
    composite = rng.random() < 0.3
    if composite:
        predicate = COMPOSITE_PREDICATE
        relationship_id = rng.choice(RELATIONSHIP_IDS)
        relationship_predicate = rng.choice(RELATIONSHIP_PREDICATES)
    else:
        predicate = rng.choice(SIMPLE_PREDICATES)
        relationship_id = relationship_predicate = None
    return ExtendedTriple(
        subject=rng.choice(SUBJECTS),
        predicate=predicate,
        obj=rng.choice(OBJECTS),
        relationship_id=relationship_id,
        relationship_predicate=relationship_predicate,
        locale=rng.choice(LOCALES),
        provenance=Provenance.from_source(rng.choice(SOURCES), rng.choice(TRUSTS)),
    )


def assert_equivalent(columnar: TripleStore, legacy: LegacyTripleStore) -> None:
    """Every observable surface of the two stores must agree."""
    assert columnar.canonical_rows() == legacy.canonical_rows()
    assert columnar.fact_count() == legacy.fact_count()
    assert columnar.entity_count() == legacy.entity_count()
    assert len(columnar) == len(legacy)
    assert columnar.subjects() == legacy.subjects()
    assert columnar.predicates() == legacy.predicates()
    # Insertion order and serialization are part of the contract.
    assert columnar.to_rows() == legacy.to_rows()
    for subject in SUBJECTS:
        col_facts = columnar.facts_about(subject)
        leg_facts = legacy.facts_about(subject)
        assert [t.key() for t in col_facts] == [t.key() for t in leg_facts]
        assert [t.sources for t in col_facts] == [t.sources for t in leg_facts]
        assert [t.to_row() for t in col_facts] == [t.to_row() for t in leg_facts]
        for predicate in SIMPLE_PREDICATES:
            assert columnar.value_of(subject, predicate) == legacy.value_of(
                subject, predicate
            )
            assert columnar.values_of(subject, predicate) == legacy.values_of(
                subject, predicate
            )
        col_rel = columnar.relationship_facts(subject, COMPOSITE_PREDICATE)
        leg_rel = legacy.relationship_facts(subject, COMPOSITE_PREDICATE)
        assert {k: [t.key() for t in v] for k, v in col_rel.items()} == {
            k: [t.key() for t in v] for k, v in leg_rel.items()
        }
    for predicate in PREDICATES:
        assert [t.key() for t in columnar.facts_with_predicate(predicate)] == [
            t.key() for t in legacy.facts_with_predicate(predicate)
        ]
    for obj in OBJECTS:
        assert [t.key() for t in columnar.facts_with_object(obj)] == [
            t.key() for t in legacy.facts_with_object(obj)
        ]


def legacy_retract(
    legacy: LegacyTripleStore, source: str, subjects, only_predicates=None, skip_predicates=()
) -> int:
    """The fusion retract loop over the legacy store: the oracle of
    :meth:`TripleStore.retract_source_from_subjects`."""
    removed = 0
    for subject in subjects:
        for triple in legacy.facts_about(subject):
            if source not in triple.provenance or triple.predicate in skip_predicates:
                continue
            if only_predicates is not None and triple.predicate not in only_predicates:
                continue
            triple.provenance = triple.provenance.without(source)
            if triple.provenance.is_empty():
                legacy.discard(triple)
                removed += 1
    return removed


def apply_random_op(rng: random.Random, columnar: TripleStore, legacy: LegacyTripleStore) -> None:
    """Apply one random mutation to both stores."""
    op = rng.choice(
        ["add", "add", "add", "add", "merge", "discard", "remove_subject", "remove_source",
         "retract"]
    )
    if op == "add":
        triple = random_triple(rng)
        columnar.add(triple.copy())
        legacy.add(triple.copy())
    elif op == "merge":
        # Re-assert an existing fact from another source: provenance merge.
        facts = legacy.facts_about(rng.choice(SUBJECTS))
        if facts:
            target = rng.choice(facts)
            reasserted = target.copy()
            reasserted.provenance = Provenance.from_source(
                rng.choice(SOURCES), rng.choice(TRUSTS)
            )
            columnar.add(reasserted.copy())
            legacy.add(reasserted.copy())
    elif op == "discard":
        facts = legacy.facts_about(rng.choice(SUBJECTS))
        if facts:
            target = rng.choice(facts).copy()
            assert columnar.discard(target) == legacy.discard(target)
    elif op == "remove_subject":
        subject = rng.choice(SUBJECTS)
        assert columnar.remove_subject(subject) == legacy.remove_subject(subject)
    elif op == "remove_source":
        source = rng.choice(SOURCES)
        assert columnar.remove_source(source) == legacy.remove_source(source)
    elif op == "retract":
        # The fusion retract: one source leaves some subjects' facts,
        # optionally only on some predicates (the volatile partition) or
        # sparing some (sameAs links).
        source = rng.choice(SOURCES)
        subjects = rng.sample(SUBJECTS, rng.randint(1, len(SUBJECTS)))
        only = None
        if rng.random() < 0.5:
            only = set(rng.sample(PREDICATES, rng.randint(1, len(PREDICATES))))
        skip = set(rng.sample(PREDICATES, rng.randint(0, 2)))
        expected = legacy_retract(legacy, source, subjects, only, skip)
        assert columnar.retract_source_from_subjects(
            source, subjects, only_predicates=only, skip_predicates=skip
        ) == expected


def test_random_op_sequences_match_legacy(store_seed):
    rng = random.Random(9000 + store_seed)
    columnar, legacy = TripleStore(), LegacyTripleStore()
    for step in range(rng.randrange(20, 45)):
        apply_random_op(rng, columnar, legacy)
        if step % 5 == 0:
            assert columnar.canonical_rows() == legacy.canonical_rows()
    assert_equivalent(columnar, legacy)


def test_batch_operators_match_rowwise(store_seed):
    rng = random.Random(31000 + store_seed)
    triples = [random_triple(rng) for _ in range(60)]
    extra = [random_triple(rng) for _ in range(25)]

    legacy = LegacyTripleStore()
    added_rowwise = legacy.add_all(t.copy() for t in triples)

    batch = TripleStore()
    assert batch.add_batch(t.copy() for t in triples) == added_rowwise
    assert batch.canonical_rows() == legacy.canonical_rows()

    via_rows = TripleStore()
    assert via_rows.add_rows(legacy.to_rows()) == added_rowwise
    assert via_rows.canonical_rows() == legacy.canonical_rows()
    assert via_rows.to_rows() == legacy.to_rows()

    merged = TripleStore(t.copy() for t in triples)
    assert merged.add_batch(t.copy() for t in extra) == legacy.add_all(t.copy() for t in extra)
    assert merged.canonical_rows() == legacy.canonical_rows()

    # stage + apply_staged == add_rows over facts_about rows, in the same
    # order; an absent subject stages an empty group
    staged_subjects = SUBJECTS[1:6] + ["kg:absent"]
    staged = merged.stage(staged_subjects)
    via_dicts = TripleStore()
    via_dicts.add_rows(
        t.to_row() for subject in sorted(staged_subjects) for t in merged.facts_about(subject)
    )
    assert staged.subjects == tuple(sorted(staged_subjects))
    assert len(staged) == via_dicts.fact_count()
    assert [row[:6] for row in staged.rows()] == [
        (r["subject"], r["predicate"], r["r_id"], r["r_predicate"], r["object"], r["locale"])
        for r in via_dicts.to_rows()
    ]
    via_batch = TripleStore()
    assert via_batch.apply_staged(staged) == via_dicts.fact_count()
    assert via_batch.to_rows() == via_dicts.to_rows()
    # staged into a store that already holds facts of the staged subjects:
    # each staged subject holds exactly its staged facts afterwards, as if
    # its stored facts were removed and the staged rows added; the other
    # subjects are untouched, and applying the batch again inserts nothing
    overlapping = TripleStore(t.copy() for t in extra)
    rebuilt = TripleStore(t.copy() for t in extra)
    rebuilt.remove_subjects_batch(staged.subjects)
    rebuilt.add_rows(via_dicts.to_rows())
    overlapping.apply_staged(staged)
    assert overlapping.canonical_rows() == rebuilt.canonical_rows()
    assert overlapping.apply_staged(staged) == 0
    assert overlapping.canonical_rows() == rebuilt.canonical_rows()
    # the source index followed every replaced provenance
    for source in SOURCES:
        assert overlapping.remove_source(source) == rebuilt.remove_source(source)
        assert overlapping.canonical_rows() == rebuilt.canonical_rows()

    # remove_subjects_batch == per-subject remove_subject
    doomed = SUBJECTS[2:5]
    assert merged.remove_subjects_batch(doomed) == sum(
        legacy.remove_subject(s) for s in doomed
    )
    assert merged.canonical_rows() == legacy.canonical_rows()

    # retract_source_from_subjects == the fusion retract loop
    source = rng.choice(SOURCES)
    skip = {"name"}
    expected_removed = legacy_retract(legacy, source, SUBJECTS, skip_predicates=skip)
    removed = merged.retract_source_from_subjects(
        source, SUBJECTS, skip_predicates=skip
    )
    assert removed == expected_removed
    assert merged.canonical_rows() == legacy.canonical_rows()

    # the batch staged above is a snapshot: removals and provenance
    # retractions on its source since then do not show in it
    late = TripleStore()
    late.apply_staged(staged)
    assert late.canonical_rows() == via_dicts.canonical_rows()


def test_handed_out_triple_reads_current_provenance():
    """A store operator replaces a fact's provenance value; the triple
    handed out earlier reads the new value, and the old value is unchanged."""
    store = TripleStore(
        [
            ExtendedTriple("kg:e1", "name", "A", provenance=Provenance.from_source("a", 0.5)),
            ExtendedTriple("kg:e1", "genre", "pop", provenance=Provenance.from_source("a", 0.5)),
        ]
    )
    name = next(t for t in store.facts_about("kg:e1") if t.predicate == "name")
    first = name.provenance

    store.add(ExtendedTriple("kg:e1", "name", "A", provenance=Provenance.from_source("b", 0.7)))
    assert name.sources == ["a", "b"]
    assert first.sources == ["a"]
    reasserted = name.provenance

    store.add(ExtendedTriple("kg:e1", "name", "A", provenance=Provenance.from_source("b", 0.6)))
    assert name.provenance is reasserted  # nothing new: the value stays

    assert store.retract_source_from_subjects("a", ["kg:e1"]) == 1  # genre purged
    assert name.sources == ["b"]
    assert name.trust == [0.7]
    assert reasserted.sources == ["a", "b"]
    assert [t.predicate for t in store.facts_about("kg:e1")] == ["name"]

    store.add(ExtendedTriple("kg:e1", "name", "A", provenance=Provenance.from_source("c", 0.4)))
    retracted = name.provenance
    assert store.remove_source("b") == 0
    assert name.sources == ["c"]
    assert retracted.sources == ["b", "c"]
    assert store.remove_source("b") == 0
    assert store.remove_source("c") == 1
    assert store.fact_count() == 0


def test_unhashable_objects_raise_like_legacy():
    bad = ExtendedTriple(subject="kg:e1", predicate="name", obj=["un", "hashable"])
    columnar, legacy = TripleStore(), LegacyTripleStore()
    with pytest.raises(TypeError):
        legacy.add(bad)
    with pytest.raises(TypeError):
        columnar.add(bad)
    with pytest.raises(TypeError):
        bad in columnar
    assert columnar.facts_with_object(["un", "hashable"]) == []


def test_object_collision_values_survive_roundtrip():
    """1, 1.0, and True are one fact key, but the stored value is whichever
    was added first — and stays exact across discard / re-add."""
    for first, second in [(1, 1.0), (1.0, True), (True, 1), (0, False)]:
        columnar, legacy = TripleStore(), LegacyTripleStore()
        for store in (columnar, legacy):
            store.add(
                ExtendedTriple(
                    subject="kg:e1", predicate="popularity", obj=first,
                    provenance=Provenance.from_source("a", 0.5),
                )
            )
            store.add(
                ExtendedTriple(
                    subject="kg:e1", predicate="popularity", obj=second,
                    provenance=Provenance.from_source("b", 0.5),
                )
            )
        assert columnar.fact_count() == legacy.fact_count() == 1
        assert columnar.canonical_rows() == legacy.canonical_rows()
        assert columnar.to_rows() == legacy.to_rows()
        # Discard then re-add the dict-equal twin: the stored value must be
        # the new one, not a resurrected intern of the old.
        twin = ExtendedTriple(
            subject="kg:e1", predicate="popularity", obj=second,
            provenance=Provenance.from_source("c", 0.5),
        )
        for store in (columnar, legacy):
            store.discard(twin)
            store.add(twin.copy())
        assert columnar.canonical_rows() == legacy.canonical_rows()
        assert columnar.to_rows() == legacy.to_rows()


def test_engine_publish_matches_legacy_rebuild(ontology, store_seed):
    """End to end: a columnar construction store published through the Graph
    Engine yields a primary store byte-identical to a legacy rebuild of the
    same rows, and identical materialized entities."""
    if store_seed >= 25:  # the engine path is heavier; cap soak depth
        pytest.skip("engine equivalence runs at base depth")
    from repro.engine.graph_engine import GraphEngine
    from repro.model.entity import materialize_entities

    rng = random.Random(71000 + store_seed)
    construction = TripleStore(random_triple(rng) for _ in range(50))
    legacy = LegacyTripleStore.from_rows(construction.to_rows())
    assert construction.canonical_rows() == legacy.canonical_rows()

    engine = GraphEngine(ontology)
    engine.publish_store(construction, source_id="construction")
    assert engine.triples.canonical_rows() == legacy.canonical_rows()

    col_entities = materialize_entities(construction)
    leg_entities = {
        subject: KGEntity.from_triples(subject, legacy.facts_about(subject))
        for subject in legacy.subjects()
    }
    assert sorted(col_entities) == sorted(leg_entities)
    for entity_id, entity in col_entities.items():
        twin = leg_entities[entity_id]
        assert entity.names == twin.names
        assert entity.facts == twin.facts
        assert sorted(entity.relationships) == sorted(twin.relationships)

    # Incremental churn through the engine stays equivalent.
    doomed = rng.choice(SUBJECTS)
    construction.remove_subject(doomed)
    fresh = [random_triple(rng) for _ in range(10)]
    construction.add_batch(fresh)
    changed = sorted({t.subject for t in fresh})
    engine.publish_subjects(construction, changed, deleted_subjects=[doomed])
    rebuilt = LegacyTripleStore()
    for subject in sorted(engine.triples.subjects()):
        for triple in engine.triples.facts_about(subject):
            rebuilt.add(ExtendedTriple.from_row(triple.to_row()))
    assert engine.triples.canonical_rows() == rebuilt.canonical_rows()
