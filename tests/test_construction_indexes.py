"""What a commit reads: the constructor's name index and KG view.

An :class:`~repro.construction.incremental.IncrementalConstructor` keeps one
:class:`NameIndexResolver` and one KG view for its lifetime and, after each
commit, re-reads only the subjects that commit noted or registered
(``docs/construction.md``, "What a commit reads").  The seeded delta
sequences of ``tests/test_construction_batch.py`` are consumed delta by
delta, and after every consume both structures must equal a fresh read of
the store: the resolver's names, per-subject names and types those of a new
``NameIndexResolver(store)`` and of the store's name and type facts read one
by one, and ``kg_view(types)`` for every type the materialize-and-filter
view, order included.  The same holds after a commit
that raises part-way and after a write made straight to the store.  A
call-count test pins the point of the structures: linking one new artist
assembles no entity of an unrelated type and no subject that did not change.

The sequence count scales with ``--runs-seeded`` through the
``construct_seed`` fixture (repo conftest).
"""

from __future__ import annotations

import pytest

from repro.construction.fusion import Fusion
from repro.construction.incremental import IncrementalConstructor
from repro.construction.object_resolution import NameIndexResolver
from repro.model import default_ontology
from repro.model.delta import SourceDelta
from repro.ml.similarity import normalize_string
from repro.model.entity import NAME_PREDICATES, KGEntity, SourceEntity, materialize_entities
from repro.model.provenance import Provenance
from repro.model.triples import ExtendedTriple
from test_construction_batch import TYPES, build_batches


def filtered_view(constructor: IncrementalConstructor, entity_types) -> list[KGEntity]:
    """Every entity materialized from the store, then filtered by type."""
    entities = list(materialize_entities(constructor.store).values())
    if not entity_types:
        return entities
    ontology = constructor.ontology

    def matches(entity_type: str) -> bool:
        if entity_type in entity_types:
            return True
        return ontology.has_type(entity_type) and any(
            ontology.has_type(wanted) and ontology.compatible_types(entity_type, wanted)
            for wanted in entity_types
        )

    return [e for e in entities if not e.types or any(matches(t) for t in e.types)]


def as_sets(index: dict) -> dict[str, set]:
    """An index's tuples as sets: their order is the order of insertion."""
    return {key: set(members) for key, members in index.items()}


def stored_names_and_types(store) -> tuple[dict, dict]:
    """What the name index must hold, read fact by fact: normalized name ->
    subjects and subject -> types."""
    names: dict[str, set] = {}
    types: dict[str, set] = {}
    for predicate in NAME_PREDICATES:
        for triple in store.facts_with_predicate(predicate):
            if normalize_string(triple.obj):
                names.setdefault(normalize_string(triple.obj), set()).add(triple.subject)
    for triple in store.facts_with_predicate("type"):
        types.setdefault(triple.subject, set()).add(str(triple.obj))
    return names, types


def assert_indexes_fresh(constructor: IncrementalConstructor) -> None:
    kept = constructor._name_index
    fresh = NameIndexResolver(constructor.store, constructor.ontology)
    for index in ("_names", "_subject_names", "_types"):
        assert as_sets(getattr(kept, index)) == as_sets(getattr(fresh, index)), index
    assert (as_sets(kept._names), as_sets(kept._types)) == stored_names_and_types(
        constructor.store
    )
    assert set(fresh._name_info) <= set(kept._name_info)
    for entity_types in [(), *((t,) for t in constructor.ontology.types()), TYPES, ("nope",)]:
        assert constructor.kg_view(entity_types) == filtered_view(constructor, entity_types)


def test_indexes_equal_a_fresh_read_after_every_consume(construct_seed):
    constructor = IncrementalConstructor(default_ontology())
    for batch in build_batches(construct_seed):
        for delta in batch:
            constructor.consume(delta)
            assert_indexes_fresh(constructor)


@pytest.mark.parametrize("fails", ["before_fusing", "after_fusing"])
def test_indexes_survive_a_commit_that_fails_part_way(monkeypatch, fails):
    """``fuse_updated`` raises before or after its writes; the commits after
    it start from indexes equal to the store either way."""
    original = Fusion.fuse_updated

    def failing(self, store, *args, **kwargs):
        if fails == "after_fusing":
            original(self, store, *args, **kwargs)
        raise RuntimeError("synthetic fusion failure")

    failures = 0
    for seed in range(8):
        constructor = IncrementalConstructor(default_ontology())
        for batch in build_batches(seed):
            for delta in batch:
                if delta.updated:
                    monkeypatch.setattr(Fusion, "fuse_updated", failing)
                    with pytest.raises(RuntimeError, match="synthetic"):
                        constructor.consume(delta)
                    monkeypatch.setattr(Fusion, "fuse_updated", original)
                    failures += 1
                else:
                    constructor.consume(delta)
                assert_indexes_fresh(constructor)
    assert failures


def test_indexes_follow_a_write_made_straight_to_the_store(construct_seed):
    constructor = IncrementalConstructor(default_ontology())
    store = constructor.store
    provenance = Provenance.from_source("outside", 0.9)
    for number, batch in enumerate(build_batches(construct_seed)):
        for delta in batch:
            constructor.consume(delta)
        # an entity the constructor never saw, and one it built losing a fact
        subject = f"kg:outside{number}"
        store.add(ExtendedTriple(subject, "name", "Echo Valley", provenance=provenance))
        store.add(ExtendedTriple(subject, "type", TYPES[number % len(TYPES)],
                                 provenance=provenance))
        victim = sorted(constructor.link_table.values())[number]
        for triple in store.facts_about(victim)[:1]:
            store.discard(triple)
        for entity_types in [(), *((t,) for t in TYPES)]:
            assert constructor.kg_view(entity_types) == filtered_view(constructor, entity_types)
        constructor.consume(SourceDelta(source_id="outside", to_timestamp=10 + number))
        assert_indexes_fresh(constructor)


def _artist(number: int) -> SourceEntity:
    return SourceEntity(
        entity_id=f"musicdb:{number}",
        entity_type="music_artist",
        properties={"name": f"Artist Number {number}", "record_label": f"Label {number}"},
        source_id="musicdb",
    )


def test_linking_one_artist_assembles_only_changed_artists(monkeypatch):
    ontology = default_ontology()
    constructor = IncrementalConstructor(ontology)
    constructor.consume(SourceDelta.initial("musicdb", [_artist(n) for n in range(4)]))
    for source_id, entity_type in (("moviedb", "movie"), ("corpdb", "company")):
        constructor.consume(SourceDelta.initial(source_id, [
            SourceEntity(f"{source_id}:{n}", entity_type, {"name": f"Title Number {n}"},
                         source_id=source_id)
            for n in range(4)
        ]))
    previous = constructor.consume(
        SourceDelta(source_id="musicdb", added=[_artist(10)], to_timestamp=2)
    )

    built: list[str] = []
    assemble = KGEntity.from_triples.__func__

    def recording(cls, entity_id, triples):
        built.append(entity_id)
        return assemble(cls, entity_id, triples)

    monkeypatch.setattr(KGEntity, "from_triples", classmethod(recording))
    constructor.consume(SourceDelta(source_id="musicdb", added=[_artist(11)], to_timestamp=3))
    monkeypatch.undo()

    assert built, "the artist the previous commit added is assembled once"
    assert set(built) <= set(previous.entity_delta.changed)
    for subject in built:
        types = {t.obj for t in constructor.store.facts_about(subject) if t.predicate == "type"}
        assert all(ontology.compatible_types(t, "music_artist") for t in types), (subject, types)
