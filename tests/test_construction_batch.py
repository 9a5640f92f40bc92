"""Property suite for batch construction (Section 2.4, Figure 5).

Seeded randomized multi-source delta sequences — plus two fixed ones, an
untyped entity gaining a type and two sources sharing an entity type — are
consumed twice: once delta by delta through ``consume_delta``, once batch by
batch through ``consume_many``.  The suite asserts **byte-identical
equivalence**: triple-store contents (``canonical_rows()`` and ``to_rows()``),
link table, per-payload report summaries, classified entity deltas, commit
clocks and the Figure 12 growth series must all match exactly.

The sequence count scales with ``--runs-seeded`` like the view-invariant
suite (capped proportionally, see the repo conftest).  The same module hosts
the regression tests for per-source failure isolation in batch consumption,
the publishing of a commit that failed part-way, and the classified
construction→views→serving delta path with the store re-diff provably not
invoked.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro import SagaPlatform
from repro.construction import (
    IncrementalConstructor,
    KnowledgeConstructionPipeline,
)
from repro.construction.fusion import Fusion
from repro.engine.views import ViewDefinition
from repro.errors import ConstructionBatchError, IngestionError
from repro.ingestion.importers import InMemoryImporter
from repro.model import default_ontology
from repro.model.delta import SourceDelta
from repro.model.entity import SourceEntity

# The construct_seed fixture is parametrized by the repo-level conftest.py
# from --runs-seeded (with a proportional cap, like the other heavy suites).

# ------------------------------------------------------------------ #
# randomized delta-sequence harness
# ------------------------------------------------------------------ #
TYPES = ("music_artist", "movie", "sports_team", "company")
NAME_STEMS = (
    "Echo Valley", "Blue Harbor", "Iron Crest", "Silver Lining",
    "Neon Skyline", "Golden Mile", "Velvet Coast", "Paper Lantern",
)
LABELS = ("Moonrise Records", "Northside Audio", "Cadence House")


def _make_entity(rng: random.Random, source_id: str, entity_type: str, index: int) -> SourceEntity:
    """One synthetic aligned source entity (names shared across sources)."""
    stem = NAME_STEMS[index % len(NAME_STEMS)]
    name = stem if rng.random() < 0.7 else f"{stem} {rng.choice(('Band', 'Group', 'Co'))}"
    properties: dict[str, object] = {
        "name": name,
        "genre": rng.choice(["pop", "rock", "jazz"]),
    }
    if entity_type == "music_artist" and rng.random() < 0.4:
        # Reference predicate: exercises object resolution (and its
        # deterministic entity minting) inside the commit.
        properties["record_label"] = rng.choice(LABELS)
    if rng.random() < 0.3:
        properties["popularity"] = rng.randint(1, 100)
    return SourceEntity(
        entity_id=f"{source_id}:{entity_type}/{index}",
        entity_type=entity_type if rng.random() < 0.9 else "",
        properties=properties,
        source_id=source_id,
        trust=0.8,
    )


def _mutate(rng: random.Random, entity: SourceEntity) -> SourceEntity:
    clone = entity.copy()
    clone.properties["genre"] = rng.choice(["pop", "rock", "jazz", "folk"])
    if rng.random() < 0.3:
        clone.properties["name"] = f"{clone.properties['name']} II"
    if not clone.entity_type and rng.random() < 0.5:
        # An untyped entity gaining a type mid-sequence leaves every KG view
        # it used to sit in.
        clone.entity_type = rng.choice(TYPES)
    return clone


def build_batches(seed: int) -> list[list[SourceDelta]]:
    """Randomized batches of multi-source deltas (same for any consumer)."""
    rng = random.Random(77_000 + seed)
    num_sources = rng.randint(2, 4)
    sources = []
    for s in range(num_sources):
        source_id = f"src{s}"
        # Some runs give sources disjoint entity types, others overlap on
        # purpose (later sources link against earlier sources' entities).
        if rng.random() < 0.5:
            source_types = [TYPES[s % len(TYPES)]]
        else:
            source_types = rng.sample(TYPES, rng.randint(1, 2))
        entities = [
            _make_entity(rng, source_id, rng.choice(source_types), i)
            for i in range(rng.randint(3, 7))
        ]
        sources.append((source_id, entities))

    batches: list[list[SourceDelta]] = []
    first = [
        SourceDelta.initial(source_id, entities, timestamp=1)
        for source_id, entities in sources
    ]
    rng.shuffle(first)
    batches.append(first)

    for round_number in range(rng.randint(0, 2)):
        batch = []
        for source_id, entities in sources:
            if rng.random() < 0.35:
                continue
            delta = SourceDelta(source_id=source_id, to_timestamp=2 + round_number)
            for entity in entities:
                roll = rng.random()
                if roll < 0.25:
                    delta.updated.append(_mutate(rng, entity))
                elif roll < 0.35:
                    delta.deleted.append(entity.copy())
                elif roll < 0.45:
                    volatile = entity.copy()
                    volatile.properties = {"popularity": rng.randint(1, 100)}
                    delta.volatile.append(volatile)
            if rng.random() < 0.3:
                fresh = _make_entity(
                    rng, source_id, rng.choice(TYPES), 100 + round_number
                )
                delta.added.append(fresh)
            if not delta.is_empty():
                batch.append(delta)
        if batch:
            batches.append(batch)
    return batches


# ------------------------------------------------------------------ #
# the equivalence property
# ------------------------------------------------------------------ #
def assert_batches_equal_chain(batches: list[list[SourceDelta]]) -> KnowledgeConstructionPipeline:
    """Consume *batches* through ``consume_many`` and, delta by delta,
    through ``consume_delta``; assert both leave byte-identical state and
    return the batched pipeline."""
    ontology = default_ontology()
    chained = KnowledgeConstructionPipeline(ontology)
    for batch in batches:
        for delta in batch:
            chained.consume_delta(delta)

    batched = KnowledgeConstructionPipeline(ontology)
    for batch in batches:
        batched.consume_many(batch)

    assert batched.store.canonical_rows() == chained.store.canonical_rows()
    assert batched.store.to_rows() == chained.store.to_rows()
    assert batched.link_table == chained.link_table
    assert [r.summary() for r in batched.reports] == [r.summary() for r in chained.reports]
    assert [r.entity_delta for r in batched.reports] == [
        r.entity_delta for r in chained.reports
    ]
    clocks = [r.commit_clock for r in batched.reports]
    assert clocks == [r.commit_clock for r in chained.reports]
    assert clocks == list(range(1, len(clocks) + 1))
    assert batched.growth.series() == chained.growth.series()
    return batched


def test_consume_many_equals_chained_consume_delta(construct_seed):
    """Batch construction is byte-identical to chained single-delta commits."""
    assert_batches_equal_chain(build_batches(construct_seed))


def _initial_delta(source_id: str, entity_type: str, names: list[str]) -> SourceDelta:
    entities = [
        SourceEntity(
            entity_id=f"{source_id}:{entity_type}/{i}",
            entity_type=entity_type,
            properties={"name": name},
            source_id=source_id,
            trust=0.8,
        )
        for i, name in enumerate(names)
    ]
    return SourceDelta.initial(source_id, entities, timestamp=1)


def _untyped_entity_gains_a_type():
    """An untyped entity sits in *every* KG view.  Once a commit types it as
    a music artist it leaves the movie-typed view that a later untyped record
    of the same name links against, so that record gets its own KG id."""
    seed = SourceDelta.initial("seed", [SourceEntity(
        entity_id="seed:thing/0", entity_type="",
        properties={"name": "Iron Crest", "genre": "rock"}, source_id="seed", trust=0.8,
    )], timestamp=1)
    typed = SourceDelta(source_id="seed", updated=[SourceEntity(
        entity_id="seed:thing/0", entity_type="music_artist",
        properties={"name": "Iron Crest", "genre": "rock"}, source_id="seed", trust=0.8,
    )], to_timestamp=2)
    # The shared genre pushes the matcher over the positive-edge threshold
    # for same-named records: while the seed entity is in view, they link.
    untyped = SourceDelta.initial("b", [
        SourceEntity(entity_id="b:m/0", entity_type="movie",
                     properties={"name": "Paper Lantern"}, source_id="b", trust=0.8),
        SourceEntity(entity_id="b:y/0", entity_type="",
                     properties={"name": "Iron Crest", "genre": "rock"}, source_id="b", trust=0.8),
    ], timestamp=2)

    def check(pipeline):
        assert pipeline.link_table["b:y/0"] != pipeline.link_table["seed:thing/0"]

    return [[seed], [typed, untyped]], check


def _sources_share_an_entity_type():
    """Two sources publish the same artist in one batch: the later source
    links against what the earlier one just fused — one KG id for both."""
    batch = [
        _initial_delta("musicdb", "music_artist", ["Echo Valley", "Blue Harbor"]),
        _initial_delta("wiki", "music_artist", ["Echo Valley", "Iron Crest"]),
    ]

    def check(pipeline):
        assert (
            pipeline.link_table["musicdb:music_artist/0"]
            == pipeline.link_table["wiki:music_artist/0"]
        )

    return [batch], check


FIXED_INPUTS = {
    "untyped_to_typed": _untyped_entity_gains_a_type,
    "same_type": _sources_share_an_entity_type,
}


@pytest.mark.parametrize("name", sorted(FIXED_INPUTS))
def test_consume_many_equals_chain_on_fixed_input(name):
    batches, check = FIXED_INPUTS[name]()
    check(assert_batches_equal_chain(batches))


# ------------------------------------------------------------------ #
# construction output pinned across commits
# ------------------------------------------------------------------ #
# What construction produced for each input when the digests were recorded:
# the fused store with provenance, the link table (so the order identifiers
# were minted in) and every commit's classified entity delta.  The suite
# above compares two entry points of one tree; these digests compare a tree
# with its predecessors.  Re-record them only for an intended output change.
PINNED_OUTPUT_DIGESTS = {
    "same_type": "0a5b2cd886cd6361",
    "seed0": "8b53ef001baad60b",
    "seed1": "c34ad8b078bd278a",
    "seed2": "ec886423ad902782",
    "seed3": "4f9dd83722abd512",
    "seed4": "3914e7cb42f70cf8",
    "untyped_to_typed": "7e4a59a263fe802f",
}


def _output_digest(batches: list[list[SourceDelta]]) -> str:
    pipeline = KnowledgeConstructionPipeline(default_ontology())
    for batch in batches:
        pipeline.consume_many(batch)
    content = repr((
        pipeline.store.canonical_rows(),
        sorted(pipeline.link_table.items()),
        [report.entity_delta.as_dict() for report in pipeline.reports],
    ))
    return hashlib.sha256(content.encode()).hexdigest()[:16]


def test_construction_output_matches_pinned_digests():
    inputs = {name: build()[0] for name, build in FIXED_INPUTS.items()}
    inputs.update({f"seed{seed}": build_batches(seed) for seed in range(5)})
    digests = {name: _output_digest(batches) for name, batches in sorted(inputs.items())}
    assert digests == PINNED_OUTPUT_DIGESTS


# ------------------------------------------------------------------ #
# per-source failure isolation
# ------------------------------------------------------------------ #
def test_batch_isolates_per_source_failures(monkeypatch):
    """One failing delta no longer aborts the batch: the rest keep fusing and
    an aggregate error carrying every report is raised at the end."""
    ontology = default_ontology()
    pipeline = KnowledgeConstructionPipeline(ontology)

    original = Fusion.fuse_added

    def explosive(self, store, triples_by_subject, same_as=()):
        if any(subject_triples and subject_triples[0].provenance.sources == ["faulty"]
               for subject_triples in triples_by_subject.values()):
            raise RuntimeError("synthetic fusion failure")
        return original(self, store, triples_by_subject, same_as=same_as)

    monkeypatch.setattr(Fusion, "fuse_added", explosive)

    batch = [
        _initial_delta("musicdb", "music_artist", ["Echo Valley"]),
        _initial_delta("faulty", "movie", ["Iron Crest"]),
        _initial_delta("corpdb", "company", ["Paper Lantern"]),
    ]
    with pytest.raises(ConstructionBatchError) as excinfo:
        pipeline.consume_many(batch)
    error = excinfo.value
    assert len(error.reports) == 3
    assert [r.error is None for r in error.reports] == [True, False, True]
    assert "RuntimeError" in error.reports[1].error
    assert [source_id for source_id, _ in error.failures] == ["faulty"]
    # The surviving sources fused and were recorded; the failed one consumed
    # no growth clock tick.
    assert [r.source_id for r in pipeline.reports] == ["musicdb", "corpdb"]
    assert [r.commit_clock for r in pipeline.reports] == [1, 2]
    assert "musicdb:music_artist/0" in pipeline.link_table
    assert "corpdb:company/0" in pipeline.link_table
    # Failure isolation is per-source, not transactional (matching a failed
    # single-delta consume): the faulty source may have linked, but nothing of
    # it reached the store — fusion is where the store mutates.
    faulty_kg_id = pipeline.link_table.get("faulty:movie/0")
    if faulty_kg_id is not None:
        assert not pipeline.store.facts_about(faulty_kg_id)


def test_sequential_chain_still_raises_immediately(monkeypatch):
    """Single-delta consumption keeps its fail-fast contract."""
    ontology = default_ontology()
    constructor = IncrementalConstructor(ontology)

    def explosive(self, store, triples_by_subject, same_as=()):
        raise RuntimeError("synthetic fusion failure")

    monkeypatch.setattr(Fusion, "fuse_added", explosive)
    with pytest.raises(RuntimeError):
        constructor.consume(_initial_delta("musicdb", "music_artist", ["Echo Valley"]))


# ------------------------------------------------------------------ #
# classified entity deltas
# ------------------------------------------------------------------ #
def test_entity_delta_classifies_add_update_delete():
    ontology = default_ontology()
    constructor = IncrementalConstructor(ontology)
    initial = _initial_delta("musicdb", "music_artist", ["Echo Valley", "Blue Harbor"])
    report = constructor.consume(initial)
    assert len(report.entity_delta.added) >= 2
    assert report.entity_delta.updated == ()
    assert report.entity_delta.deleted == ()

    update = SourceDelta(
        source_id="musicdb",
        updated=[SourceEntity(
            entity_id="musicdb:music_artist/0",
            entity_type="music_artist",
            properties={"name": "Echo Valley", "genre": "pop"},
            source_id="musicdb",
            trust=0.8,
        )],
        to_timestamp=2,
    )
    report = constructor.consume(update)
    kg_id = constructor.link_table["musicdb:music_artist/0"]
    assert kg_id in report.entity_delta.updated
    assert report.entity_delta.added == ()

    deletion = SourceDelta(
        source_id="musicdb",
        deleted=[initial.added[1].copy()],
        to_timestamp=3,
    )
    report = constructor.consume(deletion)
    gone = constructor.link_table["musicdb:music_artist/1"]
    # musicdb was the only source: the entity left the KG.  Fusion keeps the
    # same_as linking provenance as a tombstone, so "deleted" means no
    # knowledge-bearing facts remain — not a literally empty subject.
    assert gone in report.entity_delta.deleted
    remaining = constructor.store.facts_about(gone)
    assert all(t.predicate == "same_as" for t in remaining)


def test_entity_delta_retraction_with_surviving_source_is_an_update():
    """A retraction another source still supports classifies as *updated*."""
    ontology = default_ontology()
    constructor = IncrementalConstructor(ontology)
    constructor.consume(_initial_delta("musicdb", "music_artist", ["Echo Valley"]))
    constructor.consume(_initial_delta("wiki", "music_artist", ["Echo Valley"]))
    kg_music = constructor.link_table["musicdb:music_artist/0"]
    kg_wiki = constructor.link_table["wiki:music_artist/0"]
    assert kg_music == kg_wiki, "both sources must link to one entity"

    deletion = SourceDelta(
        source_id="musicdb",
        deleted=[SourceEntity(
            entity_id="musicdb:music_artist/0",
            entity_type="music_artist",
            properties={"name": "Echo Valley"},
            source_id="musicdb",
        )],
        to_timestamp=2,
    )
    report = constructor.consume(deletion)
    assert kg_music in report.entity_delta.updated
    assert kg_music not in report.entity_delta.deleted
    assert constructor.store.facts_about(kg_music), "wiki's facts must survive"


# ------------------------------------------------------------------ #
# construction → views → serving: no store re-diff
# ------------------------------------------------------------------ #
def _platform_with_views() -> SagaPlatform:
    platform = SagaPlatform()
    platform.graph_engine.register_standard_views()
    platform.graph_engine.materialize_views()
    return platform


def _artist_entities(source_id: str, names: list[str]) -> list[SourceEntity]:
    return [
        SourceEntity(
            entity_id=f"{source_id}:artist/{i}",
            entity_type="music_artist",
            properties={"name": name},
            source_id=source_id,
            trust=0.8,
        )
        for i, name in enumerate(names)
    ]


def test_platform_publishes_classified_deltas_without_rediff():
    """Construction deltas reach the views' journal events exactly as
    construction classified them: nothing between publish and journal
    re-derives which subjects a commit added, updated or deleted."""
    platform = _platform_with_views()
    engine = platform.graph_engine

    def subject_row(subject):
        return {"subject": subject, "facts": len(engine.triples.facts_about(subject))}

    def apply_delta(context, delta):
        # Patched in place, so the journal event carries the input delta.
        rows = context.artifact("subject_rows")
        for subject in delta.changed:
            rows[subject] = subject_row(subject)
        for subject in delta.deleted:
            rows.pop(subject, None)
        return rows

    engine.register_view(ViewDefinition(
        "subject_rows", "analytics",
        create=lambda context: {s: subject_row(s) for s in engine.triples.subjects()},
        apply_delta=apply_delta,
    ))
    engine.materialize_views(["subject_rows"])
    events = []
    engine.view_manager.add_journal_listener(events.append)

    def journaled_since(count):
        return [
            event.delta for event in events[count:]
            if event.kind == "append" and event.view_name == "subject_rows"
        ]

    def classification(delta):
        return (set(delta.added), set(delta.updated), set(delta.deleted))

    platform.register_source("musicdb")
    report = platform.ingest_snapshot(
        "musicdb", _artist_entities("musicdb", ["Echo Valley", "Blue Harbor"])
    )
    assert set(report.entity_delta.added)
    platform.graph_engine.update_views()
    (first,) = journaled_since(0)
    assert classification(first) == classification(report.entity_delta)

    # Second snapshot: one update, one deletion — classified end to end.
    seen = len(events)
    second = _artist_entities("musicdb", ["Echo Valley Band"])
    report = platform.ingest_snapshot("musicdb", second)
    assert report.entity_delta.deleted, "the dropped artist must classify as deleted"
    timings = platform.graph_engine.update_views()
    assert timings is not None
    (journaled,) = journaled_since(seen)
    assert classification(journaled) == classification(report.entity_delta)
    assert journaled.first_lsn == journaled.last_lsn == engine.log.head_lsn()


def test_platform_ingest_batch_end_to_end():
    """ingest_batch runs multi-source construction and publishes every commit."""
    platform = _platform_with_views()
    for source_id in ("musicdb", "wiki"):
        platform.register_source(source_id)
    reports = platform.ingest_batch(
        [
            ("musicdb", _artist_entities("musicdb", ["Echo Valley", "Blue Harbor"])),
            ("wiki", _artist_entities("wiki", ["Echo Valley", "Iron Crest"])),
        ],
    )
    assert [r.source_id for r in reports] == ["musicdb", "wiki"]
    assert all(r.error is None for r in reports)
    # Both publishes replayed into the engine and the cross-source duplicate
    # was merged to one KG id.
    assert platform.construction.link_table["musicdb:artist/0"] == (
        platform.construction.link_table["wiki:artist/0"]
    )
    assert all(lag == 0 for lag in platform.graph_engine.freshness().values())
    hits = platform.graph_engine.search("Echo Valley", k=3)
    assert hits


def test_platform_ingest_batch_publishes_survivors_on_failure(monkeypatch):
    platform = _platform_with_views()
    for source_id in ("musicdb", "faulty"):
        platform.register_source(source_id)

    original = Fusion.fuse_added

    def explosive(self, store, triples_by_subject, same_as=()):
        if any(subject_triples and subject_triples[0].provenance.sources == ["faulty"]
               for subject_triples in triples_by_subject.values()):
            raise RuntimeError("synthetic fusion failure")
        return original(self, store, triples_by_subject, same_as=same_as)

    monkeypatch.setattr(Fusion, "fuse_added", explosive)

    with pytest.raises(ConstructionBatchError):
        platform.ingest_batch(
            [
                ("musicdb", _artist_entities("musicdb", ["Echo Valley"])),
                ("faulty", _artist_entities("faulty", ["Iron Crest"])),
            ],
        )
    # The surviving source was still published and replayed.
    assert all(lag == 0 for lag in platform.graph_engine.freshness().values())
    assert platform.graph_engine.search("Echo Valley", k=3)


@pytest.mark.parametrize("entry_point", ["ingest_batch", "ingest_snapshot"])
def test_a_commit_that_fails_part_way_publishes_what_it_fused(monkeypatch, entry_point):
    """A source drops one artist and adds another, and the drop fails after
    the addition fused.  The added artist is in the constructed KG, so it
    must be in the served one too."""
    platform = _platform_with_views()
    platform.register_source("musicdb")
    first, second, third = _artist_entities(
        "musicdb", ["Echo Valley", "Blue Harbor", "Iron Crest"]
    )
    platform.ingest_snapshot("musicdb", [first, second])

    def explosive(self, store, source_id, subjects):
        raise RuntimeError("synthetic deletion failure")

    monkeypatch.setattr(Fusion, "fuse_deleted", explosive)
    if entry_point == "ingest_batch":
        with pytest.raises(ConstructionBatchError) as excinfo:
            platform.ingest_batch([("musicdb", [second, third])])
        (failed,) = excinfo.value.reports
    else:
        with pytest.raises(RuntimeError) as excinfo:
            platform.ingest_snapshot("musicdb", [second, third])

    kg_id = platform.construction.link_table["musicdb:artist/2"]
    constructed = platform.construction.store.facts_about(kg_id)
    assert constructed
    assert platform.graph_engine.triples.facts_about(kg_id) == constructed
    assert platform.graph_engine.entity(kg_id) is not None
    assert all(lag == 0 for lag in platform.graph_engine.freshness().values())
    # The failed report is what was published: it names the added artist.
    if entry_point == "ingest_snapshot":
        failed = excinfo.value.construction_report
    assert "RuntimeError" in failed.error
    assert kg_id in failed.entity_delta.added


@pytest.mark.parametrize("entry_point", ["ingest_batch", "ingest_snapshot"])
def test_a_failed_commit_does_not_advance_the_consumed_snapshot(monkeypatch, entry_point):
    """A drop whose deletion failed must be retried by the next ingest of the
    same snapshot; an ingestion side that advanced anyway would diff the
    retry to an empty delta and the dropped artist would stay served."""
    platform = _platform_with_views()
    platform.register_source("musicdb")
    first, second = _artist_entities("musicdb", ["Echo Valley", "Blue Harbor"])
    platform.ingest_snapshot("musicdb", [first, second])
    kg_id = platform.construction.link_table["musicdb:artist/0"]
    assert platform.graph_engine.entity(kg_id) is not None

    original = Fusion.fuse_deleted
    calls = {"n": 0}

    def fails_once(self, store, source_id, subjects):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("synthetic deletion failure")
        return original(self, store, source_id, subjects)

    monkeypatch.setattr(Fusion, "fuse_deleted", fails_once)
    ingest = getattr(platform, entry_point)

    def ingest_second():
        if entry_point == "ingest_batch":
            return ingest([("musicdb", [second])])[0]
        return ingest("musicdb", [second])

    with pytest.raises((ConstructionBatchError, RuntimeError)):
        ingest_second()
    assert platform.graph_engine.entity(kg_id) is not None
    report = ingest_second()
    assert report.error is None and kg_id in report.entity_delta.deleted
    constructed = platform.construction.store.facts_about(kg_id)
    assert {fact.predicate for fact in constructed} <= {"same_as"}
    assert platform.graph_engine.triples.facts_about(kg_id) == []
    assert platform.graph_engine.entity(kg_id) is None
    assert calls["n"] == 2


def test_a_failed_importer_commit_publishes_what_it_fused_and_retries(monkeypatch):
    """ingest_importer commits as ingest_snapshot does.  The importer's second
    snapshot drops one artist and adds another, and the drop fails after the
    addition fused: the added artist is served, the commit's own exception
    carries the failed report, and ingesting the same importer snapshot
    again deletes the dropped artist."""
    platform = _platform_with_views()
    platform.register_source("musicdb")
    rows = [
        {"id": f"artist/{i}", "type": "music_artist", "name": name}
        for i, name in enumerate(["Echo Valley", "Blue Harbor", "Iron Crest"])
    ]
    platform.ingest_importer("musicdb", InMemoryImporter(rows[:2]))
    dropped = platform.construction.link_table["musicdb:artist/0"]
    second = InMemoryImporter(rows[1:])

    original = Fusion.fuse_deleted
    calls = {"n": 0}

    def fails_once(self, store, source_id, subjects):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("synthetic deletion failure")
        return original(self, store, source_id, subjects)

    monkeypatch.setattr(Fusion, "fuse_deleted", fails_once)
    with pytest.raises(RuntimeError) as excinfo:
        platform.ingest_importer("musicdb", second)
    assert excinfo.type is RuntimeError            # not a ConstructionBatchError
    failed = excinfo.value.construction_report
    added = platform.construction.link_table["musicdb:artist/2"]
    assert "RuntimeError" in failed.error
    assert added in failed.entity_delta.added
    constructed = platform.construction.store.facts_about(added)
    assert constructed
    assert platform.graph_engine.triples.facts_about(added) == constructed
    assert platform.graph_engine.entity(added) is not None
    assert platform.graph_engine.entity(dropped) is not None
    assert all(lag == 0 for lag in platform.graph_engine.freshness().values())

    report = platform.ingest_importer("musicdb", second)
    assert report.error is None and dropped in report.entity_delta.deleted
    assert platform.graph_engine.entity(dropped) is None
    assert platform.graph_engine.entity(added) is not None
    assert calls["n"] == 2


def test_ingest_batch_takes_one_snapshot_per_source():
    platform = _platform_with_views()
    platform.register_source("musicdb")
    entities = _artist_entities("musicdb", ["Echo Valley"])
    with pytest.raises(IngestionError):
        platform.ingest_batch([("musicdb", entities), ("musicdb", entities)])
    assert platform.construction.reports == []


def test_classified_deltas_ship_to_replica_fleet(tmp_path):
    """The continuous path: construction commit → view journal → replicas."""
    platform = _platform_with_views()
    platform.register_source("musicdb")
    platform.ingest_snapshot("musicdb", _artist_entities("musicdb", ["Echo Valley"]))
    platform.graph_engine.update_views()

    fleet = platform.start_serving_fleet(
        views=["entity_features"], num_replicas=2, journal_dir=str(tmp_path)
    )
    try:
        platform.ingest_snapshot(
            "musicdb", _artist_entities("musicdb", ["Echo Valley", "Blue Harbor"])
        )
        platform.graph_engine.update_views()
        fleet.drain()
        primary = {
            row["subject"]: row
            for row in platform.graph_engine.view_artifact("entity_features")
        }
        for node in fleet.replicas.values():
            for subject in primary:
                document = node.get("entity_features", subject)
                assert document is not None, f"{subject} missing on {node.name}"
    finally:
        platform.stop_serving_fleet()
