"""Tests for the NERD stack: entity view, candidate retrieval, disambiguation, service."""

import pytest

from repro.baselines.legacy_nerd import LegacyEntityLinker, PopularityDisambiguator
from repro import SagaPlatform
from repro.construction.object_resolution import ResolutionContext
from repro.engine.importance import compute_importance
from repro.engine.views import ViewDelta
from repro.errors import NERDError
from repro.ml.nerd import disambiguation
from repro.ml.nerd import (
    Candidate,
    CandidateRetriever,
    ContextualDisambiguator,
    MentionContext,
    NERDEntityView,
    NERDService,
)
from repro.ml.similarity import normalize_string
from repro.model.triples import ExtendedTriple, TripleStore


@pytest.fixture(scope="module")
def entity_view(reference_store):
    return NERDEntityView.build(reference_store)


@pytest.fixture(scope="module")
def nerd_service(reference_store, ontology):
    return NERDService.from_store(reference_store, ontology)


# --------------------------------------------------------------------- #
# NERD entity view
# --------------------------------------------------------------------- #
def test_entity_view_summarizes_entities(entity_view, world, reference_store):
    assert len(entity_view) == reference_store.entity_count()
    artist = world.of_type("music_artist")[0]
    record = entity_view.get(artist.truth_id)
    assert record is not None
    assert artist.name in record.names
    assert "music_artist" in record.types
    assert record.relations, "relations should include forward or reverse links"
    assert record.importance > 0.0
    assert record.context_tokens()
    assert artist.name.lower().split()[0] in " ".join(record.normalized_names())


def test_entity_view_refresh_and_remove(reference_store, world):
    artist = world.of_type("music_artist")[0]
    store = TripleStore(list(reference_store))
    view = NERDEntityView.build(store)
    record = view.get(artist.truth_id)
    rebuilt = view.apply_delta(ViewDelta(updated=frozenset({artist.truth_id})))
    assert rebuilt[artist.truth_id] == record == view.get(artist.truth_id)
    store.remove_subject(artist.truth_id)
    view.apply_delta(ViewDelta(deleted=frozenset({artist.truth_id})))
    assert artist.truth_id not in view
    # the artist's albums no longer name it: every record equals a fresh build
    fresh = NERDEntityView.build(store)
    assert {r.entity_id: r for r in view.records()} == {r.entity_id: r for r in fresh.records()}
    assert view.apply_delta(ViewDelta(updated=frozenset({"truth:nonexistent"}))) == {
        "truth:nonexistent": None
    }
    assert "truth:nonexistent" not in view


def test_platform_nerd_ranks_by_the_importance_of_the_kg_now():
    """Importance is a whole-graph score: publishing ``kg:b`` with two
    ``performed_by`` in-edges scores ``kg:b`` and lowers ``kg:hub``, which the
    publish never names.  NERD's records follow both."""
    store = TripleStore()

    def entity(subject, name, kind, **edges):
        store.add(ExtendedTriple(subject, "type", kind))
        store.add(ExtendedTriple(subject, "name", name))
        for predicate, obj in edges.items():
            store.add(ExtendedTriple(subject, predicate, obj))

    entity("kg:hub", "Hub Band", "music_artist")
    entity("kg:s1", "First Song", "song", performed_by="kg:hub")
    platform = SagaPlatform()
    engine = platform.graph_engine
    engine.publish_store(store)
    nerd = platform.nerd
    hub_before = nerd.view.get("kg:hub").importance

    entity("kg:b", "Bee Band", "music_artist")
    entity("kg:s2", "Second Song", "song", performed_by="kg:b")
    entity("kg:s3", "Third Song", "song", performed_by="kg:b")
    engine.publish_subjects(store, ["kg:b", "kg:s2", "kg:s3"])

    importance = {entity_id: score.score
                  for entity_id, score in compute_importance(engine.triples).items()}
    assert importance["kg:b"] > 0.0
    assert importance["kg:hub"] < hub_before
    assert {r.entity_id: r.importance for r in nerd.view.records()} == importance
    fresh = NERDEntityView.build(engine.triples, importance)
    assert {r.entity_id: r for r in nerd.view.records()} == (
        {r.entity_id: r for r in fresh.records()}
    )


# --------------------------------------------------------------------- #
# candidate retrieval
# --------------------------------------------------------------------- #
def test_candidate_retrieval_exact_and_fuzzy(entity_view, ontology, world):
    retriever = CandidateRetriever(entity_view, ontology=ontology)
    artist = world.of_type("music_artist")[0]
    exact = retriever.retrieve(artist.name)
    assert exact and exact[0].entity_id == artist.truth_id
    typo = artist.name[:-1] + ("x" if artist.name[-1] != "x" else "y")
    fuzzy = retriever.retrieve(typo)
    assert any(candidate.entity_id == artist.truth_id for candidate in fuzzy)
    assert retriever.retrieve("") == []
    assert retriever.retrieve("zzqqxx totally unknown") == []


def test_candidate_retrieval_type_hints_filter(entity_view, ontology, world):
    retriever = CandidateRetriever(entity_view, ontology=ontology)
    # Ambiguous city names exist across countries; type hints keep only cities.
    city = world.of_type("city")[0]
    candidates = retriever.retrieve(city.name, type_hints=("city",))
    assert candidates
    assert all("city" in c.record.types for c in candidates)
    none_allowed = retriever.retrieve(city.name, type_hints=("song",))
    assert all("song" in c.record.types for c in none_allowed) or none_allowed == []


def test_candidate_retrieval_refresh_entities(reference_store, ontology, world):
    store = TripleStore(list(reference_store))
    view = NERDEntityView.build(store)
    retriever = CandidateRetriever(view, ontology=ontology)
    artist = world.of_type("music_artist")[1]
    retriever.reindex(view.apply_delta(ViewDelta(updated=frozenset({artist.truth_id}))))
    assert any(c.entity_id == artist.truth_id for c in retriever.retrieve(artist.name))
    # a rename moves the artist's postings from the old names to the new one
    for fact in store.facts_about(artist.truth_id):
        if fact.predicate in ("name", "alias"):
            store.discard(fact)
    store.add(ExtendedTriple(artist.truth_id, "name", "Zzyzx Quorble"))
    retriever.reindex(view.apply_delta(ViewDelta(updated=frozenset({artist.truth_id}))))
    assert [c.entity_id for c in retriever.retrieve("Zzyzx Quorble")] == [artist.truth_id]
    assert not retriever.knows_name(normalize_string(artist.name))
    assert all(c.entity_id != artist.truth_id for c in retriever.retrieve(artist.name))


# --------------------------------------------------------------------- #
# contextual disambiguation
# --------------------------------------------------------------------- #
def test_ambiguous_mention_resolved_by_context(nerd_service, world):
    cities = world.of_type("city")
    by_name = {}
    for city in cities:
        by_name.setdefault(city.name, []).append(city)
    ambiguous = [group for group in by_name.values() if len(group) > 1]
    if not ambiguous:
        pytest.skip("world generated no ambiguous city names")
    group = ambiguous[0]
    target = group[0]
    country = world.get(target.facts["located_in"])
    result = nerd_service.link_mention(
        target.name,
        context_text=f"We visited {target.name} in {country.name} last spring.",
    )
    assert result.entity_id == target.truth_id
    assert result.candidate_count >= 2


def test_disambiguation_rejection_for_unknown_context(entity_view, monkeypatch):
    disambiguator = ContextualDisambiguator()
    context = MentionContext(mention="Some Entity")
    assert disambiguator.disambiguate(context, []).rejected
    # The best candidate is rejected exactly when it scores below the threshold.
    record = entity_view.records()[0]
    candidates = [Candidate(record=record, retrieval_score=1.0)]
    context = MentionContext(mention=record.names[0])
    score = disambiguator.score(context, record)
    monkeypatch.setattr(disambiguation, "REJECTION_THRESHOLD", score)
    assert disambiguator.disambiguate(context, candidates).entity_id == record.entity_id
    monkeypatch.setattr(disambiguation, "REJECTION_THRESHOLD", score + 1e-6)
    assert disambiguator.disambiguate(context, candidates).rejected


def test_disambiguator_fit_weak_supervision(entity_view, world):
    records = entity_view.records()[:20]
    examples = []
    for record in records:
        context = MentionContext(mention=record.names[0],
                                 context_text=" ".join(n for _, n in record.relations[:3]))
        examples.append((context, record, 1))
        negative = records[(records.index(record) + 7) % len(records)]
        examples.append((context, negative, 0))
    model = ContextualDisambiguator().fit(examples, epochs=30)
    assert model.trained
    positive_context, positive_record, _ = examples[0]
    assert model.score(positive_context, positive_record) > model.score(
        positive_context, examples[1][1]
    )
    with pytest.raises(NERDError):
        ContextualDisambiguator().fit([])


# --------------------------------------------------------------------- #
# service: mention generation, annotation, OBR protocol
# --------------------------------------------------------------------- #
def test_mention_generation_finds_known_names(nerd_service, world):
    artist = world.of_type("music_artist")[0]
    text = f"Yesterday {artist.name} announced a new tour."
    mentions = nerd_service.generate_mentions(text)
    assert any(m.text == artist.name for m in mentions)
    assert nerd_service.generate_mentions("") == []


def test_annotate_links_mentions_with_confidence(nerd_service, passages, world):
    correct = 0
    considered = 0
    for passage in passages[:40]:
        gold = passage.mentions[0]
        annotations = nerd_service.annotate(passage.text)
        overlapping = [
            a for a in annotations
            if a.mention.start < gold.end and gold.start < a.mention.end
        ]
        if not overlapping:
            continue
        considered += 1
        if overlapping[0].entity_id == gold.truth_id:
            correct += 1
    assert considered >= 30
    assert correct / considered > 0.8


def test_annotate_batch(nerd_service):
    results = nerd_service.annotate_batch(["nothing known here", ""])
    assert len(results) == 2


def test_nerd_resolve_satisfies_obr_protocol(nerd_service, world, ontology):
    label = world.of_type("record_label")[0]
    resolution = nerd_service.resolve(
        label.name,
        ResolutionContext(predicate="record_label", expected_types=("record_label",)),
    )
    assert resolution is not None
    assert resolution.entity_id == label.truth_id
    assert resolution.confidence > 0.5
    assert nerd_service.resolve("Unknown Gibberish Entity 999", ResolutionContext()) is None


def test_refresh_entities_keeps_service_fresh(reference_store, ontology, world):
    service = NERDService.from_store(reference_store, ontology)
    artist = world.of_type("music_artist")[0]
    service.apply_delta(ViewDelta(updated=frozenset({artist.truth_id})))
    result = service.link_mention(artist.name)
    assert result.entity_id == artist.truth_id


# --------------------------------------------------------------------- #
# legacy baseline behaviour (context-free, popularity-driven)
# --------------------------------------------------------------------- #
def test_legacy_linker_prefers_popular_entities(entity_view, ontology, world):
    linker = LegacyEntityLinker(entity_view, ontology)
    by_name = {}
    for city in world.of_type("city"):
        by_name.setdefault(city.name, []).append(city)
    ambiguous = [group for group in by_name.values() if len(group) > 1]
    if not ambiguous:
        pytest.skip("world generated no ambiguous city names")
    group = ambiguous[0]
    most_popular = max(group, key=lambda c: c.popularity)
    least_popular = min(group, key=lambda c: c.popularity)
    country = world.get(least_popular.facts["located_in"])
    result = linker.link_mention(
        least_popular.name,
        context_text=f"We visited {least_popular.name} in {country.name}.",
    )
    # The baseline ignores context, so it either picks the popular entity or
    # is not confident; it should NOT reliably recover the tail entity.
    assert result.entity_id != least_popular.truth_id or result.confidence < 0.7 or (
        most_popular.truth_id == least_popular.truth_id
    )


def test_popularity_disambiguator_scores_monotonic_in_importance(entity_view):
    records = entity_view.records()[:2]
    a, b = records[0], records[1]
    a.importance, b.importance = 0.9, 0.1
    disambiguator = PopularityDisambiguator()
    context = MentionContext(mention=a.names[0])
    assert disambiguator.score(context, a) > disambiguator.score(
        MentionContext(mention=a.names[0]), b
    )


def test_legacy_resolve_protocol(entity_view, ontology, world):
    linker = LegacyEntityLinker(entity_view, ontology)
    label = world.of_type("record_label")[0]
    resolution = linker.resolve(label.name, ResolutionContext(expected_types=("record_label",)))
    assert resolution is None or resolution.entity_id.startswith("truth:")
