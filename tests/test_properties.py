"""Property-based tests (hypothesis) for core data structures and invariants."""

import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.construction import clustering
from repro.construction.clustering import CorrelationClustering, LinkageGraph
from repro.construction.records import LinkableRecord
from repro.engine.log import OperationLog
from repro.engine.text_index import InvertedTextIndex, TextDocument
from repro.live.kgq import parse
from repro.ml import similarity as sim
from repro.model.delta import compute_delta
from repro.model.entity import SourceEntity
from repro.model.provenance import Provenance
from repro.model.triples import ExtendedTriple, TripleStore

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

names = st.text(alphabet=string.ascii_letters + " '-", min_size=0, max_size=24)
source_ids = st.sampled_from(["wiki", "musicdb", "moviedb", "sportsref", "fanwiki"])
trusts = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# --------------------------------------------------------------------- #
# similarity functions
# --------------------------------------------------------------------- #
@SETTINGS
@given(names, names)
def test_similarity_functions_are_bounded_and_symmetric_enough(a, b):
    value = sim.jaro_winkler_similarity(a, b)
    assert 0.0 <= value <= 1.0
    assert abs(value - sim.jaro_winkler_similarity(b, a)) < 1e-9


@SETTINGS
@given(names)
def test_identity_similarity_is_one_for_nonempty_strings(text):
    if sim.normalize_string(text):
        assert sim.jaro_winkler_similarity(text, text) == 1.0


# --------------------------------------------------------------------- #
# provenance
# --------------------------------------------------------------------- #
@SETTINGS
@given(st.lists(st.tuples(source_ids, trusts), min_size=1, max_size=6))
def test_provenance_merge_is_idempotent_and_bounded(pairs):
    provenance = Provenance()
    for source_id, trust in pairs:
        provenance = provenance.merge(Provenance.from_source(source_id, trust))
    merged = provenance.merge(provenance)
    assert merged == provenance
    for source_id, _ in pairs:
        # a re-asserting source keeps its highest trust
        assert provenance.trust_of(source_id) == max(t for s, t in pairs if s == source_id)
    assert 0.0 <= provenance.confidence() <= 1.0
    assert len(set(provenance.sources)) == len(provenance.sources)


@SETTINGS
@given(st.lists(st.tuples(source_ids, trusts), min_size=1, max_size=6), source_ids)
def test_provenance_confidence_never_increases_when_removing_a_source(pairs, victim):
    provenance = Provenance()
    for source_id, trust in pairs:
        provenance = provenance.merge(Provenance.from_source(source_id, trust))
    before = provenance.confidence()
    assert provenance.without(victim).confidence() <= before + 1e-12


# --------------------------------------------------------------------- #
# triple store
# --------------------------------------------------------------------- #
triples = st.builds(
    lambda s, p, o, src, t: ExtendedTriple(
        subject=f"kg:{s}", predicate=p, obj=o,
        provenance=Provenance.from_source(src, t),
    ),
    st.integers(min_value=1, max_value=8).map(str),
    st.sampled_from(["name", "genre", "birth_date", "spouse", "popularity"]),
    st.one_of(names.filter(bool), st.integers(-5, 5)),
    source_ids,
    trusts,
)


@SETTINGS
@given(st.lists(triples, max_size=30))
def test_triple_store_deduplicates_by_fact_key(batch):
    store = TripleStore(batch)
    assert store.fact_count() == len({t.key() for t in batch})
    assert store.entity_count() == len({t.subject for t in batch})
    # every stored fact is retrievable via its subject index
    for triple in store:
        assert triple in store
        assert any(t.key() == triple.key() for t in store.facts_about(triple.subject))


@SETTINGS
@given(st.lists(triples, max_size=30), source_ids)
def test_triple_store_remove_source_leaves_no_orphan_provenance(batch, victim):
    store = TripleStore(batch)
    store.remove_source(victim)
    for triple in store:
        assert victim not in triple.provenance
        assert not triple.provenance.is_empty()


# --------------------------------------------------------------------- #
# delta computation
# --------------------------------------------------------------------- #
entities = st.lists(
    st.builds(
        lambda i, name, pop: SourceEntity(
            entity_id=f"src:{i}", entity_type="person",
            properties={"name": name or "x", "popularity": pop}, source_id="src",
        ),
        st.integers(min_value=1, max_value=12),
        names,
        trusts,
    ),
    max_size=12,
    unique_by=lambda e: e.entity_id,
)


@SETTINGS
@given(entities, entities)
def test_delta_partitions_are_disjoint_and_cover_changes(previous, current):
    delta = compute_delta("src", previous, current, volatile_predicates=["popularity"])
    added = {e.entity_id for e in delta.added}
    deleted = {e.entity_id for e in delta.deleted}
    updated = {e.entity_id for e in delta.updated}
    assert not (added & deleted)
    assert not (added & updated)
    assert not (deleted & updated)
    previous_ids = {e.entity_id for e in previous}
    current_ids = {e.entity_id for e in current}
    assert added == current_ids - previous_ids
    assert deleted == previous_ids - current_ids
    assert updated <= (previous_ids & current_ids)


@SETTINGS
@given(entities)
def test_delta_of_identical_snapshots_is_empty_modulo_volatile(snapshot):
    delta = compute_delta("src", snapshot, [e.copy() for e in snapshot],
                          volatile_predicates=["popularity"])
    assert not delta.added and not delta.deleted and not delta.updated


# --------------------------------------------------------------------- #
# correlation clustering
# --------------------------------------------------------------------- #
@SETTINGS
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9), st.booleans()), max_size=30),
       st.integers(0, 1000))
def test_correlation_clustering_partitions_all_nodes(edges, seed):
    graph = LinkageGraph()
    for left, right, positive in edges:
        if left == right:
            continue
        a = LinkableRecord(record_id=f"r{left}")
        b = LinkableRecord(record_id=f"r{right}")
        if positive:
            graph.add_positive(a, b)
        else:
            graph.add_negative(a, b)
    # A function-scoped monkeypatch fixture would span every example.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clustering, "CLUSTERING_SEED", seed)
        clusters = CorrelationClustering().cluster(graph)
    assigned = [node for cluster in clusters for node in cluster]
    assert sorted(assigned) == sorted(graph.node_ids())     # exactly one cluster per node


# --------------------------------------------------------------------- #
# operation log
# --------------------------------------------------------------------- #
@SETTINGS
@given(st.lists(st.sampled_from(["ingest_delta", "remove_source", "curation"]),
                min_size=1, max_size=20))
def test_operation_log_lsns_are_dense_and_ordered(operations):
    log = OperationLog()
    for operation in operations:
        log.append(operation)
    lsns = [record.lsn for record in log]
    assert lsns == list(range(1, len(operations) + 1))
    assert [r.lsn for r in log.read_from(len(operations) // 2)] == lsns[len(operations) // 2:]


# --------------------------------------------------------------------- #
# text index
# --------------------------------------------------------------------- #
@SETTINGS
@given(st.lists(st.tuples(st.integers(0, 20), names.filter(lambda s: sim.tokens(s))),
                min_size=1, max_size=20))
def test_text_index_search_returns_only_indexed_documents(docs):
    index = InvertedTextIndex()
    latest_text = {}
    for doc_id, text in docs:
        index.index(TextDocument(doc_id=f"d{doc_id}", text=text))
        latest_text[f"d{doc_id}"] = text
    for doc_id, text in latest_text.items():
        hits = index.search(text, k=50)
        assert all(hit.doc_id in index for hit in hits)
        if sim.tokens(text):
            assert any(hit.doc_id == doc_id for hit in hits)


# --------------------------------------------------------------------- #
# KGQ parse/render round trip
# --------------------------------------------------------------------- #
kgq_values = st.text(alphabet=string.ascii_letters + " ", min_size=1, max_size=12)


@SETTINGS
@given(st.sampled_from(["person", "city", "sports_game", "stock"]),
       st.sampled_from(["name", "ticker", "game_status"]),
       kgq_values,
       st.sampled_from(["=", "!=", "CONTAINS"]),
       st.integers(1, 50))
def test_kgq_parse_render_roundtrip(entity_type, predicate, value, operator, limit):
    text = (f'MATCH {entity_type} WHERE {predicate} {operator} "{value}" '
            f"RETURN {predicate} LIMIT {limit}")
    query = parse(text)
    assert parse(query.render()) == query
