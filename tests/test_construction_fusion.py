"""Tests for fusion (repro.construction.fusion)."""

import pytest

from repro.construction import fusion as fusion_module
from repro.construction.fusion import RELATIONSHIP_OVERLAP_THRESHOLD, Fusion
from repro.model.provenance import Provenance
from repro.model.triples import ExtendedTriple, TripleStore


def triple(subject, predicate, obj, source="wiki", trust=0.9, r_id=None, r_pred=None):
    return ExtendedTriple(
        subject=subject, predicate=predicate, obj=obj,
        relationship_id=r_id, relationship_predicate=r_pred,
        provenance=Provenance.from_source(source, trust),
    )


@pytest.fixture
def fusion(ontology):
    return Fusion(ontology)


def test_fuse_added_outer_joins_simple_facts(fusion):
    store = TripleStore([triple("kg:e1", "name", "Artist A", source="wiki")])
    report = fusion.fuse_added(store, {
        "kg:e1": [
            triple("kg:e1", "name", "Artist A", source="musicdb"),   # same fact, new source
            triple("kg:e1", "genre", "pop", source="musicdb"),       # new fact
        ]
    })
    assert report.facts_reinforced == 1
    assert report.facts_added == 1
    name_fact = store.facts_with_predicate("name")[0]
    assert sorted(name_fact.sources) == ["musicdb", "wiki"]


def test_fuse_added_records_same_as_links(fusion):
    store = TripleStore()
    fusion.fuse_added(store, {"kg:e1": [triple("kg:e1", "name", "A", source="musicdb")]},
                      same_as=[("kg:e1", "musicdb:artist/1")])
    assert store.values_of("kg:e1", "same_as") == ["musicdb:artist/1"]


def test_relationship_nodes_merge_when_overlapping(fusion):
    store = TripleStore([
        triple("kg:e1", "educated_at", "UW", r_id="rel:old", r_pred="school"),
        triple("kg:e1", "educated_at", "PhD", r_id="rel:old", r_pred="degree"),
    ])
    report = fusion.fuse_added(store, {
        "kg:e1": [
            triple("kg:e1", "educated_at", "UW", source="musicdb", r_id="rel:new", r_pred="school"),
            triple("kg:e1", "educated_at", 2005, source="musicdb", r_id="rel:new", r_pred="year"),
        ]
    })
    assert report.relationship_nodes_merged == 1
    nodes = store.relationship_facts("kg:e1", "educated_at")
    assert set(nodes) == {"rel:old"}                     # merged onto the existing node
    predicates = {t.relationship_predicate for t in nodes["rel:old"]}
    assert predicates == {"school", "degree", "year"}


def test_relationship_nodes_added_when_disjoint(fusion):
    store = TripleStore([
        triple("kg:e1", "educated_at", "UW", r_id="rel:old", r_pred="school"),
    ])
    report = fusion.fuse_added(store, {
        "kg:e1": [
            triple("kg:e1", "educated_at", "MIT", source="musicdb", r_id="rel:new", r_pred="school"),
        ]
    })
    assert report.relationship_nodes_added == 1
    assert set(store.relationship_facts("kg:e1", "educated_at")) == {"rel:old", "rel:new"}


def test_fuse_updated_retracts_previous_source_contribution(fusion):
    store = TripleStore()
    fusion.fuse_added(store, {"kg:e1": [
        triple("kg:e1", "genre", "pop", source="musicdb"),
        triple("kg:e1", "name", "A", source="wiki"),
    ]})
    report = fusion.fuse_updated(store, "musicdb", {"kg:e1": [
        triple("kg:e1", "genre", "indie", source="musicdb"),
    ]})
    assert report.facts_removed == 1
    assert store.values_of("kg:e1", "genre") == ["indie"]
    assert store.values_of("kg:e1", "name") == ["A"]     # other source untouched


def test_fuse_deleted_only_removes_that_sources_facts(fusion):
    store = TripleStore()
    fusion.fuse_added(store, {"kg:e1": [
        triple("kg:e1", "genre", "pop", source="musicdb"),
        triple("kg:e1", "genre", "pop", source="wiki"),
        triple("kg:e1", "duration_seconds", 200, source="musicdb"),
    ]})
    report = fusion.fuse_deleted(store, "musicdb", ["kg:e1"])
    assert report.facts_removed == 1                      # duration lost, genre survives via wiki
    assert store.values_of("kg:e1", "genre") == ["pop"]
    assert store.value_of("kg:e1", "duration_seconds") is None


def test_fuse_volatile_overwrites_partition(fusion):
    store = TripleStore()
    fusion.fuse_added(store, {"kg:e1": [
        triple("kg:e1", "popularity", 0.5, source="musicdb"),
        triple("kg:e1", "name", "A", source="musicdb"),
    ]})
    report = fusion.fuse_volatile(store, "musicdb", {"kg:e1": [
        triple("kg:e1", "popularity", 0.9, source="musicdb"),
    ]})
    assert report.facts_removed == 1
    assert store.value_of("kg:e1", "popularity") == 0.9
    assert store.value_of("kg:e1", "name") == "A"


def test_fuse_volatile_leaves_an_unchanged_partition_alone(fusion):
    """Only an equal predicate, value and provenance is left in place: the
    same value at another trust, or a value another source also holds, is
    still the source's to rewrite."""
    store = TripleStore()
    fusion.fuse_added(store, {"kg:e1": [
        triple("kg:e1", "popularity", 0.5, source="musicdb", trust=0.8),
        triple("kg:e1", "popularity", 0.5, source="wiki", trust=0.7),
    ]})
    version = store.version
    same = {"kg:e1": [triple("kg:e1", "popularity", 0.5, source="musicdb", trust=0.8)]}
    report = fusion.fuse_volatile(store, "musicdb", same)
    assert store.version == version
    assert not report.subjects_touched
    assert report.facts_added == report.facts_removed == report.facts_reinforced == 0

    retrusted = {"kg:e1": [triple("kg:e1", "popularity", 0.5, source="musicdb", trust=0.6)]}
    report = fusion.fuse_volatile(store, "musicdb", retrusted)
    assert report.subjects_touched == {"kg:e1"}
    [fact] = store.facts_about("kg:e1")
    assert fact.provenance.trust_of("musicdb") == 0.6
    assert fact.provenance.trust_of("wiki") == 0.7


def test_functional_conflicts_are_scored_by_truth_discovery(fusion):
    store = TripleStore()
    fusion.fuse_added(store, {"kg:e1": [
        triple("kg:e1", "birth_date", "1980-01-01", source="wiki", trust=0.9),
        triple("kg:e1", "birth_date", "1980-01-01", source="musicdb", trust=0.8),
        triple("kg:e1", "birth_date", "1999-09-09", source="fanwiki", trust=0.3),
    ]})
    result = fusion.resolve_functional_conflicts(store, ["kg:e1"])
    assert result.best_value(("kg:e1", "birth_date")) == "1980-01-01"
    assert fusion.last_truth_result is result


def test_fusion_config_threshold_controls_merging(ontology, monkeypatch):
    def fuse_half_overlapping_node():
        store = TripleStore([
            triple("kg:e1", "educated_at", "UW", r_id="rel:old", r_pred="school"),
            triple("kg:e1", "educated_at", "PhD", r_id="rel:old", r_pred="degree"),
        ])
        return Fusion(ontology).fuse_added(store, {"kg:e1": [
            triple("kg:e1", "educated_at", "UW", source="musicdb", r_id="rel:new",
                   r_pred="school"),
            triple("kg:e1", "educated_at", 2001, source="musicdb", r_id="rel:new",
                   r_pred="year"),
        ]})

    # One of two facts shared: an overlap of exactly 0.5, and the bound is inclusive.
    assert RELATIONSHIP_OVERLAP_THRESHOLD == 0.5
    assert fuse_half_overlapping_node().relationship_nodes_merged == 1
    monkeypatch.setattr(fusion_module, "RELATIONSHIP_OVERLAP_THRESHOLD", 0.99)
    report = fuse_half_overlapping_node()
    assert (report.relationship_nodes_merged, report.relationship_nodes_added) == (0, 1)
