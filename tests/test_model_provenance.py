"""Tests for provenance and trust metadata (repro.model.provenance)."""

from dataclasses import FrozenInstanceError

import pytest

from repro.errors import DataModelError
from repro.model.provenance import Provenance, SourceReference
from repro.model.triples import ExtendedTriple


def test_source_reference_validates_trust_bounds():
    SourceReference("src", 0.0)
    SourceReference("src", 1.0)
    with pytest.raises(DataModelError):
        SourceReference("src", 1.5)
    with pytest.raises(DataModelError):
        SourceReference("", 0.5)


def test_from_source_and_accessors():
    prov = Provenance.from_source("wiki", 0.9)
    assert prov.sources == ["wiki"]
    assert prov.trust_scores == [0.9]
    assert prov.trust_of("wiki") == 0.9
    assert prov.trust_of("other") is None
    assert "wiki" in prov
    assert len(prov) == 1


def test_add_is_idempotent_and_keeps_max_trust():
    prov = Provenance.from_source("wiki", 0.5)
    prov = prov.merge(Provenance.from_source("wiki", 0.8))
    assert prov.trust_of("wiki") == 0.8
    assert prov.merge(Provenance.from_source("wiki", 0.3)) is prov
    assert prov.trust_of("wiki") == 0.8
    assert len(prov) == 1


def test_merge_is_non_destructive():
    left = Provenance.from_source("a", 0.6)
    right = Provenance.from_source("b", 0.7)
    merged = left.merge(right)
    assert merged.sources == ["a", "b"]
    # original objects unchanged
    assert left.sources == ["a"]
    assert right.sources == ["b"]


def test_remove_source_enables_on_demand_deletion():
    prov = Provenance.from_mapping({"a": 0.5, "b": 0.6})
    remaining = prov.without("a")
    assert remaining.sources == ["b"]
    assert remaining.without("a") is remaining
    assert remaining.without("b").is_empty()


def test_restrict_to_allow_list():
    prov = Provenance.from_mapping({"a": 0.5, "b": 0.6, "c": 0.7})
    restricted = prov.restrict_to(["b", "c"])
    assert restricted.sources == ["b", "c"]
    assert prov.sources == ["a", "b", "c"]


def test_confidence_grows_with_agreement():
    single = Provenance.from_source("a", 0.6)
    double = Provenance.from_mapping({"a": 0.6, "b": 0.6})
    assert single.confidence() == pytest.approx(0.6)
    assert double.confidence() == pytest.approx(1 - 0.4 * 0.4)
    assert double.confidence() > single.confidence()


def test_confidence_of_empty_provenance_is_zero():
    assert Provenance().confidence() == 0.0
    assert Provenance().is_empty()


def test_copy_is_independent():
    """A value needs no copy: holders share it, and a change is a new value."""
    first = ExtendedTriple("kg:e1", "name", "A", provenance=Provenance.from_source("a", 0.5))
    second = first.copy()
    second.provenance = second.provenance.merge(Provenance.from_source("b", 0.5))
    assert first.sources == ["a"]
    assert second.sources == ["a", "b"]


def test_provenance_is_a_frozen_hashable_value():
    prov = Provenance.from_mapping({"a": 0.5, "b": 0.6})
    assert prov == Provenance.from_mapping({"a": 0.5, "b": 0.6})
    assert hash(prov) == hash(Provenance.from_mapping({"a": 0.5, "b": 0.6}))
    assert len({prov, Provenance.from_mapping({"a": 0.5, "b": 0.6})}) == 1
    assert isinstance(prov.references, tuple)
    with pytest.raises(FrozenInstanceError):
        prov.references = ()
    # merge and without return new values and leave the original unchanged
    merged = prov.merge(Provenance.from_mapping({"a": 0.9, "c": 0.4}))
    assert merged.sources == ["a", "b", "c"]
    assert merged.trust_of("a") == 0.9
    dropped = prov.without("a")
    assert dropped.sources == ["b"]
    assert prov == Provenance.from_mapping({"a": 0.5, "b": 0.6})
