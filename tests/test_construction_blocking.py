"""Tests for blocking and pair generation (repro.construction.blocking/pairs)."""


from repro.construction import blocking
from repro.construction.blocking import Blocker, name_prefix_keys, name_token_keys
from repro.construction.pairs import PairGenerator
from repro.construction.records import LinkableRecord


def record(record_id, name, entity_type="person", is_kg=False, **props):
    properties = {"name": [name]}
    for key, value in props.items():
        properties[key] = value if isinstance(value, list) else [value]
    return LinkableRecord(record_id=record_id, entity_type=entity_type,
                          properties=properties, is_kg=is_kg)


def test_blocking_key_functions():
    r = record("a", "Robert Smith")
    assert set(name_token_keys(r)) == {"tok:robert", "tok:smith"}
    assert name_prefix_keys(r) == ["pfx:robe"]


def test_similar_names_share_blocks():
    blocker = Blocker()
    records = [
        record("src:1", "Robert Smith"),
        record("kg:1", "Robert Smith", is_kg=True),
        record("src:2", "Completely Different"),
    ]
    blocks = blocker.block(records)
    together = [
        block for block in blocks
        if {"src:1", "kg:1"}.issubset({r.record_id for r in block.records})
    ]
    assert together, "matching records must share at least one block"
    assert any(block.has_mixed_origin for block in together)


def test_oversized_blocks_are_dropped(monkeypatch):
    records = [record(f"src:{i}", "Common Name") for i in range(10)]
    assert Blocker().block(records)
    monkeypatch.setattr(blocking, "MAX_BLOCK_SIZE", 3)
    assert Blocker().block(records) == []


def test_singleton_blocks_are_dropped():
    blocker = Blocker()
    blocks = blocker.block([record("src:1", "Unique Name Here")])
    assert blocks == []


def test_blocking_does_not_partition_by_type():
    # The linker scopes a run to compatible types itself; the blocker must
    # let a source "person" meet a KG "music_artist".
    records = [record("a", "Madison", entity_type="city"),
               record("b", "Madison", entity_type="person")]
    blocks = Blocker().block(records)
    assert [block.key for block in blocks] == ["pfx:madi", "tok:madison"]
    assert all([r.record_id for r in block.records] == ["a", "b"] for block in blocks)


def test_pair_generation_dedupes_and_skips_kg_kg():
    blocker = Blocker()
    records = [
        record("src:1", "Robert Smith"),
        record("src:2", "Robert Smith"),
        record("kg:1", "Robert Smith", is_kg=True),
        record("kg:2", "Robert Smith", is_kg=True),
    ]
    pairs = PairGenerator().generate(blocker.block(records))
    keys = {pair.key for pair in pairs}
    assert len(keys) == len(pairs)                      # dedupe across blocks
    assert ("kg:1", "kg:2") not in keys                 # KG-KG skipped
    assert any(pair.involves_kg for pair in pairs)


def test_pair_generation_keeps_pairs_of_different_types():
    records = [record("a", "Madison", entity_type="city"),
               record("b", "Madison", entity_type="person")]
    pairs = PairGenerator().generate(Blocker().block(records))
    assert [pair.key for pair in pairs] == [("a", "b")]
