"""Tests for the live KV store and inverted graph index."""

import dataclasses
from array import array
from types import SimpleNamespace

from repro.hashing import stable_hash
from repro.live.index import GraphKVStore, InvertedGraphIndex, LiveEntityDocument, LiveIndex
from repro.serving.router import ShardRouter


def doc(entity_id, name, entity_type="sports_game", timestamp=1, facts=None, refs=None,
        is_live=True):
    return LiveEntityDocument(
        entity_id=entity_id, entity_type=entity_type, name=name,
        facts=facts or {}, references=refs or {}, timestamp=timestamp, is_live=is_live,
    )


def test_document_value_accessors_and_merge():
    document = doc("g1", "Game 1", facts={"home_score": [3]}, refs={"home_team": "kg:t1"})
    assert document.value("home_score") == 3
    assert document.value("home_team") == "kg:t1"
    assert document.values("home_team") == ["kg:t1"]
    newer = doc("g1", "Game 1", timestamp=5, facts={"home_score": [7]})
    merged = document.merged(newer)
    assert merged.value("home_score") == 7
    assert merged.value("home_team") == "kg:t1"            # carried over
    assert document.value("home_score") == 3             # a new value, not an edit
    stale = doc("g1", "Game 1", timestamp=2, facts={"home_score": [1]})
    assert merged.merged(stale) is merged                # stale update ignored


def test_kv_store_lookups():
    store = GraphKVStore()
    for index in range(20):
        store.put(doc(f"g{index}", f"Game {index}"))
    assert len(store) == 20
    assert sorted(d.entity_id for d in store) == sorted(f"g{i}" for i in range(20))
    assert store.get("g3").name == "Game 3"
    assert store.get("missing") is None
    assert "g3" in store
    assert len(store.by_type("sports_game")) == 20
    assert store.pop("g3").name == "Game 3"
    assert store.pop("g3") is None
    assert len(store) == 19 and "g3" not in store


def test_kv_store_put_merges_same_entity():
    store = GraphKVStore()
    store.put(doc("g1", "Game 1", facts={"home_score": [0]}))
    store.put(doc("g1", "Game 1", timestamp=2, facts={"home_score": [5]}))
    assert len(store) == 1
    assert store.get("g1").value("home_score") == 5


def test_inverted_index_name_and_value_lookup():
    index = InvertedGraphIndex()
    game = doc("g1", "Springfield Wolves vs Hanover Hawks",
               facts={"game_status": ["final"]}, refs={"home_team": "kg:t1"})
    index.index_document(game)
    index.index_document(doc("t1", "Springfield Wolves", entity_type="sports_team"))
    assert index.lookup_name("Springfield Wolves") == {"t1"}
    assert index.search_name_tokens("springfield wolves") == {"g1", "t1"}
    assert index.search_name_tokens("hanover hawks") == {"g1"}
    assert index.search_name_tokens("unknown tokens") == set()
    assert index.lookup_value("game_status", "FINAL") == {"g1"}
    assert index.lookup_value("home_team", "kg:t1") == {"g1"}
    index.remove(game)
    assert index.search_name_tokens("hanover hawks") == set()


def test_live_index_maintains_both_structures():
    live = LiveIndex()
    live.upsert(doc("g1", "Madison Arena game", facts={"home_score": [1]}))
    assert len(live) == 1
    assert live.get("g1").value("home_score") == 1
    assert live.inverted.search_name_tokens("madison arena") == {"g1"}
    # Updates re-index the merged document.
    live.upsert(doc("g1", "Madison Arena game", timestamp=2, facts={"home_score": [9]}))
    assert live.get("g1").value("home_score") == 9
    assert live.delete("g1") is True
    assert live.get("g1") is None
    assert live.inverted.search_name_tokens("madison arena") == set()
    assert live.upsert_many([doc("a", "A"), doc("b", "B")]) == 2


def test_drop_feed_stops_serving_the_feed_and_forgets_its_watermark():
    live = LiveIndex()
    live.replace_feed("view:rows", [doc("r1", "Row One"), doc("r2", "Row Two")], lsn=4)
    live.upsert(doc("g1", "Other game"))
    assert live.watermark("view:rows") == 4
    assert live.drop_feed("view:rows") == 2
    assert live.feed_documents("view:rows") == set()
    assert live.get("r1") is None and live.get("g1") is not None
    assert live.watermark("view:rows") == 0
    assert live.drop_feed("view:rows") == 0


def test_replica_placement_is_process_stable():
    """Placement must not depend on PYTHONHASHSEED.

    Placement once went through the builtin ``hash``, which Python randomizes
    per process: two interpreters disagreed on where a key lives, so any
    layout shared across processes silently aliased.  The placement that
    exists — which replica owns a key or a query text — goes through
    :func:`repro.hashing.stable_hash` and the ring of
    :meth:`repro.serving.router.ShardRouter.owners`: two fresh interpreters
    launched with *different* hash seeds must agree byte for byte, with each
    other and with this process.
    """
    import json
    import os
    import pathlib
    import subprocess
    import sys

    import repro

    snippet = (
        "import json\n"
        "from types import SimpleNamespace\n"
        "from repro.hashing import stable_hash\n"
        "from repro.serving.router import ShardRouter\n"
        "router = ShardRouter(lambda: 0)\n"
        "for name in ('replica-0', 'replica-1', 'replica-2'):\n"
        "    router.add_replica(SimpleNamespace(name=name))\n"
        "keys = [f'entity:{i:03d}' for i in range(64)]\n"
        "print(json.dumps([[stable_hash(k), router.owners(k)] for k in keys]))\n"
    )
    src_dir = str(pathlib.Path(repro.__file__).resolve().parents[1])
    layouts = []
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONPATH=src_dir, PYTHONHASHSEED=hash_seed)
        output = subprocess.run(
            [sys.executable, "-c", snippet],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        layouts.append(json.loads(output))
    assert layouts[0] == layouts[1]

    router = ShardRouter(lambda: 0)
    for name in ("replica-0", "replica-1", "replica-2"):
        router.add_replica(SimpleNamespace(name=name))
    keys = [f"entity:{i:03d}" for i in range(64)]
    assert [[stable_hash(k), router.owners(k)] for k in keys] == layouts[0]
    assert {owners[0] for _, owners in layouts[0]} == set(router.replicas)   # keys spread


def test_kv_store_get_many_and_type_partitions():
    store = GraphKVStore()
    store.put(doc("g1", "Game 1"))
    store.put(doc("g2", "Game 2"))
    store.put(doc("t1", "Team 1", entity_type="sports_team"))
    store.put(doc("u1", "Untyped", entity_type=""))
    fetched = store.get_many(["g2", "missing", "g1", "g2"])
    assert sorted(fetched) == ["g1", "g2"]
    assert fetched["g2"].name == "Game 2"
    assert [d.entity_id for d in store.by_type("sports_game")] == ["g1", "g2"]
    assert [d.entity_id for d in store.by_type("")] == ["u1"]
    assert store.by_type("absent") == []
    # get_many counts one batched read, not one per id.
    reads_before = store.reads
    store.get_many(["g1", "g2", "t1"])
    assert store.reads == reads_before + 1


def test_kv_store_type_change_moves_partition():
    store = GraphKVStore()
    store.put(doc("x1", "Thing", entity_type="draft"))
    assert [d.entity_id for d in store.by_type("draft")] == ["x1"]
    store.put(doc("x1", "Thing", entity_type="published", timestamp=2))
    assert store.by_type("draft") == []
    assert store.partition_feeds("draft") == []          # empty partition pruned
    assert [d.entity_id for d in store.by_type("published")] == ["x1"]
    store.pop("x1")
    assert store.by_type("published") == []


def test_kv_store_partitions_are_per_feed_and_in_id_order():
    store = GraphKVStore()
    for entity_id, feed in (("g3", "view:a"), ("g1", "view:b"), ("g2", "view:a"), ("g0", "view:a")):
        store.replace(dataclasses.replace(doc(entity_id, entity_id), source_id=feed))
    assert store.partition("view:a", "sports_game") == ["g0", "g2", "g3"]
    assert store.partition("view:b", "sports_game") == ["g1"]
    assert sorted(store.partition_feeds("sports_game")) == ["view:a", "view:b"]
    assert [d.entity_id for d in store.by_type("sports_game")] == ["g0", "g1", "g2", "g3"]
    store.replace(dataclasses.replace(doc("g2", "g2"), source_id="view:b"))   # moves feed
    assert store.partition("view:a", "sports_game") == ["g0", "g3"]
    assert store.partition("view:b", "sports_game") == ["g1", "g2"]
    store.pop("g0")
    assert store.partition("view:a", "sports_game") == ["g3"]


def test_kv_store_numeric_column_bounds_and_staleness():
    store = GraphKVStore()
    rows = {
        "a": {"score": [3, "7.5", "x"]},
        "b": {"score": ["nan"]},
        "c": {},
        "d": {"score": [True, -2]},
    }
    for entity_id, facts in rows.items():
        store.replace(doc(entity_id, entity_id, facts=facts))
    low, high = store.numeric_column("", "sports_game", "score")
    inf = float("inf")
    assert list(low) == [3.0, inf, inf, -2.0]
    assert list(high) == [7.5, -inf, -inf, 1.0]
    assert store.numeric_column("", "sports_game", "score")[0] is low     # cached
    store.replace(doc("c", "c", facts={"score": [10]}))
    low, high = store.numeric_column("", "sports_game", "score")
    assert list(high) == [7.5, -inf, 10.0, 1.0]
    assert store.numeric_column("", "absent", "score") == (array("d"), array("d"))


def test_kv_store_value_column_holds_hop_values_and_goes_stale():
    store = GraphKVStore()
    rows = {
        "a": ({"score": [3]}, {}),
        "b": ({"score": [1, "two"]}, {"score": "a"}),
        "c": ({}, {}),
        "d": ({}, {"score": "b"}),
    }
    for entity_id, (facts, refs) in rows.items():
        store.replace(doc(entity_id, "", facts=facts, refs=refs))
    single, many = store.value_column("", "sports_game", "score")
    assert single == [3, None, None, "b"]
    assert many == {1: (1, "two", "a")}
    assert store.value_column("", "sports_game", "score")[0] is single     # cached
    # the name hop reads the document's name, and facts only without one
    store.replace(doc("c", "Gamma"))
    assert store.value_column("", "sports_game", "name") == (
        [None, None, "Gamma", None], {}
    )
    assert store.value_column("", "sports_game", "score")[0] == [3, None, None, "b"]
    assert store.value_column("", "absent", "score") == ([], {})


def test_kv_store_display_reads_names_at_read_time():
    store = GraphKVStore()
    store.replace(doc("t1", "Wolves"))
    store.replace(doc("t2", ""))
    assert store.display(["t1", "t2", "t3", 1, None]) == ["Wolves", "t2", "t3", 1, None]
    untouched = ["t3", 2.5]
    assert store.display(untouched) is untouched
    assert store.display([["t1"], "t1"]) == [["t1"], "Wolves"]     # unhashable values
    store.replace(doc("t1", "Hawks"))
    assert store.display(["t1"]) == ["Hawks"]


def test_live_index_seed_selectivity_reports_postings_sizes():
    live = LiveIndex()
    live.upsert(doc("g1", "Alpha", facts={"status": ["final"]}))
    live.upsert(doc("g2", "Alpha", facts={"status": ["final"]}))
    live.upsert(doc("g3", "Beta", facts={"status": ["live"]}))
    assert live.seed_selectivity("status", "FINAL") == 2
    assert live.seed_selectivity("status", "live") == 1
    assert live.seed_selectivity("name", "alpha") == 2
    assert live.seed_selectivity("name", "Beta") == 1
    assert live.seed_selectivity("status", "unseen") == 0
