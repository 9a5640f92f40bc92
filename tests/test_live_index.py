"""Tests for the live KV store and inverted graph index."""

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
    assert store.ids_by_type("sports_game") == {"g1", "g2"}
    assert store.ids_by_type("") == {"u1"}
    assert store.ids_by_type("absent") == frozenset()
    assert [d.entity_id for d in store.by_type("sports_game")] == ["g1", "g2"]
    # get_many counts one batched read, not one per id.
    reads_before = store.reads
    store.get_many(["g1", "g2", "t1"])
    assert store.reads == reads_before + 1


def test_kv_store_type_change_moves_partition():
    store = GraphKVStore()
    store.put(doc("x1", "Thing", entity_type="draft"))
    assert store.ids_by_type("draft") == {"x1"}
    store.put(doc("x1", "Thing", entity_type="published", timestamp=2))
    assert store.ids_by_type("draft") == frozenset()     # empty partition pruned
    assert store.ids_by_type("published") == {"x1"}
    assert [d.entity_id for d in store.by_type("published")] == ["x1"]
    store.pop("x1")
    assert store.ids_by_type("published") == frozenset()


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
