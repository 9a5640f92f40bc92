"""Replicas in one process hold a served row's document once, not once each.

``SagaPlatform.start_serving_fleet`` ships a row view of the tier-1 world to
3 replicas: the snapshot to the first, and the other two start from a copy
of its index, which shares its documents and its tuple postings.  A delta
batch decodes once for every replica, so after the snapshot and after a
delta flush all three hold the same objects; and ``tracemalloc`` bounds the
bytes the started fleet retains per served row, since the indexes keep no
reverse map of what those documents say, hold a small posting or adjacency
row without a set or bitmap, and are built once per fleet.
"""

from __future__ import annotations

import gc
import sys
import threading
import tracemalloc

from repro import SagaPlatform
from repro.datagen import world_to_store
from repro.engine.views import ViewDefinition, ViewDelta
from repro.model.triples import ExtendedTriple
from repro.serving import shipping
from repro.serving.shipping import ShipmentBatch

#: Retained bytes per served row with 3 replicas: 5,825 measured on
#: CPython 3.11, plus 20 %.  Building every replica's index from the
#: snapshot instead of copying the first one's retained 6,371; a set per
#: posting and a bigint bitmap per adjacency row retained 12.2 k; decoding
#: per replica and keeping per-replica reverse maps of posting keys and
#: edges retained 20.8 k.
BYTES_PER_ROW_BOUND = 7_000


def register_profile_view(engine) -> None:
    """``profile``: one row per subject carrying all of its facts."""
    triples = engine.triples

    def row_of(subject: str) -> dict:
        row: dict = {"subject": subject}
        for fact in triples.facts_about(subject):
            if fact.predicate == "type":
                row.setdefault("types", []).append(str(fact.obj))
            elif fact.predicate == "name" and "name" not in row:
                row["name"] = str(fact.obj)
            else:
                row.setdefault(fact.predicate, []).append(fact.obj)
        return row

    def create(context):
        return {subject: row_of(subject) for subject in sorted(triples.subjects())}

    def apply_delta(context, delta: ViewDelta):
        artifact = dict(context.artifact("profile"))
        for subject in delta.changed:
            artifact[subject] = row_of(subject)
        for subject in delta.deleted:
            artifact.pop(subject, None)
        return artifact

    engine.register_view(ViewDefinition("profile", "analytics", create=create,
                                        apply_delta=apply_delta))


def serving_platform(store) -> SagaPlatform:
    platform = SagaPlatform()
    engine = platform.graph_engine
    engine.publish_store(store)
    register_profile_view(engine)
    engine.materialize_views()
    return platform


def test_replicas_hold_the_same_document_objects(world):
    store = world_to_store(world)
    platform = serving_platform(store)
    engine = platform.graph_engine
    fleet = platform.start_serving_fleet(views=["profile"], num_replicas=3)
    try:
        changed = sorted(store.subjects())[:3]
        for subject in changed:
            store.add(ExtendedTriple(subject, "rank", 99))
        engine.publish_subjects(store, changed)
        engine.update_views()
        assert fleet.drain()
        assert fleet.shipper.snapshots_shipped == 1       # the rank came as a delta
        replicas = list(fleet.replicas.values())
        for subject in engine.view_artifact("profile"):
            held = [node.get("profile", subject) for node in replicas]
            assert held[0] is not None
            assert all(document is held[0] for document in held), subject
        assert [replicas[0].get("profile", s).value("rank") for s in changed] == [99] * 3
    finally:
        platform.stop_serving_fleet()


def test_seeded_replicas_share_the_first_replicas_postings(world):
    """Replicas 1 and 2 start from a copy of replica 0's index: each holds
    the very tuple of a multi-member posting that replica 0 built, and a set
    of its own."""
    platform = serving_platform(world_to_store(world))
    fleet = platform.start_serving_fleet(views=["profile"], num_replicas=3)
    try:
        first, *others = (
            fleet.replicas[name].index.inverted._postings() for name in sorted(fleet.replicas)
        )
        tuples = sets = 0
        for postings in others:
            for mine, theirs in zip(postings, first):
                assert mine == theirs
                for key, held in theirs.items():
                    if held.__class__ is tuple:
                        assert mine[key] is held, key
                        tuples += 1
                    elif held.__class__ is set:
                        assert mine[key] is not held, key
                        sets += 1
        assert tuples and sets
    finally:
        platform.stop_serving_fleet()


def test_concurrent_appliers_decode_a_batch_once(monkeypatch):
    """Replica threads racing on one batch share a single decode."""
    decodes = []
    decode = shipping.view_row_documents

    def counted(*args):
        decodes.append(args[0])
        return decode(*args)

    monkeypatch.setattr(shipping, "view_row_documents", counted)
    batch = ShipmentBatch(
        kind="snapshot", view_name="v", lsn=3,
        rows=tuple({"subject": f"s{i}", "name": f"name {i}"} for i in range(300)),
    )
    seen = []
    threads = [threading.Thread(target=lambda: seen.append(batch.documents()))
               for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert decodes == ["v"]
    assert len(seen) == 8 and all(documents is seen[0] for documents in seen)
    assert len(seen[0]) == 300


def test_fleet_start_retains_bounded_bytes_per_served_row(world):
    platform = serving_platform(world_to_store(world))
    engine = platform.graph_engine
    rows = len(engine.view_artifact("profile"))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        platform.start_serving_fleet(views=["profile"], num_replicas=3)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        platform.stop_serving_fleet()
    assert retained / rows <= BYTES_PER_ROW_BOUND, f"{retained / rows:.0f} bytes per row"
