"""Tests for the log, object store, metadata store, and orchestration agents."""

import pytest

from repro.engine.agents import AgentCoordinator, OrchestrationAgent
from repro.engine.log import OperationLog
from repro.engine.metadata import MetadataStore
from repro.engine.object_store import ObjectStore
from repro.errors import EngineError, LogError, StoreError


# --------------------------------------------------------------------- #
# OperationLog
# --------------------------------------------------------------------- #
def test_log_appends_with_monotonic_lsns():
    log = OperationLog()
    first = log.append("ingest_delta", source_id="musicdb")
    second = log.append("ingest_delta", source_id="wiki")
    assert (first.lsn, second.lsn) == (1, 2)
    assert log.head_lsn() == 2
    assert len(log) == 2


def test_log_read_from_and_get():
    log = OperationLog()
    for index in range(5):
        log.append("op", metadata={"index": index})
    assert [record.lsn for record in log.read_from(2)] == [3, 4, 5]
    assert [record.lsn for record in log.read_from(0)] == [1, 2, 3, 4, 5]
    assert log.read_from(5) == [] and log.read_from(99) == []
    tail = log.read_from(3)
    tail.clear()                      # a copy: the caller may not reach the log through it
    assert len(log) == 5
    assert log.get(3).metadata == {"index": 2}
    with pytest.raises(LogError):
        log.get(99)
    with pytest.raises(LogError):
        log.append("")


# --------------------------------------------------------------------- #
# ObjectStore
# --------------------------------------------------------------------- #
def test_object_store_put_get_delete():
    store = ObjectStore()
    key = store.put({"subjects": ["kg:e1"]})
    assert key in store
    assert store.get(key) == {"subjects": ["kg:e1"]}
    explicit = store.put([1, 2], key="payload/custom")
    assert explicit == "payload/custom"
    assert store.delete(key) is True
    assert store.delete(key) is False
    with pytest.raises(StoreError):
        store.get(key)
    assert store.puts == 2 and store.gets >= 1


# --------------------------------------------------------------------- #
# MetadataStore
# --------------------------------------------------------------------- #
def test_metadata_watermarks_and_freshness():
    metadata = MetadataStore()
    metadata.update_watermark("analytics", 5)
    metadata.update_watermark("analytics", 3)          # never goes backwards
    metadata.update_watermark("text_index", 7)
    assert metadata.watermark("analytics") == 5
    assert metadata.minimum_watermark() == 5
    assert metadata.is_fresh("text_index", 6)
    assert not metadata.is_fresh("analytics", 6)
    assert metadata.lagging_stores(7) == {"analytics": 2}


# --------------------------------------------------------------------- #
# AgentCoordinator
# --------------------------------------------------------------------- #
class RecordingAgent(OrchestrationAgent):
    def __init__(self, name, fail_on_lsn=None):
        super().__init__(name)
        self.seen = []
        self.fail_on_lsn = fail_on_lsn

    def apply(self, record, payload):
        if self.fail_on_lsn == record.lsn:
            raise RuntimeError("boom")
        self.seen.append((record.lsn, payload))


def make_coordinator():
    log = OperationLog()
    objects = ObjectStore()
    metadata = MetadataStore()
    return log, objects, metadata, AgentCoordinator(log, objects, metadata)


def test_coordinator_replays_in_order_and_tracks_watermarks():
    log, objects, metadata, coordinator = make_coordinator()
    agent = coordinator.register(RecordingAgent("store_a"))
    key = objects.put({"v": 1})
    log.append("ingest_delta", payload_key=key)
    log.append("ingest_delta")
    report = coordinator.replay()
    assert report.applied == {"store_a": 2}
    assert [lsn for lsn, _ in agent.seen] == [1, 2]
    assert agent.seen[0][1] == {"v": 1}
    assert metadata.watermark("store_a") == 2
    # Replaying again with no new records is a no-op.
    assert coordinator.replay().total_applied() == 0


def test_coordinator_registers_each_agent_once():
    _, _, _, coordinator = make_coordinator()
    coordinator.register(RecordingAgent("store_a"))
    with pytest.raises(EngineError):
        coordinator.register(RecordingAgent("store_a"))
    with pytest.raises(EngineError):
        coordinator.replay(["unknown"])


def test_failed_agent_stops_at_failure_but_others_progress():
    log, objects, metadata, coordinator = make_coordinator()
    flaky = coordinator.register(RecordingAgent("flaky", fail_on_lsn=2))
    coordinator.register(RecordingAgent("healthy"))
    for _ in range(3):
        log.append("ingest_delta")
    report = coordinator.replay()
    assert report.applied["healthy"] == 3
    assert report.applied["flaky"] == 1
    assert report.failed["flaky"] == 1
    assert metadata.watermark("flaky") == 1
    assert flaky.errors and "boom" in flaky.errors[0]
    assert coordinator.freshness() == {"flaky": 2, "healthy": 0}


def test_agent_error_log_is_bounded():
    """An agent failing on every replay keeps only its newest 256 errors."""
    log, _, metadata, coordinator = make_coordinator()
    stuck = coordinator.register(RecordingAgent("stuck", fail_on_lsn=1))
    log.append("ingest_delta")
    for _ in range(300):
        assert coordinator.replay().failed == {"stuck": 1}
    assert len(stuck.errors) == 256
    assert metadata.watermark("stuck") == 0


def test_callback_agent_and_lagging_store_catches_up():
    """An agent registered late replays the log from its start; the agent
    called back from the first record sees each record once."""
    log, objects, metadata, coordinator = make_coordinator()
    early = coordinator.register(RecordingAgent("early"))
    log.append("ingest_delta")
    coordinator.replay()
    coordinator.register(RecordingAgent("late"))
    log.append("ingest_delta")
    report = coordinator.replay()
    assert report.applied["late"] == 2          # replays from the beginning
    assert [lsn for lsn, _ in early.seen] == [1, 2]
