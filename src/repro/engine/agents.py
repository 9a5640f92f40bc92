"""Orchestration agents: replay the shared log into each storage engine.

Section 3.1: an extensible orchestration-agent framework lets new storage or
compute engines be onboarded with small engineering effort.  Agents
encapsulate all store-specific logic; the surrounding framework (log reading,
payload fetching, watermark tracking) is generic.  Once every agent has
replayed a record, the coordinator hands the subject delta its publish
staged — a :class:`~repro.engine.views.ViewDelta`, stamped with the record's
LSN — to its listeners unchanged: nothing between publish and replica
re-derives which subjects an operation added, updated or deleted.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.engine.log import LogRecord, OperationLog
from repro.engine.metadata import MetadataStore
from repro.engine.object_store import ObjectStore
from repro.engine.views import ViewDelta
from repro.errors import EngineError


class OrchestrationAgent(ABC):
    """Base class for store-specific replay agents."""

    def __init__(self, name: str) -> None:
        if not name:
            raise EngineError("orchestration agent needs a non-empty name")
        self.name = name
        self.operations_applied = 0
        # Bounded: an agent failing on every record must not grow memory.
        self.errors: deque[str] = deque(maxlen=256)

    @abstractmethod
    def apply(self, record: LogRecord, payload: object) -> None:
        """Apply one log record (with its staged payload) to the store."""

    def on_error(self, record: LogRecord, error: Exception) -> None:
        """Record a replay failure; the coordinator will not advance the watermark."""
        self.errors.append(f"lsn={record.lsn}: {error}")


class CallbackAgent(OrchestrationAgent):
    """Adapter turning a plain callable into an orchestration agent."""

    def __init__(self, name: str, callback) -> None:
        super().__init__(name)
        self._callback = callback

    def apply(self, record: LogRecord, payload: object) -> None:
        self._callback(record, payload)


@dataclass
class ReplayReport:
    """What one coordinator pass replayed."""

    applied: dict[str, int] = field(default_factory=dict)   # agent name -> records applied
    failed: dict[str, int] = field(default_factory=dict)
    head_lsn: int = 0

    def total_applied(self) -> int:
        """Total records applied across agents."""
        return sum(self.applied.values())


class AgentCoordinator:
    """Drive every registered agent from its watermark to the log head."""

    def __init__(
        self,
        log: OperationLog,
        object_store: ObjectStore,
        metadata: MetadataStore,
    ) -> None:
        self.log = log
        self.object_store = object_store
        self.metadata = metadata
        self.agents: dict[str, OrchestrationAgent] = {}
        self.delta_listeners: list[Callable[[ViewDelta], None]] = []
        # Bounded: a listener failing on every publish must not grow memory.
        self.listener_errors: deque[str] = deque(maxlen=256)
        self._delivered_lsn = 0

    def add_delta_listener(self, listener: Callable[[ViewDelta], None]) -> None:
        """Call *listener* with each record's :class:`ViewDelta`.

        Listeners see records strictly in LSN order and exactly once, and only
        after the minimum watermark across all registered agents has passed
        the record — i.e. when every store is consistent with it.  Derived
        maintenance (view deltas) hangs off this hook so it never reads a
        store that has not replayed the operation yet.  The delta is the one
        the publish staged in the payload (``"delta"``), stamped with the
        record's LSN; a record without a payload delivers an empty delta.  A
        listener that raises is recorded in ``listener_errors`` (a bounded
        deque of the most recent 256); it neither unwinds replay nor causes
        redelivery.
        """
        self.delta_listeners.append(listener)

    def register(self, agent: OrchestrationAgent) -> OrchestrationAgent:
        """Register an agent; its watermark starts at 0 (full replay)."""
        if agent.name in self.agents:
            raise EngineError(f"agent {agent.name!r} is already registered")
        self.agents[agent.name] = agent
        self.metadata.update_watermark(agent.name, self.metadata.watermark(agent.name))
        return agent

    def replay(self, agent_names: list[str] | None = None) -> ReplayReport:
        """Replay pending log records on the selected (or all) agents.

        Each agent processes records strictly in LSN order starting after its
        own watermark, so independent stores may be at different versions but
        never see operations out of order.
        """
        report = ReplayReport(head_lsn=self.log.head_lsn())
        names = agent_names if agent_names is not None else sorted(self.agents)
        for name in names:
            agent = self.agents.get(name)
            if agent is None:
                raise EngineError(f"unknown orchestration agent {name!r}")
            watermark = self.metadata.watermark(name)
            applied = failed = 0
            for record in self.log.read_from(watermark):
                payload = (
                    self.object_store.get(record.payload_key)
                    if record.payload_key
                    else None
                )
                try:
                    agent.apply(record, payload)
                except Exception as exc:  # noqa: BLE001 - agent errors must not kill replay
                    agent.on_error(record, exc)
                    failed += 1
                    break
                agent.operations_applied += 1
                applied += 1
                self.metadata.update_watermark(name, record.lsn)
            report.applied[name] = applied
            if failed:
                report.failed[name] = failed
        self._notify_progress()
        return report

    def _notify_progress(self) -> None:
        if not self.delta_listeners or not self.agents:
            return
        fully_applied = min(self.metadata.watermark(name) for name in self.agents)
        if fully_applied <= self._delivered_lsn:
            return
        for record in self.log.read_from(self._delivered_lsn):
            if record.lsn > fully_applied:
                break
            payload = (
                self.object_store.get(record.payload_key) if record.payload_key else None
            )
            staged = payload["delta"] if payload is not None else ViewDelta()
            delta = replace(staged, first_lsn=record.lsn, last_lsn=record.lsn)
            for listener in self.delta_listeners:
                try:
                    listener(delta)
                except Exception as exc:  # noqa: BLE001 - replay already committed
                    # Stores applied this record; a derived-maintenance error
                    # must neither unwind replay nor cause redelivery.
                    self.listener_errors.append(f"lsn={record.lsn}: {exc}")
            self._delivered_lsn = record.lsn

    def freshness(self) -> dict[str, int]:
        """Per-store lag behind the log head, in operations."""
        head = self.log.head_lsn()
        return {name: head - self.metadata.watermark(name) for name in self.agents}
