"""In-memory span tracing, recorded by the harness around public calls.

A span is ``(name, start, end, parent, request_id)``.  The harness opens one
around each call into a layer; spans of one request (or one write cycle)
share a request id, and a span opened while another is open on the same
thread or asyncio task becomes its child.  Spans stay in memory until the run
ends; :meth:`Tracer.write` dumps them as JSON.

Untraced runs use :class:`NullTracer`, whose ``span()`` hands back one shared
no-op context manager, so the end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from contextlib import nullcontext

_NO_SPAN = -1


class _OpenSpan:
    """Context manager recording one span into its tracer on exit."""

    __slots__ = ("_tracer", "_name", "_request_id", "_record", "_token")

    def __init__(self, tracer: "Tracer", name: str, request_id: object) -> None:
        self._tracer = tracer
        self._name = name
        self._request_id = request_id

    def __enter__(self) -> "_OpenSpan":
        tracer = self._tracer
        record = [self._name, 0.0, 0.0, tracer._current.get(), self._request_id]
        with tracer._lock:
            index = len(tracer.spans)
            tracer.spans.append(record)
        self._record = record
        self._token = tracer._current.set(index)
        record[1] = record[2] = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._record[2] = time.perf_counter()
        self._tracer._current.reset(self._token)


class Tracer:
    """Records spans; one instance per traced run."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        # Threads and asyncio tasks each see their own current span.
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "bench_e2e_span", default=_NO_SPAN
        )

    def span(self, name: str, request_id: object = None) -> _OpenSpan:
        """Open a span named *name*; use as ``with tracer.span(...):``."""
        return _OpenSpan(self, name, request_id)

    def span_cost_us(self, samples: int = 2000) -> float:
        """Measured cost of opening and closing one span, in microseconds."""
        probe = Tracer()
        started = time.perf_counter()
        for _ in range(samples):
            with probe.span("probe"):
                pass
        return (time.perf_counter() - started) / samples * 1e6

    def write(self, path: str) -> None:
        """Dump every span as JSON (times in seconds since the first span)."""
        origin = min((span[1] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                [
                    {
                        "name": span[0],
                        "start_s": round(span[1] - origin, 6),
                        "end_s": round(span[2] - origin, 6),
                        "parent": span[3] if span[3] != _NO_SPAN else None,
                        "request_id": span[4],
                    }
                    for span in self.spans
                ],
                handle,
            )


class NullTracer:
    """The untraced run's tracer: every span is a shared no-op."""

    enabled = False
    _noop = nullcontext()

    def span(self, name: str, request_id: object = None) -> nullcontext:
        return self._noop
