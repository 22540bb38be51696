"""Flight recorder: a bounded black box of recent trace events.

Always-on tracing is too expensive to leave running in production, but
post-hoc debugging of an SLO breach needs exactly the traces that led
up to it.  The :class:`FlightRecorder` squares that circle: it is an
:class:`~repro.obs.events.EventSink` tee that keeps the last N events
in a ``deque(maxlen=N)`` ring buffer while forwarding every event to
the wrapped sink unchanged.  The system runs with tracing routed
through the recorder; on breach (or on demand) :meth:`dump` writes a
self-contained JSONL "black box":

1. a ``flight_recorder_dump`` header (reason, event count, capacity);
2. a ``run_snapshot`` event carrying the full registry snapshot, so
   ``repro trace`` renders the miss-cause table straight off the dump;
3. the SLO tracker's state, when one is attached;
4. the buffered events verbatim, oldest first — ``trace``/``span``
   events round-trip through :func:`repro.obs.traceview.build_traces`.

Attachment is via :func:`attach_flight_recorder`, which *forks* the
system's Instrumentation: the fork shares the metrics registry but gets
its own recorder-wrapped sink and tracing switched on with a fresh
trace serial, so recorder-enabled systems emit deterministic trace ids
regardless of what the surrounding run traced before.  When
``flight_recorder_events`` is 0 (the default) nothing is constructed —
the hot path pays one config test, the same bar as tracing.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from pathlib import Path
from typing import Optional, Union

from repro.obs.events import EventSink
from repro.obs.instrument import Instrumentation
from repro.obs.metrics import MetricsRegistry

__all__ = ["FlightRecorder", "attach_flight_recorder"]


class FlightRecorder(EventSink):
    """Ring-buffer sink tee: remembers the last ``capacity`` events."""

    def __init__(self, capacity: int, inner: Optional[EventSink] = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.inner = inner
        self._buffer: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def emit(self, event: dict) -> None:
        with self._lock:
            self._buffer.append(event)
        if self.inner is not None:
            self.inner.emit(event)

    def events(self) -> list[dict]:
        """The buffered events, oldest first."""
        with self._lock:
            return list(self._buffer)

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffer)

    def dump(
        self,
        path: Union[str, Path],
        registry: Optional[MetricsRegistry] = None,
        slo_state: Optional[dict] = None,
        reason: str = "on_demand",
    ) -> Path:
        """Write the black box to ``path`` (overwriting: the dump is a
        point-in-time artifact, and a later breach supersedes an earlier
        one).  Returns the path written."""
        path = Path(path)
        with self._lock:
            events = list(self._buffer)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            header = {
                "type": "flight_recorder_dump",
                "reason": reason,
                "events": len(events),
                "capacity": self.capacity,
            }
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            if registry is not None:
                snapshot_event = {
                    "type": "run_snapshot",
                    "source": "flight_recorder",
                    "metrics": registry.snapshot(),
                }
                handle.write(json.dumps(snapshot_event, sort_keys=True) + "\n")
            if slo_state is not None:
                handle.write(
                    json.dumps(
                        {"type": "slo_state", "slo": slo_state}, sort_keys=True
                    )
                    + "\n"
                )
            for event in events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        return path

    def close(self) -> None:
        # The recorder wraps a sink it does not own (the run's shared
        # JSONL sink, typically); closing must not cascade.
        pass


def attach_flight_recorder(
    obs: Instrumentation, capacity: int
) -> tuple[Instrumentation, FlightRecorder]:
    """Fork ``obs`` with a recorder tee'd in front of its sink and
    tracing forced on; returns ``(forked_obs, recorder)``.

    The fork shares the registry (metrics stay unified) but not the
    trace serial, so every recorder-enabled system starts its trace ids
    at 1 — deterministic dumps independent of surrounding activity.
    """
    recorder = FlightRecorder(capacity, obs.sink)
    return obs.fork(sink=recorder, tracing=True), recorder
