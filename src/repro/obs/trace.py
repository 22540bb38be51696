"""Trace contexts: deterministic ids tying events of one request together.

A *trace* follows one logical operation — a top-k query or a flush
cycle — end to end: through the executor's single/OR/AND paths, the
sharded scatter-gather adapters, the disk tier's cache/run machinery,
and the per-phase flush spans.  Each trace is a tree of *spans*; every
span event carries ``(trace, span, parent_span)`` so the tree can be
reassembled offline from the JSONL event stream (see
:mod:`repro.obs.traceview` and the ``repro trace`` CLI).

Ids are **deterministic**: the trace id is ``<root-name>-<serial>``
where the serial is a per-:class:`~repro.obs.instrument.Instrumentation`
counter, and span ids are small integers allocated in entry order
within the trace.  No wall-clock, no randomness — two identical runs
produce identical id streams, which is what lets differential tests
diff whole trace files.

The context object itself is deliberately tiny: the heavy lifting
(timing, event emission, the tracing on/off gate) lives in
:meth:`Instrumentation.trace` / :meth:`Instrumentation.trace_span`,
so components touch tracing only through the shared Instrumentation
they already hold.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["TraceContext"]


class TraceContext:
    """One in-flight trace: its id plus the open-span stack.

    Span ids are allocated sequentially (the root is always span 0); the
    stack tracks the currently open span so a child knows its parent at
    entry time.  ``fields`` collects extra key/values callers attach to
    the *root* event before it closes (e.g. the executor stamps
    ``hit``/``disk_lookups`` on the query trace once the result exists).
    """

    __slots__ = ("trace_id", "root_name", "fields", "_next_span", "_stack")

    def __init__(self, trace_id: str, root_name: str) -> None:
        self.trace_id = trace_id
        self.root_name = root_name
        self.fields: dict = {}
        self._next_span = 0
        self._stack: list[int] = []

    def allocate_span(self) -> int:
        """Next span id (entry order, deterministic)."""
        span_id = self._next_span
        self._next_span += 1
        return span_id

    @property
    def current_span_id(self) -> Optional[int]:
        """Id of the innermost open span (None before the root opens)."""
        return self._stack[-1] if self._stack else None

    def push(self, span_id: int) -> None:
        self._stack.append(span_id)

    def pop(self) -> None:
        self._stack.pop()

    @property
    def span_count(self) -> int:
        """Spans allocated so far (root included)."""
        return self._next_span

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TraceContext({self.trace_id!r}, spans={self._next_span}, "
            f"open={len(self._stack)})"
        )
