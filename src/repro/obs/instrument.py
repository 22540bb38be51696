"""The Instrumentation facade: one registry + one sink + span timing.

Every instrumented component (system, engine, executor, disk archive)
holds an :class:`Instrumentation` and uses three things on it:

* ``obs.registry`` — aggregate metrics, whose handles the component
  binds once at construction from :mod:`repro.obs.catalog`;
* ``obs.event(type, **fields)`` — one structured event to the sink;
* ``with obs.span(name, **fields):`` — time a block, recording the
  duration in the ``span.<name>.seconds`` histogram (bound beforehand by
  :meth:`Instrumentation.bind_span`) and emitting a ``span`` event that
  carries its parent span's name, so nested spans (``flush`` →
  ``flush.phase1-regular``) can be re-assembled from the event stream.

Construction is cheap and the default sink is :class:`NullSink`, so
components can instrument unconditionally; turning observability "on"
means handing them a shared Instrumentation with a real sink.

Tracing rides on the same object.  With ``tracing=True``:

* ``with obs.trace(name, **fields):`` opens a new root trace with a
  deterministic id (see :mod:`repro.obs.trace`) and emits a
  ``{"type": "trace"}`` event when it closes;
* ``with obs.trace_span(name, **fields):`` times a child span of the
  current trace (a no-op when no trace is open);
* ``span()`` events emitted while a trace is open additionally carry
  ``trace``/``span``/``parent_span`` ids, which is how the pre-existing
  per-phase flush spans attach to their flush trace.

``attribution=True`` is a sibling switch read by the memory engines and
the query executor: engines keep an eviction-cause ledger and the
executor attributes every memory miss to the eviction decision that
caused it (``query.miss.cause.*``).  Both switches default to off, so
the default configuration pays nothing beyond one boolean test.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.catalog import Metric
from repro.obs.events import EventSink, NullSink
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import TraceContext

__all__ = ["Instrumentation"]


class Instrumentation:
    """A metrics registry and an event sink bound together."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        sink: Optional[EventSink] = None,
        *,
        tracing: bool = False,
        attribution: bool = False,
        trace_prefix: str = "",
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sink = sink if sink is not None else NullSink()
        #: Emit per-request trace trees (query/flush traces, child spans).
        self.tracing = tracing
        #: Maintain eviction ledgers and attribute memory misses to the
        #: eviction decision that caused them.
        self.attribution = attribution
        #: Namespace prepended to trace ids.  Serial ids are unique only
        #: within one Instrumentation; when several instances write into
        #: one merged file (parallel trial workers), each needs a
        #: distinct, *deterministic* prefix (e.g. ``"w003."``) so traces
        #: stay separable offline.
        self.trace_prefix = trace_prefix
        self._span_stack: list[str] = []
        #: Span name -> its ``span.<name>.seconds`` histogram.
        self._span_seconds: dict[str, Histogram] = {}
        self._trace: Optional[TraceContext] = None
        self._trace_serial = 0

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def event(self, type_: str, **fields) -> None:
        """Emit one structured event to the sink."""
        event = {"type": type_}
        event.update(fields)
        self.sink.emit(event)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def bind_span(self, metric: Metric, **labels) -> str:
        """Bind the declared ``span.<name>.seconds`` histogram ``metric``
        (with ``labels``); returns the span name to open with
        :meth:`span`."""
        name = metric.key(**labels)[len("span."):-len(".seconds")]
        self._span_seconds[name] = metric.bind(self.registry, **labels)
        return name

    @contextmanager
    def span(self, name: str, **fields) -> Iterator[None]:
        """Time a block of work.

        The wall-clock duration lands in the ``span.<name>.seconds``
        histogram (created now for a span :meth:`bind_span` never saw);
        the emitted ``span`` event records ``parent`` (the enclosing
        span's name, or None at top level) plus any extra ``fields``.
        While a trace is open, the event additionally carries
        ``trace``/``span``/``parent_span`` ids so the span slots into
        the trace tree.
        """
        seconds = self._span_seconds.get(name)
        if seconds is None:
            seconds = self._span_seconds[name] = self.registry.histogram(
                f"span.{name}.seconds"
            )
        parent = self._span_stack[-1] if self._span_stack else None
        self._span_stack.append(name)
        ctx = self._trace
        if ctx is not None:
            span_id = ctx.allocate_span()
            parent_span = ctx.current_span_id
            ctx.push(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._span_stack.pop()
            seconds.record(elapsed)
            if ctx is not None:
                ctx.pop()
                self.event(
                    "span",
                    name=name,
                    parent=parent,
                    seconds=elapsed,
                    trace=ctx.trace_id,
                    span=span_id,
                    parent_span=parent_span,
                    **fields,
                )
            else:
                self.event("span", name=name, parent=parent, seconds=elapsed, **fields)

    @property
    def current_span(self) -> Optional[str]:
        return self._span_stack[-1] if self._span_stack else None

    # ------------------------------------------------------------------
    # Traces
    # ------------------------------------------------------------------

    @contextmanager
    def trace(self, name: str, **fields) -> Iterator[Optional[TraceContext]]:
        """Open a new root trace around a block of work.

        Yields the :class:`TraceContext` (or None when tracing is off —
        callers that write to ``ctx.fields`` should gate on
        ``obs.tracing`` first).  The root ``{"type": "trace"}`` event is
        emitted when the block exits, carrying ``fields`` plus whatever
        the block added to ``ctx.fields``; child spans opened inside via
        :meth:`trace_span`/:meth:`span` reference it by trace id.
        """
        if not self.tracing:
            yield None
            return
        previous = self._trace
        self._trace_serial += 1
        ctx = TraceContext(f"{self.trace_prefix}{name}-{self._trace_serial}", name)
        self._trace = ctx
        try:
            with self._trace_node(ctx, name, fields, ctx.fields):
                yield ctx
        finally:
            self._trace = previous

    @contextmanager
    def trace_span(self, name: str, **fields) -> Iterator[Optional[dict]]:
        """Time a child span of the current trace.

        A no-op (yields None) when no trace is open, so instrumented
        components can call it unconditionally on request paths.  Yields
        a dict the block may add fields to; the merged fields ride on
        the span's ``{"type": "trace"}`` event at exit.
        """
        ctx = self._trace
        if ctx is None:
            yield None
            return
        extra: dict = {}
        with self._trace_node(ctx, name, fields, extra):
            yield extra

    @contextmanager
    def _trace_node(self, ctx: TraceContext, name: str, fields: dict, extra: dict):
        """Time one node of ``ctx``'s tree (the root when none is open) and
        emit its ``{"type": "trace"}`` event, with ``extra`` read at exit."""
        span_id = ctx.allocate_span()
        parent_span = ctx.current_span_id
        ctx.push(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            ctx.pop()
            self.event(
                "trace",
                trace=ctx.trace_id,
                span=span_id,
                parent_span=parent_span,
                name=name,
                seconds=elapsed,
                **fields,
                **extra,
            )

    @property
    def current_trace(self) -> Optional[TraceContext]:
        """The open trace context, or None."""
        return self._trace

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def fork(
        self,
        *,
        sink: Optional[EventSink] = None,
        tracing: Optional[bool] = None,
        attribution: Optional[bool] = None,
        trace_prefix: Optional[str] = None,
    ) -> "Instrumentation":
        """A sibling Instrumentation sharing this one's registry.

        Unspecified switches inherit; the sibling's trace serial starts
        fresh, so components that fork (e.g. the flight recorder wiring)
        get deterministic trace ids independent of how many traces the
        parent already emitted.
        """
        return Instrumentation(
            self.registry,
            sink if sink is not None else self.sink,
            tracing=self.tracing if tracing is None else tracing,
            attribution=self.attribution if attribution is None else attribution,
            trace_prefix=self.trace_prefix if trace_prefix is None else trace_prefix,
        )

    def close(self) -> None:
        self.sink.close()
