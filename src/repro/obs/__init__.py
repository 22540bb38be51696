"""Observability: metrics, spans, and structured events (``repro.obs``).

The instrumentation substrate every performance PR reports against — see
``docs/OBSERVABILITY.md`` for the metric and event schema, and
:mod:`repro.obs.catalog` for the one declaration of every metric.  The
package is dependency-free and always-on: components hold an
:class:`Instrumentation` (registry + sink) and record into handles bound
at construction; the default :class:`NullSink` makes the event side free
until an entry point opts in via :func:`activated` or an explicit sink.

Nothing here starts a thread or serves a socket: a run's metrics leave
the process as a snapshot (``repro stats --format prom`` for Prometheus
text, ``repro run --metrics-out`` for a JSONL stream that ``repro
trace`` reads back); see ``docs/PERFORMANCE.md``, "Why there is no SLO
tracker, flight recorder or ops server".
"""

from repro.obs.events import EventSink, JsonlSink, ListSink, NullSink
from repro.obs.export import to_json, to_prometheus_text
from repro.obs.instrument import Instrumentation
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile_from_buckets,
)
from repro.obs.runtime import activated, get_active, set_active
from repro.obs.trace import TraceContext

__all__ = [
    "Counter",
    "EventSink",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "JsonlSink",
    "ListSink",
    "MetricsRegistry",
    "NullSink",
    "TraceContext",
    "activated",
    "get_active",
    "percentile_from_buckets",
    "set_active",
    "to_json",
    "to_prometheus_text",
]
