"""Observability: metrics, spans, and structured events (``repro.obs``).

The instrumentation substrate every performance PR reports against — see
``docs/OBSERVABILITY.md`` for the metric and event schema, and
:mod:`repro.obs.catalog` for the one declaration of every metric.  The
package is dependency-free and always-on: components hold an
:class:`Instrumentation` (registry + sink) and record into handles bound
at construction; the default :class:`NullSink` makes the event side free
until an entry point opts in via :func:`activated` or an explicit sink.

On top of the substrate sit the service-level pieces: declarative SLO
tracking with error budgets (:mod:`repro.obs.slo`) and the black-box
flight recorder (:mod:`repro.obs.recorder`).
"""

from repro.obs.events import EventSink, JsonlSink, ListSink, NullSink
from repro.obs.export import to_json, to_prometheus_text
from repro.obs.instrument import Instrumentation
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    percentile_from_buckets,
)
from repro.obs.recorder import FlightRecorder, attach_flight_recorder
from repro.obs.runtime import activated, get_active, set_active
from repro.obs.server import OpsServer
from repro.obs.slo import SLObjective, SLOSpec, SLOTracker, evaluate_registry
from repro.obs.trace import TraceContext

__all__ = [
    "Counter",
    "EventSink",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "JsonlSink",
    "ListSink",
    "MetricsRegistry",
    "NullSink",
    "OpsServer",
    "SLObjective",
    "SLOSpec",
    "SLOTracker",
    "TraceContext",
    "activated",
    "attach_flight_recorder",
    "evaluate_registry",
    "get_active",
    "merge_snapshots",
    "percentile_from_buckets",
    "set_active",
    "to_json",
    "to_prometheus_text",
]
