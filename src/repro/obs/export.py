"""Registry exporters: JSON and Prometheus-style text exposition.

Two render targets for one :class:`~repro.obs.metrics.MetricsRegistry`
snapshot:

* :func:`to_json` — the snapshot dict serialised, for machine diffing
  and the ``repro stats --format json`` output;
* :func:`to_prometheus_text` — the text exposition format scrapers (and
  humans) read: counters as ``_total``, histograms as
  ``_count``/``_sum`` plus quantile gauges.

Metric names are sanitised to the Prometheus charset (dots and dashes
become underscores) and prefixed ``repro_`` to namespace them.  Each
family gets a ``# HELP`` line (matched by metric-name prefix) and
histograms expose ``_min``/``_max``/``_mean`` alongside the quantiles,
since log₂-bucketed quantiles are bounds while min/max/mean are exact.
"""

from __future__ import annotations

import json
import re

from repro.obs.metrics import MetricsRegistry

__all__ = ["to_json", "to_prometheus_text"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")

# Longest-prefix-match HELP text for metric families.  The shard prefix
# is stripped before matching so shard.3.disk.lookups shares disk.'s
# help line.
_HELP_PREFIXES = (
    ("query.miss.cause.", "Memory misses attributed to the eviction decision that caused them"),
    ("query.", "Query execution: per-mode hits/misses, disk lookups, latency"),
    ("flush.", "Flush cycles: freed bytes, flushed records/postings, per-phase attribution"),
    ("disk.", "Simulated disk tier I/O ledger"),
    ("memory.", "In-memory index occupancy and capacity"),
    ("span.", "Wall-clock span timings"),
    ("slo.", "SLO objective state: windowed value, budget spent, burn rates"),
    ("watermark.", "Resource high-water marks sampled at flush boundaries"),
)
_SHARD_RE = re.compile(r"^shard\.\d+\.")


def _prom_name(name: str) -> str:
    sanitised = _NAME_RE.sub("_", name)
    if not sanitised or not (sanitised[0].isalpha() or sanitised[0] == "_"):
        sanitised = "_" + sanitised
    return f"repro_{sanitised}"


def _help_text(name: str) -> str:
    stripped = _SHARD_RE.sub("", name)
    for prefix, text in _HELP_PREFIXES:
        if stripped.startswith(prefix):
            if stripped != name:
                return f"{text} (per-shard twin)"
            return text
    return "repro metric"


def _format_value(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def to_json(registry: MetricsRegistry, indent: int = 2) -> str:
    """The registry snapshot as a JSON document."""
    return json.dumps(registry.snapshot(), indent=indent, sort_keys=True)


def to_prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in the Prometheus text exposition format."""
    snapshot = registry.snapshot()
    lines: list[str] = []
    for name, value in snapshot["counters"].items():
        prom = _prom_name(name)
        lines.append(f"# HELP {prom}_total {_help_text(name)}")
        lines.append(f"# TYPE {prom}_total counter")
        lines.append(f"{prom}_total {_format_value(value)}")
    for name, value in snapshot["gauges"].items():
        prom = _prom_name(name)
        lines.append(f"# HELP {prom} {_help_text(name)}")
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_format_value(value)}")
    for name, hist in snapshot["histograms"].items():
        prom = _prom_name(name)
        lines.append(f"# HELP {prom} {_help_text(name)}")
        lines.append(f"# TYPE {prom} summary")
        for quantile in ("p50", "p95", "p99"):
            lines.append(
                f'{prom}{{quantile="0.{quantile[1:]}"}} '
                f"{_format_value(hist[quantile])}"
            )
        lines.append(f"{prom}_count {_format_value(hist['count'])}")
        lines.append(f"{prom}_sum {_format_value(hist['sum'])}")
        lines.append(f"{prom}_min {_format_value(hist['min'])}")
        lines.append(f"{prom}_max {_format_value(hist['max'])}")
        lines.append(f"{prom}_mean {_format_value(hist['mean'])}")
    return "\n".join(lines) + "\n"
