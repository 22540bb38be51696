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
series' ``# HELP`` line is the help text of its
:mod:`repro.obs.catalog` entry, and histograms expose
``_min``/``_max``/``_mean`` alongside the quantiles, since
log₂-bucketed quantiles are bounds while min/max/mean are exact.
"""

from __future__ import annotations

import json
import re

from repro.obs.catalog import lookup
from repro.obs.metrics import MetricsRegistry

__all__ = ["to_json", "to_prometheus_text"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")
#: Snapshot section -> the Prometheus type its series are exposed as.
_PROM_TYPES = {"counters": "counter", "gauges": "gauge", "histograms": "summary"}


def _prom_name(name: str) -> str:
    sanitised = _NAME_RE.sub("_", name)
    if not sanitised or not (sanitised[0].isalpha() or sanitised[0] == "_"):
        sanitised = "_" + sanitised
    return f"repro_{sanitised}"


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
    for section, prom_type in _PROM_TYPES.items():
        for name, value in snapshot[section].items():
            prom = _prom_name(name) + ("_total" if prom_type == "counter" else "")
            metric = lookup(name)
            lines.append(f"# HELP {prom} {metric.help if metric else 'repro metric'}")
            lines.append(f"# TYPE {prom} {prom_type}")
            if prom_type != "summary":
                lines.append(f"{prom} {_format_value(value)}")
                continue
            for quantile in ("p50", "p95", "p99"):
                lines.append(
                    f'{prom}{{quantile="0.{quantile[1:]}"}} {_format_value(value[quantile])}'
                )
            for stat in ("count", "sum", "min", "max", "mean"):
                lines.append(f"{prom}_{stat} {_format_value(value[stat])}")
    return "\n".join(lines) + "\n"
