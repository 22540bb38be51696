"""The metric catalog: every series the system records, declared once.

A :class:`Metric` names one series or a family of them — labels are
placeholders: ``query.{mode}.hits`` — with its kind, unit and help text;
a ``sharded`` entry also has a ``shard.<i>.`` twin per partition.
Components bind their handles at construction (:meth:`Metric.bind`), so
no ingest, flush or query path looks a metric up by name.  Prometheus
``# HELP``, the registry merge and the metric table of
``docs/OBSERVABILITY.md`` read this module, the one module under
``src/`` that spells a metric name.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

__all__ = ["CATALOG", "COUNTER", "GAUGE", "HISTOGRAM", "Metric", "lookup", "render_markdown"]

#: Metric kinds; each is also the name of the registry accessor that binds it.
COUNTER, GAUGE, HISTOGRAM = "counter", "gauge", "histogram"

#: A placeholder, as ``re.escape`` spells it.
_PLACEHOLDER = re.compile(r"\\\{\w+\\\}")


@dataclass(frozen=True)
class Metric:
    """One declared series, or a family of them."""

    name: str
    kind: str
    unit: str
    help: str
    #: Also recorded per partition of a sharded system, as ``shard.<i>.<name>``.
    sharded: bool = False
    #: A run-wide peak: the gauge only rises, and merged registries keep
    #: the larger value.
    peak: bool = False

    def key(self, **labels) -> str:
        """The series name with ``labels`` filled into the placeholders."""
        return self.name.format(**labels)

    @property
    def prefix(self) -> str:
        """The name up to its first placeholder."""
        return self.name.split("{", 1)[0]

    def bind(self, registry, shard: Optional[int] = None, **labels):
        """The registry's handle for one series of this entry: the
        aggregate, or shard ``shard``'s twin."""
        name = self.key(**labels)
        if shard is not None:
            if not self.sharded:
                raise ValueError(f"{self.name} has no per-shard twin")
            name = f"shard.{shard}.{name}"
        return getattr(registry, self.kind)(name)

    def matches(self, name: str) -> bool:
        """Whether ``name`` is a series of this entry (twins included)."""
        return _PATTERNS[self].fullmatch(name) is not None


def _pattern(metric: Metric) -> re.Pattern:
    """A placeholder matches one dotted segment."""
    regex = _PLACEHOLDER.sub("[^.]+", re.escape(metric.name))
    return re.compile(r"(?:shard\.\d+\.)?" + regex if metric.sharded else regex)


# Flushing
FLUSH_COUNT = Metric("flush.count", COUNTER, "flushes", sharded=True,
                     help="Flush cycles run; each one stalls the ingest that triggered it")
FLUSH_FREED = Metric("flush.freed_bytes", COUNTER, "bytes", sharded=True,
                     help="Modelled memory bytes freed by flushes")
FLUSH_PHASE_FREED = Metric("flush.{phase}.freed_bytes", COUNTER, "bytes",
                           help="Modelled memory bytes freed by one kFlushing phase")
SPAN_FLUSH = Metric("span.flush.seconds", HISTOGRAM, "seconds",
                    help="Wall time of one flush cycle, which is how long it stalled ingest")
SPAN_FLUSH_PHASE = Metric("span.flush.{phase}.seconds", HISTOGRAM, "seconds",
                          help="Wall time of one kFlushing phase inside a flush")

# Memory
MEMORY_BYTES = Metric("memory.bytes_used", GAUGE, "bytes", sharded=True,
                      help="Modelled memory-tier bytes after the latest flush")
MEMORY_PEAK = Metric("watermark.memory.bytes_used", GAUGE, "bytes", sharded=True, peak=True,
                     help="Run-wide peak of memory-tier bytes, sampled at flush boundaries")
LEDGER_DROPPED = Metric("eviction_ledger.dropped", COUNTER, "records",
                        help="Eviction-cause records dropped by the full ledger (attribution on)")
LEDGER_PEAK = Metric("watermark.eviction_ledger.entries", GAUGE, "keys", peak=True,
                     help="Run-wide peak eviction-ledger fill, all partitions (attribution on)")

# Queries
QUERY_HITS = Metric("query.{mode}.hits", COUNTER, "queries",
                    help="Queries of one mode answered from memory")
QUERY_MISSES = Metric("query.{mode}.misses", COUNTER, "queries",
                      help="Queries of one mode that fell through to disk")
QUERY_DISK_LOOKUPS = Metric("query.{mode}.disk_lookups", COUNTER, "lookups",
                            help="Disk index lookups paid by queries of one mode")
QUERY_MISS_CAUSE = Metric("query.miss.cause.{cause}", COUNTER, "queries",
                          help="Memory misses by the eviction that caused them (attribution on)")
QUERY_MODE_MISS_CAUSE = Metric("query.{mode}.miss.cause.{cause}", COUNTER, "queries",
                               help="Memory misses of one mode by eviction cause (attribution on)")
QUERY_LATENCY = Metric("query.simulated_latency_seconds", HISTOGRAM, "seconds",
                       help="Modelled query latency: in-memory cost plus simulated disk I/O")

# Disk tier (the simulated I/O ledger)
DISK_FLUSH_BATCHES = Metric("disk.flush_batches", COUNTER, "batches", sharded=True,
                            help="Flush batches committed to the disk archive")
DISK_RECORDS_WRITTEN = Metric("disk.records_written", COUNTER, "records", sharded=True,
                              help="Record bodies written to the disk archive")
DISK_POSTINGS_WRITTEN = Metric("disk.postings_written", COUNTER, "postings", sharded=True,
                               help="Postings written to the disk index")
DISK_BYTES_WRITTEN = Metric("disk.bytes_written", COUNTER, "bytes", sharded=True,
                            help="Modelled bytes written to disk")
DISK_COMPACTIONS = Metric("disk.compactions", COUNTER, "compactions", sharded=True,
                          help="Size-tiered compactions of one key's posting runs")
DISK_INDEX_LOOKUPS = Metric("disk.index_lookups", COUNTER, "lookups", sharded=True,
                            help="Disk index lookups, each paying one modelled seek")
DISK_RECORD_FETCHES = Metric("disk.record_fetches", COUNTER, "records", sharded=True,
                             help="Record bodies fetched from disk")
DISK_BYTES_READ = Metric("disk.bytes_read", COUNTER, "bytes", sharded=True,
                         help="Modelled bytes read from disk")

#: Every declared metric, in documentation order.
CATALOG: tuple[Metric, ...] = tuple(
    value for value in dict(globals()).values() if isinstance(value, Metric)
)

_PATTERNS = {metric: _pattern(metric) for metric in CATALOG}


def lookup(name: str) -> Optional[Metric]:
    """The entry declaring series ``name``, or None when undeclared."""
    for metric, pattern in _PATTERNS.items():
        if pattern.fullmatch(name):
            return metric
    return None


def render_markdown() -> str:
    """The catalog as the Markdown table of ``docs/OBSERVABILITY.md``."""
    lines = [
        "| Metric | Kind | Unit | Per shard | Meaning |",
        "|---|---|---|---|---|",
    ]
    for metric in CATALOG:
        kind = f"{metric.kind} (peak)" if metric.peak else metric.kind
        shard = "yes" if metric.sharded else ""
        lines.append(
            f"| `{metric.name}` | {kind} | {metric.unit} | {shard} | {metric.help} |"
        )
    return "\n".join(lines) + "\n"
