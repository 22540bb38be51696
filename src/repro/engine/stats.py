"""Runtime metrics: the performance measures the paper reports.

* **memory hit ratio** — fraction of queries whose full top-k answer was
  provably served from memory (Figures 8, 9, 11(b), 12(b));
* **k-filled keys** — keys whose in-memory top-k is complete (Figures 7,
  11(a), 12(a));
* **digestion** — records ingested and the wall time spent in the insert
  path, yielding the digestion rate of Figure 10(b);
* **flushing** — per-flush reports plus a memory-consumption timeline
  (Figure 5) sampled around every flush.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.engine.queries import CombineMode
from repro.obs.metrics import Histogram

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.policy import FlushReport

__all__ = ["QueryStats", "IngestStats", "TimelinePoint", "SystemStats"]


@dataclass
class QueryStats:
    """Hit/miss counters, total and per combination mode."""

    queries: int = 0
    memory_hits: int = 0
    disk_reads: int = 0
    by_mode: dict[str, list] = field(default_factory=dict)  # mode -> [queries, hits]
    #: Simulated latency of every query (log₂ buckets, percentiles
    #: interpolated within a bucket and clamped to the observed range).
    latency: Histogram = field(default_factory=Histogram)

    def record(
        self,
        mode: CombineMode,
        memory_hit: bool,
        latency_seconds: float = 0.0,
        disk_lookups: int = 0,
    ) -> None:
        self.queries += 1
        counters = self.by_mode.setdefault(mode.value, [0, 0])
        counters[0] += 1
        if memory_hit:
            self.memory_hits += 1
            counters[1] += 1
        else:
            # Count the disk index lookups the query actually paid: an
            # OR miss pays one per key whose memory top-k is incomplete,
            # so it may pay several.
            self.disk_reads += disk_lookups
        # Every sample counts: dropping zero-latency queries would bias
        # latency_percentile() upward (hits cost ~0 under a null model).
        self.latency.record(latency_seconds)

    @property
    def memory_misses(self) -> int:
        return self.queries - self.memory_hits

    @property
    def hit_ratio(self) -> float:
        """Fraction of queries fully answered from memory (0 when idle)."""
        if self.queries == 0:
            return 0.0
        return self.memory_hits / self.queries

    def hit_ratio_for(self, mode: CombineMode) -> float:
        counters = self.by_mode.get(mode.value)
        if not counters or counters[0] == 0:
            return 0.0
        return counters[1] / counters[0]


@dataclass
class IngestStats:
    """Digestion counters and timing."""

    offered: int = 0
    indexed: int = 0
    skipped: int = 0
    #: Wall seconds spent inside the insert path (excludes flushing, which
    #: the paper runs on a separate thread).
    insert_seconds: float = 0.0
    #: Wall seconds spent inside flush operations.  Flushing is
    #: synchronous, so every flush is one ingest stall; the per-flush
    #: durations are the system's ``flush_reports()``.
    flush_seconds: float = 0.0

    @property
    def digestion_rate(self) -> float:
        """Records indexed per wall-second of insert-path time."""
        if self.insert_seconds <= 0.0:
            return 0.0
        return self.indexed / self.insert_seconds


@dataclass(frozen=True)
class TimelinePoint:
    """One sample of the memory-consumption timeline (Figure 5)."""

    time: float
    bytes_used: int
    capacity: int
    #: "before" (flush trigger), "after" (flush done), or "sample".
    kind: str = "sample"
    #: Which shard this sample describes; None = the whole system
    #: (always None on an unsharded system).
    shard: Optional[int] = None

    @property
    def utilization(self) -> float:
        return self.bytes_used / self.capacity if self.capacity else 0.0


@dataclass
class SystemStats:
    """All metrics of one running system."""

    ingest: IngestStats = field(default_factory=IngestStats)
    queries: QueryStats = field(default_factory=QueryStats)
    timeline: list[TimelinePoint] = field(default_factory=list)

    def sample_memory(
        self,
        time: float,
        bytes_used: int,
        capacity: int,
        kind: str = "sample",
        shard: Optional[int] = None,
    ) -> None:
        self.timeline.append(TimelinePoint(time, bytes_used, capacity, kind, shard))

    def shard_timeline(self, shard: Optional[int]) -> list[TimelinePoint]:
        """The timeline restricted to one shard (None = system-level)."""
        return [point for point in self.timeline if point.shard == shard]

    def flush_summary(self, reports: list["FlushReport"]) -> dict[str, float]:
        """Aggregate per-flush reports into one summary dict."""
        if not reports:
            return {
                "flushes": 0,
                "records_flushed": 0,
                "mean_freed_fraction": 0.0,
                "targets_met": 0,
                "total_wall_seconds": 0.0,
            }
        return {
            "flushes": len(reports),
            "records_flushed": sum(r.records_flushed for r in reports),
            "mean_freed_fraction": sum(
                r.freed_bytes / max(1, r.target_bytes) for r in reports
            )
            / len(reports),
            "targets_met": sum(1 for r in reports if r.met_target),
            "total_wall_seconds": sum(r.wall_seconds for r in reports),
        }
