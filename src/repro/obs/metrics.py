"""Named metric primitives: counters, gauges, and histograms.

A :class:`MetricsRegistry` is a flat namespace of metrics; its
accessors get or create a metric by name.  Components do not call them
on their hot paths: they bind each handle once, at construction, from
its :mod:`repro.obs.catalog` entry.  Everything is plain Python with no
dependencies; a full registry snapshot is a JSON-serialisable dict,
which is what :meth:`~repro.engine.system.MicroblogSystem.snapshot` and
the exporters in :mod:`repro.obs.export` build on.

Metric names are dotted paths (``"flush.phase1-regular.freed_bytes"``).
The dots are purely a naming convention here; the Prometheus exporter
flattens them to underscores.
"""

from __future__ import annotations

import math

from repro.obs.catalog import COUNTER, GAUGE, HISTOGRAM, lookup

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
    "percentile_from_buckets",
]


def percentile_from_buckets(
    counts,
    count: int,
    p: float,
    scale: float,
    observed_min: float,
    observed_max: float,
) -> float:
    """Interpolated percentile over log₂ bucket counts.

    The p-th sample rank is located in its bucket, then placed by linear
    interpolation between the bucket's bounds (bucket 0 spans
    ``[0, scale]``; bucket i spans ``(scale·2^i, scale·2^(i+1)]``).  The
    result is clamped to ``[observed_min, observed_max]`` so percentiles
    stay physical: a histogram of identical samples reports that exact
    value at every percentile, and no percentile can exceed a sample
    that was actually recorded.
    """
    if not 0.0 < p <= 100.0:
        raise ValueError(f"p must be in (0, 100], got {p}")
    if count == 0:
        return 0.0
    threshold = math.ceil(count * p / 100.0)
    running = 0
    for index, bucket_count in enumerate(counts):
        if not bucket_count:
            continue
        if running + bucket_count >= threshold:
            lower = 0.0 if index == 0 else scale * (2.0 ** index)
            upper = scale * (2.0 ** (index + 1))
            fraction = (threshold - running) / bucket_count
            value = lower + (upper - lower) * fraction
            return min(max(value, observed_min), observed_max)
        running += bucket_count
    return observed_max


class Counter:
    """A monotonically increasing integer-or-float count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A value that can move both ways (memory bytes, queue depth)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def set_max(self, value: float) -> None:
        """Raise the value to ``value`` if that is a new high (peak gauges)."""
        if value > self.value:
            self.value = value


class Histogram:
    """Log₂-bucketed distribution of non-negative samples.

    Tracks count/sum/min/max exactly; the bucket layout (powers of two
    from ``scale`` upward) bounds memory at O(64) counters per histogram
    no matter how many samples arrive, in any unit (seconds, bytes,
    postings).
    """

    _BUCKETS = 64

    __slots__ = ("scale", "count", "total", "min", "max", "_counts")

    def __init__(self, scale: float = 1e-6) -> None:
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.scale = scale
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0
        self._counts = [0] * self._BUCKETS

    def _bucket(self, value: float) -> int:
        if value <= self.scale:
            return 0
        index = int(math.log2(value / self.scale))
        return min(index, self._BUCKETS - 1)

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"histogram samples must be >= 0, got {value}")
        self._counts[self._bucket(value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Linear interpolation within the bucket holding the p-th
        percentile, clamped to ``[min, max]`` of the observed samples.

        Without the clamp the bucket bound can exceed every sample ever
        recorded (e.g. all-sub-microsecond samples reporting p50 = 2µs
        while ``max`` < 1µs), which makes percentiles non-physical.
        """
        return percentile_from_buckets(
            self._counts, self.count, p, self.scale, self.min, self.max
        )

    def snapshot(self) -> dict:
        # Trailing zero buckets are trimmed: the list is only as long as
        # the highest occupied bucket, so idle histograms stay tiny in
        # JSONL snapshots while merge_snapshot can still rebuild state.
        counts = list(self._counts)
        while counts and counts[-1] == 0:
            counts.pop()
        return {
            "count": self.count,
            "sum": self.total,
            "min": 0.0 if self.count == 0 else self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
            "scale": self.scale,
            "buckets": counts,
        }

    def merge_snapshot(self, snap: dict) -> None:
        """Fold another histogram's :meth:`snapshot` into this one.

        Count/sum add, min/max widen, and bucket counts add bucketwise —
        so percentiles of the merged histogram are exactly what a single
        histogram fed both sample streams would report.  Snapshots that
        predate the ``buckets`` field degrade gracefully: their whole
        count lands in the bucket of their mean.
        """
        count = snap.get("count", 0)
        if not count:
            return
        scale = snap.get("scale", self.scale)
        if scale != self.scale:
            raise ValueError(
                f"cannot merge histogram snapshots with different scales "
                f"({scale} != {self.scale})"
            )
        self.count += count
        self.total += snap.get("sum", 0.0)
        if snap.get("min", math.inf) < self.min:
            self.min = snap["min"]
        if snap.get("max", 0.0) > self.max:
            self.max = snap["max"]
        buckets = snap.get("buckets")
        if buckets is None:
            self._counts[self._bucket(snap.get("mean", 0.0))] += count
        else:
            for index, bucket_count in enumerate(buckets[: self._BUCKETS]):
                self._counts[index] += bucket_count


class MetricsRegistry:
    """A flat namespace of named metrics."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._by_kind = {
            COUNTER: self._counters, GAUGE: self._gauges, HISTOGRAM: self._histograms
        }

    # ------------------------------------------------------------------
    # Accessors (get-or-create)
    # ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge()
        return metric

    def histogram(self, name: str, scale: float = 1e-6) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(scale)
        return metric

    # ------------------------------------------------------------------
    # Accessors (peek — never create)
    # ------------------------------------------------------------------

    def peek(self, kind: str, name: str):
        """The named metric of catalog ``kind``, or None — never creates
        (SLO probes must not pollute the registry with metrics nothing
        ever recorded)."""
        return self._by_kind[kind].get(name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __contains__(self, name: str) -> bool:
        return (
            name in self._counters
            or name in self._gauges
            or name in self._histograms
        )

    def counter_values(self, prefix: str) -> dict:
        """Counters whose name starts with ``prefix``, keyed by the
        remainder of the name (``counter_values("query.miss.cause.")``
        → ``{"phase1-regular": 3, ...}``).  Zero-valued counters are
        skipped."""
        offset = len(prefix)
        return {
            name[offset:]: metric.value
            for name, metric in sorted(self._counters.items())
            if name.startswith(prefix) and metric.value
        }

    def snapshot(self) -> dict:
        """JSON-serialisable view of every metric, names sorted."""
        return {
            "counters": {
                name: self._counters[name].value for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].snapshot()
                for name in sorted(self._histograms)
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` dict into this registry.

        Counters sum, histograms merge exactly via
        :meth:`Histogram.merge_snapshot`, and gauges take the incoming
        value (last write wins — point-in-time values from different
        workers are not additive), except that a catalog ``peak`` gauge
        keeps the larger value.  This is how per-worker registries from
        ``run_trials(jobs=N)`` aggregate into one picture.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            metric = lookup(name)
            if metric is not None and metric.peak:
                self.gauge(name).set_max(value)
            else:
                self.gauge(name).set(value)
        for name, hist_snap in snapshot.get("histograms", {}).items():
            scale = hist_snap.get("scale", 1e-6)
            self.histogram(name, scale=scale).merge_snapshot(hist_snap)


def merge_snapshots(snapshots) -> dict:
    """Aggregate an iterable of registry snapshots into one snapshot.

    Convenience over :meth:`MetricsRegistry.merge` for offline
    aggregation, e.g. of the ``trial_snapshot`` events of several
    ``run_trial(spec, metrics_path=...)`` files.
    """
    merged = MetricsRegistry()
    for snapshot in snapshots:
        merged.merge(snapshot)
    return merged.snapshot()
