"""Unit tests for the observability subsystem (repro.obs)."""

import json

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    Instrumentation,
    JsonlSink,
    ListSink,
    MetricsRegistry,
    activated,
    get_active,
    to_json,
    to_prometheus_text,
)


class TestPrimitives:
    def test_counter_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12

    def test_histogram_tracks_count_sum_extremes(self):
        hist = Histogram()
        for value in (0.001, 0.002, 0.004):
            hist.record(value)
        snap = hist.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(0.007)
        assert snap["min"] == pytest.approx(0.001)
        assert snap["max"] == pytest.approx(0.004)
        assert snap["mean"] == pytest.approx(0.007 / 3)

    def test_histogram_accepts_zero(self):
        hist = Histogram()
        hist.record(0.0)
        assert hist.count == 1
        assert hist.snapshot()["min"] == 0.0

    def test_histogram_rejects_negative(self):
        with pytest.raises(ValueError):
            Histogram().record(-0.1)

    def test_histogram_percentile_brackets_samples(self):
        hist = Histogram()
        for _ in range(100):
            hist.record(1e-3)
        assert 1e-3 <= hist.percentile(95.0) <= 2e-3

    def test_histogram_percentile_interpolates_within_bucket(self):
        # 100 samples spread evenly through one log2 bucket
        # ((1.024ms, 2.048ms] at the default 1e-6 scale): the
        # interpolated p50 must land near the true median instead of
        # snapping to the bucket's upper edge (the pre-interpolation
        # behaviour returned ~2.0ms here, a 30% overestimate).
        hist = Histogram()
        samples = [1.05e-3 + i * (0.95e-3 / 99) for i in range(100)]
        for value in samples:
            hist.record(value)
        true_median = (samples[49] + samples[50]) / 2
        p50 = hist.percentile(50.0)
        assert p50 == pytest.approx(true_median, rel=0.05)
        assert p50 < max(samples)

    def test_histogram_percentile_clamps_to_observed_extremes(self):
        hist = Histogram()
        for _ in range(10):
            hist.record(1.5e-3)
        # Every percentile of a constant sample set is that constant:
        # interpolation would land elsewhere in the bucket, but the
        # observed min/max clamp pins it.
        for p in (1.0, 50.0, 99.0):
            assert hist.percentile(p) == pytest.approx(1.5e-3)

    def test_percentile_from_buckets_validates_p(self):
        from repro.obs import percentile_from_buckets

        with pytest.raises(ValueError):
            percentile_from_buckets((), 0, 0.0, 1e-6, 0.0, 0.0)
        with pytest.raises(ValueError):
            percentile_from_buckets((), 0, 101.0, 1e-6, 0.0, 0.0)
        assert percentile_from_buckets((), 0, 99.0, 1e-6, 0.0, 0.0) == 0.0

    def test_histogram_percentiles_separate_fast_and_slow(self):
        hist = Histogram()
        for _ in range(95):
            hist.record(50e-6)  # memory hits
        for _ in range(5):
            hist.record(10e-3)  # disk visits
        assert hist.percentile(90) < 1e-3
        assert hist.percentile(99) > 5e-3

    def test_histogram_percentiles_are_monotone(self):
        hist = Histogram()
        for i in range(1, 200):
            hist.record(i * 1e-5)
        assert hist.percentile(50) <= hist.percentile(90) <= hist.percentile(99.9)

    def test_histogram_rejects_bad_percentile(self):
        hist = Histogram()
        hist.record(1e-3)
        with pytest.raises(ValueError):
            hist.percentile(0.0)
        with pytest.raises(ValueError):
            hist.percentile(101.0)

    def test_empty_histogram_snapshot(self):
        snap = Histogram().snapshot()
        assert snap["count"] == 0
        assert snap["min"] == 0.0
        assert snap["p99"] == 0.0


class TestRegistry:
    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")
        assert len(registry) == 2
        assert "a" in registry and "missing" not in registry

    def test_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("flush.count").inc(3)
        registry.gauge("memory.bytes").set(1024)
        registry.histogram("lat").record(0.5)
        snap = registry.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["counters"]["flush.count"] == 3
        assert snap["gauges"]["memory.bytes"] == 1024
        assert snap["histograms"]["lat"]["count"] == 1

    def test_merge_keeps_the_larger_peak(self):
        """Peak gauges merge by max, other gauges last-write-wins."""
        big, small = MetricsRegistry(), MetricsRegistry()
        for registry, value in ((big, 100), (small, 40)):
            registry.gauge("watermark.memory.bytes_used").set(value)
            registry.gauge("memory.bytes_used").set(value)
        big.merge(small.snapshot())
        gauges = big.snapshot()["gauges"]
        assert gauges["watermark.memory.bytes_used"] == 100
        assert gauges["memory.bytes_used"] == 40

    def test_peak_gauge_only_rises(self):
        gauge = Gauge()
        gauge.set_max(5)
        gauge.set_max(3)
        assert gauge.value == 5


class TestSpans:
    def test_span_records_histogram_and_event(self):
        sink = ListSink()
        obs = Instrumentation(sink=sink)
        with obs.span("flush"):
            pass
        assert obs.registry.histogram("span.flush.seconds").count == 1
        events = sink.of_type("span")
        assert len(events) == 1
        assert events[0]["name"] == "flush"
        assert events[0]["parent"] is None
        assert events[0]["seconds"] >= 0.0

    def test_nested_spans_carry_parent(self):
        sink = ListSink()
        obs = Instrumentation(sink=sink)
        with obs.span("flush"):
            assert obs.current_span == "flush"
            with obs.span("flush.phase1"):
                assert obs.current_span == "flush.phase1"
        names = {e["name"]: e["parent"] for e in sink.of_type("span")}
        assert names == {"flush": None, "flush.phase1": "flush"}

    def test_span_pops_on_exception(self):
        obs = Instrumentation()
        with pytest.raises(RuntimeError):
            with obs.span("boom"):
                raise RuntimeError("x")
        assert obs.current_span is None
        assert obs.registry.histogram("span.boom.seconds").count == 1


class TestSinks:
    def test_list_sink_filters_by_type(self):
        sink = ListSink()
        sink.emit({"type": "a"})
        sink.emit({"type": "b"})
        assert len(sink.of_type("a")) == 1

    def test_jsonl_sink_round_trips(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(path) as sink:
            sink.emit({"type": "flush", "freed": 10})
            sink.emit({"type": "query", "hit": True})
        lines = path.read_text().splitlines()
        assert [json.loads(line)["type"] for line in lines] == ["flush", "query"]

    def test_jsonl_sink_lazy_open(self, tmp_path):
        path = tmp_path / "never.jsonl"
        JsonlSink(path).close()
        assert not path.exists()


class TestRuntime:
    def test_activated_scopes_the_instrumentation(self):
        obs = Instrumentation()
        assert get_active() is None
        with activated(obs) as active:
            assert active is obs
            assert get_active() is obs
        assert get_active() is None

    def test_activated_restores_on_exception(self):
        obs = Instrumentation()
        with pytest.raises(RuntimeError):
            with activated(obs):
                raise RuntimeError("x")
        assert get_active() is None


class TestExporters:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("flush.count").inc(2)
        registry.gauge("memory.bytes_used").set(512)
        registry.histogram("span.flush.seconds").record(0.25)
        return registry

    def test_to_json(self):
        data = json.loads(to_json(self._registry()))
        assert data["counters"]["flush.count"] == 2

    def test_prometheus_text_shape(self):
        text = to_prometheus_text(self._registry())
        assert "repro_flush_count_total 2" in text
        assert "repro_memory_bytes_used 512" in text
        assert "repro_span_flush_seconds_count 1" in text
        assert 'quantile="0.95"' in text
