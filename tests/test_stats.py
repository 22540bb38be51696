"""Unit tests for runtime statistics containers."""

from repro.core.policy import FlushReport
from repro.engine.clock import LogicalClock
from repro.engine.queries import CombineMode, KeywordQuery
from repro.engine.stats import IngestStats, QueryStats, SystemStats
from tests.conftest import make_blogs, tiny_system

import pytest


class TestQueryStats:
    def test_hit_ratio(self):
        stats = QueryStats()
        stats.record(CombineMode.SINGLE, True)
        stats.record(CombineMode.SINGLE, False)
        stats.record(CombineMode.AND, True)
        assert stats.queries == 3
        assert stats.memory_hits == 2
        assert stats.memory_misses == 1
        assert stats.hit_ratio == pytest.approx(2 / 3)

    def test_per_mode_ratio(self):
        stats = QueryStats()
        stats.record(CombineMode.AND, True)
        stats.record(CombineMode.AND, False)
        stats.record(CombineMode.OR, False)
        assert stats.hit_ratio_for(CombineMode.AND) == 0.5
        assert stats.hit_ratio_for(CombineMode.OR) == 0.0
        assert stats.hit_ratio_for(CombineMode.SINGLE) == 0.0

    def test_idle_ratio_is_zero(self):
        assert QueryStats().hit_ratio == 0.0

    def test_latency_histogram_counts_every_query(self):
        """Regression: zero-latency samples used to be dropped, biasing
        latency_percentile() upward (computed only over nonzero queries)."""
        stats = QueryStats()
        stats.record(CombineMode.SINGLE, True, latency_seconds=0.0)
        stats.record(CombineMode.SINGLE, True, latency_seconds=0.0)
        stats.record(CombineMode.SINGLE, False, latency_seconds=0.5)
        assert stats.latency.count == stats.queries == 3

    def test_zero_latency_hits_pull_percentiles_down(self):
        stats = QueryStats()
        for _ in range(9):
            stats.record(CombineMode.SINGLE, True, latency_seconds=0.0)
        stats.record(CombineMode.SINGLE, False, latency_seconds=0.5)
        # With 9 of 10 samples at ~0, the median must sit in the lowest
        # bucket, far below the single disk-visit latency.
        assert stats.latency.percentile(50.0) < 0.5


class TestIngestStats:
    def test_digestion_rate(self):
        stats = IngestStats(indexed=100, insert_seconds=2.0)
        assert stats.digestion_rate == 50.0

    def test_zero_time_rate(self):
        assert IngestStats(indexed=5).digestion_rate == 0.0


class TestFlushSummary:
    def test_empty(self):
        summary = SystemStats().flush_summary([])
        assert summary["flushes"] == 0
        assert summary["mean_freed_fraction"] == 0.0

    def test_aggregates(self):
        reports = [
            FlushReport("kflushing", 1.0, target_bytes=100, freed_bytes=100,
                        records_flushed=5, wall_seconds=0.1),
            FlushReport("kflushing", 2.0, target_bytes=100, freed_bytes=50,
                        records_flushed=3, wall_seconds=0.2),
        ]
        summary = SystemStats().flush_summary(reports)
        assert summary["flushes"] == 2
        assert summary["records_flushed"] == 8
        assert summary["targets_met"] == 1
        assert summary["mean_freed_fraction"] == pytest.approx(0.75)
        assert summary["total_wall_seconds"] == pytest.approx(0.3)


class TestLogicalClock:
    def test_starts_at_zero(self):
        assert LogicalClock().now == 0.0

    def test_advance_to_monotone(self):
        clock = LogicalClock()
        clock.advance_to(5.0)
        clock.advance_to(3.0)
        assert clock.now == 5.0

    def test_advance_by(self):
        clock = LogicalClock(start=1.0)
        clock.advance_by(2.5)
        assert clock.now == 3.5

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            LogicalClock().advance_by(-1.0)


class TestDiskReadsAccounting:
    def test_unindexed_miss_pays_one_disk_read(self):
        # A miss on a key that is neither in memory nor on disk still
        # pays its disk index lookup: the cost model charges one seek per
        # lookup, whether or not the archive holds the key.
        system = tiny_system()
        for blog in make_blogs(5, keywords=("hot",)):
            system.ingest(blog)
        result = system.search(KeywordQuery("ghost", k=3))
        assert not result.memory_hit
        assert result.disk_lookups == 1
        assert system.stats.queries.queries == 1
        assert system.stats.queries.disk_reads == 1

    def test_paid_miss_still_counts(self):
        # Force everything to disk, then query it: the miss pays a real
        # disk lookup and must still be counted.
        system = tiny_system(memory_capacity_bytes=300)
        for blog in make_blogs(5, keywords=("hot",), text="x" * 400):
            system.ingest(blog)
        result = system.search(KeywordQuery("hot", k=3))
        assert not result.memory_hit
        assert result.disk_lookups >= 1
        assert system.stats.queries.disk_reads >= 1
