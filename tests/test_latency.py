"""Tests for the simulated latency model."""

import pytest

from repro.engine.latency import QueryCostModel
from repro.engine.queries import KeywordQuery
from tests.conftest import make_blogs, tiny_system


class TestQueryCostModel:
    def test_memory_cost_scales_with_keys(self):
        cost = QueryCostModel(base_seconds=10e-6, per_key_seconds=5e-6)
        assert cost.memory_cost(1) == pytest.approx(15e-6)
        assert cost.memory_cost(3) == pytest.approx(25e-6)


class TestSystemLatency:
    def test_memory_hits_are_microseconds(self):
        system = tiny_system()
        for blog in make_blogs(5, keywords=("hot",)):
            system.ingest(blog)
        result = system.search(KeywordQuery("hot", k=3))
        assert result.memory_hit
        assert result.simulated_latency < 1e-3

    def test_misses_pay_disk_io(self):
        system = tiny_system()
        system.ingest(make_blogs(1, keywords=("rare",))[0])
        result = system.search(KeywordQuery("rare", k=3))
        assert not result.memory_hit
        assert result.simulated_latency > 1e-3  # at least one simulated seek

    def test_latency_percentile_reflects_miss_mix(self):
        system = tiny_system()
        for blog in make_blogs(10, keywords=("hot",)):
            system.ingest(blog)
        for _ in range(19):
            system.search(KeywordQuery("hot", k=3))  # hits
        system.search(KeywordQuery("ghost", k=3))  # one miss
        assert system.latency_percentile(50) < 1e-3
        assert system.latency_percentile(99) > 1e-3
