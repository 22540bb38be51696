"""Unit tests for the MicroblogSystem facade."""

import threading

import pytest

from repro.config import SystemConfig
from repro.engine.queries import KeywordQuery, TopKQuery, UserQuery
from repro.engine.system import MicroblogSystem
from repro.errors import CapacityError, ConfigurationError
from repro.model.microblog import Microblog
from tests.conftest import make_blog, make_blogs, tiny_system

POLICIES = ("fifo", "kflushing", "kflushing-mk", "lru")


class TestIngest:
    def test_ingest_advances_clock(self):
        system = tiny_system()
        system.ingest(make_blog(timestamp=5.0))
        assert system.now == 5.0

    def test_skipped_records_counted(self):
        system = tiny_system()
        assert not system.ingest(make_blog(keywords=()))
        assert system.stats.ingest.skipped == 1
        assert system.stats.ingest.indexed == 0

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_keywordless_record_skipped(self, policy, shards):
        # The facade skips a keyless record itself: no engine sees it.
        system = tiny_system(policy, shards=shards)
        assert not system.ingest(make_blog(keywords=()))
        assert system.stats.ingest.skipped == 1
        assert system.stats.ingest.indexed == 0
        assert all(p.engine.record_count() == 0 for p in system.partitions)

    @pytest.mark.parametrize("policy", ["fifo", "kflushing", "lru"])
    def test_repeated_keyword_indexed_once(self, policy):
        system = tiny_system(policy, k=3)
        system.ingest(Microblog(1, 1.0, 7, keywords=("a", "a")))
        system.ingest(Microblog(2, 2.0, 7, keywords=("a",)))
        result = system.search(TopKQuery(keys=("a",), k=3))
        assert result.blog_ids == (2, 1)
        assert not result.memory_hit
        assert system.frequency_snapshot()["a"] == 2
        if policy != "fifo":
            assert system.engine.raw.pcount(1) == 1
        system.check_integrity()

    def test_ingest_many_returns_indexed_count(self):
        system = tiny_system()
        blogs = make_blogs(3) + [make_blog(keywords=())]
        assert system.ingest_many(blogs) == 3

    def test_flush_triggered_at_capacity(self):
        system = tiny_system(memory_capacity_bytes=5_000)
        for blog in make_blogs(60):
            system.ingest(blog)
        assert len(system.flush_reports()) >= 1
        assert system.memory_utilization() < 1.0

    def test_oversized_records_survive_via_immediate_flush(self):
        # A record larger than the whole budget triggers a flush right
        # after its insert; the policy evicts it and the system keeps
        # running instead of raising CapacityError.
        system = tiny_system(memory_capacity_bytes=300)
        for blog in make_blogs(5, text="x" * 400):
            system.ingest(blog)
        assert len(system.flush_reports()) == 5
        assert system.disk.record_count >= 4


class TestSearch:
    def test_search_updates_stats(self):
        system = tiny_system()
        for blog in make_blogs(5, keywords=("hot",)):
            system.ingest(blog)
        result = system.search(KeywordQuery("hot", k=3))
        assert result.memory_hit
        assert system.stats.queries.queries == 1
        assert system.hit_ratio() == 1.0

    def test_search_miss_counts(self):
        system = tiny_system()
        system.search(KeywordQuery("ghost", k=3))
        assert system.hit_ratio() == 0.0
        assert system.stats.queries.disk_reads == 1

    def test_search_uses_system_clock_by_default(self):
        system = tiny_system()
        system.ingest(make_blog(timestamp=9.0))
        result = system.search(KeywordQuery("alpha", k=1))
        assert result.executed_at == 9.0

    def test_fetch_records(self):
        system = tiny_system()
        blogs = make_blogs(3, keywords=("hot",))
        for blog in blogs:
            system.ingest(blog)
        result = system.search(KeywordQuery("hot", k=3))
        records = system.fetch_records(result)
        assert {r.blog_id for r in records} == set(result.blog_ids)


class TestConfigurationPlumbing:
    def test_policy_selection(self):
        for policy in ("fifo", "kflushing", "kflushing-mk", "lru"):
            system = tiny_system(policy=policy)
            assert system.engine.name == policy

    def test_user_attribute_system(self):
        system = tiny_system(attribute="user")
        for blog in make_blogs(4, user_id=9):
            system.ingest(blog)
        result = system.search(UserQuery(9, k=3))
        assert result.memory_hit

    def test_popularity_ranking_orders_results(self):
        system = tiny_system(ranking="popularity", k=2)
        star = make_blog(keywords=("k",), followers=1 << 30)
        for blog in make_blogs(3, keywords=("k",)):
            system.ingest(blog)
        system.ingest(star)
        # Give the star an old timestamp? It is newest here; just check
        # it ranks first.
        result = system.search(KeywordQuery("k", k=2))
        assert result.blog_ids[0] == star.blog_id

    def test_set_k(self):
        system = tiny_system(k=5)
        system.set_k(2)
        assert system.engine.k == 2

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(policy="bogus")
        with pytest.raises(ConfigurationError):
            SystemConfig(k=0)
        with pytest.raises(ConfigurationError):
            SystemConfig(flush_fraction=0.0)
        with pytest.raises(ConfigurationError):
            SystemConfig(and_scan_depth=3, k=10)

    def test_with_overrides(self):
        config = SystemConfig(k=20)
        other = config.with_overrides(k=5, policy="fifo")
        assert other.k == 5
        assert other.policy == "fifo"
        assert config.k == 20


class TestMetrics:
    def test_digestion_rates_positive_after_ingest(self):
        system = tiny_system()
        for blog in make_blogs(50):
            system.ingest(blog)
        assert system.digestion_rate() > 0
        assert system.effective_digestion_rate() > 0

    def test_k_filled_count(self):
        system = tiny_system(k=3)
        for blog in make_blogs(4, keywords=("hot",)):
            system.ingest(blog)
        system.ingest(make_blog(keywords=("cold",)))
        assert system.k_filled_count() == 1

    def test_integrity_after_mixed_workload(self):
        system = tiny_system(memory_capacity_bytes=8_000)
        for i, blog in enumerate(make_blogs(200, keywords=("a", "b"))):
            system.ingest(blog)
            if i % 10 == 0:
                system.search(KeywordQuery("a", k=3))
        system.check_integrity()


class TestLifecycle:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_system_starts_no_threads(self, shards):
        # Flushing is synchronous, so a system owns no thread: dropping
        # it is its whole shutdown.
        before = threading.active_count()
        system = tiny_system(shards=shards, memory_capacity_bytes=20_000)
        for i, blog in enumerate(make_blogs(400, keywords=("a", "b", "c"))):
            system.ingest(blog)
            if i % 4 == 0:
                system.search(KeywordQuery("a", k=3))
        assert len(system.flush_reports()) >= 1
        del system
        assert threading.active_count() == before
