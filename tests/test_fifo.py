"""Unit tests for the FIFO (temporal flushing) baseline."""

import pytest

from repro.core.fifo import FIFOEngine
from repro.storage.disk import DiskArchive
from repro.storage.memory_model import MemoryModel
from tests.conftest import engine_kwargs, insert, make_blog, make_blogs, tiny_system


@pytest.fixture
def model():
    return MemoryModel()


@pytest.fixture
def disk(model):
    return DiskArchive(model)


def engine(model, disk, **overrides):
    kwargs = engine_kwargs(
        model,
        disk,
        k=overrides.pop("k", 3),
        capacity=overrides.pop("capacity", 20_000),
        flush_fraction=overrides.pop("flush_fraction", 0.25),
    )
    kwargs.update(overrides)
    return FIFOEngine(**kwargs)


class TestInsert:
    def test_indexes_and_counts(self, model, disk):
        eng = engine(model, disk)
        blog = make_blog(keywords=("a", "b"))
        insert(eng, blog)
        assert eng.record_count() == 1
        assert [p.blog_id for p in eng.lookup("a").candidates] == [blog.blog_id]

    def test_keywordless_skipped(self):
        # The facade drops a keyless record before any engine sees it.
        system = tiny_system("fifo")
        assert not system.ingest(make_blog(keywords=()))
        assert system.engine.record_count() == 0
        assert system.frequency_snapshot() == {}

    def test_get_record(self, model, disk):
        eng = engine(model, disk)
        blog = make_blog()
        insert(eng, blog)
        assert eng.get_record(blog.blog_id) is blog
        assert eng.get_record(10**9) is None


class TestFlush:
    def fill(self, eng, n=200, key="hot"):
        blogs = make_blogs(n, keywords=(key,))
        for blog in blogs:
            insert(eng, blog)
        return blogs

    def test_flush_evicts_oldest_data(self, model, disk):
        eng = engine(model, disk)
        blogs = self.fill(eng)
        report = eng.run_flush(now=1e6)
        assert report.freed_bytes >= report.target_bytes
        remaining = {p.blog_id for p in eng.lookup("hot").candidates}
        flushed = {b.blog_id for b in blogs} - remaining
        assert flushed
        assert max(flushed) < min(remaining)

    def test_flushed_data_on_disk(self, model, disk):
        eng = engine(model, disk)
        blogs = self.fill(eng)
        eng.run_flush(now=1e6)
        oldest = blogs[0]
        assert disk.contains_record(oldest.blog_id)
        assert disk.posting_count("hot") > 0

    def test_whole_segments_evicted(self, model, disk):
        eng = engine(model, disk)
        self.fill(eng)
        segments_before = eng.segmented.segment_count
        eng.run_flush(now=1e6)
        assert eng.segmented.segment_count < segments_before

    def test_floor_rises(self, model, disk):
        eng = engine(model, disk)
        self.fill(eng)
        eng.run_flush(now=1e6)
        assert eng.lookup("hot").floor > (float("-inf"), float("-inf"), -1)

    def test_memory_drops_below_capacity(self, model, disk):
        eng = engine(model, disk, capacity=15_000)
        i = 0
        while not eng.needs_flush():
            insert(eng, make_blog(keywords=(f"kw{i % 10}",)))
            i += 1
        eng.run_flush(now=1e6)
        assert eng.memory_bytes < eng.capacity_bytes


class TestMetrics:
    def test_k_filled(self, model, disk):
        eng = engine(model, disk, capacity=10**6)
        for blog in make_blogs(5, keywords=("hot",)):
            insert(eng, blog)
        insert(eng, make_blog(keywords=("cold",)))
        assert eng.k_filled_count() == 1  # k=3: only "hot" qualifies

    def test_policy_overhead_is_segment_headers_only(self, model, disk):
        eng = engine(model, disk)
        for blog in make_blogs(100):
            insert(eng, blog)
        expected = model.segment_overhead * eng.segmented.segment_count
        assert eng.policy_overhead_bytes == expected

    def test_frequency_snapshot(self, model, disk):
        eng = engine(model, disk, capacity=10**6)
        insert(eng, make_blog(keywords=("a", "b")))
        insert(eng, make_blog(keywords=("a",)))
        assert eng.frequency_snapshot() == {"a": 2, "b": 1}

    def test_note_query_is_noop(self, model, disk):
        eng = engine(model, disk)
        insert(eng, make_blog(keywords=("a",)))
        eng.note_query(["a"], [1], now=50.0)  # must not raise

    def test_lookup_depth(self, model, disk):
        eng = engine(model, disk, capacity=10**6)
        for blog in make_blogs(10, keywords=("hot",)):
            insert(eng, blog)
        top = eng.lookup("hot", depth=4).candidates
        full = eng.lookup("hot").candidates
        assert top == full[:4]
