"""Unit tests for the temporally segmented index (FIFO substrate)."""

import pytest

from repro.errors import DuplicateRecordError
from repro.storage.memory_model import MemoryModel
from repro.storage.posting_list import MIN_SORT_KEY, Posting
from repro.storage.segmented_index import SegmentedIndex
from tests.conftest import make_blog


@pytest.fixture
def model():
    return MemoryModel()


def build(model, capacity=2_000):
    return SegmentedIndex(model, segment_capacity_bytes=capacity)


def insert_blog(index, blog):
    index.insert(blog, blog.keywords, Posting(blog.timestamp, blog.timestamp, blog.blog_id))


class TestSegments:
    def test_starts_with_one_open_segment(self, model):
        index = build(model)
        assert index.segment_count == 1
        assert not next(index.segments()).is_sealed

    def test_seals_when_capacity_reached(self, model):
        index = build(model, capacity=500)
        for _ in range(20):
            insert_blog(index, make_blog())
        assert index.segment_count > 1
        segments = list(index.segments())
        assert all(s.is_sealed for s in segments[:-1])
        assert not segments[-1].is_sealed

    def test_segments_temporally_disjoint(self, model):
        index = build(model, capacity=500)
        for _ in range(30):
            insert_blog(index, make_blog())
        segments = list(index.segments())
        for older, newer in zip(segments, segments[1:]):
            assert older.end_time is not None
            assert older.end_time <= newer.start_time

    def test_duplicate_record_rejected(self, model):
        index = build(model)
        blog = make_blog()
        insert_blog(index, blog)
        with pytest.raises(DuplicateRecordError):
            insert_blog(index, blog)

    def test_invalid_capacity_rejected(self, model):
        with pytest.raises(ValueError):
            SegmentedIndex(model, segment_capacity_bytes=0)


class TestLookup:
    def test_candidates_cross_segments_best_first(self, model):
        index = build(model, capacity=400)
        blogs = [make_blog(keywords=("k",)) for _ in range(15)]
        for blog in blogs:
            insert_blog(index, blog)
        assert index.segment_count > 1
        candidates = index.candidates("k")
        ids = [p.blog_id for p in candidates]
        assert ids == sorted(ids, reverse=True)
        assert len(ids) == 15

    def test_candidates_depth_cap(self, model):
        index = build(model, capacity=400)
        for _ in range(15):
            insert_blog(index, make_blog(keywords=("k",)))
        top3 = index.candidates("k", depth=3)
        full = index.candidates("k")
        assert [p.blog_id for p in top3] == [p.blog_id for p in full[:3]]

    def test_missing_key(self, model):
        index = build(model)
        assert index.candidates("ghost") == []

    def test_get_record(self, model):
        index = build(model, capacity=400)
        blogs = [make_blog() for _ in range(12)]
        for blog in blogs:
            insert_blog(index, blog)
        assert index.get_record(blogs[0].blog_id) is blogs[0]
        assert index.get_record(999_999) is None


class TestEviction:
    def test_pop_oldest_removes_first_segment(self, model):
        index = build(model, capacity=400)
        for _ in range(20):
            insert_blog(index, make_blog(keywords=("k",)))
        before = index.record_count()
        segment = index.pop_oldest()
        assert index.record_count() == before - len(segment.records)

    def test_floor_rises_after_eviction(self, model):
        index = build(model, capacity=400)
        for _ in range(20):
            insert_blog(index, make_blog(keywords=("k",)))
        assert index.flushed_floor == MIN_SORT_KEY
        segment = index.pop_oldest()
        newest_flushed = max(p.sort_key for e in segment.entries.values() for p in e)
        assert index.flushed_floor == newest_flushed

    def test_evicting_everything_leaves_open_segment(self, model):
        index = build(model, capacity=400)
        for _ in range(10):
            insert_blog(index, make_blog())
        while index.record_count() > 0:
            index.pop_oldest()
        assert index.segment_count >= 1
        insert_blog(index, make_blog())  # still usable
        assert index.record_count() == 1

    def test_bytes_shrink_on_eviction(self, model):
        index = build(model, capacity=400)
        for _ in range(20):
            insert_blog(index, make_blog())
        before = index.bytes_used
        index.pop_oldest()
        assert index.bytes_used < before


class TestMetrics:
    def test_key_posting_counts_aggregate(self, model):
        index = build(model, capacity=400)
        for _ in range(8):
            insert_blog(index, make_blog(keywords=("a",)))
        for _ in range(3):
            insert_blog(index, make_blog(keywords=("b",)))
        counts = index.key_posting_counts()
        assert counts == {"a": 8, "b": 3}

    def test_k_filled_count(self, model):
        index = build(model, capacity=100_000)
        for _ in range(5):
            insert_blog(index, make_blog(keywords=("hot",)))
        insert_blog(index, make_blog(keywords=("cold",)))
        assert index.k_filled_count(5) == 1
        assert index.k_filled_count(1) == 2

    def test_k_filled_after_eviction(self, model):
        index = build(model, capacity=300)
        for _ in range(20):
            insert_blog(index, make_blog(keywords=("k",)))
        index.pop_oldest()
        remaining = index.record_count()
        # Everything still in memory arrived after the flushed segment, so
        # it sits above the floor: the key is k-filled for its remaining
        # count but not for one more.
        assert index.k_filled_count(remaining) == 1
        assert index.k_filled_count(remaining + 1) == 0
