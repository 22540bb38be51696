"""Unit tests for the LRU (H-Store anti-cache) baseline."""

import pytest

from repro.core.lru import LRUEngine
from repro.core.recency_list import RecencyList
from repro.storage.disk import DiskArchive
from repro.storage.memory_model import MemoryModel
from tests.conftest import engine_kwargs, insert, make_blog, make_blogs


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
    return LRUEngine(**kwargs)


class TestRecencyList:
    def test_push_and_pop_fifo_without_touches(self):
        lst = RecencyList()
        for i in range(5):
            lst.push(i)
        assert len(lst) == 5
        assert lst.pop_lru() == 0
        assert lst.pop_lru() == 1

    def test_touch_moves_to_mru(self):
        lst = RecencyList()
        for i in range(3):
            lst.push(i)
        assert lst.touch(0)
        assert lst.pop_lru() == 1
        assert lst.pop_lru() == 2
        assert lst.pop_lru() == 0

    def test_touch_missing_returns_false(self):
        lst = RecencyList()
        assert not lst.touch(42)

    def test_pop_empty_returns_none(self):
        assert RecencyList().pop_lru() is None

    def test_remove_specific(self):
        lst = RecencyList()
        for i in range(3):
            lst.push(i)
        assert lst.remove(1)
        assert not lst.remove(1)
        assert list(lst.ids_lru_to_mru()) == [0, 2]

    def test_duplicate_push_rejected(self):
        lst = RecencyList()
        lst.push(1)
        with pytest.raises(ValueError):
            lst.push(1)

    def test_contains(self):
        lst = RecencyList()
        lst.push(9)
        assert 9 in lst
        assert 1 not in lst


class TestEviction:
    def test_evicts_least_recently_used(self, model, disk):
        eng = engine(model, disk, capacity=10**6)
        blogs = make_blogs(10, keywords=("k",))
        for blog in blogs:
            insert(eng, blog)
        # Touch the oldest three so they become most recent.
        protected = [b.blog_id for b in blogs[:3]]
        eng.note_query(["k"], protected, now=1e6)
        eng.flush_fraction = 0.3
        eng.run_flush(now=1e6)
        remaining = {r.blog_id for r in eng.raw}
        assert set(protected) <= remaining
        eng.check_integrity()

    def test_untouched_eviction_is_arrival_order(self, model, disk):
        eng = engine(model, disk, capacity=10**6, flush_fraction=0.4)
        blogs = make_blogs(10, keywords=("k",))
        for blog in blogs:
            insert(eng, blog)
        eng.run_flush(now=1e6)
        remaining = {r.blog_id for r in eng.raw}
        flushed = {b.blog_id for b in blogs} - remaining
        assert flushed
        assert max(flushed) < min(remaining)

    def test_eviction_punches_hole_and_raises_floor(self, model, disk):
        eng = engine(model, disk, capacity=10**6)
        blogs = make_blogs(6, keywords=("k",))
        for blog in blogs:
            insert(eng, blog)
        # Make a mid-list record the LRU victim: touch everything else.
        victim = blogs[2]
        others = [b.blog_id for b in blogs if b.blog_id != victim.blog_id]
        eng.note_query(["k"], others, now=1e6)
        eng.flush_fraction = 0.01  # evict just one record's worth
        eng.run_flush(now=1e6)
        assert victim.blog_id not in eng.raw
        lookup = eng.lookup("k")
        ids = [p.blog_id for p in lookup.candidates]
        assert victim.blog_id not in ids
        # Everything ranked at or below the hole is unprovable now.
        assert lookup.floor >= (victim.timestamp, victim.timestamp, victim.blog_id)

    def test_multi_keyword_record_removed_from_all_entries(self, model, disk):
        eng = engine(model, disk, capacity=10**6, flush_fraction=0.01)
        blog = make_blog(keywords=("a", "b"))
        insert(eng, blog)
        eng.run_flush(now=1e6)
        assert blog.blog_id not in eng.raw
        assert eng.index.get("a") is None  # entry became empty -> removed
        assert eng.index.get("b") is None
        assert disk.contains_record(blog.blog_id)
        assert disk.posting_count("a") == 1
        eng.check_integrity()

    def test_flush_meets_budget(self, model, disk):
        eng = engine(model, disk, capacity=30_000, flush_fraction=0.2)
        i = 0
        while not eng.needs_flush():
            insert(eng, make_blog(keywords=(f"kw{i % 7}",)))
            i += 1
        report = eng.run_flush(now=1e6)
        assert report.freed_bytes >= report.target_bytes
        assert report.bytes_written_to_disk > 0


class TestBookkeeping:
    def test_query_touch_protects_records(self, model, disk):
        eng = engine(model, disk, capacity=10**6)
        first = make_blog(keywords=("k",))
        insert(eng, first)
        rest = make_blogs(5, keywords=("k",))
        for blog in rest:
            insert(eng, blog)
        eng.note_query(["k"], [first.blog_id], now=1e6)
        eng.flush_fraction = 0.15
        eng.run_flush(now=1e6)
        assert first.blog_id in eng.raw

    def test_touch_of_nonresident_id_ignored(self, model, disk):
        eng = engine(model, disk)
        insert(eng, make_blog(keywords=("k",)))
        eng.note_query(["k"], [999_999], now=1.0)  # disk id: no-op

    def test_policy_overhead_scales_per_item(self, model, disk):
        eng = engine(model, disk, capacity=10**6)
        for blog in make_blogs(50):
            insert(eng, blog)
        assert eng.policy_overhead_bytes >= 50 * model.lru_node_bytes

    def test_k_filled_respects_holes(self, model, disk):
        eng = engine(model, disk, capacity=10**6, k=3)
        blogs = make_blogs(3, keywords=("k",))
        for blog in blogs:
            insert(eng, blog)
        assert eng.k_filled_count() == 1
        # Evict the middle record: 2 postings remain, plus a hole.
        eng.note_query(["k"], [blogs[0].blog_id, blogs[2].blog_id], now=1e6)
        eng.flush_fraction = 0.0001
        eng.run_flush(now=1e6)
        assert eng.k_filled_count() == 0

    def test_set_k_propagates(self, model, disk):
        eng = engine(model, disk)
        eng.set_k(7)
        assert eng.index.k == 7


class TestIntegrity:
    def test_check_passes_across_flushes(self, model, disk):
        eng = engine(model, disk, capacity=30_000, flush_fraction=0.2)
        for i in range(600):
            insert(eng, make_blog(keywords=(f"kw{i % 7}", f"kw{i % 11 + 7}")))
            if eng.needs_flush():
                eng.run_flush(now=1e6 + i)
        eng.check_integrity()

    def test_corrupt_pcount_detected(self, model, disk):
        """LRU evicts a record from all of its entries at once, so the
        shared pcount invariant holds under it and is checked."""
        eng = engine(model, disk, capacity=10**6)
        blog = make_blog(keywords=("a", "b"))
        insert(eng, blog)
        eng.check_integrity()
        eng.raw._pcounts[blog.blog_id] = 1  # two entries reference it
        with pytest.raises(AssertionError, match="pcount mismatch"):
            eng.check_integrity()
