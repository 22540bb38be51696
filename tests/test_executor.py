"""Unit tests for the query executor: hit semantics and exact fallback."""

import pytest

from repro.core.kflushing import KFlushingEngine
from repro.engine.executor import QueryExecutor
from repro.engine.queries import AndQuery, KeywordQuery, OrQuery
from repro.storage.disk import DiskArchive
from repro.storage.memory_model import MemoryModel
from tests.conftest import disk_counter, engine_kwargs, make_blog, make_blogs


@pytest.fixture
def setup():
    model = MemoryModel()
    disk = DiskArchive(model)
    eng = KFlushingEngine(
        mk=False, **engine_kwargs(model, disk, k=3, capacity=10**6)
    )
    return eng, disk, QueryExecutor(eng, disk)


class TestSingleKey:
    def test_hit_when_k_in_memory(self, setup):
        eng, _, ex = setup
        blogs = make_blogs(5, keywords=("hot",))
        for blog in blogs:
            eng.insert(blog)
        result = ex.execute(KeywordQuery("hot", k=3), now=1e6)
        assert result.memory_hit
        assert result.provably_exact
        assert result.disk_lookups == 0
        expected = sorted((b.blog_id for b in blogs), reverse=True)[:3]
        assert list(result.blog_ids) == expected

    def test_miss_when_too_few(self, setup):
        eng, _, ex = setup
        eng.insert(make_blog(keywords=("rare",)))
        result = ex.execute(KeywordQuery("rare", k=3), now=1e6)
        assert not result.memory_hit
        assert result.disk_lookups == 1
        assert len(result.postings) == 1  # all that exists anywhere

    def test_miss_merges_memory_and_disk_exactly(self, setup):
        eng, disk, ex = setup
        blogs = make_blogs(6, keywords=("hot",))
        for blog in blogs:
            eng.insert(blog)
        eng.run_flush(now=1e6)  # trims to top-3, rest on disk
        result = ex.execute(KeywordQuery("hot", k=5), now=1e6)
        assert not result.memory_hit  # memory holds only 3
        expected = sorted((b.blog_id for b in blogs), reverse=True)[:5]
        assert list(result.blog_ids) == expected
        assert result.provably_exact

    def test_unknown_key_empty_answer(self, setup):
        _, _, ex = setup
        result = ex.execute(KeywordQuery("ghost", k=3), now=1.0)
        assert not result.memory_hit
        assert result.postings == ()

    def test_hit_respects_floor_after_hole(self, setup):
        eng, _, ex = setup
        blogs = make_blogs(3, keywords=("k",))
        for blog in blogs:
            eng.insert(blog)
        entry = eng.index.get("k")
        entry.remove_id(blogs[1].blog_id)  # hole: floor rises
        eng.index.charge_removed_postings(1, "k")
        eng.raw.decref(blogs[1].blog_id)
        result = ex.execute(KeywordQuery("k", k=3), now=1e6)
        assert not result.memory_hit  # only 2 postings remain anyway


class TestOrQueries:
    def test_hit_when_all_keys_filled(self, setup):
        eng, _, ex = setup
        for blog in make_blogs(4, keywords=("a",)):
            eng.insert(blog)
        for blog in make_blogs(4, keywords=("b",)):
            eng.insert(blog)
        result = ex.execute(OrQuery(["a", "b"], k=3), now=1e6)
        assert result.memory_hit
        assert result.provably_exact

    def test_union_is_deduplicated(self, setup):
        eng, _, ex = setup
        shared = make_blogs(4, keywords=("a", "b"))
        for blog in shared:
            eng.insert(blog)
        result = ex.execute(OrQuery(["a", "b"], k=3), now=1e6)
        assert result.memory_hit
        assert len(set(result.blog_ids)) == 3

    def test_miss_when_one_key_short(self, setup):
        eng, _, ex = setup
        for blog in make_blogs(4, keywords=("a",)):
            eng.insert(blog)
        eng.insert(make_blog(keywords=("b",)))
        result = ex.execute(OrQuery(["a", "b"], k=3), now=1e6)
        assert not result.memory_hit
        # Only the short key pays disk: "a" holds a provable top-3 in
        # memory, so the union's top-3 cannot need its disk postings.
        assert result.disk_lookups == 1
        # Still exact: the union's top-3 are the three newest overall.
        assert len(result.postings) == 3

    def test_or_miss_skips_disk_for_provable_keys(self, setup):
        """Regression: the OR miss path used to pay a disk lookup for
        every key, including those whose in-memory top-k was provable."""
        eng, disk, ex = setup
        for blog in make_blogs(4, keywords=("a",)):
            eng.insert(blog)
        eng.insert(make_blog(keywords=("b",)))
        before = disk_counter(disk, "index_lookups")
        result = ex.execute(OrQuery(["a", "b"], k=3), now=1e6)
        assert result.disk_lookups == 1
        # The reported count matches the disk's own ledger.
        assert disk_counter(disk, "index_lookups") - before == 1

    def test_or_answer_is_true_union_topk(self, setup):
        eng, _, ex = setup
        a_blogs = make_blogs(4, keywords=("a",))
        b_blogs = make_blogs(4, keywords=("b",))
        for blog in a_blogs + b_blogs:
            eng.insert(blog)
        result = ex.execute(OrQuery(["a", "b"], k=4), now=1e6)
        all_ids = sorted((b.blog_id for b in a_blogs + b_blogs), reverse=True)
        assert list(result.blog_ids) == all_ids[:4]


class TestAndQueries:
    def test_hit_on_provable_intersection(self, setup):
        eng, _, ex = setup
        both = make_blogs(4, keywords=("a", "b"))
        for blog in both:
            eng.insert(blog)
        result = ex.execute(AndQuery(["a", "b"], k=3), now=1e6)
        assert result.memory_hit
        assert result.provably_exact
        expected = sorted((b.blog_id for b in both), reverse=True)[:3]
        assert list(result.blog_ids) == expected

    def test_miss_when_intersection_small(self, setup):
        eng, _, ex = setup
        eng.insert(make_blog(keywords=("a", "b")))
        for blog in make_blogs(3, keywords=("a",)):
            eng.insert(blog)
        for blog in make_blogs(3, keywords=("b",)):
            eng.insert(blog)
        result = ex.execute(AndQuery(["a", "b"], k=2), now=1e6)
        assert not result.memory_hit
        assert len(result.postings) == 1  # only one record has both

    def test_and_exact_after_flush(self, setup):
        eng, _, ex = setup
        both = make_blogs(6, keywords=("a", "b"))
        for blog in both:
            eng.insert(blog)
        for blog in make_blogs(6, keywords=("a",)):
            eng.insert(blog)
        eng.run_flush(now=1e6)  # "a" and "b" trimmed to top-3
        result = ex.execute(AndQuery(["a", "b"], k=5), now=1e6)
        expected = sorted((b.blog_id for b in both), reverse=True)[:5]
        assert list(result.blog_ids) == expected
        assert result.provably_exact

    def test_operational_hit_vs_strict(self, setup):
        """A hit assembled below the floors counts operationally (the
        paper's Section IV-D accounting) but not in strict mode."""
        eng, disk, _ = setup
        both = make_blogs(3, keywords=("a", "b"))
        for blog in both:
            eng.insert(blog)
        # Push "a" over k so a flush raises its floor above the shared
        # records, while MK-free trimming drops them from "a".
        for blog in make_blogs(6, keywords=("a",)):
            eng.insert(blog)
        eng.run_flush(now=1e6)
        lax = QueryExecutor(eng, disk, strict_and=False)
        strict = QueryExecutor(eng, disk, strict_and=True)
        q = AndQuery(["a", "b"], k=2)
        lax_result = lax.execute(q, now=1e6)
        strict_result = strict.execute(q, now=1e6)
        # After the flush the shared records were trimmed from "a", so
        # both must miss; the strict one must also be exact.
        assert strict_result.provably_exact
        assert set(strict_result.blog_ids) == set(lax_result.blog_ids)


class TestDepthCaps:
    def test_and_disk_limit_flags_inexact(self):
        model = MemoryModel()
        disk = DiskArchive(model)
        eng = KFlushingEngine(
            mk=False, **engine_kwargs(model, disk, k=3, capacity=10**6)
        )
        capped = QueryExecutor(eng, disk, and_scan_depth=5, and_disk_limit=5)
        for blog in make_blogs(10, keywords=("a", "b")):
            eng.insert(blog)
        for blog in make_blogs(10, keywords=("a",)):
            eng.insert(blog)
        eng.run_flush(now=1e6)
        result = capped.execute(AndQuery(["a", "b"], k=3), now=1e6)
        # Whatever the outcome, a capped evaluation never claims proof
        # unless it found k postings above all floors within the cap.
        if result.memory_hit:
            assert result.postings


class TestMaterialize:
    def test_fetches_memory_then_disk(self, setup):
        eng, disk, ex = setup
        blogs = make_blogs(6, keywords=("hot",))
        for blog in blogs:
            eng.insert(blog)
        eng.run_flush(now=1e6)
        result = ex.execute(KeywordQuery("hot", k=5), now=1e6)
        records = ex.materialize(result)
        assert [r.blog_id for r in records] == list(result.blog_ids)

    def test_bookkeeping_timer_accumulates(self, setup):
        eng, _, ex = setup
        for blog in make_blogs(4, keywords=("hot",)):
            eng.insert(blog)
        before = ex.bookkeeping_seconds
        ex.execute(KeywordQuery("hot", k=3), now=1e6)
        assert ex.bookkeeping_seconds >= before
