"""Unit tests for the simulated disk archive and its I/O accounting."""

import pytest

from repro.storage.disk import DiskArchive, DiskCostModel
from repro.storage.memory_model import MemoryModel
from repro.storage.posting_list import Posting
from tests.conftest import disk_counter, make_blog


def posting(i):
    return Posting(float(i), float(i), i)


@pytest.fixture
def model():
    return MemoryModel()


@pytest.fixture
def disk(model):
    return DiskArchive(model)


class TestCommitFlush:
    def test_records_and_postings_persist(self, disk):
        blogs = [make_blog(keywords=("a",)) for _ in range(3)]
        disk.commit_flush(blogs, {"a": [posting(b.blog_id) for b in blogs]})
        assert disk.record_count == 3
        assert disk.posting_count("a") == 3
        assert disk.contains_record(blogs[0].blog_id)

    def test_returns_bytes_written(self, disk, model):
        blog = make_blog(keywords=("a",))
        written = disk.commit_flush([blog], {"a": [posting(blog.blog_id)]})
        assert written == model.record_bytes(blog) + model.postings_bytes(1)

    def test_duplicate_record_commit_idempotent(self, disk):
        blog = make_blog(keywords=("a",))
        disk.commit_flush([blog], {})
        disk.commit_flush([blog], {})
        assert disk.record_count == 1

    def test_postings_kept_sorted(self, disk):
        disk.commit_flush([], {"a": [posting(5), posting(1)]})
        disk.commit_flush([], {"a": [posting(3)]})
        result = disk.lookup("a")
        assert [p.blog_id for p in result] == [5, 3, 1]

    def test_stats_counters(self, disk):
        blog = make_blog(keywords=("a",))
        disk.commit_flush([blog], {"a": [posting(blog.blog_id)]})
        assert disk_counter(disk, "flush_batches") == 1
        assert disk_counter(disk, "records_written") == 1
        assert disk_counter(disk, "postings_written") == 1
        assert disk_counter(disk, "bytes_written") > 0
        assert disk.simulated_io_seconds > 0


class TestLookup:
    def test_best_first(self, disk):
        disk.commit_flush([], {"a": [posting(i) for i in range(1, 6)]})
        assert [p.blog_id for p in disk.lookup("a")] == [5, 4, 3, 2, 1]

    def test_limit(self, disk):
        disk.commit_flush([], {"a": [posting(i) for i in range(1, 6)]})
        assert [p.blog_id for p in disk.lookup("a", limit=2)] == [5, 4]

    def test_missing_key_empty(self, disk):
        assert disk.lookup("ghost") == []
        assert disk_counter(disk, "index_lookups") == 1

    def test_lookup_charges_io(self, disk):
        disk.commit_flush([], {"a": [posting(1)]})
        before = disk.simulated_io_seconds
        disk.lookup("a")
        assert disk.simulated_io_seconds > before
        assert disk_counter(disk, "bytes_read") > 0


class TestFetchRecord:
    def test_fetch_returns_record_and_charges(self, disk):
        blog = make_blog(keywords=("a",))
        disk.commit_flush([blog], {})
        fetched = disk.fetch_record(blog.blog_id)
        assert fetched is blog
        assert disk_counter(disk, "record_fetches") == 1

    def test_fetch_missing_returns_none(self, disk):
        assert disk.fetch_record(404) is None
        assert disk_counter(disk, "record_fetches") == 0
        assert disk_counter(disk, "bytes_read") == 0

    def test_fetch_charges_the_record_bytes(self, disk, model):
        blog = make_blog(keywords=("a",))
        disk.commit_flush([blog], {})
        before = disk.simulated_io_seconds
        assert disk.fetch_record(blog.blog_id) is blog
        assert disk_counter(disk, "bytes_read") == model.record_bytes(blog)
        assert disk.simulated_io_seconds - before == pytest.approx(
            DiskCostModel().read_cost(model.record_bytes(blog))
        )


class TestPostingIdempotency:
    """commit_flush must be idempotent per (key, blog_id).

    Regression tests: before PR 4 a posting trimmed in one flush and
    re-flushed later (e.g. alongside its record body) was appended to
    the disk index twice, inflating ``posting_count`` and the merge
    inputs of every later lookup.
    """

    def test_reflushed_posting_written_once(self, disk):
        disk.commit_flush([], {"a": [posting(1)]})
        disk.commit_flush([], {"a": [posting(1)]})
        assert disk.posting_count("a") == 1
        assert [p.blog_id for p in disk.lookup("a")] == [1]
        assert disk_counter(disk, "postings_written") == 1

    def test_reflush_charges_no_posting_bytes(self, disk, model):
        disk.commit_flush([], {"a": [posting(1)]})
        written = disk.commit_flush([], {"a": [posting(1)]})
        assert written == 0

    def test_duplicate_within_one_batch(self, disk):
        disk.commit_flush([], {"a": [posting(1), posting(1), posting(2)]})
        assert disk.posting_count("a") == 2

    def test_partly_reflushed_batch_writes_only_the_fresh(self, disk):
        disk.commit_flush([], {"a": [posting(1)]})
        disk.commit_flush([], {"a": [posting(1), posting(2)]})
        assert disk.posting_count("a") == 2
        assert [p.blog_id for p in disk.lookup("a")] == [2, 1]


class TestSegmentedRuns:
    def test_each_batch_is_one_run(self, disk):
        # Overlapping score ranges: neither batch extends the other.
        disk.commit_flush([], {"a": [posting(2), posting(6)]})
        disk.commit_flush([], {"a": [posting(1), posting(4)]})
        assert disk.run_count("a") == 2
        assert [p.blog_id for p in disk.lookup("a")] == [6, 4, 2, 1]

    def test_rank_ordered_batch_extends_newest_run(self, disk):
        disk.commit_flush([], {"a": [posting(1), posting(2)]})
        disk.commit_flush([], {"a": [posting(3), posting(4)]})
        assert disk.run_count("a") == 1
        assert [p.blog_id for p in disk.lookup("a")] == [4, 3, 2, 1]

    def test_unsorted_batch_is_sorted_once(self, disk):
        disk.commit_flush([], {"a": [posting(5), posting(1), posting(3)]})
        assert disk.run_count("a") == 1
        assert [p.blog_id for p in disk.lookup("a")] == [5, 3, 1]

    def test_compaction_bounds_run_count(self, model):
        disk = DiskArchive(model, max_runs_per_key=4)
        # Descending batches: every batch opens a new run.
        for i in range(20, 0, -1):
            disk.commit_flush([], {"a": [posting(i)]})
        assert disk.run_count("a") <= 4
        assert disk_counter(disk, "compactions") > 0
        assert [p.blog_id for p in disk.lookup("a")] == list(range(20, 0, -1))

    def test_bounded_lookup_walks_run_tails(self, disk):
        disk.commit_flush([], {"a": [posting(2), posting(8)]})
        disk.commit_flush([], {"a": [posting(5), posting(9)]})
        assert [p.blog_id for p in disk.lookup("a", limit=3)] == [9, 8, 5]

    def test_lookups_agree_with_sorted_reference(self, model):
        runs = DiskArchive(model)
        cost = DiskCostModel()
        batches = [
            {"a": [posting(3), posting(7)], "b": [posting(2)]},
            {"a": [posting(1), posting(5)]},
            {"a": [posting(9)], "b": [posting(4)]},
        ]
        # The reference: per key, everything committed, best rank first.
        committed = {"a": [], "b": [], "ghost": []}
        io_seconds = 0.0
        for batch in batches:
            runs.commit_flush([], batch)
            for key, postings in batch.items():
                committed[key] = sorted(committed[key] + postings, reverse=True)
            io_seconds += cost.write_cost(
                model.postings_bytes(sum(map(len, batch.values())))
            )
        for key, expected in committed.items():
            assert list(runs.lookup(key)) == expected
            assert list(runs.lookup(key, limit=2)) == expected[:2]
            io_seconds += cost.read_cost(model.postings_bytes(len(expected)))
            io_seconds += cost.read_cost(model.postings_bytes(len(expected[:2])))
        assert runs.simulated_io_seconds == pytest.approx(io_seconds)


class TestCostModel:
    def test_write_cost_monotone_in_bytes(self):
        cost = DiskCostModel()
        assert cost.write_cost(1_000_000) > cost.write_cost(10)
        assert cost.write_cost(0) == pytest.approx(cost.seek_seconds)

    def test_read_cost_includes_seek(self):
        cost = DiskCostModel(seek_seconds=0.01)
        assert cost.read_cost(0) == pytest.approx(0.01)

    def test_custom_cost_model_applied(self, model):
        slow = DiskArchive(model, DiskCostModel(seek_seconds=1.0))
        fast = DiskArchive(model, DiskCostModel(seek_seconds=1e-6))
        slow.lookup("x")
        fast.lookup("x")
        assert slow.simulated_io_seconds > fast.simulated_io_seconds

    def test_key_count(self, disk):
        disk.commit_flush([], {"a": [posting(1)], "b": [posting(2)]})
        assert disk.key_count == 2
