"""Unit tests for the flush buffer staging area."""

import pytest

from repro.storage.disk import DiskArchive
from repro.storage.flush_buffer import FlushBuffer
from repro.storage.memory_model import MemoryModel
from repro.storage.posting_list import Posting
from tests.conftest import disk_counter, make_blog


def posting(i):
    return Posting(float(i), float(i), i)


@pytest.fixture
def setup():
    model = MemoryModel()
    disk = DiskArchive(model)
    return model, disk, FlushBuffer(model, disk)


def stage_record(buffer, model, blog):
    buffer.stage(None, [], [blog], [model.record_bytes(blog)])


class TestBuffering:
    def test_starts_empty(self, setup):
        _, _, buffer = setup
        assert buffer.is_empty
        assert buffer.peak_bytes == 0

    def test_staged_record_tracks_bytes(self, setup):
        model, _, buffer = setup
        blog = make_blog()
        stage_record(buffer, model, blog)
        assert buffer.peak_bytes == model.record_bytes(blog)
        assert not buffer.is_empty

    def test_staged_posting_tracks_bytes(self, setup):
        model, _, buffer = setup
        buffer.stage("a", [posting(1)], [], [])
        assert buffer.peak_bytes == model.posting_bytes

    def test_postings_accumulate_per_key(self, setup):
        model, disk, buffer = setup
        buffer.stage("a", [posting(1)], [], [])
        buffer.stage("a", [posting(2)], [], [])
        assert buffer.peak_bytes == 2 * model.posting_bytes
        assert buffer.commit() == model.postings_bytes(2)
        assert disk.posting_count("a") == 2

    def test_stage_keeps_the_list_it_is_handed(self, setup):
        _, _, buffer = setup
        drained = [posting(1), posting(2)]
        buffer.stage("a", drained, [], [])
        assert buffer._postings["a"] is drained

    def test_staged_costs_are_what_the_commit_writes(self, setup):
        """The commit writes the staged record costs; it does not price
        the records again."""
        model, disk, buffer = setup
        blog = make_blog(keywords=("a",))
        buffer.stage("a", [posting(blog.blog_id)], [blog], [1_000])
        assert buffer.peak_bytes == 1_000 + model.posting_bytes
        assert buffer.commit() == 1_000 + model.postings_bytes(1)
        assert disk_counter(disk, "bytes_written") == 1_000 + model.postings_bytes(1)


class TestCommit:
    def test_commit_moves_to_disk_and_resets(self, setup):
        model, disk, buffer = setup
        blog = make_blog(keywords=("a",))
        buffer.stage("a", [posting(blog.blog_id)], [blog], [model.record_bytes(blog)])
        written = buffer.commit()
        assert written > 0
        assert buffer.is_empty
        assert disk.contains_record(blog.blog_id)
        assert disk.posting_count("a") == 1

    def test_commit_empty_is_free(self, setup):
        _, disk, buffer = setup
        assert buffer.commit() == 0
        assert disk_counter(disk, "flush_batches") == 0

    def test_single_batch_per_commit(self, setup):
        _, disk, buffer = setup
        for i in range(5):
            buffer.stage("a", [posting(i)], [], [])
        buffer.commit()
        assert disk_counter(disk, "flush_batches") == 1

    def test_peak_survives_commit(self, setup):
        model, _, buffer = setup
        blog = make_blog()
        stage_record(buffer, model, blog)
        peak = buffer.peak_bytes
        buffer.commit()
        assert buffer.peak_bytes == peak
        assert peak == model.record_bytes(blog)

    def test_peak_is_max_over_fills(self, setup):
        _, _, buffer = setup
        buffer.stage("a", [posting(i) for i in range(10)], [], [])
        buffer.commit()
        buffer.stage("a", [posting(99)], [], [])
        buffer.commit()
        model = MemoryModel()
        assert buffer.peak_bytes == 10 * model.posting_bytes
