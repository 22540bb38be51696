"""Failure-injection tests: wrong usage and injected faults must surface
loudly and leave detectable (never silently corrupt) state."""

import threading

import pytest

from repro.core.kflushing import KFlushingEngine
from repro.core.recency_list import RecencyList
from repro.errors import DuplicateRecordError
from repro.model.ranking import PopularityRanking
from repro.storage.disk import DiskArchive
from repro.storage.memory_model import MemoryModel
from repro.storage.posting_list import MIN_SORT_KEY
from tests.conftest import engine_kwargs, make_blog, make_blogs


@pytest.fixture
def model():
    return MemoryModel()


@pytest.fixture
def disk(model):
    return DiskArchive(model)


class TestDuplicateAndUnderflow:
    def test_duplicate_ingest_rejected_everywhere(self, model, disk):
        eng = KFlushingEngine(mk=False, **engine_kwargs(model, disk))
        blog = make_blog()
        eng.insert(blog)
        with pytest.raises(DuplicateRecordError):
            eng.insert(blog)

    def test_pcount_underflow_detected(self, model, disk):
        eng = KFlushingEngine(mk=False, **engine_kwargs(model, disk))
        blog = make_blog(keywords=("a",))
        eng.insert(blog)
        eng.raw.decref(blog.blog_id)  # record leaves the store
        with pytest.raises(Exception):
            eng.raw.decref(blog.blog_id)

    def test_integrity_check_catches_manual_corruption(self, model, disk):
        eng = KFlushingEngine(mk=False, **engine_kwargs(model, disk))
        for blog in make_blogs(5, keywords=("a",)):
            eng.insert(blog)
        # Corrupt: remove a posting without charging the index.
        eng.index.get("a")._postings.pop()
        with pytest.raises(AssertionError):
            eng.check_integrity()


class TestDiskFaults:
    def test_disk_failure_during_flush_propagates(self, model, disk, monkeypatch):
        """An injected disk fault must raise out of the flush (never be
        swallowed), so operators see the data-loss window immediately."""
        eng = KFlushingEngine(
            mk=False, **engine_kwargs(model, disk, k=2, capacity=100_000)
        )
        for blog in make_blogs(10, keywords=("hot",)):
            eng.insert(blog)

        def boom(*args, **kwargs):
            raise IOError("disk unplugged")

        monkeypatch.setattr(disk, "commit_flush", boom)
        with pytest.raises(IOError, match="disk unplugged"):
            eng.run_flush(now=1e6)

    def test_flush_after_disk_recovery_continues(self, model, disk, monkeypatch):
        eng = KFlushingEngine(
            mk=False, **engine_kwargs(model, disk, k=2, capacity=100_000)
        )
        for blog in make_blogs(10, keywords=("hot",)):
            eng.insert(blog)
        original = disk.commit_flush
        monkeypatch.setattr(
            disk, "commit_flush", lambda *a, **k: (_ for _ in ()).throw(IOError())
        )
        with pytest.raises(IOError):
            eng.run_flush(now=1e6)
        monkeypatch.setattr(disk, "commit_flush", original)
        # The staged buffer survived the failed commit; the next flush
        # lands everything (idempotent record writes make this safe).
        for blog in make_blogs(10, keywords=("hot",)):
            eng.insert(blog)
        report = eng.run_flush(now=2e6)
        assert report.bytes_written_to_disk > 0
        assert disk.record_count > 0


    def test_failed_commit_leaves_no_false_memory_hit(self, model, disk, monkeypatch):
        """A wholesale eviction raises the global floor when it happens,
        not after the commit: a commit that fails must not let a
        re-created entry claim completeness over the evicted posting."""
        kwargs = engine_kwargs(model, disk, k=2, capacity=100_000, flush_fraction=1.0)
        kwargs["ranking"] = PopularityRanking()
        eng = KFlushingEngine(mk=False, **kwargs)
        star = make_blog(keywords=("a",), timestamp=1.0, followers=10**8)
        eng.insert(star)
        original = disk.commit_flush
        monkeypatch.setattr(
            disk, "commit_flush", lambda *a, **k: (_ for _ in ()).throw(IOError())
        )
        with pytest.raises(IOError):
            eng.run_flush(now=10.0)  # Phase 2 evicts the under-k entry "a"
        assert eng.index.get("a") is None
        assert eng.global_floor > MIN_SORT_KEY
        monkeypatch.setattr(disk, "commit_flush", original)
        for ts in (2.0, 3.0):
            eng.insert(make_blog(keywords=("a",), timestamp=ts, followers=0))
        # The star still ranks first, so memory cannot prove a top-2.
        assert eng.lookup("a").provable_top(2) is None
        eng.run_flush(now=20.0)
        assert disk.lookup("a", limit=1)[0].blog_id == star.blog_id


class TestRecencyListThreadSafety:
    def test_concurrent_push_touch_pop(self):
        """The lock keeps the doubly-linked list structurally sound under
        concurrent mutation (the paper's multi-threaded access pattern)."""
        lst = RecencyList()
        for i in range(2_000):
            lst.push(i)
        errors: list[BaseException] = []

        def toucher():
            try:
                for i in range(4_000):
                    lst.touch(i % 2_000)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        def popper():
            try:
                for _ in range(500):
                    lst.pop_lru()
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        def pusher():
            try:
                for i in range(2_000, 2_500):
                    lst.push(i)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=fn)
            for fn in (toucher, toucher, popper, pusher)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Walkable end to end and consistent with the node map.
        ids = list(lst.ids_lru_to_mru())
        assert len(ids) == len(lst)
        assert len(set(ids)) == len(ids)
