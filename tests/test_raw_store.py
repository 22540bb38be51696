"""Unit tests for the raw data store and its reference counts."""

import pytest

from repro.errors import DuplicateRecordError, UnknownRecordError
from repro.storage.memory_model import MemoryModel
from repro.storage.raw_store import RawDataStore
from repro.workload.stream import MicroblogStream, StreamConfig
from tests.conftest import make_blog


@pytest.fixture
def store():
    return RawDataStore(MemoryModel())


class TestAddAndGet:
    def test_add_returns_cost(self, store):
        blog = make_blog()
        cost = store.add(blog, pcount=1)
        assert cost == MemoryModel().record_bytes(blog)
        assert store.bytes_used == cost

    def test_get_returns_record(self, store):
        blog = make_blog()
        store.add(blog, pcount=2)
        assert store.get(blog.blog_id) is blog

    def test_contains_and_len(self, store):
        blog = make_blog()
        assert blog.blog_id not in store
        store.add(blog, pcount=1)
        assert blog.blog_id in store
        assert len(store) == 1

    def test_duplicate_rejected(self, store):
        blog = make_blog()
        store.add(blog, pcount=1)
        with pytest.raises(DuplicateRecordError):
            store.add(blog, pcount=1)

    def test_non_positive_pcount_rejected(self, store):
        with pytest.raises(ValueError):
            store.add(make_blog(), pcount=0)

    def test_unknown_get_raises(self, store):
        with pytest.raises(UnknownRecordError):
            store.get(999)

    def test_iteration(self, store):
        blogs = [make_blog() for _ in range(3)]
        for blog in blogs:
            store.add(blog, pcount=1)
        assert set(store) == set(blogs)


class TestDecref:
    def test_decref_keeps_record_until_zero(self, store):
        blog = make_blog()
        store.add(blog, pcount=3)
        assert store.decref(blog.blog_id) is None
        assert store.decref(blog.blog_id) is None
        assert store.pcount(blog.blog_id) == 1
        assert blog.blog_id in store

    def test_final_decref_returns_and_removes(self, store):
        blog = make_blog()
        store.add(blog, pcount=1)
        returned = store.decref(blog.blog_id)
        assert returned is blog
        assert blog.blog_id not in store
        assert store.bytes_used == 0

    def test_decref_unknown_raises(self, store):
        with pytest.raises(UnknownRecordError):
            store.decref(123)

    def test_pcount_tracks(self, store):
        blog = make_blog()
        store.add(blog, pcount=2)
        assert store.pcount(blog.blog_id) == 2
        store.decref(blog.blog_id)
        assert store.pcount(blog.blog_id) == 1


class TestRemove:
    def test_remove_ignores_pcount(self, store):
        blog = make_blog()
        store.add(blog, pcount=5)
        assert store.remove(blog.blog_id) is blog
        assert blog.blog_id not in store
        assert store.bytes_used == 0

    def test_remove_unknown_raises(self, store):
        with pytest.raises(UnknownRecordError):
            store.remove(42)


class TestIntegrity:
    def test_bytes_accounting_across_operations(self, store):
        blogs = [make_blog(text="x" * i) for i in range(10)]
        for blog in blogs:
            store.add(blog, pcount=2)
        store.check_integrity()
        for blog in blogs[:5]:
            store.decref(blog.blog_id)
            store.decref(blog.blog_id)
        store.check_integrity()
        model = MemoryModel()
        expected = sum(model.record_bytes(b) for b in blogs[5:])
        assert store.bytes_used == expected


@pytest.fixture
def stream_records():
    stream = MicroblogStream(
        StreamConfig(seed=11, vocabulary_size=500, with_locations=False)
    )
    return stream.take(64)


def test_raw_store_releases_memoized_cost_not_recomputed(
    stream_records, monkeypatch
):
    model = MemoryModel()
    store = RawDataStore(model)
    record = stream_records[0]
    charged = store.add(record, pcount=2)
    assert charged == model.record_bytes(record)
    assert store.bytes_used == charged
    # A mid-run change in model pricing must not skew release accounting:
    # the store frees exactly what it charged at insert time.
    original = MemoryModel.record_bytes
    monkeypatch.setattr(
        MemoryModel, "record_bytes", lambda self, r: original(self, r) + 1_000
    )
    assert store.decref(record.blog_id) is None
    released = store.decref(record.blog_id)
    assert released is record
    assert store.bytes_used == 0
