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
        cost = store.add(blog, pcount=5)
        record, released = store.remove(blog.blog_id)
        assert record is blog
        assert released == cost
        assert blog.blog_id not in store
        assert store.bytes_used == 0

    def test_remove_unknown_raises(self, store):
        with pytest.raises(UnknownRecordError):
            store.remove(42)


class TestRelease:
    """The bulk release the flush phases use: one call per evicted entry."""

    def test_returns_freed_records_in_release_order(self, store):
        blogs = [make_blog() for _ in range(4)]
        for blog, pcount in zip(blogs, (1, 2, 1, 1)):
            store.add(blog, pcount=pcount)
        ids = [blogs[3].blog_id, blogs[1].blog_id, blogs[0].blog_id]
        records, _costs = store.release(ids)
        # blogs[1] keeps one reference and stays resident.
        assert records == [blogs[3], blogs[0]]
        assert store.pcount(blogs[1].blog_id) == 1
        assert blogs[2].blog_id in store
        records, _costs = store.release([blogs[1].blog_id, blogs[2].blog_id])
        assert records == [blogs[1], blogs[2]]
        assert len(store) == 0
        assert store.bytes_used == 0

    def test_costs_are_the_memoized_record_bytes(self, store, monkeypatch):
        model = MemoryModel()
        blogs = [make_blog(text="x" * n) for n in (1, 50, 200)]
        charged = [store.add(blog, pcount=1) for blog in blogs]
        assert charged == [model.record_bytes(blog) for blog in blogs]
        # Releasing reads the memo, never the model.
        monkeypatch.setattr(MemoryModel, "record_bytes", None)
        records, costs = store.release(b.blog_id for b in blogs)
        assert records == blogs
        assert costs == charged
        store.check_integrity()

    def test_unknown_id_raises_after_releasing_the_ids_before_it(self, store):
        blog = make_blog()
        store.add(blog, pcount=1)
        with pytest.raises(UnknownRecordError):
            store.release([blog.blog_id, 12345])
        assert blog.blog_id not in store
        store.check_integrity()

    def test_releasing_past_the_count_underflows(self, store):
        blog = make_blog()
        store.add(blog, pcount=2)
        # Three references dropped from a count of two: the record leaves
        # on the second and the third finds it gone.
        with pytest.raises(UnknownRecordError):
            store.release([blog.blog_id] * 3)
        store.check_integrity()

    def test_corrupt_count_is_an_underflow(self, store):
        blog = make_blog()
        store.add(blog, pcount=1)
        store._pcounts[blog.blog_id] = 0
        with pytest.raises(ValueError, match="underflow"):
            store.release([blog.blog_id])

    def test_decref_is_the_one_id_release(self, store):
        blog = make_blog()
        store.add(blog, pcount=2)
        assert store.decref(blog.blog_id) is None
        assert store.decref(blog.blog_id) is blog
        assert store.release([]) == ([], [])


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
