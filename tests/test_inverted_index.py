"""Unit tests for the hash inverted index, its overflow list L and its
Phase 2/3 recency orders."""

import pytest

from repro.storage.inverted_index import HashInvertedIndex
from repro.storage.memory_model import MemoryModel
from repro.storage.posting_list import MIN_SORT_KEY, Posting


def posting(i):
    return Posting(float(i), float(i), i)


@pytest.fixture
def model():
    return MemoryModel()


@pytest.fixture
def index(model):
    return HashInvertedIndex(model, k=3)


def fill(index, key, ids):
    for i in ids:
        index.insert(key, posting(i), now=float(i))


class TestInsert:
    def test_creates_entry(self, index):
        fill(index, "a", [1])
        assert "a" in index
        assert len(index) == 1
        assert len(index.get("a")) == 1

    def test_missing_key_returns_none(self, index):
        assert index.get("nope") is None

    def test_bytes_accounting(self, index, model):
        fill(index, "a", [1, 2])
        fill(index, "b", [3])
        expected = model.entry_bytes(2) + model.entry_bytes(1)
        assert index.bytes_used == expected

    def test_invalid_k_rejected(self, model):
        with pytest.raises(ValueError):
            HashInvertedIndex(model, k=0)

    def test_created_floor_seeded(self, index):
        floor = (5.0, 5.0, 99)
        index.insert("a", posting(10), now=10.0, created_floor=floor)
        assert index.get("a").floor == floor

    def test_existing_entry_keeps_floor(self, index):
        index.insert("a", posting(1), now=1.0)
        index.insert("a", posting(2), now=2.0, created_floor=(9.0, 9.0, 9))
        assert index.get("a").floor == MIN_SORT_KEY


class TestOverflowList:
    def test_under_k_not_in_overflow(self, index):
        fill(index, "a", [1, 2, 3])
        assert index.overflow_keys == frozenset()

    def test_beyond_k_enters_overflow(self, index):
        fill(index, "a", [1, 2, 3, 4])
        assert index.overflow_keys == frozenset({"a"})

    def test_clear_and_wipe(self, index):
        fill(index, "a", [1, 2, 3, 4])
        fill(index, "b", [5, 6, 7, 8])
        index.clear_overflow("a")
        assert index.overflow_keys == frozenset({"b"})
        index.wipe_overflow()
        assert index.overflow_keys == frozenset()

    def test_remove_entry_clears_overflow(self, index):
        fill(index, "a", [1, 2, 3, 4])
        index.remove_entry("a")
        assert index.overflow_keys == frozenset()


class TestKFilled:
    def test_counts_keys_with_k_provable(self, index):
        fill(index, "hot", [1, 2, 3, 4, 5])
        fill(index, "warm", [6, 7, 8])
        fill(index, "cold", [9])
        assert index.k_filled_count() == 2

    def test_respects_floors(self, index):
        fill(index, "a", [1, 2, 3])
        index.get("a").remove_id(2)  # punches a hole, floor rises
        index.charge_removed_postings(1, "a")
        fill(index, "a", [4])  # back to 3 postings, but 1 is below floor
        assert index.k_filled_count() == 0

    def test_explicit_threshold(self, index):
        fill(index, "a", [1, 2])
        assert index.k_filled_count(2) == 1
        assert index.k_filled_count(3) == 0


class TestSetK:
    def test_rebuilds_overflow_on_decrease(self, index):
        fill(index, "a", [1, 2, 3])  # exactly k=3: not overflow
        index.set_k(2)
        assert index.overflow_keys == frozenset({"a"})
        assert index.k == 2

    def test_rebuilds_overflow_on_increase(self, index):
        fill(index, "a", [1, 2, 3, 4])
        index.set_k(10)
        assert index.overflow_keys == frozenset()

    def test_same_k_noop(self, index):
        fill(index, "a", [1, 2, 3, 4])
        index.set_k(3)
        assert index.overflow_keys == frozenset({"a"})

    def test_invalid_k_rejected(self, index):
        with pytest.raises(ValueError):
            index.set_k(0)


class TestRemovalAccounting:
    def test_remove_entry_frees_bytes(self, index, model):
        fill(index, "a", [1, 2])
        fill(index, "b", [3])
        entry = index.remove_entry("a")
        assert len(entry) == 2
        assert index.bytes_used == model.entry_bytes(1)
        assert "a" not in index

    def test_charge_removed_postings(self, index, model):
        fill(index, "a", [1, 2, 3])
        entry = index.get("a")
        removed = entry.trim_beyond(1)
        freed = index.charge_removed_postings(len(removed), "a")
        assert freed == 2 * model.posting_bytes
        index.check_integrity()

    def test_negative_charge_rejected(self, index):
        with pytest.raises(ValueError):
            index.charge_removed_postings(-1, "a")

    def test_posting_count_tracks(self, index):
        fill(index, "a", [1, 2, 3])
        fill(index, "b", [4])
        assert index.posting_count() == 4
        index.remove_entry("b")
        assert index.posting_count() == 3


class TestTouchQuery:
    def test_updates_last_query(self, index):
        fill(index, "a", [1])
        index.touch_query("a", 50.0)
        assert index.get("a").last_query == 50.0

    def test_missing_key_is_noop(self, index):
        index.touch_query("ghost", 1.0)  # must not raise

    def test_frequency_snapshot(self, index):
        fill(index, "a", [1, 2])
        fill(index, "b", [3])
        assert index.frequency_snapshot() == {"a": 2, "b": 1}


def keys_of(entries):
    return [entry.key for entry in entries]


class TestRecencyOrders:
    def test_arrival_order_holds_under_k_keys_oldest_first(self, index):
        fill(index, "a", [1])
        fill(index, "b", [2])
        fill(index, "c", [3])
        fill(index, "a", [4])  # "a" arrives again: now the newest
        assert keys_of(index.oldest_arrivals()) == ["b", "c", "a"]
        fill(index, "b", [5, 6])  # "b" reaches k=3 and leaves the order
        assert keys_of(index.oldest_arrivals()) == ["c", "a"]
        index.check_integrity()

    def test_query_order_holds_every_key_oldest_first(self, index):
        fill(index, "a", [1])
        fill(index, "b", [2, 3, 4, 5])
        index.touch_query("a", 10.0)
        assert keys_of(index.oldest_queries()) == ["b", "a"]
        index.touch_query("a", 8.0)  # an older query leaves "a" in place
        index.touch_query("b", 9.0)
        assert keys_of(index.oldest_queries()) == ["b", "a"]
        index.check_integrity()

    def test_out_of_order_timestamps_resorted_at_next_walk(self, index):
        fill(index, "a", [5])
        fill(index, "b", [7])
        fill(index, "c", [2])  # created below the newest arrival
        index.touch_query("a", 9.0)
        index.touch_query("b", 6.0)
        assert keys_of(index.oldest_arrivals()) == ["c", "a", "b"]
        assert keys_of(index.oldest_queries()) == ["c", "b", "a"]
        index.check_integrity()

    def test_shrinking_below_k_rejoins_arrival_order(self, index):
        fill(index, "a", [1, 2, 3, 4])
        fill(index, "b", [5])
        entry = index.get("a")
        entry.remove_id(4)
        entry.remove_id(3)
        index.charge_removed_postings(2, "a", entry=entry)
        # "a" last arrived at 4, before "b": it rejoins ahead of it.
        assert keys_of(index.oldest_arrivals()) == ["a", "b"]
        index.check_integrity()

    def test_remove_entry_leaves_both_orders(self, index):
        fill(index, "a", [1])
        fill(index, "b", [2])
        index.remove_entry("a")
        assert keys_of(index.oldest_arrivals()) == ["b"]
        assert keys_of(index.oldest_queries()) == ["b"]

    def test_set_k_rebuilds_arrival_order(self, index):
        fill(index, "a", [1, 2, 3, 4])
        fill(index, "b", [5])
        index.set_k(10)
        assert keys_of(index.oldest_arrivals()) == ["a", "b"]
        index.set_k(1)
        assert keys_of(index.oldest_arrivals()) == []
        index.check_integrity()

    def test_keyless_charge_rebuilds_arrival_order(self, index):
        fill(index, "a", [1, 2, 3])
        index.get("a").remove_id(3)
        index.charge_removed_postings(1, "a")
        assert keys_of(index.oldest_arrivals()) == ["a"]
        index.check_integrity()

    def test_seq_follows_dict_order_across_re_creation(self, index):
        fill(index, "a", [1])
        fill(index, "b", [2])
        index.remove_entry("a")
        fill(index, "a", [3])
        assert [entry.seq for entry in index.entries()] == [1, 2]
        index.check_integrity()

    def test_check_integrity_catches_order_drift(self, index):
        fill(index, "a", [1])
        fill(index, "b", [2, 3, 4])
        index._by_arrival.discard("a")  # simulate a missed update
        with pytest.raises(AssertionError):
            index.check_integrity()

    def test_check_integrity_catches_seq_drift(self, index):
        fill(index, "a", [1])
        fill(index, "b", [2])
        index.get("b").seq = 0
        with pytest.raises(AssertionError):
            index.check_integrity()
