"""Unit tests for posting lists, trims, and completeness floors."""

import pytest

from repro.storage.posting_list import MIN_SORT_KEY, Posting, PostingList


def posting(i, score=None, ts=None):
    """Posting with score == ts == i by default (temporal ranking)."""
    score = float(i) if score is None else score
    ts = float(i) if ts is None else ts
    return Posting(score, ts, i)


def fresh(n=0, key="kw"):
    entry = PostingList(key, created_at=0.0)
    for i in range(1, n + 1):
        entry.insert(posting(i))
    return entry


class TestInsertOrdering:
    def test_temporal_appends_stay_sorted(self):
        entry = fresh(5)
        scores = [p.score for p in entry]
        assert scores == sorted(scores)

    def test_out_of_order_insert_sorted(self):
        entry = PostingList("kw", created_at=0.0)
        for i in (5, 2, 9, 1, 7):
            entry.insert(posting(i))
        assert [p.blog_id for p in entry] == [1, 2, 5, 7, 9]

    def test_last_arrival_advances(self):
        entry = PostingList("kw", created_at=0.0)
        entry.insert(posting(3))
        assert entry.last_arrival == 3.0
        entry.insert(posting(1))  # older arrival does not move it back
        assert entry.last_arrival == 3.0
        entry.insert(posting(9))
        assert entry.last_arrival == 9.0

    def test_len_and_iteration(self):
        entry = fresh(4)
        assert len(entry) == 4
        assert [p.blog_id for p in entry] == [1, 2, 3, 4]


class TestTopAndBest:
    def test_top_returns_best_first(self):
        entry = fresh(5)
        assert [p.blog_id for p in entry.top(3)] == [5, 4, 3]

    def test_top_more_than_length(self):
        entry = fresh(2)
        assert len(entry.top(10)) == 2

    def test_top_zero_or_negative(self):
        entry = fresh(3)
        assert entry.top(0) == []
        assert entry.top(-1) == []

    def test_best_and_worst(self):
        entry = fresh(3)
        assert entry.best().blog_id == 3
        assert entry.top(3)[-1].blog_id == 1
        assert PostingList("kw", 0.0).best() is None
        assert PostingList("kw", 0.0).top(1) == []


class TestTrimBeyond:
    def test_trims_worst_ranked(self):
        entry = fresh(5)
        removed = entry.trim_beyond(2)
        assert [p.blog_id for p in removed] == [1, 2, 3]
        assert [p.blog_id for p in entry] == [4, 5]

    def test_noop_when_under_k(self):
        entry = fresh(2)
        assert entry.trim_beyond(5) == []
        assert len(entry) == 2
        assert entry.floor == MIN_SORT_KEY

    def test_floor_rises_to_best_removed(self):
        entry = fresh(5)
        entry.trim_beyond(2)
        assert entry.floor == posting(3).sort_key

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            fresh(3).trim_beyond(-1)

    def test_repeated_trims_keep_floor_monotone(self):
        entry = fresh(5)
        entry.trim_beyond(3)
        floor1 = entry.floor
        entry.insert(posting(10))
        entry.insert(posting(11))
        entry.trim_beyond(3)
        assert entry.floor > floor1


class TestTrimIf:
    def test_keep_predicate_spares_postings(self):
        entry = fresh(5)
        removed = entry.trim_if(2, keep=lambda p: p.blog_id == 2)
        assert [p.blog_id for p in removed] == [1, 3]
        assert [p.blog_id for p in entry] == [2, 4, 5]

    def test_floor_only_covers_removed(self):
        entry = fresh(5)
        entry.trim_if(2, keep=lambda p: p.blog_id == 2)
        assert entry.floor == posting(3).sort_key

    def test_all_kept_means_no_floor_change(self):
        entry = fresh(5)
        removed = entry.trim_if(2, keep=lambda p: True)
        assert removed == []
        assert entry.floor == MIN_SORT_KEY

    def test_none_kept_equals_trim_beyond(self):
        a, b = fresh(6), fresh(6)
        ra = a.trim_if(3, keep=lambda p: False)
        rb = b.trim_beyond(3)
        assert [p.blog_id for p in ra] == [p.blog_id for p in rb]
        assert a.floor == b.floor


class TestRemoveId:
    def test_removes_and_returns(self):
        entry = fresh(3)
        removed = entry.remove_id(2)
        assert removed.blog_id == 2
        assert [p.blog_id for p in entry] == [1, 3]

    def test_missing_returns_none(self):
        entry = fresh(3)
        assert entry.remove_id(42) is None
        assert len(entry) == 3

    def test_mid_list_removal_raises_floor(self):
        entry = fresh(3)
        entry.remove_id(2)
        assert entry.floor == posting(2).sort_key
        # Posting 1 is now below the floor: unprovable territory.
        assert entry.provable_top(1) is not None
        assert entry.provable_top(2) is None


class TestDrain:
    def test_drain_empties_and_sets_floor(self):
        entry = fresh(4)
        removed = entry.drain()
        assert len(removed) == 4
        assert len(entry) == 0
        assert entry.floor == posting(4).sort_key

    def test_drain_empty_entry(self):
        entry = PostingList("kw", 0.0)
        assert entry.drain() == []
        assert entry.floor == MIN_SORT_KEY

    def test_drain_if_keeps_matching(self):
        entry = fresh(4)
        removed = entry.drain_if(keep=lambda p: p.blog_id in (2, 4))
        assert [p.blog_id for p in removed] == [1, 3]
        assert [p.blog_id for p in entry] == [2, 4]
        assert entry.floor == posting(3).sort_key

    def test_drain_if_keep_all_is_noop(self):
        entry = fresh(4)
        assert entry.drain_if(keep=lambda p: True) == []
        assert entry.floor == MIN_SORT_KEY


class TestProvableTop:
    def test_complete_entry_is_provable(self):
        entry = fresh(5)
        top = entry.provable_top(3)
        assert [p.blog_id for p in top] == [5, 4, 3]

    def test_too_few_postings_not_provable(self):
        assert fresh(2).provable_top(3) is None

    def test_trimmed_entry_still_provable_for_retained_top(self):
        entry = fresh(10)
        entry.trim_beyond(4)
        assert entry.provable_top(4) is not None
        assert entry.provable_top(3) is not None

    def test_hole_below_top_breaks_deep_proofs(self):
        entry = fresh(5)
        entry.remove_id(3)  # floor rises to 3
        assert entry.provable_top(2) is not None  # 5, 4 are above the floor
        assert entry.provable_top(3) is None  # would include 2 <= floor

    def test_touch_query_monotone(self):
        entry = fresh(1)
        entry.touch_query(5.0)
        assert entry.last_query == 5.0
        entry.touch_query(3.0)
        assert entry.last_query == 5.0

    def test_complete_entry_proves_every_depth(self):
        entry = fresh(4)
        assert entry.floor == MIN_SORT_KEY
        assert [p.blog_id for p in entry.provable_top(4)] == [4, 3, 2, 1]

    def test_min_sort_key_is_minimal(self):
        assert posting(0, score=-1e300).sort_key > MIN_SORT_KEY
