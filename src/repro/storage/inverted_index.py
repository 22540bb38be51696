"""Hash inverted index over one search attribute.

The "keyword index" of the paper's Figure 3: a hash table mapping each key
(keyword, user id, or spatial tile) to a :class:`PostingList`.  Beyond plain
lookup/insert it maintains what the kFlushing policy relies on:

* the **overflow list L** (Section III-A): the set of keys whose entries
  currently hold more than ``k`` postings, maintained incrementally at
  insert time so Phase 1 never scans the full index;
* incremental **byte accounting** through the shared
  :class:`~repro.storage.memory_model.MemoryModel`, so the engine can
  trigger flushing against a modelled memory budget;
* the incremental **k-filled set**: the keys whose provable top-k is
  complete in memory (the Figure 7 metric), maintained at insert, trim,
  floor-raise, and removal time so sampling the count is O(1) instead of
  a full index rescan with two slice allocations per entry;
* two **recency orders** (Phases 2 and 3's victim orders): the under-k
  entries by ``last_arrival`` and all entries by ``last_query``, kept at
  the same mutation points as the k-filled set, so a flush reads its
  least-recent candidates off the cold end instead of scanning the index.
  Each entry also carries a creation ``seq``, its rank in the index's
  dict order.

Every in-place entry mutation is reported with its key
(``charge_removed_postings(count, key)``), which keeps all of them exact.
"""

from __future__ import annotations

from collections import OrderedDict
from operator import attrgetter
from typing import Callable, Hashable, ItemsView, Iterator, Optional

from repro.storage.memory_model import MemoryModel
from repro.storage.posting_list import MIN_SORT_KEY, Posting, PostingList, SortKey

__all__ = ["HashInvertedIndex"]


class RecencyOrder:
    """Index keys ordered by one entry timestamp, oldest first.

    A key moves to the newest end whenever its timestamp grows.  In an
    in-order stream that keeps the order sorted at O(1) per update; a key
    placed there with a timestamp below the newest one is remembered as
    *misplaced*, and the next walk re-sorts once if any misplaced key is
    still present.  Timestamp ties may sit in any relative order.
    """

    __slots__ = ("_entries", "_stamp", "_newest", "_misplaced")

    def __init__(self, stamp: Callable[[PostingList], float]) -> None:
        self._entries: OrderedDict[Hashable, PostingList] = OrderedDict()
        self._stamp = stamp
        #: Highest timestamp placed at the newest end since the last sort.
        self._newest = float("-inf")
        self._misplaced: set[Hashable] = set()

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def append(self, key: Hashable, entry: PostingList, ts: float) -> None:
        """Add an absent ``key`` (timestamp ``ts``) at the newest end."""
        self._entries[key] = entry
        if ts >= self._newest:
            self._newest = ts
        else:
            self._misplaced.add(key)

    def move_to_end(self, key: Hashable, ts: float) -> None:
        """Move a present ``key`` whose timestamp grew to ``ts`` to the
        newest end."""
        self._entries.move_to_end(key)
        if ts >= self._newest:
            self._newest = ts
            if self._misplaced:
                self._misplaced.discard(key)
        else:
            self._misplaced.add(key)

    def discard(self, key: Hashable) -> None:
        if self._entries.pop(key, None) is not None and self._misplaced:
            self._misplaced.discard(key)

    def oldest_first(self) -> Iterator[PostingList]:
        """The entries in non-decreasing timestamp order (re-sorting first
        if an out-of-order update left a key misplaced)."""
        if self._misplaced:
            self.rebuild(self._entries.values())
        return iter(self._entries.values())

    def rebuild(self, entries: Iterator[PostingList]) -> None:
        """Replace the order's content with ``entries``, sorted."""
        ordered = sorted(entries, key=self._stamp)
        self._entries = OrderedDict((entry.key, entry) for entry in ordered)
        self._newest = self._stamp(ordered[-1]) if ordered else float("-inf")
        self._misplaced.clear()

    def check(self, expected: set[Hashable]) -> None:
        """Assert the order holds exactly ``expected``, sorted once any
        pending re-sort is done."""
        assert set(self._entries) == expected, (
            f"recency order drift: {len(self._entries)} keys != "
            f"{len(expected)} expected"
        )
        stamps = [self._stamp(entry) for entry in self.oldest_first()]
        assert all(a <= b for a, b in zip(stamps, stamps[1:])), (
            "recency order not sorted by timestamp"
        )


class HashInvertedIndex:
    """A byte-accounted hash inverted index with overflow tracking."""

    def __init__(self, model: MemoryModel, k: int) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self._model = model
        self._k = k
        self._entries: dict[Hashable, PostingList] = {}
        self._overflow: set[Hashable] = set()
        self._bytes = 0
        self._postings_total = 0
        #: Keys whose entry is currently k-filled for the index's own k.
        self._k_filled: set[Hashable] = set()
        #: Creation counter: the next entry's ``seq``.
        self._created = 0
        #: Keys of the entries holding fewer than k postings, by last arrival.
        self._by_arrival = RecencyOrder(attrgetter("last_arrival"))
        #: Every key, by last query.
        self._by_query = RecencyOrder(attrgetter("last_query"))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def keys(self) -> Iterator[Hashable]:
        return iter(self._entries)

    def items(self) -> ItemsView[Hashable, PostingList]:
        return self._entries.items()

    def entries(self) -> Iterator[PostingList]:
        return iter(self._entries.values())

    def get(self, key: Hashable) -> Optional[PostingList]:
        """Return the entry for ``key``, or None when absent."""
        return self._entries.get(key)

    @property
    def k(self) -> int:
        """The current top-k threshold used for overflow tracking."""
        return self._k

    @property
    def bytes_used(self) -> int:
        """Modelled bytes occupied by entries and postings."""
        return self._bytes

    @property
    def overflow_keys(self) -> frozenset[Hashable]:
        """Snapshot of the overflow list L (keys with more than k postings)."""
        return frozenset(self._overflow)

    def k_filled_count(self, k: Optional[int] = None) -> int:
        """Number of keys whose entries hold at least ``k`` postings above
        their completeness floor.

        This is the paper's "k-filled keywords" metric (Figure 7): a query
        on such a key is guaranteed to be a memory hit.  For the index's
        own ``k`` the count is maintained incrementally and returned in
        O(1); a foreign threshold falls back to the brute-force rescan.
        """
        threshold = self._k if k is None else k
        if threshold != self._k:
            return self.k_filled_count_bruteforce(threshold)
        return len(self._k_filled)

    def k_filled_count_bruteforce(self, k: Optional[int] = None) -> int:
        """Reference O(index) recount via :meth:`PostingList.provable_top`.

        Kept as the ground truth the incremental counter is verified
        against (differential tests, :meth:`check_integrity`) and for
        counting under a threshold other than the index's own ``k``.
        """
        threshold = self._k if k is None else k
        return sum(
            1
            for entry in self._entries.values()
            if len(entry) >= threshold and entry.provable_top(threshold) is not None
        )

    def _rebuild_k_filled(self) -> None:
        k = self._k
        self._k_filled = {
            key for key, entry in self._entries.items() if entry.is_k_filled(k)
        }

    def _refresh_k_filled(self, key: Hashable, entry: PostingList) -> None:
        """Re-derive one key's k-filled membership after a mutation."""
        if entry.is_k_filled(self._k):
            self._k_filled.add(key)
        else:
            self._k_filled.discard(key)

    def oldest_arrivals(self) -> Iterator[PostingList]:
        """The under-k entries, least recently arrived first (Phase 2)."""
        return self._by_arrival.oldest_first()

    def oldest_queries(self) -> Iterator[PostingList]:
        """Every entry, least recently queried first (Phase 3)."""
        return self._by_query.oldest_first()

    def _rebuild_arrivals(self) -> None:
        k = self._k
        self._by_arrival.rebuild(
            entry for entry in self._entries.values() if len(entry) < k
        )

    def posting_count(self) -> int:
        """Total postings across all entries (tracked incrementally)."""
        return self._postings_total

    def frequency_snapshot(self) -> dict[Hashable, int]:
        """Map of key -> in-memory posting count (the Figure 1 snapshot)."""
        return {key: len(entry) for key, entry in self._entries.items()}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def set_k(self, k: int) -> None:
        """Change the top-k threshold (Section IV-C dynamic k).

        The overflow list is rebuilt for the new threshold; per the paper,
        the change takes effect at the next flushing cycle, which is
        exactly when the overflow list is consumed.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if k == self._k:
            return
        self._k = k
        self._overflow = {
            key for key, entry in self._entries.items() if len(entry) > k
        }
        # One O(index) rebuild per k change; thereafter the k-filled set
        # and the arrival order are maintained incrementally again.
        self._rebuild_k_filled()
        self._rebuild_arrivals()

    def insert(
        self,
        key: Hashable,
        posting: Posting,
        now: float,
        created_floor: SortKey = MIN_SORT_KEY,
    ) -> PostingList:
        """Insert ``posting`` under ``key``, creating the entry if needed.

        ``created_floor`` seeds the completeness floor of a *newly created*
        entry; engines pass their global flush horizon so an entry that was
        flushed wholesale and later re-created does not falsely claim
        completeness for the flushed period.
        """
        entry = self._entries.get(key)
        if entry is None:
            entry = PostingList(
                key, created_at=now, floor=created_floor, seq=self._created
            )
            self._created += 1
            self._entries[key] = entry
            self._bytes += self._model.entry_overhead
            self._by_query.append(key, entry, now)
            arrival = None
        else:
            arrival = entry.last_arrival
        entry.insert(posting)
        self._bytes += self._model.posting_bytes
        self._postings_total += 1
        size = len(entry)
        k = self._k
        if size > k:
            self._overflow.add(key)
        elif size == k:
            self._by_arrival.discard(key)
        elif arrival is None:
            self._by_arrival.append(key, entry, entry.last_arrival)
        elif entry.last_arrival != arrival:
            self._by_arrival.move_to_end(key, entry.last_arrival)
        # Inserting never lowers the k-th-best posting nor the floor, so
        # membership can only switch on here, never off.
        if key not in self._k_filled and entry.is_k_filled(k):
            self._k_filled.add(key)
        return entry

    def touch_query(self, key: Hashable, now: float) -> None:
        """Record a query access on ``key`` (Phase 3's order key)."""
        entry = self._entries.get(key)
        if entry is not None and now > entry.last_query:
            entry.touch_query(now)
            self._by_query.move_to_end(key, now)

    def charge_removed_postings(
        self, count: int, key: Hashable, *, entry: Optional[PostingList] = None
    ) -> int:
        """Account for ``count`` postings removed directly from ``key``'s
        entry.

        Returns the bytes freed.  Callers that mutate a
        :class:`PostingList` in place (trims, per-item removals, drains)
        must call this to keep the index byte counter, the k-filled set
        and the arrival order truthful; passing the mutated ``entry``
        skips the dict lookup.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        freed = count * self._model.posting_bytes
        self._bytes -= freed
        self._postings_total -= count
        if entry is None:
            entry = self._entries.get(key)
        if entry is not None:
            self._refresh_k_filled(key, entry)
            if len(entry) < self._k and key not in self._by_arrival:
                self._by_arrival.append(key, entry, entry.last_arrival)
        else:
            # Entry already removed; remove_entry dropped its membership.
            self._k_filled.discard(key)
        return freed

    def clear_overflow(self, key: Hashable) -> None:
        """Drop ``key`` from the overflow list (after Phase 1 shrinks it)."""
        self._overflow.discard(key)

    def wipe_overflow(self) -> None:
        """Wipe the overflow list L (the paper wipes it after Phase 1)."""
        self._overflow.clear()

    def remove_entry(self, key: Hashable) -> PostingList:
        """Remove the whole entry for ``key`` and return it.

        Frees the entry overhead and all of its posting bytes.  Used by
        Phases 2 and 3, which flush entries wholesale.
        """
        entry = self._entries.pop(key)
        self._bytes -= self._model.entry_bytes(len(entry))
        self._postings_total -= len(entry)
        self._overflow.discard(key)
        self._k_filled.discard(key)
        self._by_arrival.discard(key)
        self._by_query.discard(key)
        return entry

    def check_integrity(self) -> None:
        """Assert internal invariants (used by tests and debug builds)."""
        expected = sum(
            self._model.entry_bytes(len(entry)) for entry in self._entries.values()
        )
        assert self._bytes == expected, f"byte accounting drift: {self._bytes} != {expected}"
        actual_postings = sum(len(entry) for entry in self._entries.values())
        assert self._postings_total == actual_postings, (
            f"posting count drift: {self._postings_total} != {actual_postings}"
        )
        for key in self._overflow:
            assert key in self._entries, f"overflow key {key!r} has no entry"
            # Overflow may be stale-high after set_k shrinks k mid-cycle,
            # but must never contain entries at or below k postings when k
            # is unchanged; Phase 1 tolerates no-op trims either way.
        expected_k_filled = {
            key
            for key, entry in self._entries.items()
            if len(entry) >= self._k and entry.provable_top(self._k) is not None
        }
        assert self._k_filled == expected_k_filled, (
            f"k-filled set drift: {len(self._k_filled)} tracked != "
            f"{len(expected_k_filled)} recounted"
        )
        self._by_arrival.check(
            {key for key, entry in self._entries.items() if len(entry) < self._k}
        )
        self._by_query.check(set(self._entries))
        seqs = [entry.seq for entry in self._entries.values()]
        assert all(a < b for a, b in zip(seqs, seqs[1:])), (
            "entry seq not increasing in dict order"
        )
