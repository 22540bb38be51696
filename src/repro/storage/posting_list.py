"""Posting lists: the per-key entry of the in-memory inverted index.

This is the "list of microblog IDs" of the paper's Figure 3, with three
additions the kFlushing machinery needs:

* postings are kept ordered by ranking score so the top-k of an entry is
  directly accessible (Section IV-B);
* each entry carries ``last_arrival`` and ``last_query`` timestamps — the
  per-entry (not per-item!) bookkeeping that Phases 2 and 3 order their
  victims by;
* each entry carries a **completeness floor**: the highest sort key ever
  removed from it.  Everything ranked strictly above the floor is
  guaranteed to still be present, which is what lets the query executor
  decide *provably* whether the top-k answer is fully in memory (a memory
  hit) without consulting the disk.
"""

from __future__ import annotations

from bisect import insort
from typing import Hashable, Iterator, NamedTuple, Optional

__all__ = ["BestFirstView", "Posting", "PostingList", "MIN_SORT_KEY", "SortKey"]

#: Total-order key for postings: (score, timestamp, blog_id), higher wins.
SortKey = tuple[float, float, int]

#: A sort key smaller than any real posting's key.  A floor at this value
#: means the entry has never lost a posting and is complete.
MIN_SORT_KEY: SortKey = (float("-inf"), float("-inf"), -1)


class Posting(NamedTuple):
    """One indexed microblog reference inside an entry."""

    score: float
    timestamp: float
    blog_id: int

    @property
    def sort_key(self) -> SortKey:
        return (self.score, self.timestamp, self.blog_id)


class BestFirstView:
    """A read-only, best-rank-first sequence view over a posting list.

    Engines hand this to :class:`~repro.core.policy.LookupResult` for
    unbounded lookups so that reading an entry never copies it: the view
    aliases the entry's live storage and reverses lazily.  Indexing and
    slicing follow best-first order (``view[0]`` is the best posting);
    slices materialize tuples of just the requested size.

    The view is a *snapshot by aliasing*: it reflects later mutations of
    the entry.  Query evaluation reads it synchronously before any
    bookkeeping or flushing can run, which is the only supported use.
    """

    __slots__ = ("_postings",)

    def __init__(self, postings: list[Posting]) -> None:
        self._postings = postings

    def __len__(self) -> int:
        return len(self._postings)

    def __iter__(self) -> Iterator[Posting]:
        return reversed(self._postings)

    def __getitem__(self, index):
        n = len(self._postings)
        if isinstance(index, slice):
            start, stop, step = index.indices(n)
            if step == 1:
                # One reversed extended slice of the underlying list —
                # no per-element indexing loop, no intermediate copy.
                if start >= stop:
                    return ()
                return tuple(self._postings[n - 1 - start : n - 1 - stop : -1]
                             if n - 1 - stop >= 0
                             else self._postings[n - 1 - start :: -1])
            return tuple(
                self._postings[n - 1 - i] for i in range(start, stop, step)
            )
        if index < -n or index >= n:
            raise IndexError(index)
        return self._postings[n - 1 - index if index >= 0 else -1 - index - n]

    def __eq__(self, other) -> bool:
        if isinstance(other, BestFirstView):
            return self._postings == other._postings
        if isinstance(other, (tuple, list)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BestFirstView(n={len(self._postings)})"


class PostingList:
    """An ordered, floor-tracking list of postings for one index key.

    Postings are stored ascending by sort key, so the best-ranked posting
    sits at the *end* of the list: appends (the overwhelmingly common case
    under temporal ranking, where arrival order equals score order) are
    O(1), and trimming the worst-ranked postings is a single slice.
    """

    __slots__ = ("key", "_postings", "last_arrival", "last_query", "floor", "seq")

    def __init__(
        self,
        key: Hashable,
        created_at: float,
        floor: SortKey = MIN_SORT_KEY,
        seq: int = 0,
    ) -> None:
        self.key = key
        #: Creation sequence number within the owning index: increasing
        #: in the index's dict order, so it ranks entries in that order.
        self.seq = seq
        self._postings: list[Posting] = []
        #: Arrival timestamp of the most recent insert (Phase 2 order key).
        self.last_arrival: float = created_at
        #: Timestamp of the most recent query touching this key (Phase 3
        #: order key).  Initialised to creation time so never-queried keys
        #: age out first.
        self.last_query: float = created_at
        #: Completeness floor: all postings ranked strictly above this sort
        #: key are guaranteed present in memory.
        self.floor: SortKey = floor

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._postings)

    def __iter__(self) -> Iterator[Posting]:
        return iter(self._postings)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PostingList(key={self.key!r}, n={len(self._postings)})"

    def top(self, k: int) -> list[Posting]:
        """Return up to ``k`` best-ranked postings, best first.

        One reversed extended slice — the former ``[-k:][::-1]`` spelled
        without the intermediate forward copy (query hot path).
        """
        if k <= 0:
            return []
        return self._postings[-1 : -k - 1 : -1]

    def iter_best_first(self) -> Iterator[Posting]:
        """Iterate postings best-rank-first without copying the entry.

        This is the allocation-free counterpart of
        ``tuple(reversed(list(entry)))``: unbounded lookups on hot keys
        hold thousands of postings, and materializing them per query was
        a measurable hot path (see docs/PERFORMANCE.md).
        """
        return reversed(self._postings)

    def best_first(self) -> BestFirstView:
        """A lazy best-rank-first sequence view over this entry."""
        return BestFirstView(self._postings)

    def is_k_filled(self, k: int) -> bool:
        """O(1) test for :meth:`provable_top` being non-None.

        An entry is k-filled when it holds at least ``k`` postings and
        the k-th best is strictly above the completeness floor — a query
        on this key alone is then a guaranteed memory hit.  The inverted
        index maintains its k-filled count incrementally off this test.
        """
        return (
            k > 0
            and len(self._postings) >= k
            and self._postings[-k].sort_key > self.floor
        )

    def best(self) -> Optional[Posting]:
        """The single best-ranked posting, or None when empty."""
        return self._postings[-1] if self._postings else None

    def contains_id(self, blog_id: int) -> bool:
        """Linear membership test by microblog id."""
        return any(p.blog_id == blog_id for p in self._postings)

    def contains_in_top(self, blog_id: int, k: int) -> bool:
        """Whether ``blog_id`` is among this entry's top-k postings."""
        if k <= 0:
            return False
        return any(p.blog_id == blog_id for p in self._postings[-k:])

    def topk_id_set(self, k: int) -> frozenset[int]:
        """Ids of the top-k postings (flush-cycle memo building block)."""
        if k <= 0:
            return frozenset()
        return frozenset(p.blog_id for p in self._postings[-k:])

    def id_set(self) -> set[int]:
        """All member ids (flush-cycle memo building block)."""
        return {p.blog_id for p in self._postings}

    def provable_top(self, k: int) -> Optional[list[Posting]]:
        """Return the top-k postings iff they are *provably* the true
        top-k for this key (k postings exist, all above the floor);
        otherwise None.

        A None result means a query on this key alone is a memory miss.
        """
        if len(self._postings) < k:
            return None
        top = self._postings[-k:]
        if top[0].sort_key <= self.floor:
            return None
        return top[::-1]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, posting: Posting) -> None:
        """Insert a posting, maintaining score order.

        Appending is O(1) when the new posting ranks best-so-far, which is
        always the case under temporal ranking; otherwise an O(n) insort
        keeps the order.  ``last_arrival`` advances to the posting's
        arrival timestamp.
        """
        if not self._postings or posting.sort_key >= self._postings[-1].sort_key:
            self._postings.append(posting)
        else:
            insort(self._postings, posting)
        if posting.timestamp > self.last_arrival:
            self.last_arrival = posting.timestamp

    def touch_query(self, now: float) -> None:
        """Record that a query accessed this entry at time ``now``."""
        if now > self.last_query:
            self.last_query = now

    def _raise_floor(self, key: SortKey) -> None:
        if key > self.floor:
            self.floor = key

    def trim_beyond(self, k: int) -> list[Posting]:
        """Remove and return every posting ranked beyond the top-k.

        This is Phase 1's per-entry operation.  The floor rises to the
        best removed key, so the retained top-k remains provably complete.
        """
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        excess = len(self._postings) - k
        if excess <= 0:
            return []
        removed = self._postings[:excess]
        del self._postings[:excess]
        self._raise_floor(removed[-1].sort_key)
        return removed

    def trim_if(self, k: int, keep) -> list[Posting]:
        """Remove postings ranked beyond the top-k *unless* ``keep(p)``.

        This is the MK-extended Phase 1 rule: a beyond-top-k posting is
        retained when the record is still among the top-k of another
        entry.  The floor rises to the best *removed* key only; retained
        stragglers below the floor simply no longer count toward provable
        answers on this key (they exist to serve AND-queries).
        """
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        excess = len(self._postings) - k
        if excess <= 0:
            return []
        candidates = self._postings[:excess]
        removed = [p for p in candidates if not keep(p)]
        if not removed:
            return []
        removed_ids = {p.blog_id for p in removed}
        self._postings = [p for p in self._postings if p.blog_id not in removed_ids]
        self._raise_floor(max(p.sort_key for p in removed))
        return removed

    def remove_id(self, blog_id: int) -> Optional[Posting]:
        """Remove the posting for ``blog_id`` (LRU per-item eviction).

        Returns the removed posting, or None when absent.  The floor rises
        to the removed key: an arbitrary mid-list eviction invalidates the
        completeness of everything at or below it.
        """
        for i, posting in enumerate(self._postings):
            if posting.blog_id == blog_id:
                del self._postings[i]
                self._raise_floor(posting.sort_key)
                return posting
        return None

    def drain(self) -> list[Posting]:
        """Remove and return all postings (entry is being flushed)."""
        drained = self._postings
        self._postings = []
        if drained:
            self._raise_floor(drained[-1].sort_key)
        return drained

    def drain_if(self, keep) -> list[Posting]:
        """Remove and return all postings except those with ``keep(p)``.

        MK-extended Phase 2: an entry selected for flushing retains the
        postings whose record also lives in some k-filled entry.
        """
        removed = [p for p in self._postings if not keep(p)]
        if not removed:
            return []
        removed_ids = {p.blog_id for p in removed}
        self._postings = [p for p in self._postings if p.blog_id not in removed_ids]
        self._raise_floor(max(p.sort_key for p in removed))
        return removed
