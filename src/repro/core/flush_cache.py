"""Per-flush-cycle memoization for the kFlushing phases.

One :class:`FlushCycleCache` lives for the duration of a single flush
operation (created in :meth:`KFlushingEngine.flush`, dropped in its
``finally``).  It unifies three memos that used to be recomputed — or in
two cases simply not cached at all — inside the phase loops:

* **top-k id sets** (MK Phase 1, ``in_top_elsewhere``): each entry's
  top-k blog ids, valid for the whole flush because Phase 1 only trims
  *beyond*-top-k postings, so the top-k of every entry is invariant while
  the memo is live;
* **per-entry id membership** (MK Phase 2, ``exists_in_k_filled``): the
  full blog-id set of an entry, replacing an uncached O(entry) linear
  ``contains_id`` scan per spared-posting check.  Unlike the top-k memo
  this one *is* invalidated when an entry mutates (Phase 2 drains shrink
  entries mid-phase), so cached answers are always what the linear scan
  would have returned;
* **the Phase 3 victim snapshot**: the key order of the full index,
  captured once instead of being re-scanned by every round of Phase 3's
  escalation loop.  Evicted keys are dropped incrementally; the surviving
  order is exactly the index's own iteration order (dict insertion order
  is stable under deletion and no inserts happen mid-flush), so the
  bounded-heap victim selection sees identical candidate sequences and
  the optimization is bit-for-bit behavior-preserving.

Every phase that mutates an entry must call :meth:`invalidate` with the
key (and :meth:`on_entry_removed` when it removes the entry outright).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.inverted_index import HashInvertedIndex
    from repro.storage.posting_list import PostingList

__all__ = ["FlushCycleCache"]


class FlushCycleCache:
    """Memoized per-entry views shared by the phases of one flush."""

    __slots__ = ("_index", "_k", "_topk_ids", "_member_ids", "_victim_keys", "_removed")

    def __init__(self, index: "HashInvertedIndex", k: int) -> None:
        self._index = index
        self._k = k
        self._topk_ids: dict[Hashable, frozenset[int]] = {}
        self._member_ids: dict[Hashable, set[int]] = {}
        #: Index key order captured at the first Phase 3 round; None until
        #: then.  Kept as a list + removed-set so later rounds skip the
        #: full-index rescan.
        self._victim_keys: Optional[list[Hashable]] = None
        self._removed: set[Hashable] = set()

    # ------------------------------------------------------------------
    # Top-k id sets (MK Phase 1)
    # ------------------------------------------------------------------

    def topk_ids(self, key: Hashable, entry: "PostingList") -> frozenset[int]:
        """The entry's top-k blog ids, memoized for the flush."""
        ids = self._topk_ids.get(key)
        if ids is None:
            ids = entry.topk_id_set(self._k)
            self._topk_ids[key] = ids
        return ids

    # ------------------------------------------------------------------
    # Entry membership (MK Phase 2)
    # ------------------------------------------------------------------

    def contains_id(self, key: Hashable, entry: "PostingList", blog_id: int) -> bool:
        """Set-based replacement for ``entry.contains_id(blog_id)``."""
        ids = self._member_ids.get(key)
        if ids is None:
            ids = entry.id_set()
            self._member_ids[key] = ids
        return blog_id in ids

    # ------------------------------------------------------------------
    # Phase 3 victim snapshot
    # ------------------------------------------------------------------

    def surviving_keys(self) -> Iterator[Hashable]:
        """Index keys still resident, in the index's iteration order.

        The snapshot is taken lazily on first use (i.e. at the first
        Phase 3 round); subsequent rounds iterate the snapshot minus the
        keys evicted since, never touching the full index again.
        """
        if self._victim_keys is None:
            self._victim_keys = list(self._index.keys())
            # Compact away anything evicted before the snapshot was taken.
            if self._removed:
                self._victim_keys = [
                    key for key in self._victim_keys if key not in self._removed
                ]
                self._removed.clear()
        removed = self._removed
        for key in self._victim_keys:
            if key not in removed:
                yield key

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def invalidate(self, key: Hashable) -> None:
        """Drop the memoized views of a mutated entry.

        The top-k memo is dropped too: recomputing it after a Phase 1
        trim yields the same ids (trims preserve the top-k), and after a
        drain the entry is gone from the phases' working sets anyway —
        dropping is always safe and keeps the rule simple.
        """
        self._topk_ids.pop(key, None)
        self._member_ids.pop(key, None)

    def on_entry_removed(self, key: Hashable) -> None:
        """An entry was evicted wholesale: forget it everywhere."""
        self.invalidate(key)
        self._removed.add(key)
