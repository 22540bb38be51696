"""Per-flush-cycle memoization for the kFlushing phases.

One :class:`FlushCycleCache` lives for the duration of a single flush
operation (created in :meth:`KFlushingEngine.flush`, dropped in its
``finally``).  It holds the two memos of the MK membership probes, which
used to be recomputed — or not cached at all — inside the phase loops:

* **top-k id sets** (MK Phase 1, ``in_top_elsewhere``): each entry's
  top-k blog ids, valid for the whole flush because Phase 1 only trims
  *beyond*-top-k postings, so the top-k of every entry is invariant while
  the memo is live;
* **per-entry id membership** (MK Phase 2, ``exists_in_k_filled``): the
  full blog-id set of an entry, replacing an uncached O(entry) linear
  ``contains_id`` scan per spared-posting check.  Unlike the top-k memo
  this one *is* invalidated when an entry mutates (Phase 2 drains shrink
  entries mid-phase), so cached answers are always what the linear scan
  would have returned.

Every phase that mutates an entry must call :meth:`invalidate` with the
key.  (Phase 3 needs no memo: the index's recency orders give its
candidates directly.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.posting_list import PostingList

__all__ = ["FlushCycleCache"]


class FlushCycleCache:
    """Memoized per-entry views shared by the phases of one flush."""

    __slots__ = ("_k", "_topk_ids", "_member_ids")

    def __init__(self, k: int) -> None:
        self._k = k
        self._topk_ids: dict[Hashable, frozenset[int]] = {}
        self._member_ids: dict[Hashable, set[int]] = {}

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
