"""Shared top-k merge: one implementation for every merge site.

Top-k merging appears at three layers of the system — the query
executor's memory/disk merge, the sharded scatter-gather path, and the
segmented index's cross-segment candidate gather — and they must agree
exactly (same dedup rule, same ordering, same tie behaviour) or the
differential tests between those paths become meaningless.  This module
is the single implementation they all call.

Semantics:

* groups are consumed in the given order; the *first* posting seen for a
  blog id wins (relevant when the same record appears in a memory group
  and a disk group — both carry identical sort keys, so this only
  matters for object identity);
* the merged list is sorted best rank first by
  :attr:`~repro.storage.posting_list.Posting.sort_key`; Python's sort is
  stable, so equal keys keep group order;
* ``k=None`` disables truncation (the segmented index's unbounded
  gather).
"""

from __future__ import annotations

from heapq import merge as _heap_merge
from itertools import islice
from typing import Iterable, Optional, Sequence

from repro.storage.posting_list import Posting

__all__ = ["merge_topk", "merge_run_tails"]


def merge_topk(
    groups: Iterable[Iterable[Posting]], k: Optional[int]
) -> list[Posting]:
    """Deduplicated top-k across posting groups, best rank first.

    ``groups`` is any iterable of posting iterables (lists, tuples,
    chains of them); each is iterated once.  With ``k=None`` the full
    deduplicated merge is returned.
    """
    seen: set[int] = set()
    merged: list[Posting] = []
    for group in groups:
        for posting in group:
            if posting.blog_id not in seen:
                seen.add(posting.blog_id)
                merged.append(posting)
    merged.sort(key=lambda p: p.sort_key, reverse=True)
    if k is not None:
        del merged[k:]
    return merged


def merge_run_tails(
    runs: Sequence[Iterable[Posting]], k: Optional[int]
) -> list[Posting]:
    """Top-``k`` across best-first posting streams, best rank first.

    Each element of ``runs`` must already yield postings in descending
    sort-key order (a run *tail* walk — ``reversed(ascending_run)``, a
    :meth:`PostingList.top`, …), and blog ids must be distinct across
    runs.  Unlike :func:`merge_topk` this never sorts or
    deduplicates: it lazily k-way-merges the streams and stops after
    ``k`` postings, so a bounded gather over many runs reads only the
    run tails.  ``k=None`` returns the full merge.

    :class:`~repro.storage.posting_list.Posting` is a NamedTuple whose
    natural tuple order *is* its ``sort_key``, which is what lets the
    heap merge compare postings directly.
    """
    if not runs:
        return []
    if len(runs) == 1:
        stream: Iterable[Posting] = runs[0]
    else:
        stream = _heap_merge(*runs, reverse=True)
    if k is None:
        return list(stream)
    return list(islice(stream, k))
