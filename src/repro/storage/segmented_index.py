"""Temporally segmented index: the substrate of the FIFO baseline.

The paper's FIFO competitor "is implemented based on a temporally-segmented
hash index that consists of multiple temporally disjoint segments.  On full
memory, the oldest index segments are completely flushed out from memory."
(Section V.)  Each segment owns both the records that arrived during its
time slice and a per-segment hash index over them, so flushing a segment is
a single bulk eviction with no per-item bookkeeping — which is exactly why
FIFO has the lowest overhead and the lowest hit ratio in the paper.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterator, Optional

from repro.errors import DuplicateRecordError
from repro.model.microblog import Microblog
from repro.storage.memory_model import MemoryModel
from repro.storage.posting_list import MIN_SORT_KEY, Posting, PostingList, SortKey
from repro.storage.topk import merge_run_tails

__all__ = ["Segment", "SegmentedIndex"]


class Segment:
    """One temporally disjoint slice: its records plus its own hash index."""

    __slots__ = ("seg_id", "start_time", "end_time", "records", "entries", "_bytes", "_model")

    def __init__(self, seg_id: int, start_time: float, model: MemoryModel) -> None:
        self.seg_id = seg_id
        self.start_time = start_time
        #: Set when the segment is sealed; open segments have None.
        self.end_time: Optional[float] = None
        self.records: dict[int, Microblog] = {}
        self.entries: dict[Hashable, PostingList] = {}
        self._model = model
        self._bytes = model.segment_overhead

    @property
    def bytes_used(self) -> int:
        return self._bytes

    @property
    def is_sealed(self) -> bool:
        return self.end_time is not None

    def __len__(self) -> int:
        return len(self.records)

    def insert(
        self, record: Microblog, keys: tuple[Hashable, ...], posting: Posting
    ) -> None:
        """Add ``record`` posted under ``keys`` as ``posting`` to this
        segment."""
        if record.blog_id in self.records:
            raise DuplicateRecordError(record.blog_id)
        self.records[record.blog_id] = record
        self._bytes += self._model.record_bytes(record)
        for key in keys:
            entry = self.entries.get(key)
            if entry is None:
                entry = PostingList(key, created_at=record.timestamp)
                self.entries[key] = entry
                self._bytes += self._model.entry_overhead
            entry.insert(posting)
            self._bytes += self._model.posting_bytes

    def seal(self, end_time: float) -> None:
        """Close the segment's time slice; no further inserts."""
        self.end_time = end_time

    def postings_for(self, key: Hashable) -> Optional[PostingList]:
        return self.entries.get(key)


class SegmentedIndex:
    """A chain of time segments with whole-segment eviction.

    Memory completeness is tracked by a single global ``flushed_floor``:
    the best sort key ever evicted.  Under temporal ranking this is the
    boundary timestamp of the newest flushed segment, so everything newer
    is provably in memory.
    """

    def __init__(
        self,
        model: MemoryModel,
        segment_capacity_bytes: int,
        start_time: float = 0.0,
    ) -> None:
        if segment_capacity_bytes <= 0:
            raise ValueError(
                f"segment_capacity_bytes must be positive, got {segment_capacity_bytes}"
            )
        self._model = model
        self._segment_capacity = segment_capacity_bytes
        self._next_seg_id = 0
        self._segments: deque[Segment] = deque()
        self._segments.append(self._new_segment(start_time))
        #: Best sort key ever flushed; memory is complete strictly above it.
        self.flushed_floor: SortKey = MIN_SORT_KEY

    def _new_segment(self, start_time: float) -> Segment:
        segment = Segment(self._next_seg_id, start_time, self._model)
        self._next_seg_id += 1
        return segment

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def bytes_used(self) -> int:
        return sum(segment.bytes_used for segment in self._segments)

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    def segments(self) -> Iterator[Segment]:
        """Oldest-to-newest iteration over in-memory segments."""
        return iter(self._segments)

    def record_count(self) -> int:
        return sum(len(segment) for segment in self._segments)

    def get_record(self, blog_id: int) -> Optional[Microblog]:
        """Fetch a resident record by id, searching newest segments first."""
        for segment in reversed(self._segments):
            record = segment.records.get(blog_id)
            if record is not None:
                return record
        return None

    def candidates(self, key: Hashable, depth: Optional[int] = None) -> list[Posting]:
        """In-memory postings for ``key``, best rank first.

        With ``depth`` set, only each segment's per-key top ``depth`` is
        gathered before the global merge — the correct global top-``depth``
        at a fraction of the cost for hot keys spanning many segments.

        Segments are temporally disjoint (a record lives in exactly one),
        so per-segment streams never share a blog id and the gather can
        k-way heap-merge best-first streams lazily instead of
        concatenating, dedupping, and re-sorting.
        """
        groups = []
        for segment in self._segments:
            entry = segment.postings_for(key)
            if entry is not None:
                groups.append(entry.top(len(entry) if depth is None else depth))
        return merge_run_tails(groups, depth)

    def key_posting_counts(self) -> dict[Hashable, int]:
        """Aggregate in-memory posting count per key (metrics only)."""
        counts: dict[Hashable, int] = {}
        for segment in self._segments:
            for key, entry in segment.entries.items():
                counts[key] = counts.get(key, 0) + len(entry)
        return counts

    def k_filled_count(self, k: int) -> int:
        """Keys with a provably complete in-memory top-k.

        With whole-segment eviction, any key holding at least ``k``
        postings above the global flushed floor qualifies.
        """
        filled = 0
        for count_key, total in self.key_posting_counts().items():
            if total < k:
                continue
            candidates = self.candidates(count_key, depth=k)
            if candidates[k - 1].sort_key > self.flushed_floor:
                filled += 1
        return filled

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(
        self, record: Microblog, keys: tuple[Hashable, ...], posting: Posting
    ) -> None:
        """Insert into the open (newest) segment, sealing it when full."""
        current = self._segments[-1]
        if current.bytes_used >= self._segment_capacity:
            current.seal(record.timestamp)
            current = self._new_segment(record.timestamp)
            self._segments.append(current)
        current.insert(record, keys, posting)

    def pop_oldest(self) -> Segment:
        """Evict and return the oldest segment, raising the flushed floor.

        The caller (the FIFO policy) moves its contents to disk.  The open
        segment may be evicted too when it is the only one left — the
        degenerate case where one flush must clear everything.
        """
        if not self._segments:
            raise ValueError("no segments to flush")
        segment = self._segments.popleft()
        if not self._segments:
            start = segment.end_time if segment.end_time is not None else segment.start_time
            self._segments.append(self._new_segment(start))
        best = self._best_sort_key(segment)
        if best is not None and best > self.flushed_floor:
            self.flushed_floor = best
        return segment

    @staticmethod
    def _best_sort_key(segment: Segment) -> Optional[SortKey]:
        best: Optional[SortKey] = None
        for entry in segment.entries.values():
            top = entry.best()
            if top is not None and (best is None or top.sort_key > best):
                best = top.sort_key
        return best
