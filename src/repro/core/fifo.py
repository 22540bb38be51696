"""FIFO baseline: temporal flushing over a segmented index (Section V).

"The default temporal flushing policy used implicitly or explicitly in all
existing techniques for microblogs.  FIFO always flushes the oldest data
and is implemented based on a temporally-segmented hash index ... On full
memory, the oldest index segments are completely flushed out from memory."

FIFO needs no per-item or per-entry bookkeeping — a sealed segment *is*
the flush unit — which gives it the best digestion rate and the lowest
policy overhead in Figure 10, and the worst hit ratio everywhere else.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.core.eviction_ledger import CAUSE_WHOLE_KEY_FIFO
from repro.core.policy import FlushReport, LookupResult, MemoryEngine
from repro.model.microblog import Microblog
from repro.storage.posting_list import Posting
from repro.storage.segmented_index import SegmentedIndex

__all__ = ["FIFOEngine"]


class FIFOEngine(MemoryEngine):
    """Temporally segmented store with oldest-segment eviction."""

    name = "fifo"

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        # One segment per flush budget: each flush then evicts whole
        # segments, and the oldest segment doubles as the write buffer
        # (the paper notes FIFO needs no separate flush buffer).
        segment_capacity = max(1, int(self.capacity_bytes * self.flush_fraction))
        self.segmented = SegmentedIndex(self.model, segment_capacity)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def insert(self, record: Microblog, keys: tuple[Hashable, ...]) -> None:
        self.segmented.insert(record, keys, self.ranking.score(record))

    def lookup(self, key: Hashable, depth: Optional[int] = None) -> LookupResult:
        candidates = self.segmented.candidates(key, depth=depth)
        return LookupResult(key, tuple(candidates), self.segmented.flushed_floor)

    def get_record(self, blog_id: int) -> Optional[Microblog]:
        return self.segmented.get_record(blog_id)

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------

    @property
    def memory_bytes(self) -> int:
        return self.segmented.bytes_used

    def flush(self, now: float) -> FlushReport:
        target = self.flush_target_bytes()
        report = FlushReport(policy=self.name, triggered_at=now, target_bytes=target)
        while report.freed_bytes < target and self.segmented.record_count() > 0:
            segment = self.segmented.pop_oldest()
            freed = segment.bytes_used
            postings_by_key: dict[Hashable, list[Posting]] = {
                key: list(entry) for key, entry in segment.entries.items()
            }
            if self.eviction_ledger is not None:
                # Segment eviction is all-or-nothing: every key in the
                # popped segment loses its postings wholesale.
                for key, postings in postings_by_key.items():
                    self.note_eviction(key, CAUSE_WHOLE_KEY_FIFO, now, len(postings))
            written = self.disk.commit_flush(segment.records.values(), postings_by_key)
            report.freed_bytes += freed
            report.records_flushed += len(segment.records)
            report.postings_flushed += sum(len(p) for p in postings_by_key.values())
            report.entries_flushed += len(segment.entries)
            report.bytes_written_to_disk += written
        return report

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    @property
    def policy_overhead_bytes(self) -> int:
        # Only the per-segment headers; no per-item or per-entry tracking
        # and no separate flush buffer.
        return self.model.segment_overhead * self.segmented.segment_count

    def k_filled_count(self) -> int:
        return self.segmented.k_filled_count(self.k)

    def frequency_snapshot(self) -> dict[Hashable, int]:
        return self.segmented.key_posting_counts()

    def record_count(self) -> int:
        return self.segmented.record_count()
