"""LRU baseline: H-Store-style anti-caching (Section V, [8]).

"A global doubly-linked list is maintained to order microblogs in least
recently used order.  To reduce memory overhead, pointers of the LRU list
are embedded in the index entry of each microblog."

Every insert and every query answer *touches* the global list — the
per-item bookkeeping whose memory cost dominates Figure 10(a) and whose
contention limits LRU's digestion rate in Figure 10(b).  Eviction removes
individual records from wherever they sit, punching holes in posting
lists; the completeness floors make those holes visible to the hit-ratio
accounting instead of silently returning wrong answers.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from repro.core.eviction_ledger import CAUSE_TRIMMED_TOPK, CAUSE_WHOLE_KEY_LRU
from repro.core.policy import FlushReport, IndexedEngine
from repro.core.recency_list import RecencyList
from repro.model.microblog import Microblog

__all__ = ["LRUEngine"]


class LRUEngine(IndexedEngine):
    """The indexed layout plus a global per-record recency list."""

    name = "lru"

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        #: Global recency order: the H-Store doubly-linked list, with a
        #: real node per record and a lock per mutation (see RecencyList).
        self._recency = RecencyList()

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def insert(self, record: Microblog, keys: tuple[Hashable, ...]) -> None:
        super().insert(record, keys)
        # New data enters at the most-recently-used end of the list.
        self._recency.push(record.blog_id)

    def note_query(
        self,
        keys: Sequence[Hashable],
        accessed_ids: Iterable[int],
        now: float,
    ) -> None:
        # Querying threads move every accessed record to the list head —
        # the contention point the paper blames for LRU's low digestion
        # rate.  Keys themselves carry no bookkeeping under LRU.
        recency = self._recency
        for blog_id in accessed_ids:
            recency.touch(blog_id)

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------

    def flush(self, now: float) -> FlushReport:
        target = self.flush_target_bytes()
        report = FlushReport(policy=self.name, triggered_at=now, target_bytes=target)
        while report.freed_bytes < target:
            blog_id = self._recency.pop_lru()
            if blog_id is None:
                break
            report.freed_bytes += self._evict_record(blog_id, report, now)
        report.bytes_written_to_disk = self.buffer.commit()
        return report

    def _evict_record(self, blog_id: int, report: FlushReport, now: float) -> int:
        """Remove one record from the raw store and all of its entries."""
        record = self.raw.remove(blog_id)
        freed = self.model.record_bytes(record)
        for key in self.attribute.keys(record):
            entry = self.index.get(key)
            if entry is None:
                continue
            posting = entry.remove_id(blog_id)
            if posting is None:
                continue
            freed += self.index.charge_removed_postings(1, key, entry=entry)
            self.buffer.add_posting(key, posting)
            report.postings_flushed += 1
            if len(entry) == 0:
                if entry.floor > self.global_floor:
                    self.global_floor = entry.floor
                self.index.remove_entry(key)
                freed += self.model.entry_overhead
                report.entries_flushed += 1
                self.note_eviction(key, CAUSE_WHOLE_KEY_LRU, now, 1)
            else:
                # The entry survives with a hole punched in it.
                self.note_eviction(key, CAUSE_TRIMMED_TOPK, now, 1)
        self.buffer.add_record(record)
        report.records_flushed += 1
        return freed

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    @property
    def policy_overhead_bytes(self) -> int:
        # Two embedded list pointers per resident record, plus the flush
        # buffer at its peak.
        return self.model.lru_node_bytes * len(self.raw) + self.buffer.steady_peak_bytes

    def check_integrity(self) -> None:
        super().check_integrity()
        assert set(self._recency.ids_lru_to_mru()) == {
            r.blog_id for r in self.raw
        }, "recency list out of sync with raw store"
        assert len(self._recency) == len(self.raw)
