"""The kFlushing memory engine — the paper's primary contribution.

Composes the raw data store (with ``pcount`` reference counts), the hash
inverted index (with the overflow list L), and the three flushing phases.
The ``mk`` flag enables the multiple-keyword extension of Section IV-D
(kFlushing-MK), which changes the trim rules of Phases 1 and 2 so that
AND-queries find their intersections in memory more often.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional, Sequence

from repro.core.flush_cache import FlushCycleCache
from repro.core.phases import FlushContext, run_phase1, run_phase2, run_phase3
from repro.core.policy import FlushReport, LookupResult, MemoryEngine
from repro.model.microblog import Microblog
from repro.storage.flush_buffer import FlushBuffer
from repro.storage.inverted_index import HashInvertedIndex
from repro.storage.posting_list import MIN_SORT_KEY, Posting, SortKey
from repro.storage.raw_store import RawDataStore

__all__ = ["KFlushingEngine"]


class KFlushingEngine(MemoryEngine):
    """kFlushing (and kFlushing-MK when ``mk=True``)."""

    #: Class-level switch for the per-flush :class:`FlushCycleCache`.
    #: Always on in production; the differential tests flip it off to run
    #: the brute-force reference path and assert bit-identical results.
    use_flush_cache: bool = True

    def __init__(self, *, mk: bool = False, max_phase: int = 3, **kwargs) -> None:
        super().__init__(**kwargs)
        self.mk = mk
        self.name = "kflushing-mk" if mk else "kflushing"
        if max_phase not in (1, 2, 3):
            raise ValueError(f"max_phase must be 1, 2, or 3, got {max_phase}")
        #: Highest phase a flush may escalate to.  The full policy uses 3;
        #: the Figure 5 saturation experiment caps it to study Phase 1 (and
        #: Phases 1+2) in isolation.
        self.max_phase = max_phase
        self.raw = RawDataStore(self.model)
        self.index = HashInvertedIndex(self.model, self.k)
        self.buffer = FlushBuffer(self.model, self.disk)
        #: Best sort key ever evicted by whole-entry removal; seeds the
        #: completeness floor of entries (re-)created afterwards.
        self.global_floor: SortKey = MIN_SORT_KEY
        #: Per-flush memo of top-k id sets and entry id membership (see
        #: :mod:`repro.core.flush_cache`).  Non-None only while a flush is
        #: running.
        self.flush_cache: Optional[FlushCycleCache] = None

    @property
    def mk_enabled(self) -> bool:
        """MK trim rules apply only for genuinely multi-key attributes."""
        return self.mk and self.attribute.multi_key

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def insert(self, record: Microblog) -> bool:
        keys = self.attribute.keys(record)
        if not keys:
            return False
        self.raw.add(record, pcount=len(keys))
        posting = Posting(self.ranking.score(record), record.timestamp, record.blog_id)
        for key in keys:
            self.index.insert(
                key, posting, now=record.timestamp, created_floor=self.global_floor
            )
        return True

    def lookup(self, key: Hashable, depth: Optional[int] = None) -> LookupResult:
        entry = self.index.get(key)
        if entry is None:
            return LookupResult(key, (), self.global_floor)
        if depth is None:
            # Zero-copy fast path: unbounded lookups on hot keys used to
            # materialize the whole entry (list + tuple, O(entry) each);
            # the lazy view aliases the entry's storage instead.
            candidates = entry.best_first()
        else:
            candidates = tuple(entry.top(depth))
        return LookupResult(key, candidates, entry.floor)

    def note_query(
        self,
        keys: Sequence[Hashable],
        accessed_ids: Iterable[int],
        now: float,
    ) -> None:
        # Phase 3 orders victims by last query time; per Section III-C this
        # is one timestamp per entry, not per item, so accessed ids are
        # deliberately ignored.
        for key in keys:
            self.index.touch_query(key, now)

    def get_record(self, blog_id: int) -> Optional[Microblog]:
        if blog_id in self.raw:
            return self.raw.get(blog_id)
        return None

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------

    def flush(self, now: float) -> FlushReport:
        ctx = FlushContext(
            now=now, target_bytes=self.flush_target_bytes(), buffer=self.buffer
        )
        self.flush_cache = (
            FlushCycleCache(self.k) if self.use_flush_cache else None
        )
        try:
            run_phase1(self, ctx)
            if not ctx.met and self.max_phase >= 2:
                run_phase2(self, ctx)
            if not ctx.met and self.max_phase >= 3:
                run_phase3(self, ctx)
        finally:
            self.flush_cache = None
        written = self.buffer.commit()
        if ctx.max_wholesale_key > self.global_floor:
            self.global_floor = ctx.max_wholesale_key
        return FlushReport(
            policy=self.name,
            triggered_at=now,
            target_bytes=ctx.target_bytes,
            freed_bytes=ctx.freed_bytes,
            records_flushed=ctx.records_flushed,
            postings_flushed=ctx.postings_flushed,
            entries_flushed=ctx.entries_flushed,
            bytes_written_to_disk=written,
            phase_freed=dict(ctx.phase_freed),
        )

    # ------------------------------------------------------------------
    # MK trim-rule predicates (Section IV-D)
    # ------------------------------------------------------------------

    def in_top_elsewhere(self, blog_id: int, exclude_key: Hashable) -> bool:
        """Whether the record is among the top-k of any *other* entry.

        MK Phase 1 keeps a beyond-top-k posting alive while this holds, so
        AND-queries intersecting this key with the other one still find
        the record in memory.
        """
        record = self.raw.get(blog_id)
        cache = self.flush_cache
        for key in self.attribute.keys(record):
            if key == exclude_key:
                continue
            entry = self.index.get(key)
            if entry is None:
                continue
            if cache is not None:
                if blog_id in cache.topk_ids(key, entry):
                    return True
            elif entry.contains_in_top(blog_id, self.k):
                return True
        return False

    def exists_in_k_filled(self, blog_id: int, exclude_key: Hashable) -> bool:
        """Whether the record exists in any entry holding >= k postings.

        MK Phase 2 spares such postings: flushing them could turn a
        would-be memory hit on the frequent keyword's AND-queries into a
        disk access (Section IV-D, condition 3).
        """
        record = self.raw.get(blog_id)
        cache = self.flush_cache
        for key in self.attribute.keys(record):
            if key == exclude_key:
                continue
            entry = self.index.get(key)
            if entry is None or len(entry) < self.k:
                continue
            if cache is not None:
                if cache.contains_id(key, entry, blog_id):
                    return True
            elif entry.contains_id(blog_id):
                return True
        return False

    # ------------------------------------------------------------------
    # Metrics and extensibility
    # ------------------------------------------------------------------

    @property
    def memory_bytes(self) -> int:
        return self.raw.bytes_used + self.index.bytes_used

    def needs_flush(self) -> bool:
        # Checked after every single insert: read the two byte counters
        # directly instead of through three property descriptors.
        return self.raw._bytes + self.index._bytes >= self.capacity_bytes

    @property
    def policy_overhead_bytes(self) -> int:
        # Two per-entry timestamps (last arrival, last query), the overflow
        # list L, and the temporary flush buffer at its peak — the paper's
        # accounting.  The index's recency orders are an access path over
        # those timestamps, not extra policy state; their cost is measured
        # (peak RSS), not modelled.
        per_entry = 2 * self.model.timestamp_bytes * len(self.index)
        overflow = self.model.pointer_bytes * len(self.index.overflow_keys)
        return per_entry + overflow + self.buffer.steady_peak_bytes

    def k_filled_count(self) -> int:
        return self.index.k_filled_count(self.k)

    def frequency_snapshot(self) -> dict[Hashable, int]:
        return self.index.frequency_snapshot()

    def record_count(self) -> int:
        return len(self.raw)

    def set_k(self, k: int) -> None:
        super().set_k(k)
        self.index.set_k(k)

    def check_integrity(self) -> None:
        self.raw.check_integrity()
        self.index.check_integrity()
        # Every posting must reference a resident record, and reference
        # counts must equal the number of entries referencing the record.
        refs: dict[int, int] = {}
        for entry in self.index.entries():
            for posting in entry:
                refs[posting.blog_id] = refs.get(posting.blog_id, 0) + 1
        for blog_id, count in refs.items():
            assert blog_id in self.raw, f"posting for non-resident record {blog_id}"
            assert self.raw.pcount(blog_id) == count, (
                f"pcount mismatch for {blog_id}: "
                f"{self.raw.pcount(blog_id)} != {count}"
            )
        for record in self.raw:
            assert record.blog_id in refs, f"record {record.blog_id} unreferenced"
