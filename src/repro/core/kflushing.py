"""The kFlushing memory engine — the paper's primary contribution.

The three flushing phases over the shared :class:`IndexedEngine` layout
(the raw data store with ``pcount`` reference counts and the hash
inverted index with the overflow list L).
The ``mk`` flag enables the multiple-keyword extension of Section IV-D
(kFlushing-MK), which changes the trim rules of Phases 1 and 2 so that
AND-queries find their intersections in memory more often.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional, Sequence

from repro.core.flush_cache import FlushCycleCache
from repro.core.phases import PHASES, run_phase1, run_phase2, run_phase3
from repro.core.policy import FlushReport, IndexedEngine
from repro.obs import catalog

__all__ = ["KFlushingEngine"]


class KFlushingEngine(IndexedEngine):
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
        #: Per-flush memo of top-k id sets and entry id membership (see
        #: :mod:`repro.core.flush_cache`).  Non-None only while a flush is
        #: running.
        self.flush_cache: Optional[FlushCycleCache] = None
        #: Phase -> its span name and its ``flush.<phase>.freed_bytes`` counter.
        self.phase_spans = {
            p: self.obs.bind_span(catalog.SPAN_FLUSH_PHASE, phase=p) for p in PHASES
        }
        self.phase_freed = {
            p: catalog.FLUSH_PHASE_FREED.bind(self.obs.registry, phase=p) for p in PHASES
        }

    @property
    def mk_enabled(self) -> bool:
        """MK trim rules apply only for genuinely multi-key attributes."""
        return self.mk and self.attribute.multi_key

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

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------

    def flush(self, now: float) -> FlushReport:
        report = FlushReport(
            policy=self.name, triggered_at=now, target_bytes=self.flush_target_bytes()
        )
        self.flush_cache = (
            FlushCycleCache(self.k) if self.use_flush_cache else None
        )
        # The phases are called through this module's globals, which the
        # benchmark's tracer wraps.
        try:
            run_phase1(self, report)
            if not report.met_target and self.max_phase >= 2:
                run_phase2(self, report)
            if not report.met_target and self.max_phase >= 3:
                run_phase3(self, report)
        finally:
            self.flush_cache = None
        report.bytes_written_to_disk = self.buffer.commit()
        return report

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
    # Metrics
    # ------------------------------------------------------------------

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
