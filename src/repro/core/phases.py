"""The three kFlushing phases (Sections III-A, III-B, III-C).

Each phase is a function over a :class:`KFlushingEngine` plus the flush's
:class:`~repro.core.policy.FlushReport`, which the phases add into
directly; the engine's ``flush`` invokes them in order until the budget
is met:

* **Phase 1 — regular flushing**: walk the overflow list L and trim every
  entry back to its top-k, evicting postings that can never appear in a
  top-k answer.  With the MK extension, a beyond-top-k posting survives
  while its record is still in the top-k of another entry (Section IV-D).
* **Phase 2 — aggressive flushing**: evict whole entries that hold fewer
  than k postings — queries on them would miss anyway — choosing the
  least-recently-*arrived* entries via the bounded-heap selection.
  With the MK extension, postings whose record also lives in a k-filled
  entry are spared.
* **Phase 3 — forced flushing**: evict whole entries (any size) in
  least-recently-*queried* order.  Identical in plain and MK modes.

Phases 2 and 3 pick exactly the victims the paper's heap picks over a
scan of the whole index, but read only O(victims) entries: the index
keeps both victim orders, and :func:`select_victims_pruned` replays the
heap on the candidates that can affect it.  Victims are evicted in the
index's dict order.  A wholesale eviction raises the engine's
``global_floor`` to the best posting it evicted at that moment, so a
re-created entry never claims completeness over flushed history — even
when the disk commit that follows fails.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Hashable, Iterable

from repro.core.policy import FlushReport
from repro.core.victim_selection import select_victims_pruned
from repro.storage.posting_list import Posting, PostingList

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.kflushing import KFlushingEngine

__all__ = [
    "entry_flush_cost",
    "run_phase1",
    "run_phase2",
    "run_phase3",
]

PHASE_REGULAR = "phase1-regular"
PHASE_AGGRESSIVE = "phase2-aggressive"
PHASE_FORCED = "phase3-forced"
PHASES = (PHASE_REGULAR, PHASE_AGGRESSIVE, PHASE_FORCED)

#: The victim orders of Phases 2 and 3.
_LAST_ARRIVAL = attrgetter("last_arrival")
_LAST_QUERY = attrgetter("last_query")


def _evict_posting(
    engine: "KFlushingEngine",
    report: FlushReport,
    key: Hashable,
    posting: Posting,
) -> int:
    """Move one trimmed posting (and its record, if now unreferenced) to
    the flush buffer; returns bytes freed from memory."""
    engine.buffer.add_posting(key, posting)
    report.postings_flushed += 1
    freed = engine.model.posting_bytes
    record = engine.raw.decref(posting.blog_id)
    if record is not None:
        engine.buffer.add_record(record)
        report.records_flushed += 1
        freed += engine.model.record_bytes(record)
    return freed


def _note_phase(
    engine: "KFlushingEngine", report: FlushReport, phase: str, freed: int
) -> None:
    """Fold one phase's freed bytes into the report and the metrics."""
    report.freed_bytes += freed
    report.phase_freed[phase] = report.phase_freed.get(phase, 0) + freed
    engine.phase_freed[phase].inc(freed)


def run_phase1(engine: "KFlushingEngine", report: FlushReport) -> None:
    """Regular flushing: trim overflow entries back to top-k."""
    freed = 0
    k = engine.k
    with engine.obs.span(engine.phase_spans[PHASE_REGULAR]):
        for key in list(engine.index.overflow_keys):
            entry = engine.index.get(key)
            if entry is None:
                engine.index.clear_overflow(key)
                continue
            if engine.mk_enabled:
                removed = entry.trim_if(
                    k,
                    keep=lambda p, _key=key: engine.in_top_elsewhere(
                        p.blog_id, _key
                    ),
                )
            else:
                removed = entry.trim_beyond(k)
            engine.index.charge_removed_postings(len(removed), key, entry=entry)
            if removed:
                if engine.flush_cache is not None:
                    engine.flush_cache.invalidate(key)
                engine.note_eviction(
                    key, PHASE_REGULAR, report.triggered_at, len(removed)
                )
                for posting in removed:
                    freed += _evict_posting(engine, report, key, posting)
            if len(entry) <= k:
                engine.index.clear_overflow(key)
        # The paper wipes L after Phase 1 completes.  Under MK, entries whose
        # spared stragglers keep them over-full must *stay* in L: the paper's
        # Figure 6(b) requires the following Phase 1 execution to re-examine
        # them and trim records that have since left every top-k.
        if not engine.mk_enabled:
            engine.index.wipe_overflow()
    _note_phase(engine, report, PHASE_REGULAR, freed)


def _flush_entry(
    engine: "KFlushingEngine",
    report: FlushReport,
    key: Hashable,
    spare_k_filled_residents: bool,
    cause: str,
) -> int:
    """Evict (most of) one entry; returns bytes freed.

    With ``spare_k_filled_residents`` (MK Phase 2), postings whose record
    also exists in a k-filled entry stay behind and the entry survives,
    shrunken; otherwise the entry is removed wholesale.  ``cause`` is the
    phase recorded in the eviction ledger.  The engine's global floor
    rises to the best posting evicted here.
    """
    entry = engine.index.get(key)
    if entry is None:
        return 0
    if spare_k_filled_residents:
        removed = entry.drain_if(
            keep=lambda p: engine.exists_in_k_filled(p.blog_id, key)
        )
    else:
        removed = entry.drain()
    engine.index.charge_removed_postings(len(removed), key, entry=entry)
    if removed:
        if engine.flush_cache is not None:
            engine.flush_cache.invalidate(key)
        engine.note_eviction(key, cause, report.triggered_at, len(removed))
    freed = 0
    floor = engine.global_floor
    for posting in removed:
        freed += _evict_posting(engine, report, key, posting)
        if posting.sort_key > floor:
            floor = posting.sort_key
    engine.global_floor = floor
    if len(entry) == 0:
        engine.index.remove_entry(key)
        freed += engine.model.entry_overhead
        report.entries_flushed += 1
    return freed


def _mean_record_share(engine: "KFlushingEngine") -> float:
    """Average record bytes freed per evicted posting.

    Records are shared across entries (pcount), so the exact bytes a
    victim entry will free is only known after eviction.  Like the paper,
    Phases 2/3 select victims on an O(1)-per-entry *estimate*: the raw
    store's bytes spread over the live postings.  The phase loop verifies
    the actually freed bytes and escalates when the estimate fell short.
    """
    postings = engine.index.posting_count()
    if postings == 0:
        return 0.0
    return engine.raw.bytes_used / postings


def entry_flush_cost(posting_count: int, overhead: int, per_posting: float) -> int:
    """Estimated bytes freed by evicting an entry of ``posting_count``
    postings wholesale.

    ``per_posting`` carries the fractional mean record share, so the
    product is rounded *up*: truncating it under-estimates every victim
    and mis-sizes the selection against the true freed bytes.
    """
    return overhead + math.ceil(posting_count * per_posting)


def _seq(candidate: tuple[float, int, PostingList]) -> int:
    return candidate[2].seq


def _select_victims(
    engine: "KFlushingEngine",
    in_order: Iterable[PostingList],
    oldest_first: Iterable[PostingList],
    stamp: Callable[[PostingList], float],
    target_bytes: int,
) -> list[PostingList]:
    """The entries ``select_victims_heap`` picks when fed every entry of
    ``in_order`` (the phase's candidates in the index's dict order),
    returned in dict order.

    ``oldest_first`` is the same candidates sorted by ``stamp``.  Only
    O(victims) entries of either view are read: see
    :func:`select_victims_pruned`.
    """
    overhead = engine.model.entry_overhead
    per_posting = engine.model.posting_bytes + _mean_record_share(engine)

    def candidates(entries: Iterable[PostingList]):
        for entry in entries:
            yield (
                stamp(entry),
                entry_flush_cost(len(entry), overhead, per_posting),
                entry,
            )

    victims = select_victims_pruned(
        candidates(in_order), candidates(oldest_first), target_bytes, _seq
    )
    victims.sort(key=_seq)
    return [entry for _ts, _cost, entry in victims]


def run_phase2(engine: "KFlushingEngine", report: FlushReport) -> None:
    """Aggressive flushing: evict under-k entries, least recently arrived
    first, until the remaining budget is covered."""
    remaining = report.target_bytes - report.freed_bytes
    if remaining <= 0:
        return
    with engine.obs.span(engine.phase_spans[PHASE_AGGRESSIVE]):
        index = engine.index
        k = index.k
        victims = _select_victims(
            engine,
            (entry for entry in index.entries() if len(entry) < k),
            index.oldest_arrivals(),
            _LAST_ARRIVAL,
            remaining,
        )
        freed = 0
        for entry in victims:
            freed += _flush_entry(
                engine,
                report,
                entry.key,
                spare_k_filled_residents=engine.mk_enabled,
                cause=PHASE_AGGRESSIVE,
            )
    _note_phase(engine, report, PHASE_AGGRESSIVE, freed)


def run_phase3(engine: "KFlushingEngine", report: FlushReport) -> None:
    """Forced flushing: evict any entries, least recently queried first.

    Identical in plain and MK modes (Section IV-D keeps Phase 3 intact).
    Loops until the budget is met or memory holds no more entries, because
    the per-victim cost is an estimate and MK Phases 1–2 may have left
    entries of any size behind.
    """
    freed = 0
    index = engine.index
    with engine.obs.span(engine.phase_spans[PHASE_FORCED]):
        while report.freed_bytes + freed < report.target_bytes and len(index) > 0:
            # Each round re-selects with costs from live entry sizes and
            # the current record share.
            victims = _select_victims(
                engine,
                index.entries(),
                index.oldest_queries(),
                _LAST_QUERY,
                report.target_bytes - report.freed_bytes - freed,
            )
            if not victims:
                break
            round_freed = 0
            for entry in victims:
                round_freed += _flush_entry(
                    engine,
                    report,
                    entry.key,
                    spare_k_filled_residents=False,
                    cause=PHASE_FORCED,
                )
            freed += round_freed
            if round_freed == 0:
                # Every remaining victim was already empty; nothing more to do.
                break
    _note_phase(engine, report, PHASE_FORCED, freed)
