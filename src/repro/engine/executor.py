"""Query executor: memory-first top-k evaluation with disk fallback.

The executor implements the paper's query engine (Figure 2): answer a
top-k query from memory when it can, else pay the disk visit and combine
both tiers.  Every mode takes one path: look each key up in memory, apply
the mode's hit rule, and on a miss read from disk each key that memory
cannot prove, then combine again.  A single-key query is an OR over one
key.  Single and OR combine by union (``merge_topk``), AND by
intersection (``_intersect``).

**Hit rules.**  Single and OR hit when each key's in-memory top-k is
*provably complete*: k postings all ranked above that key's completeness
floor (the union's top-k is drawn from the per-key top-k lists, so
per-key proof suffices).  AND hits *confirmed* when its k-th common
in-memory posting ranks above every key's floor; that hit is provably
exact only when the scan is uncapped (``and_scan_depth`` None).  Failing
that, AND takes the paper's *operational* hit (Section IV-D): k common
records in memory, possibly below floors that the MK rules deliberately
kept, never provably exact.  ``strict_and=True`` turns it off.  A miss
is exact unless an AND scan or disk read was capped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional

from repro.core.eviction_ledger import ALL_CAUSES, CAUSE_NEVER_RESIDENT
from repro.core.policy import MemoryEngine
from repro.engine.latency import QueryCostModel
from repro.engine.queries import CombineMode, TopKQuery
from repro.model.microblog import Microblog
from repro.obs import Instrumentation, catalog
from repro.storage.disk import DiskArchive
from repro.storage.posting_list import Posting
from repro.storage.topk import merge_topk

__all__ = ["QueryExecutor", "QueryResult"]


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one top-k query."""

    query: TopKQuery
    #: Answer postings, best rank first, at most ``query.k`` of them.
    postings: tuple[Posting, ...]
    #: True when the full answer was served from memory.
    memory_hit: bool
    #: True when the answer is provably the true top-k.  Always true for
    #: single/OR; false for an AND operational hit and whenever an AND
    #: scan or disk read was capped (see module docstring).
    provably_exact: bool
    #: Number of disk index lookups this query paid.
    disk_lookups: int
    executed_at: float
    #: Modelled end-to-end latency: in-memory evaluation cost plus any
    #: simulated disk I/O this query triggered (see repro.engine.latency).
    simulated_latency: float = 0.0

    @property
    def blog_ids(self) -> tuple[int, ...]:
        return tuple(p.blog_id for p in self.postings)


class QueryExecutor:
    """Evaluates :class:`TopKQuery` objects against memory then disk."""

    def __init__(
        self,
        engine: MemoryEngine,
        disk: DiskArchive,
        strict_and: bool = False,
        and_scan_depth: Optional[int] = None,
        and_disk_limit: Optional[int] = None,
        cost_model: Optional[QueryCostModel] = None,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self._engine = engine
        self._disk = disk
        self._strict_and = strict_and
        self._cost = cost_model or QueryCostModel()
        self._obs = obs if obs is not None else Instrumentation()
        #: Cap on how deep AND evaluation scans each key's in-memory and
        #: disk posting lists.  None = unbounded (exact).  Experiment
        #: harnesses set these to bound the cost of hot-key intersections,
        #: as a production system would; intersections that would only
        #: complete deeper than the cap degrade to misses / inexact
        #: answers and are flagged as such.
        self._and_scan_depth = and_scan_depth
        self._and_disk_limit = and_disk_limit
        #: Eviction-cause miss attribution (PR 5): cached so the hot
        #: path pays one boolean test when the switch is off.
        self._attribution = self._obs.attribution
        registry = self._obs.registry
        modes = [mode.value for mode in CombineMode]
        per_mode = (catalog.QUERY_HITS, catalog.QUERY_MISSES, catalog.QUERY_DISK_LOOKUPS)
        self._latency = catalog.QUERY_LATENCY.bind(registry)
        #: Mode -> its (hits, misses, disk lookups) counters.
        self._modes = {
            mode: tuple(metric.bind(registry, mode=mode) for metric in per_mode)
            for mode in modes
        }
        #: (mode, cause) -> the all-mode and the per-mode miss-cause
        #: counters; empty with attribution off.
        self._causes = {
            (mode, cause): (
                catalog.QUERY_MISS_CAUSE.bind(registry, cause=cause),
                catalog.QUERY_MODE_MISS_CAUSE.bind(registry, mode=mode, cause=cause),
            )
            for mode in modes
            for cause in (ALL_CAUSES if self._attribution else ())
        }
        #: Wall seconds spent in policy bookkeeping triggered by queries
        #: (LRU recency touches, kFlushing last-query stamps).  In a real
        #: deployment this work contends with the digestion thread, which
        #: is what limits LRU's rate in Figure 10(b).
        self.bookkeeping_seconds = 0.0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def execute(self, query: TopKQuery, now: float) -> QueryResult:
        """Evaluate ``query`` at time ``now`` and return its result.

        With tracing on, the whole evaluation becomes a ``query`` trace:
        shard scatter-gather and disk lookups emit child spans, and the
        root event carries the outcome (hit, disk lookups, miss cause).
        """
        obs = self._obs
        if not obs.tracing:
            return self._execute(query, now)
        with obs.trace(
            "query", mode=query.mode.value, keys=len(query.keys), k=query.k
        ) as trace_ctx:
            result = self._execute(query, now)
            trace_ctx.fields["hit"] = result.memory_hit
            trace_ctx.fields["disk_lookups"] = result.disk_lookups
            trace_ctx.fields["at"] = now
            return result

    def _execute(self, query: TopKQuery, now: float) -> QueryResult:
        io_before = self._disk.simulated_io_seconds
        postings, hit, exact, disk_lookups = self._evaluate(query)
        io_delta = self._disk.simulated_io_seconds - io_before
        result = QueryResult(
            query, postings, hit, exact, disk_lookups, now,
            simulated_latency=self._cost.memory_cost(len(query.keys)) + io_delta,
        )
        # Policy feedback: kFlushing stamps per-entry last-query times,
        # LRU moves the accessed records to the recency head.
        start = time.perf_counter()
        self._engine.note_query(query.keys, result.blog_ids, now)
        self.bookkeeping_seconds += time.perf_counter() - start
        self._observe(query, result)
        return result

    def _observe(self, query: TopKQuery, result: QueryResult) -> None:
        """Per-mode hit/miss/disk-lookup counters plus one query event."""
        mode = query.mode.value
        hits, misses, disk_lookups = self._modes[mode]
        (hits if result.memory_hit else misses).inc()
        if result.disk_lookups:
            disk_lookups.inc(result.disk_lookups)
        self._latency.record(result.simulated_latency)
        extra: dict = {}
        if self._attribution:
            self._engine.note_heat(query.keys)
            if not result.memory_hit:
                cause = self._miss_cause(query)
                for counter in self._causes[mode, cause]:
                    counter.inc()
                extra["miss_cause"] = cause
        trace_ctx = self._obs.current_trace
        if trace_ctx is not None:
            extra["trace"] = trace_ctx.trace_id
            if "miss_cause" in extra:
                trace_ctx.fields["miss_cause"] = extra["miss_cause"]
        self._obs.event(
            "query",
            mode=mode,
            keys=len(query.keys),
            k=query.k,
            hit=result.memory_hit,
            exact=result.provably_exact,
            disk_lookups=result.disk_lookups,
            scan_depth=self._and_scan_depth if query.mode is CombineMode.AND else None,
            answered=len(result.postings),
            at=result.executed_at,
            simulated_latency=result.simulated_latency,
            **extra,
        )

    def _miss_cause(self, query: TopKQuery) -> str:
        """Which eviction decision explains this memory miss.

        The most recently recorded eviction across the queried keys wins
        (strict ``>`` on logical time keeps ties deterministic at the
        first queried key); keys with no ledger entry were never evicted
        — if none has one, the data was simply never memory-complete.
        """
        best = None
        for key in query.keys:
            record = self._engine.eviction_cause(key)
            if record is not None and (best is None or record.at > best.at):
                best = record
        return best.cause if best is not None else CAUSE_NEVER_RESIDENT

    def materialize(self, result: QueryResult) -> list[Microblog]:
        """Fetch the record bodies of a result (memory first, then disk)."""
        records: list[Microblog] = []
        for posting in result.postings:
            record = self._engine.get_record(posting.blog_id)
            if record is None:
                record = self._disk.fetch_record(posting.blog_id)
            if record is not None:
                records.append(record)
        return records

    def _evaluate(self, query: TopKQuery) -> tuple[tuple[Posting, ...], bool, bool, int]:
        """``(postings, memory hit, provably exact, disk lookups)``.

        Memory lookup, the mode's hit rule, then on a miss a disk read per
        key that memory cannot prove, combined again.  Single and OR take
        the union of their keys, AND the intersection.
        """
        k = query.k
        union = query.mode is not CombineMode.AND
        depth = k if union else self._and_scan_depth
        lookups = [self._engine.lookup(key, depth=depth) for key in query.keys]
        if union:
            # The union's top-k is drawn from the per-key top-k lists, so
            # per-key proof suffices.
            tops = [lookup.provable_top(k) for lookup in lookups]
            if None not in tops:
                postings = tops[0] if len(tops) == 1 else tuple(merge_topk(tops, k))
                return postings, True, True, 0
        else:
            tops = [None] * len(lookups)
            in_memory = _intersect([lookup.candidates for lookup in lookups], k)
            if len(in_memory) >= k:
                max_floor = max(lookup.floor for lookup in lookups)
                confirmed = in_memory[k - 1].sort_key > max_floor
                # Unconfirmed, this is the paper's operational hit: k
                # common records in memory, possibly below the floors.
                if confirmed or not self._strict_and:
                    return tuple(in_memory), True, confirmed and depth is None, 0
        limit = k if union else self._and_disk_limit
        groups: list[Iterable[Posting]] = []
        truncated = False
        for lookup, top in zip(lookups, tops):
            if top is not None:
                # Provably complete in memory: disk adds nothing.
                groups.append(top)
                continue
            disk = self._disk.lookup(lookup.key, limit=limit)
            truncated = truncated or (limit is not None and len(disk) >= limit)
            groups.append(chain(lookup.candidates, disk))
        disk_lookups = tops.count(None)
        if union:
            answer, exact = merge_topk(groups, k), True
        else:
            answer, exact = _intersect(groups, k), not truncated and depth is None
        return tuple(answer), False, exact, disk_lookups


def _intersect(groups: list[Iterable[Posting]], k: int) -> list[Posting]:
    """Top-k records present in every group, best rank first.

    Each group is iterated once.  The first group's first copy of a
    record stands for it (a record's sort key is the same everywhere);
    a ``Posting`` tuple orders by its sort key, so the sort needs no key.
    """
    common = {posting.blog_id for posting in groups[1]}
    for group in groups[2:]:
        common.intersection_update(posting.blog_id for posting in group)
    answer = []
    for posting in groups[0]:
        if posting.blog_id in common:
            common.discard(posting.blog_id)
            answer.append(posting)
    answer.sort(reverse=True)
    del answer[k:]
    return answer
