"""Query executor: memory-first top-k evaluation with disk fallback.

The executor implements the paper's query engine (Figure 2): try to answer
a top-k query entirely from in-memory contents; when that is impossible,
pay the disk visit and merge both tiers into an exact answer.

**Hit semantics.**  For single-key and OR queries a memory hit requires a
*provably complete* in-memory top-k: each queried key must hold k postings
all ranked above that key's completeness floor (for OR, the top-k of the
union is always drawn from the per-key top-k lists, so per-key proof
suffices).  For AND queries we follow the paper's operational definition —
the in-memory intersection contains at least k records (Section IV-D) —
because an AND answer can legitimately be assembled from postings below
individual floors that the MK rules deliberately retained; the result
additionally reports whether the answer is provably exact.  Setting
``strict_and=True`` upgrades AND hits to the provable criterion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional

from repro.core.eviction_ledger import CAUSE_NEVER_RESIDENT
from repro.core.policy import MemoryEngine
from repro.engine.latency import QueryCostModel
from repro.engine.queries import CombineMode, TopKQuery
from repro.model.microblog import Microblog
from repro.obs import Instrumentation
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
    #: misses (disk merge is exact) and for single/OR hits; AND hits under
    #: the operational criterion may be inexact (see module docstring).
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


#: Backwards-compatible alias: the merge now lives in
#: :mod:`repro.storage.topk` so the executor, the sharded scatter-gather
#: path, and the segmented index share one implementation.
_merge_topk = merge_topk


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
        io_before = self._disk.stats.simulated_io_seconds
        if query.mode is CombineMode.SINGLE:
            result = self._single(query, now)
        elif query.mode is CombineMode.OR:
            result = self._or(query, now)
        else:
            result = self._and(query, now)
        io_delta = self._disk.stats.simulated_io_seconds - io_before
        result = replace(
            result,
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
        registry = self._obs.registry
        registry.counter(f"query.{mode}.{'hits' if result.memory_hit else 'misses'}").inc()
        if result.disk_lookups:
            registry.counter("query.disk_lookups").inc(result.disk_lookups)
            registry.counter(f"query.{mode}.disk_lookups").inc(result.disk_lookups)
        registry.histogram("query.simulated_latency_seconds").record(
            result.simulated_latency
        )
        extra: dict = {}
        if self._attribution:
            self._engine.note_heat(query.keys)
            if not result.memory_hit:
                cause = self._miss_cause(query)
                registry.counter(f"query.miss.cause.{cause}").inc()
                registry.counter(f"query.{mode}.miss.cause.{cause}").inc()
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

    # ------------------------------------------------------------------
    # Single key
    # ------------------------------------------------------------------

    def _single(self, query: TopKQuery, now: float) -> QueryResult:
        key = query.keys[0]
        lookup = self._engine.lookup(key, depth=query.k)
        top = lookup.provable_top(query.k)
        if top is not None:
            return QueryResult(query, top, True, True, 0, now)
        # Memory miss: the true top-k is contained in the union of the
        # memory top-k candidates and the disk's per-key top-k.
        disk_top = self._disk.lookup(key, limit=query.k)
        merged = _merge_topk([list(lookup.candidates), disk_top], query.k)
        return QueryResult(query, tuple(merged), False, True, 1, now)

    # ------------------------------------------------------------------
    # OR
    # ------------------------------------------------------------------

    def _or(self, query: TopKQuery, now: float) -> QueryResult:
        lookups = [self._engine.lookup(key, depth=query.k) for key in query.keys]
        tops = [lookup.provable_top(query.k) for lookup in lookups]
        if all(top is not None for top in tops):
            merged = _merge_topk([list(top) for top in tops if top], query.k)
            return QueryResult(query, tuple(merged), True, True, 0, now)
        groups: list[list[Posting]] = []
        disk_lookups = 0
        for lookup, top in zip(lookups, tops):
            if top is not None:
                # This key's in-memory top-k is provably complete: the
                # union's top-k can only draw from it, so disk adds nothing.
                groups.append(list(top))
                continue
            groups.append(list(lookup.candidates))
            groups.append(self._disk.lookup(lookup.key, limit=query.k))
            disk_lookups += 1
        merged = _merge_topk(groups, query.k)
        return QueryResult(query, tuple(merged), False, True, disk_lookups, now)

    # ------------------------------------------------------------------
    # AND
    # ------------------------------------------------------------------

    def _and(self, query: TopKQuery, now: float) -> QueryResult:
        depth = self._and_scan_depth
        lookups = [self._engine.lookup(key, depth=depth) for key in query.keys]
        # Intersect in-memory candidate ids; order by the first key's
        # postings (all keys agree on sort keys, they are per-record).
        id_sets = [
            {posting.blog_id for posting in lookup.candidates} for lookup in lookups
        ]
        common = set.intersection(*id_sets) if id_sets else set()
        in_memory = [p for p in lookups[0].candidates if p.blog_id in common]
        max_floor = max(lookup.floor for lookup in lookups)
        confirmed = [p for p in in_memory if p.sort_key > max_floor]
        provable = len(confirmed) >= query.k and depth is None
        if provable:
            return QueryResult(query, tuple(confirmed[: query.k]), True, True, 0, now)
        if len(confirmed) >= query.k:
            # Complete above the floors, but the scan was depth-capped so
            # items below the cap could not be inspected.
            return QueryResult(query, tuple(confirmed[: query.k]), True, False, 0, now)
        if not self._strict_and and len(in_memory) >= query.k:
            # The paper's operational AND hit: k intersecting records found
            # in memory (Section IV-D), possibly below individual floors.
            return QueryResult(query, tuple(in_memory[: query.k]), True, False, 0, now)
        # Miss: merge each key's memory+disk posting set, intersect, and
        # take the top-k — exact when no scan limits are configured.
        disk_lookups = 0
        truncated = False
        full_sets: list[dict[int, Posting]] = []
        for lookup in lookups:
            by_id = {p.blog_id: p for p in lookup.candidates}
            disk_postings = self._disk.lookup(lookup.key, limit=self._and_disk_limit)
            if (
                self._and_disk_limit is not None
                and len(disk_postings) >= self._and_disk_limit
            ):
                truncated = True
            for posting in disk_postings:
                by_id.setdefault(posting.blog_id, posting)
            disk_lookups += 1
            full_sets.append(by_id)
        common_ids = set.intersection(*(set(s) for s in full_sets))
        answer = sorted(
            (full_sets[0][blog_id] for blog_id in common_ids),
            key=lambda p: p.sort_key,
            reverse=True,
        )[: query.k]
        exact = not truncated and depth is None
        return QueryResult(query, tuple(answer), False, exact, disk_lookups, now)
