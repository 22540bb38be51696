"""The system facade: ingestion, flushing, and query serving in one object.

:class:`MicroblogSystem` reproduces the environment of the paper's
Figure 2 over a list of :class:`Partition` slices:

* a stream of microblogs is *digested* into the in-memory store;
* when a partition's memory budget fills, its flushing policy evicts at
  least the flushing budget B to disk;
* incoming top-k queries are answered memory-first, falling back to disk
  on a miss — and the hit ratio is the headline metric.

The paper's system is the one-partition case; ``config.shards > 1``
hash-partitions the key space over N such slices behind the same facade
(:mod:`repro.engine.sharded` has the router and scatter-gather adapters).
Ingest is one path at every partition count: the facade extracts a
record's keys once and hands each owning partition its share of them.
A single partition is wired to the executor directly, with no router:
routing one partition's queries is the identity and costs 11-21 %
throughput (docs/PERFORMANCE.md, "Why a single partition is not routed").
"""

from __future__ import annotations

import time
from typing import Hashable, Iterable, NamedTuple, Optional

from repro.config import SystemConfig
from repro.core import create_engine
from repro.core.eviction_ledger import KeyHeat, stable_top
from repro.core.policy import FlushReport, MemoryEngine
from repro.engine.clock import LogicalClock
from repro.engine.executor import QueryExecutor, QueryResult
from repro.engine.queries import TopKQuery
from repro.engine.sharded import ShardRouter, _RoutedDisk, _RoutedEngine
from repro.engine.stats import SystemStats
from repro.errors import CapacityError
from repro.model.microblog import Microblog
from repro.obs import Counter, Gauge, Instrumentation, catalog
from repro.obs.runtime import get_active
from repro.storage.disk import DiskArchive

__all__ = ["MicroblogSystem", "Partition"]


class _Twins(NamedTuple):
    """One partition's ``shard.<i>.*`` series (sharded systems only)."""

    flushes: Counter
    freed_bytes: Counter
    memory_bytes: Gauge
    memory_peak: Gauge

    METRICS = (catalog.FLUSH_COUNT, catalog.FLUSH_FREED, catalog.MEMORY_BYTES, catalog.MEMORY_PEAK)


class Partition:
    """One vertical slice: engine + budget + flush cycle + disk namespace.

    With a ``router`` the slice is one of several: the facade hands its
    engine only the keys it owns, and its flushes additionally feed the
    ``shard.<i>.*`` twins.  Without one it is the whole system, and those
    series — exact copies of the global ones — are not emitted.
    """

    def __init__(
        self, system: "MicroblogSystem", shard_id: int, router: Optional[ShardRouter]
    ) -> None:
        config = system.config
        self.system = system
        self.shard_id = shard_id
        self.capacity_bytes = config.shard_capacity(shard_id)
        self.disk = DiskArchive(
            config.memory_model,
            config.disk_cost,
            obs=system.obs,
            shard_id=shard_id if router is not None else None,
        )
        self.engine: MemoryEngine = create_engine(
            config.policy,
            model=config.memory_model,
            ranking=system.ranking,
            attribute=system.attribute,
            k=config.k,
            capacity_bytes=self.capacity_bytes,
            flush_fraction=config.flush_fraction,
            disk=self.disk,
            obs=system.obs,
        )
        #: Flushes this slice has run (the system keeps the reports).
        self.flush_count = 0
        #: This slice's ``shard.<i>.*`` series; None when it is the only one.
        self.twins: Optional[_Twins] = None
        if router is not None:
            self.twins = _Twins(
                *(metric.bind(system.obs.registry, shard=shard_id) for metric in _Twins.METRICS)
            )

    # ------------------------------------------------------------------
    # Flush cycle
    # ------------------------------------------------------------------

    def maybe_flush(self) -> None:
        """Post-insert budget check: one synchronous flush when the
        engine crossed its capacity."""
        if not self.engine.needs_flush():
            return
        system = self.system
        report = self.engine.run_flush(system.now)
        system.stats.ingest.flush_seconds += report.wall_seconds
        system._flush_reports.append(report)
        self.flush_count += 1
        after = self.engine.memory_bytes
        twins = self.twins
        if twins is not None:
            twins.flushes.inc()
            twins.freed_bytes.inc(report.freed_bytes)
            twins.memory_bytes.set(after)
        system._update_memory_gauges()
        if report.freed_bytes <= 0 and after >= self.capacity_bytes:
            who = "flush" if twins is None else f"shard {self.shard_id} flush"
            raise CapacityError(
                f"{who} freed nothing at {after} bytes used of "
                f"{self.capacity_bytes}; a single record may exceed the "
                "memory budget"
            )


class MicroblogSystem:
    """A complete microblogs data-management system (Figure 2), over one
    partition or many."""

    def __init__(
        self,
        config: SystemConfig,
        strict_and: bool = False,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.config = config
        #: Instrumentation shared by every component of this system.  An
        #: explicit argument wins; otherwise the enclosing
        #: ``repro.obs.activated`` scope (experiment runs) or a private
        #: registry (the library default).
        self.obs = obs if obs is not None else (get_active() or Instrumentation())
        self.attribute = config.build_attribute()
        self.ranking = config.build_ranking()
        self.clock = LogicalClock()
        self.stats = SystemStats()
        #: Every partition's flushes, in the order they completed.
        self._flush_reports: list[FlushReport] = []
        #: Key -> partition assignment; None with a single partition,
        #: which owns every key.
        self.router = ShardRouter(config.shards) if config.shards > 1 else None
        self.partitions = [
            Partition(self, i, self.router) for i in range(config.shards)
        ]
        # The pre-partition attribute names, kept because the benchmark's
        # tracer and most call sites read them: one partition exposes its
        # ``engine``/``disk`` and no ``shards``; several expose ``shards``
        # (and ``router``) and no single engine or archive.
        self.shards = self.engine = self.disk = None
        if self.router is None:
            (only,) = self.partitions
            engine, disk = only.engine, only.disk
            self.engine, self.disk = engine, disk
        else:
            self.shards = self.partitions
            engine = _RoutedEngine(self.partitions, self.router, self.obs)
            disk = _RoutedDisk(self.partitions, self.router, self.obs)
        self.executor = QueryExecutor(
            engine,
            disk,
            strict_and=strict_and,
            and_scan_depth=config.and_scan_depth,
            and_disk_limit=config.and_disk_limit,
            obs=self.obs,
        )
        registry = self.obs.registry
        self._memory_bytes = catalog.MEMORY_BYTES.bind(registry)
        #: Run-wide resource peaks, raised at flush boundaries: the
        #: registry gauge itself holds the peak, so every system sharing
        #: the registry raises one mark.
        self._memory_peak = catalog.MEMORY_PEAK.bind(registry)
        self._ledger_peak = (
            catalog.LEDGER_PEAK.bind(registry) if self.obs.attribution else None
        )

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock.now

    def ingest(self, record: Microblog) -> bool:
        """Digest one record; triggers a flush when memory fills.

        Returns False when the record has no keys under the configured
        attribute (e.g. a tweet without hashtags in a keyword system) and
        was skipped.
        """
        self.clock.advance_to(record.timestamp)
        ingest = self.stats.ingest
        ingest.offered += 1
        start = time.perf_counter()
        keys = self.attribute.keys(record)
        if not keys:
            owners = ()
        elif self.router is None:
            owners = ((self.partitions[0], keys),)
        else:
            # Fan-out: every partition owning one of the record's keys
            # indexes it under those keys only, in ascending shard id;
            # the record body is replicated to each.
            groups = self.router.group_by_shard(keys)
            owners = [(self.partitions[i], groups[i]) for i in sorted(groups)]
        for partition, owned in owners:
            partition.engine.insert(record, owned)
        ingest.insert_seconds += time.perf_counter() - start
        if not owners:
            ingest.skipped += 1
            return False
        ingest.indexed += 1
        # Every owner inserts before any owner flushes.
        for partition, _ in owners:
            partition.maybe_flush()
        return True

    def ingest_many(self, records: Iterable[Microblog]) -> int:
        """Digest a batch; returns how many records were indexed."""
        indexed = 0
        for record in records:
            if self.ingest(record):
                indexed += 1
        return indexed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def search(self, query: TopKQuery, now: Optional[float] = None) -> QueryResult:
        """Evaluate a top-k query and record hit/miss statistics."""
        executed_at = self.now if now is None else now
        result = self.executor.execute(query, executed_at)
        self.stats.queries.record(
            query.mode,
            result.memory_hit,
            result.simulated_latency,
            disk_lookups=result.disk_lookups,
        )
        return result

    def fetch_records(self, result: QueryResult) -> list[Microblog]:
        """Materialize the record bodies of a query result."""
        return self.executor.materialize(result)

    # ------------------------------------------------------------------
    # Memory gauges
    # ------------------------------------------------------------------

    def _update_memory_gauges(self) -> None:
        """At a flush boundary: set the memory gauge and raise the
        run-wide memory and ledger peaks."""
        total = 0
        for partition in self.partitions:
            used = partition.engine.memory_bytes
            total += used
            if partition.twins is not None:
                partition.twins.memory_peak.set_max(used)
        self._memory_bytes.set(total)
        self._memory_peak.set_max(total)
        if self._ledger_peak is not None:
            self._ledger_peak.set_max(
                sum(len(p.engine.eviction_ledger) for p in self.partitions)
            )

    # ------------------------------------------------------------------
    # Control and metrics
    # ------------------------------------------------------------------

    def set_k(self, k: int) -> None:
        """Change k at run time (Section IV-C); applies from the next
        flush cycle onward."""
        for partition in self.partitions:
            partition.engine.set_k(k)

    def total_memory_bytes(self) -> int:
        return sum(partition.engine.memory_bytes for partition in self.partitions)

    def hit_ratio(self) -> float:
        return self.stats.queries.hit_ratio

    def miss_attribution(self) -> dict[str, int]:
        """Memory misses grouped by the eviction decision that caused
        them: ``{"phase1-regular": 12, "never-resident": 3, ...}``.
        Empty unless the shared Instrumentation has ``attribution=True``
        (and at least one miss occurred)."""
        return self.obs.registry.counter_values(catalog.QUERY_MISS_CAUSE.prefix)

    def k_filled_count(self) -> int:
        """Keys whose provable in-memory top-k is complete (Fig 7)."""
        # Keys are partitioned (each owned by exactly one partition), so
        # the per-partition counts sum without overlap.
        return sum(p.engine.k_filled_count() for p in self.partitions)

    def memory_utilization(self) -> float:
        """Used fraction of the (total) memory budget."""
        return self.total_memory_bytes() / self.config.total_capacity_bytes

    def frequency_snapshot(self) -> dict[Hashable, int]:
        """Key -> in-memory posting count (the Figure 1 snapshot)."""
        merged: dict[Hashable, int] = {}
        for partition in self.partitions:
            merged.update(partition.engine.frequency_snapshot())
        return merged

    def flush_reports(self) -> list[FlushReport]:
        """Every flush this system ran, in chronological order."""
        return self._flush_reports

    def digestion_rate(self) -> float:
        """Pure insert-path digestion rate (records per wall second)."""
        return self.stats.ingest.digestion_rate

    def effective_digestion_rate(self) -> float:
        """Digestion rate charged with all work that contends with the
        ingestion path in a real deployment: flushing and the policy
        bookkeeping triggered by queries.  This is the Figure 10(b)
        measure — it is what separates FIFO, kFlushing, kFlushing-MK, and
        LRU when queries and flushes run alongside ingestion.
        """
        ingest = self.stats.ingest
        total = ingest.insert_seconds + ingest.flush_seconds
        total += self.executor.bookkeeping_seconds
        if total <= 0.0:
            return 0.0
        return ingest.indexed / total

    def policy_overhead_bytes(self) -> int:
        """Modelled bytes of the policy's private bookkeeping (Fig 10a)."""
        return sum(p.engine.policy_overhead_bytes for p in self.partitions)

    def latency_percentile(self, p: float) -> float:
        """Simulated query-latency percentile (the intro's SLO measure):
        memory hits cost microseconds, misses pay simulated disk I/O."""
        return self.stats.queries.latency.percentile(p)

    def shard_skew(self) -> dict:
        """Hot-shard summary: how unevenly the hash partitions the load.

        ``record_skew`` is max-over-mean resident records (1.0 = perfectly
        balanced); ``flush_skew`` is the same ratio over per-shard flush
        counts (0.0 when no shard has flushed yet).
        """
        records = [p.engine.record_count() for p in self.partitions]
        flushes = [p.flush_count for p in self.partitions]
        utils = [p.engine.memory_bytes / p.capacity_bytes for p in self.partitions]
        mean_records = sum(records) / len(records)
        mean_flushes = sum(flushes) / len(flushes)
        hot = max(range(len(records)), key=lambda i: records[i])
        return {
            "shards": self.config.shards,
            "hot_shard": hot,
            "max_records": max(records),
            "mean_records": mean_records,
            "record_skew": (max(records) / mean_records) if mean_records else 0.0,
            "flush_skew": (max(flushes) / mean_flushes) if mean_flushes else 0.0,
            "max_utilization": max(utils),
            "min_utilization": min(utils),
        }

    def snapshot(self) -> dict:
        """Point-in-time view of the instrumentation registry: every
        counter, gauge, and histogram this system's components recorded
        (flush spans, per-mode query hits/misses, disk I/O, ...), plus
        the per-key hotness table (``hot_keys``) when heat tracking is
        on and, with several partitions, per-shard state (``shards``)
        and the ``shard_skew`` summary."""
        snap = self.obs.registry.snapshot()
        if self.router is not None:
            snap["shards"] = {
                str(p.shard_id): {
                    "capacity_bytes": p.capacity_bytes,
                    "memory_bytes": p.engine.memory_bytes,
                    "utilization": p.engine.memory_bytes / p.capacity_bytes,
                    "records": p.engine.record_count(),
                    "k_filled": p.engine.k_filled_count(),
                    "flush_count": p.flush_count,
                    "disk_records": p.disk.record_count,
                    "disk_keys": p.disk.key_count,
                }
                for p in self.partitions
            }
            snap["shard_skew"] = self.shard_skew()
        hot = self.hot_keys()
        if hot:
            snap["hot_keys"] = hot
        return snap

    def hot_keys(self, n: int = 10) -> dict:
        """Top-``n`` most-queried / most-evicted keys (posting counts for
        evictions) across partitions, JSON-ready; empty unless attribution
        is on.  Each key is owned by exactly one partition, so the
        per-partition tops concatenate without double counting and are
        re-ranked on the raw keys with the same stable tie-break before
        being stringified once."""
        heats = [p.engine.key_heat for p in self.partitions]
        if heats[0] is None:
            return {}

        def table(top) -> list:
            pairs = [pair for heat in heats for pair in top(heat, n)]
            return [[str(key), count] for key, count in stable_top(pairs, n)]

        return {
            "most_queried": table(KeyHeat.top_queried),
            "most_evicted": table(KeyHeat.top_evicted),
        }

    def check_integrity(self) -> None:
        """Assert the system's internal invariants: every partition's
        engine invariants plus, when routed, the partitioning invariant —
        every key a partition holds is owned by it under the router."""
        for partition in self.partitions:
            partition.engine.check_integrity()
            owned = partition.engine.frequency_snapshot() if self.router else ()
            for key in owned:
                owner = self.router.shard_of(key)
                assert owner == partition.shard_id, (
                    f"key {key!r} resident in shard {partition.shard_id} but "
                    f"routed to shard {owner}"
                )
