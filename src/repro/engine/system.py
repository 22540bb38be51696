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
A single partition is wired to the executor directly, with no router:
routing one partition is the identity and costs 11-21 % throughput
(docs/PERFORMANCE.md, "Why a single partition is not routed").
"""

from __future__ import annotations

import time
from typing import Hashable, Iterable, Optional

from repro.config import SystemConfig
from repro.core import create_engine
from repro.core.eviction_ledger import KeyHeat, stable_top
from repro.core.policy import FlushReport, MemoryEngine
from repro.engine.clock import LogicalClock
from repro.engine.executor import QueryExecutor, QueryResult
from repro.engine.queries import TopKQuery
from repro.engine.sharded import (
    ShardAttributeView,
    ShardRouter,
    _RoutedDisk,
    _RoutedEngine,
)
from repro.engine.stats import SystemStats
from repro.errors import CapacityError
from repro.model.microblog import Microblog
from repro.obs import Instrumentation
from repro.obs.recorder import FlightRecorder, attach_flight_recorder
from repro.obs.runtime import get_active
from repro.obs.slo import SLOTracker
from repro.obs.watermarks import WatermarkTracker
from repro.storage.disk import DiskArchive

__all__ = ["MicroblogSystem", "Partition"]


class Partition:
    """One vertical slice: engine + budget + flush cycle + disk namespace.

    With a ``router`` the slice is one of several: its engine indexes
    only the keys it owns (:class:`ShardAttributeView`) and its flushes
    additionally feed the ``shard.<i>.*`` series and the per-shard
    timeline.  Without one it is the whole system, and those series —
    exact copies of the global ones — are not emitted.
    """

    def __init__(
        self, system: "MicroblogSystem", shard_id: int, router: Optional[ShardRouter]
    ) -> None:
        config = system.config
        self.system = system
        self.shard_id = shard_id
        #: Prefix of this slice's own series; empty when it is the only one.
        self.label = f"shard.{shard_id}." if router is not None else ""
        self.capacity_bytes = config.shard_capacity(shard_id)
        self.disk = DiskArchive(
            config.memory_model,
            config.disk_cost,
            obs=system.obs,
            shard_id=shard_id if router is not None else None,
        )
        self.attribute = system.attribute
        if router is not None:
            self.attribute = ShardAttributeView(system.attribute, router, shard_id)
        self.engine: MemoryEngine = create_engine(
            config.policy,
            model=config.memory_model,
            ranking=system.ranking,
            attribute=self.attribute,
            k=config.k,
            capacity_bytes=self.capacity_bytes,
            flush_fraction=config.flush_fraction,
            disk=self.disk,
            obs=system.obs,
            ledger_capacity=config.eviction_ledger_capacity,
        )

    # ------------------------------------------------------------------
    # Flush cycle
    # ------------------------------------------------------------------

    def maybe_flush(self) -> None:
        """Post-insert budget check: one synchronous flush when the
        engine crossed its capacity."""
        if self.engine.needs_flush():
            now = self.system.now
            self._before_flush(now)
            report = self.engine.run_flush(now)
            # The flush stalls ingest for its whole wall time: one
            # stall sample per flush.
            registry = self.system.obs.registry
            registry.counter("ingest.stalls").inc()
            registry.histogram("ingest.stall_seconds").record(report.wall_seconds)
            self._after_flush(report, now)

    def _sample(self, now: float, kind: str, own: int, total: int) -> None:
        """One timeline point per level, so before/after always pair up:
        this shard's (when it is one of several) and the system's."""
        stats, capacity = self.system.stats, self.system.config.total_capacity_bytes
        if self.label:
            stats.sample_memory(
                now, own, self.capacity_bytes, kind=kind, shard=self.shard_id
            )
        stats.sample_memory(now, total, capacity, kind=kind)

    def _before_flush(self, now: float) -> None:
        total = self.system.total_memory_bytes()
        self._sample(now, "before", self.engine.memory_bytes, total)

    def _after_flush(self, report: FlushReport, now: float) -> None:
        system = self.system
        system.stats.ingest.flush_seconds += report.wall_seconds
        system._flush_reports.append(report)
        after = self.engine.memory_bytes
        total = system.total_memory_bytes()
        self._sample(now, "after", after, total)
        registry = system.obs.registry
        registry.gauge("memory.bytes_used").set(total)
        registry.gauge("memory.capacity_bytes").set(system.config.total_capacity_bytes)
        if self.label:
            prefix = self.label
            registry.counter(prefix + "flush.count").inc()
            registry.counter(prefix + "flush.freed_bytes").inc(report.freed_bytes)
            registry.gauge(prefix + "memory.bytes_used").set(after)
            registry.gauge(prefix + "memory.capacity_bytes").set(self.capacity_bytes)
        if report.freed_bytes <= 0 and after >= self.capacity_bytes:
            who = f"shard {self.shard_id} flush" if self.label else "flush"
            raise CapacityError(
                f"{who} freed nothing at {after} bytes used of "
                f"{self.capacity_bytes}; a single record may exceed the "
                "memory budget"
            )
        system._service_level_tick()


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
        #: registry (the library default).  When the flight recorder is
        #: configured the resolved instance is forked with the recorder
        #: ring buffer tee'd in front of the sink — before any component
        #: is built, so everything traces through the recorder.
        self.obs = obs if obs is not None else (get_active() or Instrumentation())
        #: Black-box ring buffer (``config.flight_recorder_events > 0``).
        self.flight_recorder: Optional[FlightRecorder] = None
        if config.flight_recorder_events > 0:
            self.obs, self.flight_recorder = attach_flight_recorder(
                self.obs, config.flight_recorder_events
            )
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
            self.obs.registry.gauge("shards.count").set(config.shards)
        self.executor = QueryExecutor(
            engine,
            disk,
            strict_and=strict_and,
            and_scan_depth=config.and_scan_depth,
            and_disk_limit=config.and_disk_limit,
            obs=self.obs,
        )
        #: Resource high-water marks, sampled at flush boundaries.
        self.watermarks = WatermarkTracker(self.obs.registry)
        #: Error-budget tracker (``config.slo_spec`` set), ticked per flush.
        self.slo_tracker: Optional[SLOTracker] = None
        spec = config.build_slo_spec()
        if spec is not None:
            self.slo_tracker = SLOTracker(spec, self.obs.registry, emit=self.obs.event)
            if self.flight_recorder is not None:
                self.slo_tracker.add_breach_callback(self._dump_on_breach)

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
        if self.router is None:
            owners = self.partitions
            indexed = owners[0].engine.insert(record)
        else:
            # Fan-out: every partition owning one of the record's keys
            # indexes it under those keys only (its attribute view
            # filters); the record body is replicated to each.
            owners = [
                self.partitions[i]
                for i in self.router.shards_for(self.attribute.keys(record))
            ]
            indexed = False
            for partition in owners:
                if partition.engine.insert(record):
                    indexed = True
        ingest.insert_seconds += time.perf_counter() - start
        if not indexed:
            ingest.skipped += 1
            return False
        ingest.indexed += 1
        for partition in owners:
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
    # Service levels (SLO tracker, flight recorder, watermarks)
    # ------------------------------------------------------------------

    def _service_level_tick(self) -> None:
        """One flush-boundary heartbeat: sample resource watermarks,
        then evaluate the SLO objectives."""
        self._sample_watermarks()
        if self.slo_tracker is not None:
            self.slo_tracker.tick()

    def _sample_watermarks(self) -> None:
        watermarks = self.watermarks
        total = 0
        for partition in self.partitions:
            used = partition.engine.memory_bytes
            total += used
            if partition.label:
                watermarks.observe(partition.label + "memory.bytes_used", used)
        watermarks.observe("memory.bytes_used", total)
        # One rule at any partition count: a source is observed whenever
        # it is configured, from the first sample on (an empty ledger
        # reads 0, it is not skipped).
        ledgers = [p.engine.eviction_ledger for p in self.partitions]
        if ledgers[0] is not None:
            watermarks.observe("eviction_ledger.entries", sum(map(len, ledgers)))

    def slo_state(self) -> Optional[dict]:
        """The SLO tracker's state dict, or None when no spec is set."""
        if self.slo_tracker is None:
            return None
        return self.slo_tracker.state()

    def dump_flight_recorder(
        self, path: Optional[str] = None, reason: str = "on_demand"
    ):
        """Write the black box (recent traces + registry snapshot + SLO
        state) to ``path``; returns the path written, or None when the
        recorder is off."""
        if self.flight_recorder is None:
            return None
        if path is None:
            path = self.config.resolved_flight_recorder_path()
        return self.flight_recorder.dump(
            path,
            registry=self.obs.registry,
            slo_state=self.slo_state(),
            reason=reason,
        )

    def _dump_on_breach(self, payload: dict) -> None:
        self.dump_flight_recorder(reason=f"slo_breach:{payload['name']}")

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
        return self.obs.registry.counter_values("query.miss.cause.")

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
        flushes = [len(p.engine.flush_reports) for p in self.partitions]
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
        on and, with several partitions, refreshed ``shard.<i>.*`` gauges,
        per-shard state (``shards``) and the ``shard_skew`` summary."""
        registry = self.obs.registry
        if self.router is None:
            snap = registry.snapshot()
        else:
            skew = self.shard_skew()
            registry.gauge("shards.record_skew").set(skew["record_skew"])
            registry.gauge("shards.flush_skew").set(skew["flush_skew"])
            per_shard = {}
            for p in self.partitions:
                info = per_shard[str(p.shard_id)] = {
                    "capacity_bytes": p.capacity_bytes,
                    "memory_bytes": p.engine.memory_bytes,
                    "utilization": p.engine.memory_bytes / p.capacity_bytes,
                    "records": p.engine.record_count(),
                    "k_filled": p.engine.k_filled_count(),
                    "flush_count": len(p.engine.flush_reports),
                    "disk_records": p.disk.record_count,
                    "disk_keys": p.disk.key_count,
                }
                prefix = p.label
                registry.gauge(prefix + "memory.bytes_used").set(info["memory_bytes"])
                registry.gauge(prefix + "memory.capacity_bytes").set(p.capacity_bytes)
                registry.gauge(prefix + "memory.utilization").set(info["utilization"])
                registry.gauge(prefix + "records").set(info["records"])
                registry.gauge(prefix + "k_filled").set(info["k_filled"])
            snap = registry.snapshot()
            snap["shards"] = per_shard
            snap["shard_skew"] = skew
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
