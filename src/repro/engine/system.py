"""The system facade: ingestion, flushing, and query serving in one object.

:class:`MicroblogSystem` wires a configured memory engine (policy + store
layout), the simulated disk archive, the query executor, and the metrics
together, reproducing the environment of the paper's Figure 2:

* a stream of microblogs is *digested* into the in-memory store;
* when the memory budget fills, the flushing policy evicts at least the
  flushing budget B to disk;
* incoming top-k queries are answered memory-first, falling back to disk
  on a miss — and the hit ratio is the headline metric.

:class:`MicroblogSystemBase` holds the facade surface shared with the
hash-partitioned sibling (:class:`repro.engine.sharded.ShardedMicroblogSystem`):
experiment harnesses program against the base contract and work with
either build.  Use :func:`repro.engine.sharded.build_system` to construct
whichever the config asks for.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Hashable, Iterable, Optional

from repro.config import SystemConfig
from repro.core import create_engine
from repro.core.policy import FlushReport, MemoryEngine
from repro.engine.clock import LogicalClock
from repro.engine.executor import QueryExecutor, QueryResult
from repro.engine.pipeline import FlushWorkerPool, LockedDiskView, PipelinedEngine
from repro.engine.queries import TopKQuery
from repro.engine.stats import SystemStats
from repro.errors import CapacityError
from repro.model.microblog import Microblog
from repro.obs import Instrumentation
from repro.obs.recorder import FlightRecorder, attach_flight_recorder
from repro.obs.runtime import get_active
from repro.obs.slo import SLOTracker
from repro.obs.watermarks import WatermarkTracker
from repro.storage.disk import DiskArchive

__all__ = ["MicroblogSystem", "MicroblogSystemBase"]


class MicroblogSystemBase(ABC):
    """Facade contract shared by the single-partition and sharded systems.

    Subclass ``__init__`` must set ``config``, ``obs``, ``executor``,
    ``clock``, and ``stats``; the base class implements everything that
    is agnostic to how many partitions sit behind the executor.
    """

    config: SystemConfig
    obs: Instrumentation
    executor: QueryExecutor
    clock: LogicalClock
    stats: SystemStats
    #: Black-box ring buffer (``config.flight_recorder_events > 0``).
    flight_recorder: Optional[FlightRecorder]
    #: Error-budget tracker (``config.slo_spec`` set), ticked per flush.
    slo_tracker: Optional[SLOTracker]
    #: Resource high-water marks, sampled at flush boundaries.
    watermarks: WatermarkTracker

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock.now

    @abstractmethod
    def ingest(self, record: Microblog) -> bool:
        """Digest one record; triggers a flush when memory fills.

        Returns False when the record has no keys under the configured
        attribute (e.g. a tweet without hashtags in a keyword system) and
        was skipped.
        """

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
    # Lifecycle
    # ------------------------------------------------------------------

    def quiesce(self) -> None:
        """Wait for any in-flight background flush work and fold rotated
        memtables back in.  No-op for synchronous builds; pipelined
        builds override it.  Call before reading final metrics."""

    def close(self) -> None:
        """Quiesce and release background resources (worker threads).
        Idempotent; no-op for synchronous builds."""
        self.quiesce()

    def _record_stall(self, seconds: float) -> None:
        """Account one ingest-path pause: a synchronous/inline flush, a
        pipelined backpressure wait, or a non-empty reconcile.  Feeds the
        ``ingest.stall_seconds`` histogram — the p99 of these pauses is
        the pipelined-ingest headline metric."""
        self.stats.ingest.record_stall(seconds)
        self.obs.registry.counter("ingest.stalls").inc()
        self.obs.registry.histogram("ingest.stall_seconds").record(seconds)

    # ------------------------------------------------------------------
    # Service levels (SLO tracker, flight recorder, watermarks)
    # ------------------------------------------------------------------

    def _resolve_obs(
        self, config: SystemConfig, obs: Optional[Instrumentation]
    ) -> Instrumentation:
        """Resolve the system's Instrumentation (explicit arg > active
        scope > private) and, when the flight recorder is configured,
        fork it with the recorder tee'd in front of the sink.  Must run
        before any component is built so everything traces through the
        recorder."""
        resolved = obs if obs is not None else (get_active() or Instrumentation())
        self.flight_recorder = None
        if config.flight_recorder_events > 0:
            resolved, self.flight_recorder = attach_flight_recorder(
                resolved, config.flight_recorder_events
            )
        return resolved

    def _init_service_levels(self) -> None:
        """Build the watermark tracker and (when configured) the SLO
        tracker; called at the end of subclass ``__init__``."""
        self.watermarks = WatermarkTracker(self.obs.registry)
        self.slo_tracker = None
        spec = self.config.build_slo_spec()
        if spec is not None:
            tracker = SLOTracker(spec, self.obs.registry, emit=self.obs.event)
            if self.flight_recorder is not None:
                tracker.add_breach_callback(self._dump_on_breach)
            self.slo_tracker = tracker

    def _service_level_tick(self) -> None:
        """One flush-boundary heartbeat: sample resource watermarks,
        then evaluate the SLO objectives.  Runs on the flush-worker
        thread in pipelined mode — everything it touches is either
        lock-free reads or internally locked."""
        self._sample_watermarks()
        if self.slo_tracker is not None:
            self.slo_tracker.tick()

    def _sample_watermarks(self) -> None:
        """Feed the watermark tracker; subclasses override."""

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
        target = (
            path if path is not None else self.config.resolved_flight_recorder_path()
        )
        return self.flight_recorder.dump(
            target,
            registry=self.obs.registry,
            slo_state=self.slo_state(),
            reason=reason,
        )

    def _dump_on_breach(self, payload: dict) -> None:
        self.dump_flight_recorder(reason=f"slo_breach:{payload['name']}")

    # ------------------------------------------------------------------
    # Control and metrics
    # ------------------------------------------------------------------

    @abstractmethod
    def set_k(self, k: int) -> None:
        """Change k at run time (Section IV-C); applies from the next
        flush cycle onward."""

    def snapshot(self) -> dict:
        """Point-in-time view of the instrumentation registry: every
        counter, gauge, and histogram this system's components recorded
        (flush spans, per-mode query hits/misses, disk I/O, ...)."""
        return self.obs.registry.snapshot()

    def hit_ratio(self) -> float:
        return self.stats.queries.hit_ratio

    def miss_attribution(self) -> dict[str, int]:
        """Memory misses grouped by the eviction decision that caused
        them: ``{"phase1-regular": 12, "never-resident": 3, ...}``.
        Empty unless the shared Instrumentation has ``attribution=True``
        (and at least one miss occurred)."""
        return self.obs.registry.counter_values("query.miss.cause.")

    @abstractmethod
    def k_filled_count(self) -> int:
        """Keys whose provable in-memory top-k is complete (Fig 7)."""

    @abstractmethod
    def memory_utilization(self) -> float:
        """Used fraction of the (total) memory budget."""

    @abstractmethod
    def frequency_snapshot(self) -> dict[Hashable, int]:
        """Key -> in-memory posting count (the Figure 1 snapshot)."""

    @abstractmethod
    def flush_reports(self) -> list[FlushReport]:
        """Every flush this system ran, in chronological order."""

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

    @abstractmethod
    def policy_overhead_bytes(self) -> int:
        """Modelled bytes of the policy's private bookkeeping (Fig 10a)."""

    def latency_percentile(self, p: float) -> float:
        """Simulated query-latency percentile (the intro's SLO measure):
        memory hits cost microseconds, misses pay simulated disk I/O."""
        return self.stats.queries.latency.percentile(p)

    @abstractmethod
    def check_integrity(self) -> None:
        """Assert the system's internal invariants."""


class MicroblogSystem(MicroblogSystemBase):
    """A complete microblogs data-management system (Figure 2)."""

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
        #: ring buffer tee'd in front of the sink.
        self.obs = self._resolve_obs(config, obs)
        self.attribute = config.build_attribute()
        self.ranking = config.build_ranking()
        self.disk = DiskArchive(
            config.memory_model,
            config.disk_cost,
            obs=self.obs,
            cache_bytes=config.disk_cache_bytes,
            elide_empty=config.disk_elide_empty,
        )
        self.engine: MemoryEngine = create_engine(
            config.policy,
            model=config.memory_model,
            ranking=self.ranking,
            attribute=self.attribute,
            k=config.k,
            capacity_bytes=config.memory_capacity_bytes,
            flush_fraction=config.flush_fraction,
            disk=self.disk,
            obs=self.obs,
            ledger_capacity=config.eviction_ledger_capacity,
            adaptive=config.adaptive_settings(),
        )
        #: Rotation coordinator when ``config.pipelined_ingest`` is on;
        #: None keeps the synchronous inline-flush path byte-for-byte.
        self._pipeline: Optional[PipelinedEngine] = None
        self._pool: Optional[FlushWorkerPool] = None
        if config.pipelined_ingest:
            self._pool = FlushWorkerPool(
                config.resolved_flush_workers(),
                config.resolved_flush_queue_limit(),
                obs=self.obs,
            )
            self._pipeline = PipelinedEngine(
                engine=self.engine,
                overlay_factory=self._build_overlay,
                overlay_capacity_bytes=config.overlay_capacity(0),
                pool=self._pool,
                obs=self.obs,
                record_stall=self._record_stall,
                on_before_flush=self._sample_flush_before,
                on_after_flush=self._note_flush_complete,
            )
        #: Store the executor and the metrics surface talk to: the
        #: pipeline (active + immutable memtables) or the bare engine.
        self._store = self._pipeline if self._pipeline is not None else self.engine
        self.executor = QueryExecutor(
            self._store,
            LockedDiskView(self.disk, self._pipeline.lock)
            if self._pipeline is not None
            else self.disk,
            strict_and=strict_and,
            and_scan_depth=config.and_scan_depth,
            and_disk_limit=config.and_disk_limit,
            obs=self.obs,
        )
        self.clock = LogicalClock()
        self.stats = SystemStats()
        self._init_service_levels()

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def ingest(self, record: Microblog) -> bool:
        self.clock.advance_to(record.timestamp)
        self.stats.ingest.offered += 1
        pipeline = self._pipeline
        start = time.perf_counter()
        indexed = self._store.insert(record)
        self.stats.ingest.insert_seconds += time.perf_counter() - start
        if indexed:
            self.stats.ingest.indexed += 1
        else:
            self.stats.ingest.skipped += 1
            return False
        if pipeline is not None:
            pipeline.maybe_rotate(self.now)
        elif self.engine.needs_flush():
            self._flush()
        return True

    def _build_overlay(self) -> MemoryEngine:
        """A fresh same-policy engine to digest into while the long-lived
        engine is frozen for a background flush."""
        config = self.config
        # Overlays stay non-adaptive: they live for one rotation window
        # and are absorbed back into the long-lived engine, which owns
        # the heat, the allocator, and the retune schedule.
        return create_engine(
            config.policy,
            model=config.memory_model,
            ranking=self.ranking,
            attribute=self.attribute,
            k=self.engine.k,
            capacity_bytes=config.overlay_capacity(0),
            flush_fraction=config.flush_fraction,
            disk=self.disk,
            obs=self.obs,
            ledger_capacity=config.eviction_ledger_capacity,
        )

    def _flush(self) -> FlushReport:
        self._sample_flush_before(self.now)
        report = self.engine.run_flush(self.now)
        # The synchronous flush stalls ingest for its whole wall time —
        # the baseline pause the pipelined mode exists to remove.
        self._record_stall(report.wall_seconds)
        self._note_flush_complete(report, self.now)
        return report

    def _sample_flush_before(self, now: float) -> None:
        self.stats.sample_memory(
            now,
            self.engine.memory_bytes,
            self.config.memory_capacity_bytes,
            kind="before",
        )

    def _note_flush_complete(self, report: FlushReport, now: float) -> None:
        """Post-flush accounting; runs on the worker thread when a drain
        completes in the background, inline otherwise."""
        self.stats.ingest.flush_seconds += report.wall_seconds
        after = self.engine.memory_bytes
        self.stats.sample_memory(
            now, after, self.config.memory_capacity_bytes, kind="after"
        )
        self.obs.registry.gauge("memory.bytes_used").set(after)
        self.obs.registry.gauge("memory.capacity_bytes").set(
            self.config.memory_capacity_bytes
        )
        if report.freed_bytes <= 0 and after >= self.config.memory_capacity_bytes:
            raise CapacityError(
                f"flush freed nothing at {after} bytes used of "
                f"{self.config.memory_capacity_bytes}; a single record may "
                "exceed the memory budget"
            )
        self._service_level_tick()

    def _sample_watermarks(self) -> None:
        # All reads here are lock-free (plain attribute/dict reads under
        # the GIL), so this is safe from the flush-worker thread.
        watermarks = self.watermarks
        total = self._store.memory_bytes
        watermarks.observe("memory.bytes_used", total)
        if self._pipeline is not None:
            watermarks.observe(
                "memory.overlay_bytes", max(0, total - self.engine.memory_bytes)
            )
            depth = self.obs.registry.get_gauge("pipeline.queue_depth")
            if depth is not None:
                watermarks.observe("pipeline.queue_depth", depth.value)
        cache = getattr(self.disk, "cache", None)
        if cache is not None:
            watermarks.observe("disk.cache_bytes", cache.bytes_used)
        ledger = getattr(self.engine, "eviction_ledger", None)
        if ledger is not None:
            watermarks.observe("eviction_ledger.entries", len(ledger))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def quiesce(self) -> None:
        if self._pipeline is not None:
            self._pipeline.quiesce(self.now)

    def close(self) -> None:
        self.quiesce()
        if self._pool is not None:
            self._pool.close()

    # ------------------------------------------------------------------
    # Control and metrics
    # ------------------------------------------------------------------

    def set_k(self, k: int) -> None:
        self._store.set_k(k)

    def k_filled_count(self) -> int:
        return self._store.k_filled_count()

    def memory_utilization(self) -> float:
        return self._store.memory_bytes / self.config.memory_capacity_bytes

    def frequency_snapshot(self) -> dict[Hashable, int]:
        return self._store.frequency_snapshot()

    def snapshot(self) -> dict:
        """Registry snapshot extended with the per-key hotness table
        (``hot_keys``) whenever heat tracking is on (attribution or
        adaptive mode)."""
        snap = super().snapshot()
        hot = self.engine.hot_keys()
        if hot:
            snap["hot_keys"] = hot
        return snap

    def flush_reports(self) -> list[FlushReport]:
        return self.engine.flush_reports

    def policy_overhead_bytes(self) -> int:
        return self._store.policy_overhead_bytes

    def check_integrity(self) -> None:
        self._store.check_integrity()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MicroblogSystem(policy={self.config.policy!r}, "
            f"attr={self.attribute.name!r}, k={self.engine.k}, "
            f"records={self.engine.record_count()})"
        )
