"""Hash-partitioned system: N independent shards behind one facade.

The paper's system (and :class:`~repro.engine.system.MicroblogSystem`)
is a single partition: one memory engine, one flush cycle, one disk
archive.  Real-time microblog search deployments partition their
postings across independent index slices to bound per-partition memory
churn and parallelise digestion; this module is that architecture:

* a :class:`ShardRouter` maps every index key to its owning shard via a
  **stable** hash (``zlib.crc32`` — deliberately not Python's salted
  ``hash()``, so routing survives process boundaries and reruns);
* each :class:`Shard` owns a full vertical slice — its own
  :class:`~repro.core.policy.MemoryEngine` (any policy), memory budget
  (``capacity/N`` by default, per-shard overrides supported), flush
  cycle, and :class:`~repro.storage.disk.DiskArchive` namespace;
* records **fan out**: a record is digested by every shard owning at
  least one of its keys, so each shard holds the *complete* posting set
  for the keys it owns.  That per-key completeness is what makes
  scatter-gather answers equal to the unsharded system's for single-,
  OR-, and AND-mode queries alike;
* queries **scatter-gather**: the facade's executor routes every per-key
  memory/disk lookup to the owning shard and merges with the shared
  :func:`~repro.storage.topk.merge_topk` — the identical hit semantics
  of the unsharded executor, proven by the ``shards=1`` differential
  test and the N-shard answer-equality property test.

Flushing is **per shard**: a shard flushes when *its* budget fills,
independently of its siblings — hot shards flush more often, which is
exactly the skew ``snapshot()`` surfaces (``shard.<i>.*`` metrics and
the hot-shard summary).
"""

from __future__ import annotations

import time
import zlib
from typing import Hashable, Iterable, Optional, Sequence

from repro.config import SystemConfig
from repro.core import create_engine
from repro.core.adaptive import ShardBudgetBalancer
from repro.core.policy import FlushReport, LookupResult, MemoryEngine
from repro.engine.clock import LogicalClock
from repro.engine.executor import QueryExecutor
from repro.engine.pipeline import FlushWorkerPool, LockedDiskView, PipelinedEngine
from repro.engine.stats import SystemStats
from repro.engine.system import MicroblogSystem, MicroblogSystemBase
from repro.errors import CapacityError, ConfigurationError
from repro.model.attributes import AttributeExtractor
from repro.model.microblog import Microblog
from repro.obs import Instrumentation
from repro.obs.runtime import get_active
from repro.storage.disk import DiskArchive

__all__ = [
    "ShardRouter",
    "ShardAttributeView",
    "Shard",
    "ShardedMicroblogSystem",
    "build_system",
    "stable_key_hash",
]


def stable_key_hash(key: Hashable) -> int:
    """A process-stable 32-bit hash of an index key.

    Python's builtin ``hash()`` is salted per process for str/bytes, so
    it cannot route keys consistently across the parallel trial runner's
    worker processes or across reruns.  CRC32 over a canonical byte
    encoding is stable everywhere: strings hash their UTF-8 bytes, and
    every other key type (user ids, ``(ix, iy)`` spatial tiles) hashes
    its ``repr`` — stable for the builtin scalar/tuple types keys are
    made of.
    """
    if isinstance(key, str):
        data = key.encode("utf-8")
    elif isinstance(key, bytes):
        data = key
    else:
        data = repr(key).encode("utf-8")
    return zlib.crc32(data)


class ShardRouter:
    """Key -> shard assignment via stable hashing.

    The router also understands *fan-out*: a multi-key record belongs to
    every shard owning one of its keys, and a multi-key query must be
    scattered the same way — :meth:`shards_for` and
    :meth:`group_by_shard` encode those rules in one place.
    """

    def __init__(self, shard_count: int) -> None:
        if shard_count < 1:
            raise ConfigurationError(
                f"shard_count must be >= 1, got {shard_count}"
            )
        self.shard_count = shard_count
        # Key universes are bounded (vocabulary / user population / tile
        # grid), so memoising the modulo is safe and keeps the per-record
        # routing cost to one dict hit per key at steady state.
        self._cache: dict[Hashable, int] = {}

    def shard_of(self, key: Hashable) -> int:
        """The shard owning ``key``."""
        shard = self._cache.get(key)
        if shard is None:
            shard = stable_key_hash(key) % self.shard_count
            self._cache[key] = shard
        return shard

    def shards_for(self, keys: Iterable[Hashable]) -> tuple[int, ...]:
        """Sorted distinct shards owning any of ``keys`` (record fan-out)."""
        return tuple(sorted({self.shard_of(key) for key in keys}))

    def group_by_shard(
        self, keys: Sequence[Hashable]
    ) -> dict[int, tuple[Hashable, ...]]:
        """Keys grouped by owning shard, preserving the given key order."""
        groups: dict[int, list[Hashable]] = {}
        for key in keys:
            groups.setdefault(self.shard_of(key), []).append(key)
        return {shard: tuple(group) for shard, group in groups.items()}


class ShardAttributeView(AttributeExtractor):
    """The base attribute restricted to one shard's owned keys.

    Each shard's engine indexes a record under only the keys its shard
    owns — this wrapper is what enforces the partitioning at the engine
    boundary, so engines themselves stay completely shard-unaware.
    """

    def __init__(
        self, base: AttributeExtractor, router: ShardRouter, shard_id: int
    ) -> None:
        self._base = base
        self._router = router
        self._shard_id = shard_id
        self.name = base.name
        self.multi_key = base.multi_key

    def keys(self, record: Microblog) -> tuple[Hashable, ...]:
        return tuple(
            key
            for key in self._base.keys(record)
            if self._router.shard_of(key) == self._shard_id
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardAttributeView({self._base!r}, shard={self._shard_id})"


class Shard:
    """One vertical slice: engine + budget + flush cycle + disk namespace."""

    def __init__(
        self,
        shard_id: int,
        config: SystemConfig,
        router: ShardRouter,
        attribute: AttributeExtractor,
        ranking,
        obs: Instrumentation,
    ) -> None:
        self.shard_id = shard_id
        self.capacity_bytes = config.shard_capacity(shard_id)
        self.disk = DiskArchive(
            config.memory_model,
            config.disk_cost,
            obs=obs,
            shard_id=shard_id,
            # Each shard caches its own key namespace; the global budget
            # is sliced the same way the memory budget is.
            cache_bytes=config.disk_cache_capacity(shard_id),
            elide_empty=config.disk_elide_empty,
        )
        self.attribute = ShardAttributeView(attribute, router, shard_id)
        self.engine: MemoryEngine = create_engine(
            config.policy,
            model=config.memory_model,
            ranking=ranking,
            attribute=self.attribute,
            k=config.k,
            capacity_bytes=self.capacity_bytes,
            flush_fraction=config.flush_fraction,
            disk=self.disk,
            obs=obs,
            ledger_capacity=config.eviction_ledger_capacity,
            # Each shard runs its own controller over its own keys; the
            # facade adds the cross-shard budget balancer on top.
            adaptive=config.adaptive_settings(),
        )
        #: Set by the facade when pipelined ingest is on: the rotation
        #: coordinator and the lock-taking disk adapter for this shard.
        self.pipeline: Optional[PipelinedEngine] = None
        self.disk_view = self.disk

    @property
    def store(self):
        """Executor/metrics-facing store: the pipeline (active +
        immutable memtables) when pipelined ingest is on, else the bare
        engine."""
        return self.pipeline if self.pipeline is not None else self.engine

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Shard(id={self.shard_id}, capacity={self.capacity_bytes}, "
            f"records={self.engine.record_count()})"
        )


class _RoutedDiskStats:
    """Aggregate ``DiskStats`` view the executor's I/O accounting reads."""

    __slots__ = ("_shards",)

    def __init__(self, shards: list[Shard]) -> None:
        self._shards = shards

    @property
    def simulated_io_seconds(self) -> float:
        return sum(shard.disk.stats.simulated_io_seconds for shard in self._shards)


class _RoutedDisk:
    """Disk-archive adapter routing per-key lookups to the owning shard.

    Duck-types the slice of :class:`DiskArchive` the query executor
    uses: ``lookup`` (keyed — routed), ``fetch_record`` (by id — probed
    across shard archives, charging exactly one read), and ``stats``.
    """

    def __init__(
        self,
        shards: list[Shard],
        router: ShardRouter,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self._shards = shards
        self._router = router
        self._obs = obs if obs is not None else Instrumentation()
        self.stats = _RoutedDiskStats(shards)

    def lookup(self, key: Hashable, limit: Optional[int] = None):
        shard_id = self._router.shard_of(key)
        obs = self._obs
        if obs.current_trace is None:
            return self._shards[shard_id].disk_view.lookup(key, limit=limit)
        with obs.trace_span("shard.disk.lookup", shard=shard_id, key=str(key)) as extra:
            result = self._shards[shard_id].disk_view.lookup(key, limit=limit)
            extra["postings"] = len(result)
            return result

    def elides(self, key: Hashable) -> bool:
        """Route the negative-lookup check to the shard owning ``key``."""
        return self._shards[self._router.shard_of(key)].disk_view.elides(key)

    def fetch_record(self, blog_id: int) -> Optional[Microblog]:
        for shard in self._shards:
            if shard.disk_view.contains_record(blog_id):
                return shard.disk_view.fetch_record(blog_id)
        return None


class _RoutedEngine:
    """Memory-engine adapter routing per-key operations to shards.

    Duck-types the slice of :class:`MemoryEngine` the query executor
    uses.  Handing this to the *unsharded* :class:`QueryExecutor` is the
    scatter-gather design: the executor's hit semantics, completeness
    proofs, and :func:`~repro.storage.topk.merge_topk` merges run
    unchanged, with every per-key memory/disk access transparently served
    by the owning shard.
    """

    def __init__(
        self,
        shards: list[Shard],
        router: ShardRouter,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self._shards = shards
        self._router = router
        self._obs = obs if obs is not None else Instrumentation()

    def lookup(self, key: Hashable, depth: Optional[int] = None) -> LookupResult:
        shard_id = self._router.shard_of(key)
        obs = self._obs
        if obs.current_trace is None:
            return self._shards[shard_id].store.lookup(key, depth=depth)
        with obs.trace_span(
            "shard.memory.lookup", shard=shard_id, key=str(key)
        ) as extra:
            result = self._shards[shard_id].store.lookup(key, depth=depth)
            extra["candidates"] = len(result.candidates)
            return result

    def eviction_cause(self, key: Hashable):
        """Route the miss-attribution probe to the shard owning ``key``
        (each shard's engine keeps its own eviction ledger)."""
        return self._shards[self._router.shard_of(key)].store.eviction_cause(key)

    def note_query(
        self,
        keys: Sequence[Hashable],
        accessed_ids: Iterable[int],
        now: float,
    ) -> None:
        # Scatter the policy feedback: each shard sees the keys it owns
        # plus the full accessed-id list (engines ignore non-resident
        # ids, and a fanned-out record may be resident in several shards
        # — each should observe the access).
        accessed = tuple(accessed_ids)
        for shard_id, shard_keys in self._router.group_by_shard(keys).items():
            self._shards[shard_id].store.note_query(shard_keys, accessed, now)

    def get_record(self, blog_id: int) -> Optional[Microblog]:
        for shard in self._shards:
            record = shard.store.get_record(blog_id)
            if record is not None:
                return record
        return None

    @property
    def wants_query_feedback(self) -> bool:
        return any(
            getattr(shard.store, "wants_query_feedback", False)
            for shard in self._shards
        )

    def observe_query_feedback(self, keys, hit, cause) -> None:
        # Scatter like note_query: each shard's heat/controller sees the
        # keys it owns, with the query-level hit flag and miss cause.
        for shard_id, shard_keys in self._router.group_by_shard(keys).items():
            store = self._shards[shard_id].store
            if getattr(store, "wants_query_feedback", False):
                store.observe_query_feedback(shard_keys, hit, cause)


class ShardedMicroblogSystem(MicroblogSystemBase):
    """N hash-partitioned shards behind the :class:`MicroblogSystem` API.

    Construction accepts any ``SystemConfig`` (``shards=1`` builds a
    single-shard system whose observable behaviour is bit-identical to
    :class:`MicroblogSystem` — the differential test in
    ``tests/test_sharding.py`` holds that bar).  Prefer
    :func:`build_system`, which picks the cheaper unsharded facade when
    the config doesn't ask for partitioning.
    """

    def __init__(
        self,
        config: SystemConfig,
        strict_and: bool = False,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.config = config
        self.obs = self._resolve_obs(config, obs)
        self.attribute = config.build_attribute()
        self.ranking = config.build_ranking()
        self.router = ShardRouter(config.shards)
        self.shards: list[Shard] = [
            Shard(i, config, self.router, self.attribute, self.ranking, self.obs)
            for i in range(config.shards)
        ]
        #: One worker pool shared by all shards' drain tasks when
        #: pipelined ingest is on (the queue bound is global, so total
        #: in-flight flush work is capped system-wide).
        self._pool: Optional[FlushWorkerPool] = None
        if config.pipelined_ingest:
            self._pool = FlushWorkerPool(
                config.resolved_flush_workers(),
                config.resolved_flush_queue_limit(),
                obs=self.obs,
            )
            for shard in self.shards:
                self._attach_pipeline(shard)
        self.executor = QueryExecutor(
            _RoutedEngine(self.shards, self.router, self.obs),
            _RoutedDisk(self.shards, self.router, self.obs),
            strict_and=strict_and,
            and_scan_depth=config.and_scan_depth,
            and_disk_limit=config.and_disk_limit,
            obs=self.obs,
        )
        self.clock = LogicalClock()
        self.stats = SystemStats()
        #: All shards' flushes, in the order they ran (the facade-level
        #: mirror of each engine's own ``flush_reports``).
        self._flush_reports: list[FlushReport] = []
        #: Cross-shard budget rebalancer (PR 9): shifts bounded budget
        #: slices toward hot shards at flush boundaries.  None keeps the
        #: construction-time budgets fixed, the static reference.
        settings = config.adaptive_settings()
        self._balancer: Optional[ShardBudgetBalancer] = (
            ShardBudgetBalancer(settings, self.shards)
            if settings is not None and config.shards > 1
            else None
        )
        self.obs.registry.gauge("shards.count").set(config.shards)
        self._init_service_levels()

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def ingest(self, record: Microblog) -> bool:
        self.clock.advance_to(record.timestamp)
        self.stats.ingest.offered += 1
        start = time.perf_counter()
        owners = self.router.shards_for(self.attribute.keys(record))
        indexed = False
        for shard_id in owners:
            # Each owning shard indexes the record under its own keys
            # only (the shard's attribute view filters); the record body
            # is replicated to every owning shard — the documented cost
            # of multi-key fan-out.
            if self.shards[shard_id].store.insert(record):
                indexed = True
        self.stats.ingest.insert_seconds += time.perf_counter() - start
        if not indexed:
            self.stats.ingest.skipped += 1
            return False
        self.stats.ingest.indexed += 1
        for shard_id in owners:
            shard = self.shards[shard_id]
            if shard.pipeline is not None:
                shard.pipeline.maybe_rotate(self.now)
            elif shard.engine.needs_flush():
                self._flush_shard(shard)
        return True

    def _attach_pipeline(self, shard: Shard) -> None:
        """Wire one shard's rotation coordinator onto the shared pool."""
        config = self.config

        def build_overlay() -> MemoryEngine:
            # Overlays stay non-adaptive (see the unsharded facade).
            return create_engine(
                config.policy,
                model=config.memory_model,
                ranking=self.ranking,
                attribute=shard.attribute,
                k=shard.engine.k,
                capacity_bytes=config.overlay_capacity(shard.shard_id),
                flush_fraction=config.flush_fraction,
                disk=shard.disk,
                obs=self.obs,
                ledger_capacity=config.eviction_ledger_capacity,
            )

        shard.pipeline = PipelinedEngine(
            engine=shard.engine,
            overlay_factory=build_overlay,
            overlay_capacity_bytes=config.overlay_capacity(shard.shard_id),
            pool=self._pool,
            obs=self.obs,
            record_stall=self._record_stall,
            on_before_flush=lambda now, shard=shard: self._sample_shard_before(
                shard, now
            ),
            on_after_flush=lambda report, now, shard=shard: self._note_shard_flush(
                shard, report, now
            ),
            label=f"shard.{shard.shard_id}.",
        )
        shard.disk_view = LockedDiskView(shard.disk, shard.pipeline.lock)

    def _flush_shard(self, shard: Shard) -> FlushReport:
        self._sample_shard_before(shard, self.now)
        report = shard.engine.run_flush(self.now)
        # The inline shard flush stalls ingest for its whole wall time.
        self._record_stall(report.wall_seconds)
        self._note_shard_flush(shard, report, self.now)
        return report

    def _sample_shard_before(self, shard: Shard, now: float) -> None:
        self.stats.sample_memory(
            now,
            shard.engine.memory_bytes,
            shard.capacity_bytes,
            kind="before",
            shard=shard.shard_id,
        )
        # Paired system-level "before" point: the system timeline
        # (``shard_timeline(None)``) used to receive only the "after"
        # sample below, leaving its before/after pairs asymmetric with
        # the per-shard and unsharded timelines.
        self.stats.sample_memory(
            now,
            self.total_memory_bytes(),
            self.config.total_capacity_bytes,
            kind="before",
        )

    def _note_shard_flush(self, shard: Shard, report: FlushReport, now: float) -> None:
        """Post-flush accounting; runs on the worker thread when a drain
        completes in the background, inline otherwise."""
        self.stats.ingest.flush_seconds += report.wall_seconds
        self._flush_reports.append(report)
        after = shard.engine.memory_bytes
        self.stats.sample_memory(
            now, after, shard.capacity_bytes, kind="after", shard=shard.shard_id
        )
        # System-level timeline sample plus the global memory gauges,
        # mirroring the unsharded facade's accounting.
        total = self.total_memory_bytes()
        total_capacity = self.config.total_capacity_bytes
        self.stats.sample_memory(now, total, total_capacity, kind="after")
        registry = self.obs.registry
        registry.gauge("memory.bytes_used").set(total)
        registry.gauge("memory.capacity_bytes").set(total_capacity)
        prefix = f"shard.{shard.shard_id}."
        registry.counter(prefix + "flush.count").inc()
        registry.counter(prefix + "flush.freed_bytes").inc(report.freed_bytes)
        registry.gauge(prefix + "memory.bytes_used").set(after)
        registry.gauge(prefix + "memory.capacity_bytes").set(shard.capacity_bytes)
        if report.freed_bytes <= 0 and after >= shard.capacity_bytes:
            raise CapacityError(
                f"shard {shard.shard_id} flush freed nothing at {after} bytes "
                f"used of {shard.capacity_bytes}; a single record may exceed "
                "the shard's memory budget"
            )
        if self._balancer is not None:
            self._balancer.on_shard_flush(self)
        self._service_level_tick()

    def _sample_watermarks(self) -> None:
        # Lock-free reads only (see the unsharded twin) — safe from the
        # flush-worker threads.
        watermarks = self.watermarks
        total = cache_bytes = 0
        overlay = ledger_entries = 0
        for shard in self.shards:
            used = shard.store.memory_bytes
            total += used
            watermarks.observe(f"shard.{shard.shard_id}.memory.bytes_used", used)
            if shard.pipeline is not None:
                overlay += max(0, used - shard.engine.memory_bytes)
            if shard.disk.cache is not None:
                cache_bytes += shard.disk.cache.bytes_used
            ledger = shard.engine.eviction_ledger
            if ledger is not None:
                ledger_entries += len(ledger)
        watermarks.observe("memory.bytes_used", total)
        if self._pool is not None:
            watermarks.observe("memory.overlay_bytes", overlay)
            depth = self.obs.registry.get_gauge("pipeline.queue_depth")
            if depth is not None:
                watermarks.observe("pipeline.queue_depth", depth.value)
        if self.config.disk_cache_bytes > 0:
            watermarks.observe("disk.cache_bytes", cache_bytes)
        if ledger_entries:
            watermarks.observe("eviction_ledger.entries", ledger_entries)

    # ------------------------------------------------------------------
    # Control and metrics
    # ------------------------------------------------------------------

    def set_k(self, k: int) -> None:
        for shard in self.shards:
            shard.store.set_k(k)

    def total_memory_bytes(self) -> int:
        return sum(shard.store.memory_bytes for shard in self.shards)

    def k_filled_count(self) -> int:
        # Keys are partitioned (each owned by exactly one shard), so the
        # per-shard counts sum without overlap.
        return sum(shard.store.k_filled_count() for shard in self.shards)

    def memory_utilization(self) -> float:
        return self.total_memory_bytes() / self.config.total_capacity_bytes

    def frequency_snapshot(self) -> dict[Hashable, int]:
        merged: dict[Hashable, int] = {}
        for shard in self.shards:
            merged.update(shard.store.frequency_snapshot())
        return merged

    def flush_reports(self) -> list[FlushReport]:
        return self._flush_reports

    def policy_overhead_bytes(self) -> int:
        return sum(shard.store.policy_overhead_bytes for shard in self.shards)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def quiesce(self) -> None:
        for shard in self.shards:
            if shard.pipeline is not None:
                shard.pipeline.quiesce(self.now)

    def close(self) -> None:
        self.quiesce()
        if self._pool is not None:
            self._pool.close()

    def shard_utilizations(self) -> list[float]:
        """Per-shard used fraction of the shard budget, by shard id."""
        return [
            shard.store.memory_bytes / shard.capacity_bytes
            for shard in self.shards
        ]

    def shard_skew(self) -> dict:
        """Hot-shard summary: how unevenly the hash partitions the load.

        ``record_skew`` is max-over-mean resident records (1.0 = perfectly
        balanced); ``flush_skew`` is the same ratio over per-shard flush
        counts (0.0 when no shard has flushed yet).
        """
        records = [shard.store.record_count() for shard in self.shards]
        flushes = [len(shard.engine.flush_reports) for shard in self.shards]
        utils = self.shard_utilizations()
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

    def _refresh_shard_gauges(self) -> None:
        registry = self.obs.registry
        for shard in self.shards:
            prefix = f"shard.{shard.shard_id}."
            registry.gauge(prefix + "memory.bytes_used").set(shard.store.memory_bytes)
            registry.gauge(prefix + "memory.capacity_bytes").set(shard.capacity_bytes)
            registry.gauge(prefix + "memory.utilization").set(
                shard.store.memory_bytes / shard.capacity_bytes
            )
            registry.gauge(prefix + "records").set(shard.store.record_count())
            registry.gauge(prefix + "k_filled").set(shard.store.k_filled_count())
        skew = self.shard_skew()
        registry.gauge("shards.record_skew").set(skew["record_skew"])
        registry.gauge("shards.flush_skew").set(skew["flush_skew"])

    def snapshot(self) -> dict:
        """Registry snapshot extended with per-shard state and the
        hot-shard skew summary (``shards`` / ``shard_skew`` keys)."""
        self._refresh_shard_gauges()
        snap = self.obs.registry.snapshot()
        snap["shards"] = {
            str(shard.shard_id): {
                "capacity_bytes": shard.capacity_bytes,
                "memory_bytes": shard.store.memory_bytes,
                "utilization": shard.store.memory_bytes / shard.capacity_bytes,
                "records": shard.store.record_count(),
                "k_filled": shard.store.k_filled_count(),
                "flush_count": len(shard.engine.flush_reports),
                "disk_records": shard.disk.record_count,
                "disk_keys": shard.disk.key_count,
            }
            for shard in self.shards
        }
        snap["shard_skew"] = self.shard_skew()
        hot = self.hot_keys()
        if hot:
            snap["hot_keys"] = hot
        return snap

    def hot_keys(self, n: int = 10) -> dict:
        """Top-``n`` most-queried / most-evicted keys across all shards.

        Keys are partitioned (each owned by exactly one shard), so the
        per-shard tables concatenate without double counting; the merged
        tables re-rank on count with the same stable tie-break."""
        merged: dict[str, list] = {}
        for shard in self.shards:
            table = shard.engine.hot_keys(n)
            for section, rows in table.items():
                merged.setdefault(section, []).extend(rows)
        return {
            section: sorted(rows, key=lambda row: (-row[1], row[0]))[:n]
            for section, rows in merged.items()
        }

    def check_integrity(self) -> None:
        """Per-shard engine invariants plus the partitioning invariant:
        every key a shard holds (in memory or on its disk namespace) is
        owned by that shard under the router."""
        for shard in self.shards:
            shard.store.check_integrity()
            for key in shard.engine.frequency_snapshot():
                owner = self.router.shard_of(key)
                assert owner == shard.shard_id, (
                    f"key {key!r} resident in shard {shard.shard_id} but "
                    f"routed to shard {owner}"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedMicroblogSystem(policy={self.config.policy!r}, "
            f"shards={self.config.shards}, attr={self.attribute.name!r}, "
            f"records={sum(s.engine.record_count() for s in self.shards)})"
        )


def build_system(
    config: SystemConfig,
    strict_and: bool = False,
    obs: Optional[Instrumentation] = None,
    force_sharded: bool = False,
) -> MicroblogSystemBase:
    """Build the facade the config asks for.

    ``shards=1`` returns the single-partition :class:`MicroblogSystem`
    (zero routing overhead — today's system, unchanged); ``shards>1``
    returns a :class:`ShardedMicroblogSystem`.  ``force_sharded=True``
    builds the sharded facade even at ``shards=1`` — the hook the
    differential test uses to prove the sharded code path is
    bit-identical to the unsharded one.
    """
    if config.shards > 1 or force_sharded:
        return ShardedMicroblogSystem(config, strict_and=strict_and, obs=obs)
    return MicroblogSystem(config, strict_and=strict_and, obs=obs)
