"""The memory-engine interface every flushing policy implements.

The paper frames a flushing policy as a pluggable module over the
in-memory store (Figure 2).  Two layouts serve the four policies: FIFO
needs a temporally segmented index, while kFlushing and LRU share one
:class:`IndexedEngine` layout — a raw store with ``pcount`` reference
counts plus the hash inverted index — and differ only in their decision
rule (LRU adds its recency list).  A :class:`MemoryEngine` bundles one
policy with the store layout it needs, behind a uniform contract the
:class:`~repro.engine.system.MicroblogSystem` and the query executor
program against:

* ``insert`` digests one record under the keys the facade extracted for
  it (a sharded partition receives only the keys it owns);
* ``lookup`` returns the in-memory postings of a key together with its
  **completeness floor**, so the executor can decide provable memory hits;
* ``note_query`` feeds query-access information back to the policy (LRU
  recency touches, kFlushing's per-entry last-query timestamps);
* ``flush`` evicts at least the configured budget to the disk archive and
  returns a :class:`FlushReport`.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Optional, Sequence

from repro.core.eviction_ledger import EvictionLedger, EvictionRecord, KeyHeat
from repro.errors import ConfigurationError
from repro.model.attributes import AttributeExtractor
from repro.model.microblog import Microblog
from repro.model.ranking import RankingFunction
from repro.obs import Instrumentation, catalog
from repro.storage.disk import DiskArchive
from repro.storage.flush_buffer import FlushBuffer
from repro.storage.inverted_index import HashInvertedIndex
from repro.storage.memory_model import MemoryModel
from repro.storage.posting_list import MIN_SORT_KEY, Posting, SortKey
from repro.storage.raw_store import RawDataStore

__all__ = ["LookupResult", "FlushReport", "MemoryEngine", "IndexedEngine"]


@dataclass(frozen=True)
class LookupResult:
    """In-memory postings of one key plus their completeness guarantee.

    ``candidates`` are a best-rank-first tuple: the entry's ``top(depth)``,
    and ``top(len(entry))`` for an uncapped lookup.  Every posting for
    this key whose sort key is strictly above ``floor`` is guaranteed to
    be present in ``candidates``; below the floor, memory may be missing
    items and only the disk knows the truth.
    """

    key: Hashable
    candidates: tuple[Posting, ...]
    floor: SortKey

    def provable_top(self, k: int) -> Optional[tuple[Posting, ...]]:
        """The top-k iff provably complete in memory, else None."""
        if len(self.candidates) < k:
            return None
        top = self.candidates[:k]
        if top[-1].sort_key <= self.floor:
            return None
        return tuple(top)


@dataclass
class FlushReport:
    """What one flush operation did, for metrics and the Figure 5 series."""

    policy: str
    triggered_at: float
    target_bytes: int
    freed_bytes: int = 0
    records_flushed: int = 0
    postings_flushed: int = 0
    entries_flushed: int = 0
    bytes_written_to_disk: int = 0
    #: Freed bytes attributed to each kFlushing phase (empty for baselines).
    phase_freed: dict[str, int] = field(default_factory=dict)
    #: Wall-clock seconds the flush took (the CPU overhead the paper keeps
    #: off the digestion path via a separate thread).
    wall_seconds: float = 0.0

    @property
    def met_target(self) -> bool:
        return self.freed_bytes >= self.target_bytes


class MemoryEngine(ABC):
    """One flushing policy bundled with the store layout it requires."""

    #: Stable identifier: "kflushing", "kflushing-mk", "fifo", or "lru".
    name: str = "abstract"

    def __init__(
        self,
        *,
        model: MemoryModel,
        ranking: RankingFunction,
        attribute: AttributeExtractor,
        k: int,
        capacity_bytes: int,
        flush_fraction: float,
        disk: DiskArchive,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        if k <= 0:
            raise ConfigurationError(f"k must be positive, got {k}")
        if capacity_bytes <= 0:
            raise ConfigurationError(f"capacity_bytes must be positive, got {capacity_bytes}")
        if not 0.0 < flush_fraction <= 1.0:
            raise ConfigurationError(
                f"flush_fraction must be in (0, 1], got {flush_fraction}"
            )
        self.model = model
        self.ranking = ranking
        #: The system's attribute, for flush-time walks over a record's
        #: keys; on a sharded partition the keys it does not own simply
        #: have no index entry here.
        self.attribute = attribute
        self.k = k
        self.capacity_bytes = capacity_bytes
        self.flush_fraction = flush_fraction
        self.disk = disk
        self.obs = obs if obs is not None else Instrumentation()
        registry = self.obs.registry
        self._flushes = catalog.FLUSH_COUNT.bind(registry)
        self._freed_bytes = catalog.FLUSH_FREED.bind(registry)
        self._flush_span = self.obs.bind_span(catalog.SPAN_FLUSH)
        #: Eviction-cause ledger: populated when the shared
        #: Instrumentation has attribution on, None otherwise so the
        #: default path pays a single None test per eviction.
        self.eviction_ledger: Optional[EvictionLedger] = (
            EvictionLedger() if self.obs.attribution else None
        )
        #: Ledger-overflow counter, bound (at 0) whenever the ledger exists.
        self._ledger_dropped = (
            catalog.LEDGER_DROPPED.bind(registry)
            if self.eviction_ledger is not None
            else None
        )
        #: Per-key query/eviction heat (the hot-keys snapshot); tracked
        #: under the same gate as the ledger.
        self.key_heat: Optional[KeyHeat] = (
            KeyHeat() if self.eviction_ledger is not None else None
        )

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    @abstractmethod
    def insert(self, record: Microblog, keys: tuple[Hashable, ...]) -> None:
        """Digest one record under ``keys`` — the non-empty subset of its
        keys this engine owns, extracted once by the facade."""

    @abstractmethod
    def lookup(self, key: Hashable, depth: Optional[int] = None) -> LookupResult:
        """In-memory postings for ``key`` with their completeness floor.

        ``depth`` caps the number of (best-ranked) candidates returned;
        None returns everything.  Single-key and OR evaluation only ever
        need the top-k, which keeps hot-key lookups O(k) even when an
        entry holds thousands of postings (FIFO's unsorted segments).
        """

    def note_query(
        self,
        keys: Sequence[Hashable],
        accessed_ids: Iterable[int],
        now: float,
    ) -> None:
        """Policy feedback after a query: which keys were searched and
        which record ids the answer touched.  Default: no bookkeeping."""

    @abstractmethod
    def get_record(self, blog_id: int) -> Optional[Microblog]:
        """A memory-resident record by id, or None if not resident."""

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------

    @property
    @abstractmethod
    def memory_bytes(self) -> int:
        """Modelled bytes of records + index data currently in memory."""

    def needs_flush(self) -> bool:
        """Whether the memory budget is exhausted."""
        return self.memory_bytes >= self.capacity_bytes

    def flush_target_bytes(self) -> int:
        """The minimum bytes one flush must evict (the budget B)."""
        return max(1, int(self.flush_fraction * self.memory_bytes))

    @abstractmethod
    def flush(self, now: float) -> FlushReport:
        """Evict at least the flush budget to disk; returns the report."""

    def note_eviction(self, key: Hashable, cause: str, at: float, postings: int) -> None:
        """Record one eviction decision in the ledger (no-op when
        attribution is off).  Policies call this wherever they drop
        postings; the executor reads it back on memory misses."""
        ledger = self.eviction_ledger
        if ledger is not None:
            dropped = ledger.record(key, cause, at, postings)
            if dropped:
                self._ledger_dropped.inc(dropped)
            self.key_heat.note_eviction(key, postings)

    def eviction_cause(self, key: Hashable) -> Optional[EvictionRecord]:
        """The latest eviction record for ``key``, or None (also None
        whenever attribution is off)."""
        ledger = self.eviction_ledger
        if ledger is None:
            return None
        return ledger.get(key)

    def run_flush(self, now: float) -> FlushReport:
        """Template wrapper: times the flush, returns its report, and
        emits the flush span/event plus the flush counters.  With
        tracing on, the whole cycle becomes a ``flush`` trace the
        per-phase spans attach to."""
        with self.obs.trace("flush", policy=self.name) as trace_ctx:
            with self.obs.span(self._flush_span, policy=self.name):
                # Time exactly the eviction work: entering/exiting the
                # trace and span managers (and emitting their events) is
                # observability overhead that must not be charged to
                # flush wall time — it would leak into
                # effective_digestion_rate() and skew the policy
                # comparison whenever tracing or a slow sink is on.
                start = time.perf_counter()
                report = self.flush(now)
                report.wall_seconds = time.perf_counter() - start
            if trace_ctx is not None:
                trace_ctx.fields["freed_bytes"] = report.freed_bytes
                trace_ctx.fields["target_bytes"] = report.target_bytes
                trace_ctx.fields["at"] = now
        self._flushes.inc()
        self._freed_bytes.inc(report.freed_bytes)
        self.obs.event(
            "flush",
            policy=self.name,
            at=now,
            target_bytes=report.target_bytes,
            freed_bytes=report.freed_bytes,
            records_flushed=report.records_flushed,
            postings_flushed=report.postings_flushed,
            entries_flushed=report.entries_flushed,
            bytes_written_to_disk=report.bytes_written_to_disk,
            phase_freed=dict(report.phase_freed),
            wall_seconds=report.wall_seconds,
        )
        return report

    def note_heat(self, keys: Sequence[Hashable]) -> None:
        """Count one query over ``keys`` in the heat table (no-op when
        heat tracking is off).  The executor calls this only when its
        attribution switch is on."""
        heat = self.key_heat
        if heat is not None:
            heat.note_query(keys)

    # ------------------------------------------------------------------
    # Metrics and extensibility
    # ------------------------------------------------------------------

    @property
    @abstractmethod
    def policy_overhead_bytes(self) -> int:
        """Modelled bytes of the policy's private bookkeeping (Fig 10a)."""

    @abstractmethod
    def k_filled_count(self) -> int:
        """Keys whose provable in-memory top-k is complete (Fig 7)."""

    @abstractmethod
    def frequency_snapshot(self) -> dict[Hashable, int]:
        """Key -> in-memory posting count (the Figure 1 snapshot)."""

    @abstractmethod
    def record_count(self) -> int:
        """Records currently resident in memory."""

    def set_k(self, k: int) -> None:
        """Dynamic k (Section IV-C): takes effect at the next flush."""
        if k <= 0:
            raise ConfigurationError(f"k must be positive, got {k}")
        self.k = k

    def check_integrity(self) -> None:
        """Assert engine invariants; overridden where state is richer."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(k={self.k}, capacity={self.capacity_bytes}, "
            f"B={self.flush_fraction:.0%}, attr={self.attribute.name})"
        )


class IndexedEngine(MemoryEngine):
    """The store layout kFlushing and LRU share (Section V).

    A raw data store whose records carry ``pcount`` reference counts, a
    hash inverted index of floor-tracking posting lists, and the flush
    buffer that stages evictions for one disk commit.  Subclasses supply
    the decision rule: ``flush``, ``note_query`` and the policy's modelled
    overhead.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.raw = RawDataStore(self.model)
        self.index = HashInvertedIndex(self.model, self.k)
        self.buffer = FlushBuffer(self.model, self.disk)
        #: Floor seeded into entries (re-)created after a wholesale
        #: eviction; each policy raises it at the moment it evicts, so a
        #: re-created entry never claims completeness over flushed history.
        self.global_floor: SortKey = MIN_SORT_KEY

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def insert(self, record: Microblog, keys: tuple[Hashable, ...]) -> None:
        self.raw.add(record, pcount=len(keys))
        posting = Posting(self.ranking.score(record), record.timestamp, record.blog_id)
        for key in keys:
            self.index.insert(
                key, posting, now=record.timestamp, created_floor=self.global_floor
            )

    def lookup(self, key: Hashable, depth: Optional[int] = None) -> LookupResult:
        entry = self.index.get(key)
        if entry is None:
            return LookupResult(key, (), self.global_floor)
        candidates = entry.top(len(entry) if depth is None else depth)
        return LookupResult(key, tuple(candidates), entry.floor)

    def get_record(self, blog_id: int) -> Optional[Microblog]:
        if blog_id in self.raw:
            return self.raw.get(blog_id)
        return None

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------

    @property
    def memory_bytes(self) -> int:
        return self.raw.bytes_used + self.index.bytes_used

    def needs_flush(self) -> bool:
        # Checked after every single insert: read the two byte counters
        # directly instead of through three property descriptors.
        return self.raw._bytes + self.index._bytes >= self.capacity_bytes

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

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
