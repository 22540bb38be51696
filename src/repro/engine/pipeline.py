"""Pipelined ingest: memtable rotation plus background flush workers.

The paper runs flushing on a separate thread "so that the flushing
process does not interrupt the continuous digestion of incoming data"
(Section III).  A synchronous partition instead flushes inline: every
capacity crossing freezes the write path for the whole flush.  This
module supplies the rotation machinery that removes that stall while
*preserving the flushing policy's semantics* — unlike an LSM memtable
swap, the rotated table is not drained wholesale (that would evict 100%
instead of the budget B and destroy kFlushing's retained top-k); the
long-lived policy engine itself is frozen, flushed by its own
``run_flush`` on a worker thread, and then re-united with the small
overlay that absorbed writes in the meantime.

Rotation lifecycle (all driven from the ingest thread except the drain):

1. **rotate** — the engine crosses its budget: the partition samples the
   "before" timeline point, a fresh *overlay* engine (same policy class)
   becomes the active memtable, and a drain task is queued to the
   bounded :class:`FlushWorkerPool`;
2. **drain** — a worker takes the shard lock and runs the frozen
   engine's normal ``run_flush`` (evicting >= B, exactly as the
   synchronous path would), then signals completion;
3. **reconcile** — the next ingest that sees the completed drain merges
   the overlay back into the engine via
   :meth:`~repro.core.policy.MemoryEngine.absorb` and the engine becomes
   the active memtable again.

Ingest blocks only on *backpressure*: the worker queue is full at
rotation time, or the overlay outgrows its budget while the flush is
still in flight.  Every such pause (and, in inline mode, the flush
itself) is recorded through the facade's stall hook — the
``ingest.stall_seconds`` histogram is the PR's headline artifact.

Queries during an open rotation window read **active + immutable +
disk**: :class:`PipelinedEngine` duck-types the engine surface the
:class:`~repro.engine.executor.QueryExecutor` uses and merges both
memtables' candidates with the shared best-first merge; the completeness
floor of the union is the max of the two floors (each engine's floor
covers the postings it owns, and a record lives in exactly one memtable,
so no candidate is double-counted and nothing above both floors can be
missing).  :class:`LockedDiskView` serializes the executor's disk reads
against the worker's batch commit.

``flush_workers=0`` is the deterministic *inline drain* mode: the full
rotate/drain/reconcile cycle runs synchronously inside the ingest call,
which is observably identical to the synchronous flush path — the
differential tests in ``tests/test_pipeline.py`` hold that bar.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable, Hashable, Iterable, Optional, Sequence

from repro.core.policy import FlushReport, LookupResult, MemoryEngine
from repro.obs import Instrumentation
from repro.storage.topk import merge_run_tails

__all__ = ["FlushWorkerPool", "PipelinedEngine", "LockedDiskView"]

#: Sentinel shutting one worker thread down.
_STOP = object()


class FlushWorkerPool:
    """Bounded queue of drain tasks plus the threads that run them.

    ``workers=0`` is inline mode: :meth:`submit` runs the task
    synchronously on the caller's thread (deterministic, used by the
    differential tests).  With ``workers>=1`` tasks are daemon-threaded;
    a full queue makes :meth:`submit` block and report the wait, which
    the caller accounts as ingest backpressure.
    """

    def __init__(
        self,
        workers: int,
        queue_limit: int,
        obs: Optional[Instrumentation] = None,
        name: str = "flush-worker",
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        self._obs = obs if obs is not None else Instrumentation()
        self._queue: Optional[queue.Queue] = (
            queue.Queue(maxsize=max(1, queue_limit)) if workers > 0 else None
        )
        self._depth_gauge = self._obs.registry.gauge("pipeline.queue_depth")
        self._obs.registry.gauge("pipeline.workers").set(workers)
        self._gate: Optional[threading.Event] = None
        self._threads: list[threading.Thread] = []
        for i in range(workers):
            thread = threading.Thread(
                target=self._run, name=f"{name}-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    @property
    def inline(self) -> bool:
        """True when tasks run synchronously on the submitting thread."""
        return self.workers == 0

    def submit(self, task: Callable[[], None]) -> float:
        """Queue one drain task; returns seconds blocked on a full queue."""
        if self._queue is None:
            task()
            return 0.0
        try:
            self._queue.put_nowait(task)
            blocked = 0.0
        except queue.Full:
            start = time.perf_counter()
            self._queue.put(task)
            blocked = time.perf_counter() - start
            self._obs.registry.counter("pipeline.queue_full_waits").inc()
        self._depth_gauge.set(self._queue.qsize())
        return blocked

    def _run(self) -> None:
        while True:
            task = self._queue.get()
            if task is _STOP:
                self._queue.task_done()
                return
            try:
                task()
            finally:
                self._depth_gauge.set(self._queue.qsize())
                self._queue.task_done()

    # The pause/resume pair wedges one worker on an event — tests use it
    # to hold a rotation window open deterministically.

    def pause(self) -> None:
        """Occupy one worker until :meth:`resume` (test hook)."""
        if self._queue is None:
            raise RuntimeError("cannot pause an inline pool")
        self._gate = threading.Event()
        gate = self._gate
        self._queue.put(gate.wait)

    def resume(self) -> None:
        """Release a worker blocked by :meth:`pause`."""
        if self._gate is not None:
            self._gate.set()
            self._gate = None

    def drain(self) -> None:
        """Block until every queued task has completed."""
        if self._queue is not None:
            self._queue.join()

    def close(self) -> None:
        """Stop the worker threads (queued tasks finish first)."""
        if self._queue is None or not self._threads:
            return
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join(timeout=10.0)
        self._threads = []


class PipelinedEngine:
    """Rotation coordinator wrapping one long-lived policy engine.

    Duck-types the :class:`~repro.core.policy.MemoryEngine` surface the
    query executor and the facade use (``insert``, ``lookup``,
    ``note_query``, ``get_record``, ``eviction_cause``, metrics), adding
    the active/immutable split underneath.  All state transitions happen
    on the ingest thread; the worker thread only runs ``run_flush`` on
    the frozen engine under :attr:`lock` and sets the done event.
    """

    def __init__(
        self,
        *,
        engine: MemoryEngine,
        overlay_factory: Callable[[], MemoryEngine],
        overlay_capacity_bytes: int,
        pool: FlushWorkerPool,
        obs: Instrumentation,
        record_stall: Callable[[float], None],
        on_before_flush: Callable[[float], None],
        on_after_flush: Callable[[FlushReport, float], None],
        label: str,
    ) -> None:
        self.engine = engine
        self.overlay_factory = overlay_factory
        self.overlay_capacity_bytes = overlay_capacity_bytes
        self.pool = pool
        self.obs = obs
        #: The owning partition's flush-cycle hooks: the same stall,
        #: before and after accounting its synchronous flush runs.
        self._record_stall = record_stall
        self._on_before_flush = on_before_flush
        self._on_after_flush = on_after_flush
        #: Prefix of the per-shard copies of the rotation counters; empty
        #: for a lone partition, whose copies would equal the globals.
        self.label = label
        #: Held by the worker for the whole drain; taken by query-path
        #: reads of the frozen engine (and by :class:`LockedDiskView`
        #: for disk reads, the commit target).  The ingest path never
        #: takes it — writes go to the overlay only.
        self.lock = threading.Lock()
        self._overlay: Optional[MemoryEngine] = None
        self._done = threading.Event()
        self._report: Optional[FlushReport] = None
        self._error: Optional[BaseException] = None
        self._rotate_now = 0.0

    # ------------------------------------------------------------------
    # Ingest path (main thread)
    # ------------------------------------------------------------------

    @property
    def flushing(self) -> bool:
        """True while a rotation window is open (overlay active)."""
        return self._overlay is not None

    def insert(self, record) -> bool:
        """Digest into the active memtable (overlay while rotated)."""
        overlay = self._overlay
        if overlay is not None:
            return overlay.insert(record)
        return self.engine.insert(record)

    def maybe_rotate(self, now: float) -> None:
        """Post-insert budget check: reconcile a finished drain, apply
        backpressure if the overlay outgrew its budget, and rotate when
        the (active) engine crossed its capacity.  At most one rotation
        per call — the same once-per-ingest cadence as the synchronous
        flush path."""
        self._raise_pending()
        overlay = self._overlay
        if overlay is not None:
            if self._done.is_set():
                self._reconcile(now)
            elif overlay.memory_bytes >= self.overlay_capacity_bytes:
                self._backpressure_wait(now)
            else:
                return
        if self._overlay is None and self.engine.needs_flush():
            self._rotate(now)

    def _rotate(self, now: float) -> None:
        registry = self.obs.registry
        registry.counter("pipeline.rotations").inc()
        if self.label:
            registry.counter(self.label + "pipeline.rotations").inc()
        self._on_before_flush(now)
        self._overlay = self.overlay_factory()
        self._done = threading.Event()
        self._report = None
        self._rotate_now = now
        blocked = self.pool.submit(self._drain_task)
        if blocked > 0.0:
            registry.counter("pipeline.backpressure_waits").inc()
            self._record_stall(blocked)
        self._raise_pending()
        if self.pool.inline and self._report is not None:
            # Inline mode: the drain ran synchronously inside submit();
            # the flush stalled this very ingest, mirror the synchronous
            # path's stall accounting.
            self._record_stall(self._report.wall_seconds)
        if self._done.is_set():
            self._reconcile(now)

    def _drain_task(self) -> None:
        """Worker body: one policy flush of the frozen engine."""
        now = self._rotate_now
        try:
            with self.lock:
                report = self.engine.run_flush(now)
            self._report = report
            self._on_after_flush(report, now)
            registry = self.obs.registry
            registry.counter("pipeline.flushes_drained").inc()
            if self.label:
                registry.counter(self.label + "pipeline.flushes_drained").inc()
        except BaseException as exc:  # re-raised on the ingest thread
            self._error = exc
        finally:
            self._done.set()

    def _backpressure_wait(self, now: float) -> None:
        """The overlay hit its budget with the flush still in flight:
        block until the drain completes, then reconcile."""
        registry = self.obs.registry
        registry.counter("pipeline.backpressure_waits").inc()
        if self.label:
            registry.counter(self.label + "pipeline.backpressure_waits").inc()
        start = time.perf_counter()
        self._done.wait()
        self._record_stall(time.perf_counter() - start)
        self._raise_pending()
        self._reconcile(now)

    def _reconcile(self, now: float) -> None:
        """Fold the overlay back into the freshly flushed engine."""
        self._raise_pending()
        overlay = self._overlay
        if overlay is None:
            return
        start = time.perf_counter()
        count = self.engine.absorb(overlay)
        self._overlay = None
        seconds = time.perf_counter() - start
        registry = self.obs.registry
        registry.counter("pipeline.reconciles").inc()
        registry.counter("pipeline.reconciled_records").inc(count)
        if self.label:
            registry.counter(self.label + "pipeline.reconciles").inc()
        if count:
            # Re-digesting a non-empty overlay is real ingest-path work;
            # count it as a stall so the histogram stays honest.
            self._record_stall(seconds)

    def _raise_pending(self) -> None:
        """Surface a worker-side failure (e.g. CapacityError) on the
        ingest thread."""
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    def quiesce(self, now: Optional[float] = None) -> None:
        """Wait out any in-flight drain and reconcile; the engine is the
        sole memtable afterwards.  Not counted as an ingest stall."""
        if self._overlay is not None:
            self._done.wait()
            self._reconcile(now if now is not None else self._rotate_now)
        self._raise_pending()

    # ------------------------------------------------------------------
    # Query surface (executor-facing)
    # ------------------------------------------------------------------

    def lookup(self, key: Hashable, depth: Optional[int] = None) -> LookupResult:
        overlay = self._overlay
        if overlay is None:
            return self.engine.lookup(key, depth=depth)
        with self.lock:
            base = self.engine.lookup(key, depth=depth)
            # Materialize under the lock: unbounded lookups return
            # zero-copy views aliasing storage the worker may be
            # mutating the moment the lock is released.
            base_candidates = tuple(base.candidates)
        over = overlay.lookup(key, depth=depth)
        merged = merge_run_tails(
            [base_candidates, tuple(over.candidates)], depth
        )
        # Union completeness: each memtable is complete above its own
        # floor and no record is in both, so the union is complete above
        # the max of the floors.
        return LookupResult(key, tuple(merged), max(base.floor, over.floor))

    def note_query(
        self,
        keys: Sequence[Hashable],
        accessed_ids: Iterable[int],
        now: float,
    ) -> None:
        overlay = self._overlay
        if overlay is None:
            self.engine.note_query(keys, accessed_ids, now)
            return
        accessed = tuple(accessed_ids)
        with self.lock:
            self.engine.note_query(keys, accessed, now)
        overlay.note_query(keys, accessed, now)

    def get_record(self, blog_id: int):
        overlay = self._overlay
        if overlay is None:
            return self.engine.get_record(blog_id)
        record = overlay.get_record(blog_id)
        if record is not None:
            return record
        with self.lock:
            return self.engine.get_record(blog_id)

    def eviction_cause(self, key: Hashable):
        if self._overlay is None:
            return self.engine.eviction_cause(key)
        with self.lock:
            return self.engine.eviction_cause(key)

    @property
    def wants_query_feedback(self) -> bool:
        return self.engine.wants_query_feedback

    def observe_query_feedback(self, keys, hit, cause) -> None:
        # Heat/controller state lives on the long-lived engine only; the
        # short-lived overlay is absorbed back into it anyway.  The
        # counters touched are plain int increments, safe against a
        # concurrent worker drain under the GIL.
        self.engine.observe_query_feedback(keys, hit, cause)

    # ------------------------------------------------------------------
    # Metrics surface (facade-facing; active + immutable aggregates)
    # ------------------------------------------------------------------

    @property
    def memory_bytes(self) -> int:
        overlay = self._overlay
        total = self.engine.memory_bytes
        if overlay is not None:
            total += overlay.memory_bytes
        return total

    @property
    def policy_overhead_bytes(self) -> int:
        overlay = self._overlay
        total = self.engine.policy_overhead_bytes
        if overlay is not None:
            total += overlay.policy_overhead_bytes
        return total

    def k_filled_count(self) -> int:
        # Mid-window this undercounts keys whose k postings are split
        # across the two memtables; exact whenever no rotation is open
        # (the runner quiesces before collecting results).
        overlay = self._overlay
        total = self.engine.k_filled_count()
        if overlay is not None:
            total += overlay.k_filled_count()
        return total

    def record_count(self) -> int:
        overlay = self._overlay
        total = self.engine.record_count()
        if overlay is not None:
            total += overlay.record_count()
        return total

    def frequency_snapshot(self) -> dict[Hashable, int]:
        snap = dict(self.engine.frequency_snapshot())
        overlay = self._overlay
        if overlay is not None:
            for key, count in overlay.frequency_snapshot().items():
                snap[key] = snap.get(key, 0) + count
        return snap

    def set_k(self, k: int) -> None:
        self.engine.set_k(k)
        overlay = self._overlay
        if overlay is not None:
            overlay.set_k(k)

    def check_integrity(self) -> None:
        """Engine invariants; drains any open rotation window first (the
        frozen engine cannot be checked mid-flush)."""
        self.quiesce()
        self.engine.check_integrity()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "rotated" if self.flushing else "idle"
        return f"PipelinedEngine({self.engine!r}, {state})"


class LockedDiskView:
    """Disk-archive adapter serializing reads against worker commits.

    The drain worker's ``FlushBuffer.commit`` mutates the archive's
    index in a multi-step batch; an executor read interleaving with it
    could observe torn run lists.  This view takes the pipeline's shard
    lock around the executor-facing read surface (the worker already
    holds that lock for the whole drain, commit included).
    """

    __slots__ = ("_disk", "_lock")

    def __init__(self, disk, lock: threading.Lock) -> None:
        self._disk = disk
        self._lock = lock

    @property
    def stats(self):
        return self._disk.stats

    def lookup(self, key: Hashable, limit: Optional[int] = None):
        with self._lock:
            result = self._disk.lookup(key, limit=limit)
            if limit is None:
                # Unbounded lookups are lazy merged views over the run
                # lists; materialize before releasing the lock.
                return list(result)
            return result

    def elides(self, key: Hashable) -> bool:
        with self._lock:
            return self._disk.elides(key)

    def fetch_record(self, blog_id: int):
        with self._lock:
            return self._disk.fetch_record(blog_id)

    def contains_record(self, blog_id: int) -> bool:
        with self._lock:
            return self._disk.contains_record(blog_id)
