"""PR 6 pipelined-ingest invariants: rotation, backpressure, parity.

Four families of guarantees:

* **Differential** — with ``pipelined_ingest=True, flush_workers=0``
  (inline drain) every ``TrialResult`` field the paper's accounting
  depends on is bit-identical to the synchronous flush path, for every
  policy and at several partitions.
* **Answer equality** — while a rotation window is held open (worker
  deliberately wedged), strict-AND queries over active + immutable +
  disk return exactly the answers a synchronous reference system fed
  the identical stream returns; the same holds after the window closes.
* **Backpressure & lifecycle** — a full worker queue blocks ``submit``
  until a slot frees; an overlay that outgrows its budget stalls the
  ingest path (and the stall is accounted); ``close()`` drains in-flight
  work, reconciles the overlay, and joins the worker threads.
* **Satellite bugfixes** — elided disk probes no longer inflate
  ``QueryStats.disk_reads``; sharded flushes emit *paired* system-level
  before/after timeline points; ``FlushReport.wall_seconds`` times only
  the eviction work, not the observability wrappers around it.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.config import SystemConfig
from repro.engine.pipeline import FlushWorkerPool
from repro.engine.queries import KeywordQuery
from repro.engine.sharded import build_system
from repro.engine.system import MicroblogSystem
from repro.experiments.runner import TrialSpec, run_trial
from repro.experiments.scale import ScalePreset
from repro.obs import Instrumentation
from repro.obs.events import EventSink
from repro.workload.queryload import QueryLoad, QueryLoadConfig
from repro.workload.stream import MicroblogStream, StreamConfig
from tests.conftest import make_blogs, tiny_system

POLICIES = ["fifo", "kflushing", "kflushing-mk", "lru"]

#: TrialResult fields that must be bit-identical across equivalent
#: configurations (same tuple the sharding/disk-tier differentials use).
DETERMINISTIC_FIELDS = (
    "hit_ratio",
    "hit_ratio_by_mode",
    "k_filled",
    "flush_count",
    "records_ingested",
    "queries_run",
    "policy_overhead_bytes",
    "mean_flush_freed_fraction",
    "memory_utilization",
)

MICRO = ScalePreset(
    name="micro",
    bytes_per_gb=8_000,
    vocabulary_size=400,
    user_count=400,
    warm_flushes=2,
    max_warm_records=30_000,
    eval_records=800,
    queries_per_record=1.0,
    and_scan_depth=100,
    and_disk_limit=100,
)


def _wait_queue_empty(pool: FlushWorkerPool, timeout: float = 2.0) -> None:
    """Wait until the wedged worker has picked up the pause gate."""
    deadline = time.perf_counter() + timeout
    while not pool._queue.empty():
        if time.perf_counter() > deadline:  # pragma: no cover - diagnostic
            raise AssertionError("worker never picked up the pause gate")
        time.sleep(0.001)


def _window_open(system) -> bool:
    """True if any engine in the system has a rotation window open."""
    return any(
        p.pipeline is not None and p.pipeline.flushing for p in system.partitions
    )


# ----------------------------------------------------------------------
# Differential: inline pipelined drain vs the synchronous flush path
# ----------------------------------------------------------------------


class TestPipelinedDifferential:
    """flush_workers=0 runs the full rotate/drain/reconcile cycle inside
    the ingest call; the trial must be bit-identical to the synchronous
    path for every policy."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_inline_trial_identical(self, policy):
        sync = run_trial(TrialSpec(policy=policy, scale=MICRO, seed=11))
        piped = run_trial(
            TrialSpec(
                policy=policy,
                scale=MICRO,
                seed=11,
                pipelined_ingest=True,
                flush_workers=0,
            )
        )
        for name in DETERMINISTIC_FIELDS:
            assert getattr(piped, name) == getattr(sync, name), name

    def test_inline_trial_identical_sharded(self):
        sync = run_trial(TrialSpec(policy="kflushing", scale=MICRO, seed=11, shards=2))
        piped = run_trial(
            TrialSpec(
                policy="kflushing",
                scale=MICRO,
                seed=11,
                shards=2,
                pipelined_ingest=True,
                flush_workers=0,
            )
        )
        for name in DETERMINISTIC_FIELDS:
            assert getattr(piped, name) == getattr(sync, name), name

    @pytest.mark.parametrize("shards", [1, 2])
    def test_inline_timeline_identical(self, shards):
        # A flush's "after" point is the flushed engine plus the other
        # partitions — not its own overlay (an empty FIFO overlay still
        # models one segment's bytes) — at any partition count.
        observed = []
        for extra in ({}, {"pipelined_ingest": True, "flush_workers": 0}):
            system = build_system(
                SystemConfig(
                    policy="fifo", shards=shards, memory_capacity_bytes=30_000, **extra
                )
            )
            stream = MicroblogStream(StreamConfig(seed=3, vocabulary_size=100))
            system.ingest_many(stream.take(3_000))
            assert system.flush_reports()
            observed.append(
                (
                    [
                        (p.time, p.bytes_used, p.capacity, p.kind, p.shard)
                        for p in system.stats.timeline
                    ],
                    system.snapshot()["gauges"]["memory.bytes_used"],
                )
            )
            system.close()
        assert observed[0] == observed[1]

    def test_inline_stall_accounting_matches_sync(self):
        # Inline mode must account exactly one stall per flush, the same
        # cadence the synchronous path records.
        sync = run_trial(TrialSpec(policy="kflushing", scale=MICRO, seed=11))
        piped = run_trial(
            TrialSpec(
                policy="kflushing",
                scale=MICRO,
                seed=11,
                pipelined_ingest=True,
                flush_workers=0,
            )
        )
        assert piped.extras["ingest_stalls"] == sync.extras["ingest_stalls"]
        assert sync.extras["ingest_stalls"] == float(sync.flush_count)


# ----------------------------------------------------------------------
# Answer equality: active + immutable + disk during an open window
# ----------------------------------------------------------------------


def _paired_answers(policy: str, shards: int, seed: int = 23):
    """A synchronous reference and a pipelined system fed in lockstep.

    Strict AND with unbounded scan/disk depth makes every answer
    provably exact, and exact answers over a unique sort key are unique
    — so answer-list equality is a meaningful oracle even while the
    pipelined system holds a rotation window open.
    """
    config = SystemConfig(
        policy=policy,
        memory_capacity_bytes=150_000,
        and_scan_depth=None,
        and_disk_limit=None,
    )
    reference = build_system(config, strict_and=True)
    pipelined = build_system(
        config.with_overrides(
            shards=shards,
            pipelined_ingest=True,
            flush_workers=1,
            flush_queue_limit=8,
        ),
        strict_and=True,
    )
    stream_a = iter(
        MicroblogStream(
            StreamConfig(seed=seed, vocabulary_size=300, with_locations=False)
        )
    )
    stream_b = iter(
        MicroblogStream(
            StreamConfig(seed=seed, vocabulary_size=300, with_locations=False)
        )
    )
    load = QueryLoad(
        QueryLoadConfig(seed=seed + 1, mode="correlated"),
        MicroblogStream(
            StreamConfig(seed=seed, vocabulary_size=300, with_locations=False)
        ),
    )
    return reference, pipelined, stream_a, stream_b, load


def _assert_same_answers(reference, pipelined, load, count: int) -> None:
    for _ in range(count):
        query = load.next_query()
        a = reference.search(query)
        b = pipelined.search(query)
        assert a.provably_exact and b.provably_exact
        assert [
            (p.score, p.timestamp, p.blog_id) for p in a.postings
        ] == [(p.score, p.timestamp, p.blog_id) for p in b.postings], (
            f"answer mismatch on {query!r}"
        )


class TestRotationWindowAnswers:
    """Property: queries during AND after an open rotation window match
    a synchronous reference, for every policy and shard count."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("shards", [1, 4])
    def test_answers_identical(self, policy, shards):
        reference, pipelined, stream_a, stream_b, load = _paired_answers(
            policy, shards
        )
        pool = pipelined._pool
        try:
            for _ in range(4_000):
                reference.ingest(next(stream_a))
                pipelined.ingest(next(stream_b))
            # Wedge the worker so the next rotation stays open, then
            # ingest (lockstep) until a window opens.
            pool.pause()
            _wait_queue_empty(pool)
            for _ in range(1_500):
                reference.ingest(next(stream_a))
                pipelined.ingest(next(stream_b))
                if _window_open(pipelined):
                    break
            assert _window_open(pipelined), "no rotation window opened"
            _assert_same_answers(reference, pipelined, load, 120)
            # Close the window and compare again from a quiesced state.
            pool.resume()
            for _ in range(400):
                reference.ingest(next(stream_a))
                pipelined.ingest(next(stream_b))
            pipelined.quiesce()
            assert not _window_open(pipelined)
            _assert_same_answers(reference, pipelined, load, 120)
            pipelined.check_integrity()
            reference.check_integrity()
        finally:
            pool.resume()
            pipelined.close()


# ----------------------------------------------------------------------
# Backpressure and lifecycle
# ----------------------------------------------------------------------


class TestFlushWorkerPool:
    def test_submit_blocks_at_queue_limit(self):
        obs = Instrumentation()
        pool = FlushWorkerPool(workers=1, queue_limit=1, obs=obs)
        ran = []
        try:
            pool.pause()
            _wait_queue_empty(pool)
            assert pool.submit(lambda: ran.append(1)) == 0.0  # fills the slot
            timer = threading.Timer(0.2, pool.resume)
            timer.start()
            blocked = pool.submit(lambda: ran.append(2))  # queue full: blocks
            assert blocked > 0.0
            assert obs.registry.counter("pipeline.queue_full_waits").value == 1
            pool.drain()
            assert ran == [1, 2]
        finally:
            pool.resume()
            pool.close()

    def test_inline_pool_runs_synchronously(self):
        pool = FlushWorkerPool(workers=0, queue_limit=4)
        ran = []
        assert pool.inline
        assert pool.submit(lambda: ran.append(1)) == 0.0
        assert ran == [1]
        with pytest.raises(RuntimeError):
            pool.pause()

    def test_close_is_idempotent(self):
        pool = FlushWorkerPool(workers=2, queue_limit=4)
        threads = list(pool._threads)
        pool.close()
        pool.close()
        assert all(not t.is_alive() for t in threads)


class TestBackpressure:
    def test_overlay_budget_stalls_ingest(self):
        # Wedge the worker and shrink the overlay budget so continued
        # ingest must hit the overlay-full wait; a timer releases the
        # worker, after which ingest completes and the stall is on the
        # books.
        system = tiny_system(
            pipelined_ingest=True,
            flush_workers=1,
            flush_queue_limit=4,
            memory_capacity_bytes=20_000,
            pipelined_overlay_fraction=0.05,
        )
        pool = system._pool
        try:
            pool.pause()
            _wait_queue_empty(pool)
            timer = threading.Timer(0.25, pool.resume)
            timer.start()
            for blog in make_blogs(400):
                system.ingest(blog)
            registry = system.obs.registry
            assert registry.counter("pipeline.backpressure_waits").value >= 1
            assert system.stats.ingest.stalls >= 1
            assert system.stats.ingest.stall_seconds > 0.0
            assert registry.histogram("ingest.stall_seconds").count >= 1
        finally:
            pool.resume()
            system.close()


class TestShutdown:
    def test_close_drains_open_window(self):
        system = tiny_system(
            pipelined_ingest=True,
            flush_workers=1,
            flush_queue_limit=4,
            memory_capacity_bytes=20_000,
        )
        pool = system._pool
        pipeline = system.partitions[0].pipeline
        threads = list(pool._threads)
        pool.pause()
        _wait_queue_empty(pool)
        for blog in make_blogs(600):
            system.ingest(blog)
            if pipeline.flushing:
                break
        assert pipeline.flushing, "no rotation window opened"
        pool.resume()
        system.close()
        assert not pipeline.flushing  # overlay reconciled
        assert all(not t.is_alive() for t in threads)  # workers joined
        assert len(system.flush_reports()) >= 1
        system.engine.check_integrity()

    def test_quiesce_is_noop_on_sync_system(self):
        system = tiny_system()
        system.quiesce()
        system.close()  # must not raise

    def test_close_joins_workers_after_flush_error(self):
        # Both shards' drains fail on the worker, so close() finds two
        # pending errors: it must still visit every partition, stop the
        # workers, and re-raise the first error.
        system = build_system(
            SystemConfig(
                shards=2,
                memory_capacity_bytes=40_000,
                pipelined_ingest=True,
                flush_workers=1,
                # Room to keep digesting while the wedged worker holds
                # the first shard's window open.
                pipelined_overlay_fraction=1.0,
            )
        )

        def boom(now):
            raise RuntimeError("flush failed")

        for partition in system.partitions:
            partition.engine.run_flush = boom
        pool = system._pool
        threads = list(pool._threads)
        pool.pause()
        _wait_queue_empty(pool)
        stream = MicroblogStream(StreamConfig(seed=5, vocabulary_size=200))
        for record in stream.take(5_000):
            system.ingest(record)
            if all(p.pipeline.flushing for p in system.partitions):
                break
        assert all(p.pipeline.flushing for p in system.partitions)
        pool.resume()
        pool.drain()
        with pytest.raises(RuntimeError, match="flush failed"):
            system.close()
        for thread in threads:
            thread.join(timeout=5.0)
        assert all(not t.is_alive() for t in threads)  # workers stopped
        system.close()  # nothing pending, nothing left to stop


# ----------------------------------------------------------------------
# Satellite 1: elided disk probes must not count as disk reads
# ----------------------------------------------------------------------


class TestDiskReadsAccounting:
    def test_elided_miss_counts_zero_disk_reads(self):
        # A miss on a key that is neither in memory nor on disk: with
        # negative-lookup elision on, the executor performs zero disk
        # index lookups, so disk_reads must stay 0.
        system = tiny_system(disk_elide_empty=True)
        for blog in make_blogs(5, keywords=("hot",)):
            system.ingest(blog)
        result = system.search(KeywordQuery("ghost", k=3))
        assert not result.memory_hit
        assert result.disk_lookups == 0
        assert system.stats.queries.queries == 1
        assert system.stats.queries.disk_reads == 0

    def test_paid_miss_still_counts(self):
        # Force everything to disk, then query it: the miss pays a real
        # disk lookup and must still be counted.
        system = tiny_system(disk_elide_empty=True, memory_capacity_bytes=300)
        for blog in make_blogs(5, keywords=("hot",), text="x" * 400):
            system.ingest(blog)
        result = system.search(KeywordQuery("hot", k=3))
        assert not result.memory_hit
        assert result.disk_lookups >= 1
        assert system.stats.queries.disk_reads >= 1


# ----------------------------------------------------------------------
# Satellite 2: sharded flushes emit paired system-level timeline points
# ----------------------------------------------------------------------


class TestShardTimelinePairing:
    def _flushed_sharded(self, shards=2):
        system = build_system(
            SystemConfig(
                policy="kflushing", shards=shards, memory_capacity_bytes=30_000
            )
        )
        stream = MicroblogStream(
            StreamConfig(seed=3, vocabulary_size=100, with_locations=False)
        )
        system.ingest_many(stream.take(3_000))
        assert len(system.flush_reports()) >= 1
        return system

    def test_system_level_points_paired(self):
        system = self._flushed_sharded()
        kinds = [
            p.kind
            for p in system.stats.shard_timeline(None)
            if p.kind in ("before", "after")
        ]
        assert kinds, "no flush samples on the system-level timeline"
        assert len(kinds) % 2 == 0
        assert kinds == ["before", "after"] * (len(kinds) // 2)

    def test_per_shard_points_paired(self):
        system = self._flushed_sharded()
        for shard in system.shards:
            kinds = [
                p.kind
                for p in system.stats.shard_timeline(shard.shard_id)
                if p.kind in ("before", "after")
            ]
            assert kinds == ["before", "after"] * (len(kinds) // 2)


# ----------------------------------------------------------------------
# Satellite 3: flush wall time excludes observability overhead
# ----------------------------------------------------------------------


class _SlowFlushSink(EventSink):
    """Sleeps on the events the flush *wrapper* emits (the outer
    ``flush`` trace/span and the ``flush`` event) — never on the
    per-phase spans inside the timed eviction work."""

    def __init__(self, delay: float) -> None:
        self.delay = delay
        self.slept = 0

    def emit(self, event: dict) -> None:
        type_ = event.get("type")
        if type_ == "flush" or (
            type_ in ("span", "trace") and event.get("name") == "flush"
        ):
            self.slept += 1
            time.sleep(self.delay)


class TestFlushWallTiming:
    def test_wall_seconds_excludes_obs_overhead(self):
        sink = _SlowFlushSink(delay=0.05)
        obs = Instrumentation(sink=sink, tracing=True)
        system = MicroblogSystem(
            SystemConfig(policy="kflushing", memory_capacity_bytes=20_000), obs=obs
        )
        for blog in make_blogs(250):
            system.ingest(blog)
        reports = system.flush_reports()
        assert reports, "no flush happened"
        assert sink.slept >= 3  # the slow wrapper events really fired
        # The eviction work at this scale is ~1ms; had the timer wrapped
        # the trace/span managers (the old bug), every report would
        # carry >= one 50ms sleep.
        for report in reports:
            assert report.wall_seconds < 0.05, report.wall_seconds
