"""Performance benchmark harness: ``repro-microblogs bench``.

The reproduction's usefulness is gated on trial throughput (the paper's
headline ratios are measured over millions of digested records), so the
repo keeps a *perf trajectory*: every PR runs the same fixed workloads
and appends its ``BENCH_<tag>.json`` next to the previous ones.  Each
record in the file is one flat measurement::

    {"metric": ..., "policy": ..., "value": ..., "unit": ..., "seed": ...}

Four suites, all deterministic in their inputs (timings are, of course,
machine-dependent — compare trajectories on one machine only):

* ``kfilled``  — sampling ``k_filled_count()``: the incremental counter
  vs the brute-force rescan it replaced, plus their speedup ratio;
* ``digestion`` — pure ingest-path digestion rate per policy on a fixed
  stream prefix (flushes included);
* ``flush``    — flush cost per freed MB per policy over the same run;
* ``sweep``    — wall-clock of a small trial grid executed serially vs
  through the process-parallel runner (``--jobs``);
* ``shards``   — one steady-state trial per shard count: trial
  wall-clock, hit ratio, and effective digestion rate at N ∈ {1, 2, 4}
  hash-partitioned shards over a fixed total budget;
* ``disk``     — disk-tier micro-benchmarks on a skewed synthetic flush
  workload: ``commit_flush`` posting throughput, bounded top-k lookup
  latency, and the cost of an unbounded lookup (lazy merged view);
* ``pipeline`` — ingest-stall distribution (p99/max/total pause before a
  record is digested) under synchronous inline flushing vs pipelined
  memtable rotation with a background flush worker, plus the headline
  p99 reduction ratio;
* ``adaptive`` — the adaptive-vs-static kFlushing matrix: each scenario
  in {uniform, zipf-hot, flash-crowd, multi-key} × {tight, normal}
  memory budgets replays the identical stream and query sequence twice,
  once with the static paper tuning and once with the adaptive feedback
  controller, and reports the hit ratios, the hit-ratio delta (pp) and
  the digestion-rate ratio at equal byte budget.

Use ``benchmarks/perf/check_regression.py`` to gate a new file against a
checked-in baseline.  ``run_bench(profile=True)`` (CLI: ``--profile``)
wraps the selected suites in ``cProfile`` and writes the top cumulative
functions next to the JSON.
"""

from __future__ import annotations

import cProfile
import io
import json
import pstats
import random
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Hashable, Optional, Sequence, Union

from repro.engine.stats import QueryStats
from repro.experiments.parallel import run_trials
from repro.experiments.runner import (
    TrialSpec,
    _WARM_CHUNK,
    _collect_result,
    _ingest_baseline,
    run_trial,
)
from repro.experiments.scale import PRESETS, ScalePreset
from repro.obs import Instrumentation
from repro.workload.queryload import QueryLoad, QueryLoadConfig
from repro.storage.disk import DiskArchive
from repro.storage.memory_model import MemoryModel
from repro.storage.posting_list import Posting

__all__ = [
    "BenchRecord",
    "bench_kfilled_sampling",
    "bench_digestion_and_flush",
    "bench_sweep_wallclock",
    "bench_shard_scaling",
    "bench_disk_tier",
    "bench_pipelined_stalls",
    "bench_obs_overhead",
    "bench_adaptive_matrix",
    "run_bench",
    "ALL_SUITES",
]

BENCH_POLICIES = ("fifo", "kflushing", "kflushing-mk", "lru")


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark measurement (the BENCH_*.json schema)."""

    metric: str
    policy: str
    value: float
    unit: str
    seed: int


def _warmed_system(spec: TrialSpec):
    """A system ingested to steady state (same protocol as run_trial)."""
    system = spec.build_system()
    stream = spec.build_stream()
    warmed = 0
    while (
        len(system.flush_reports()) < spec.scale.warm_flushes
        and warmed < spec.scale.max_warm_records
    ):
        system.ingest_many(stream.take(_WARM_CHUNK))
        warmed += _WARM_CHUNK
    return system, stream


def bench_kfilled_sampling(
    preset: ScalePreset, seed: int, repeats: int = 200
) -> list[BenchRecord]:
    """Time k-filled sampling: incremental counter vs brute-force rescan.

    This is the PR's headline micro-optimization: the old sampler walked
    every index entry and paid two slice allocations per entry in
    ``provable_top``; the incremental counter answers from a maintained
    set.  Both are timed over the same steady-state index and must agree
    exactly (asserted here, not just in tests).
    """
    spec = TrialSpec(policy="kflushing", scale=preset, seed=seed)
    system, _stream = _warmed_system(spec)
    index = system.engine.index

    incremental = index.k_filled_count()
    brute = index.k_filled_count_bruteforce()
    assert incremental == brute, f"counter drift: {incremental} != {brute}"

    start = time.perf_counter()
    for _ in range(repeats):
        index.k_filled_count()
    incr_us = (time.perf_counter() - start) / repeats * 1e6

    start = time.perf_counter()
    for _ in range(repeats):
        index.k_filled_count_bruteforce()
    brute_us = (time.perf_counter() - start) / repeats * 1e6

    speedup = brute_us / incr_us if incr_us > 0 else float("inf")
    return [
        BenchRecord("kfilled_sample_incremental", "kflushing", incr_us, "us", seed),
        BenchRecord("kfilled_sample_bruteforce", "kflushing", brute_us, "us", seed),
        BenchRecord("kfilled_sampling_speedup", "kflushing", speedup, "x", seed),
    ]


def bench_digestion_and_flush(
    preset: ScalePreset, seed: int
) -> list[BenchRecord]:
    """Digestion rate and flush cost per freed MB on a fixed workload.

    Each policy ingests the same stream prefix (warm-up plus
    ``eval_records`` further records); digestion rate is records per
    wall-second over the measured prefix (flush time included, as in a
    real ingest path), and flush cost is wall seconds spent flushing per
    MB of modelled memory actually freed.
    """
    records: list[BenchRecord] = []
    for policy in BENCH_POLICIES:
        spec = TrialSpec(policy=policy, scale=preset, seed=seed)
        system, stream = _warmed_system(spec)
        flushes0 = len(system.flush_reports())
        start = time.perf_counter()
        system.ingest_many(stream.take(spec.scale.eval_records))
        elapsed = time.perf_counter() - start
        reports = system.flush_reports()[flushes0:]
        rate = spec.scale.eval_records / elapsed if elapsed > 0 else 0.0
        records.append(
            BenchRecord("digestion_rate", policy, rate, "records/s", seed)
        )
        freed_mb = sum(r.freed_bytes for r in reports) / 1e6
        flush_seconds = sum(r.wall_seconds for r in reports)
        if freed_mb > 0:
            records.append(
                BenchRecord(
                    "flush_cost_per_freed_mb",
                    policy,
                    flush_seconds / freed_mb,
                    "s/MB",
                    seed,
                )
            )
    return records


def bench_sweep_wallclock(
    preset: ScalePreset, seed: int, jobs: int
) -> list[BenchRecord]:
    """Wall-clock of a small figure-style sweep, serial vs ``jobs``.

    The grid is a slice of the Figure 7(a) sweep (two policies, three k
    values).  With ``jobs <= 1`` only the serial time is recorded.
    """
    specs = [
        TrialSpec(policy=policy, k=k, scale=preset, seed=seed)
        for k in (5, 20, 60)
        for policy in ("fifo", "kflushing")
    ]
    start = time.perf_counter()
    serial = run_trials(specs, jobs=1)
    serial_s = time.perf_counter() - start
    records = [BenchRecord("sweep_serial_wallclock", "all", serial_s, "s", seed)]
    if jobs > 1:
        start = time.perf_counter()
        parallel = run_trials(specs, jobs=jobs)
        parallel_s = time.perf_counter() - start
        assert [r.hit_ratio for r in serial] == [r.hit_ratio for r in parallel], (
            "parallel runner diverged from serial results"
        )
        records.append(
            BenchRecord(f"sweep_parallel_wallclock_j{jobs}", "all", parallel_s, "s", seed)
        )
        records.append(
            BenchRecord(
                f"sweep_parallel_speedup_j{jobs}",
                "all",
                serial_s / parallel_s if parallel_s > 0 else float("inf"),
                "x",
                seed,
            )
        )
    return records


def bench_shard_scaling(
    preset: ScalePreset, seed: int, shard_counts: Sequence[int] = (1, 2, 4)
) -> list[BenchRecord]:
    """Steady-state trial cost and quality as the shard count grows.

    Each point runs the standard ``run_trial`` protocol with the *same*
    total memory budget hash-partitioned over N shards.  Wall-clock
    prices the routing/fan-out overhead of the routed wiring; the hit
    ratio and effective digestion rate track what partitioning does to
    the paper's headline metrics (deterministic given the seed).
    """
    records: list[BenchRecord] = []
    for n in shard_counts:
        spec = TrialSpec(policy="kflushing", scale=preset, seed=seed, shards=n)
        start = time.perf_counter()
        result = run_trial(spec)
        elapsed = time.perf_counter() - start
        records.extend(
            [
                BenchRecord(
                    f"shard_trial_wallclock_n{n}", "kflushing", elapsed, "s", seed
                ),
                BenchRecord(
                    f"shard_hit_ratio_n{n}",
                    "kflushing",
                    100.0 * result.hit_ratio,
                    "%",
                    seed,
                ),
                BenchRecord(
                    f"shard_effective_digestion_n{n}",
                    "kflushing",
                    result.effective_digestion_rate,
                    "records/s",
                    seed,
                ),
            ]
        )
    return records


def _disk_flush_batches(
    seed: int, batches: int, hot_batch: int, cold_keys: int, cold_batch: int
) -> list[dict[Hashable, list[Posting]]]:
    """Skewed synthetic flush batches: one hot key plus a cold tail.

    Every batch is internally rank-sorted (the shape ``FlushBuffer``
    produces) but batch score ranges overlap — the paper's append-heavy
    reality where new flushes interleave with history — so each batch
    lands as its own run and compaction has real work to do.
    """
    rng = random.Random(seed)
    out: list[dict[Hashable, list[Posting]]] = []
    blog_id = 0
    for _ in range(batches):
        by_key: dict[Hashable, list[Posting]] = {}
        hot = []
        for _ in range(hot_batch):
            hot.append(Posting(rng.random(), rng.random(), blog_id))
            blog_id += 1
        hot.sort()
        by_key["hot"] = hot
        for c in range(cold_keys):
            cold = []
            for _ in range(cold_batch):
                cold.append(Posting(rng.random(), rng.random(), blog_id))
                blog_id += 1
            cold.sort()
            by_key[f"cold{c}"] = cold
        out.append(by_key)
    return out


def bench_disk_tier(
    preset: ScalePreset,
    seed: int,
    batches: int = 300,
    hot_batch: int = 200,
    cold_keys: int = 8,
    cold_batch: int = 4,
) -> list[BenchRecord]:
    """Disk-tier commit/lookup micro-benchmarks.

    One archive ingests the skewed flush workload; the records quantify
    commit throughput, bounded top-k lookup latency, and the cost of the
    unbounded-lookup call (a lazy merged view over the live runs).
    """
    workload = _disk_flush_batches(seed, batches, hot_batch, cold_keys, cold_batch)
    total_postings = sum(
        len(postings) for by_key in workload for postings in by_key.values()
    )
    archive = DiskArchive(MemoryModel())
    start = time.perf_counter()
    for by_key in workload:
        archive.commit_flush((), by_key)
    elapsed = time.perf_counter() - start
    rate = total_postings / elapsed if elapsed > 0 else float("inf")
    records = [
        BenchRecord(
            "disk_commit_postings_per_s", "segmented-runs", rate, "postings/s", seed
        )
    ]
    lookup_repeats = 400
    for metric, policy, limit in (
        ("disk_lookup_top20_us", "segmented-runs", 20),
        ("disk_lookup_unbounded_us", "merged-view", None),
    ):
        start = time.perf_counter()
        for _ in range(lookup_repeats):
            archive.lookup("hot", limit=limit)
        micros = (time.perf_counter() - start) / lookup_repeats * 1e6
        records.append(BenchRecord(metric, policy, micros, "us", seed))
    return records


def bench_pipelined_stalls(preset: ScalePreset, seed: int) -> list[BenchRecord]:
    """Ingest-stall distribution: synchronous flushing vs pipelined rotation.

    Both runs ingest the identical stream (warm-up plus ``eval_records``)
    under kFlushing; the only difference is the flushing mode.  The
    synchronous baseline pays the full flush wall time as one ingest
    pause per flush; the pipelined run rotates the over-budget memtable
    to one background worker and pauses only for backpressure waits and
    non-empty reconciles.  The ``ingest.stall_seconds`` histogram (one
    sample per pause, lifetime of the run) provides the p99; the
    reduction ratio is the PR's headline artifact.
    """
    records: list[BenchRecord] = []
    p99: dict[str, float] = {}
    for mode, pipelined in (("sync", False), ("pipelined", True)):
        obs = Instrumentation()
        spec = TrialSpec(
            policy="kflushing",
            scale=preset,
            seed=seed,
            pipelined_ingest=pipelined,
            flush_workers=1 if pipelined else None,
        )
        system = spec.build_system(obs=obs)
        stream = spec.build_stream()
        warmed = 0
        while (
            len(system.flush_reports()) < spec.scale.warm_flushes
            and warmed < spec.scale.max_warm_records
        ):
            system.ingest_many(stream.take(_WARM_CHUNK))
            warmed += _WARM_CHUNK
        system.ingest_many(stream.take(spec.scale.eval_records))
        system.quiesce()
        ingest = system.stats.ingest
        p99[mode] = obs.registry.histogram("ingest.stall_seconds").percentile(99.0)
        records.extend(
            [
                BenchRecord(
                    f"ingest_stall_p99_us_{mode}",
                    "kflushing",
                    p99[mode] * 1e6,
                    "us",
                    seed,
                ),
                BenchRecord(
                    f"ingest_stall_max_us_{mode}",
                    "kflushing",
                    ingest.max_stall_seconds * 1e6,
                    "us",
                    seed,
                ),
                BenchRecord(
                    f"ingest_stall_total_ms_{mode}",
                    "kflushing",
                    ingest.stall_seconds * 1e3,
                    "ms",
                    seed,
                ),
                BenchRecord(
                    f"ingest_stall_count_{mode}",
                    "kflushing",
                    float(ingest.stalls),
                    "count",
                    seed,
                ),
            ]
        )
        system.close()
    records.append(
        BenchRecord(
            "ingest_stall_p99_reduction",
            "sync-vs-pipelined",
            p99["sync"] / max(p99["pipelined"], 1e-9),
            "x",
            seed,
        )
    )
    return records


#: The adaptive-vs-static matrix (scenario × budget).  Scenarios cover
#: the regimes the controller is built for: ``uniform`` is the no-signal
#: control (deltas should be ~0 — adaptivity must not hurt), ``zipf-hot``
#: concentrates data and queries on a hot head, ``flash-crowd`` runs
#: sharded and shifts the query load mid-window from uniform to
#: hot-head-correlated (a crowd forming), and ``multi-key`` weights the
#: mix toward 2-keyword AND queries whose operational hits depend on
#: intersection depth.
@dataclass(frozen=True)
class _AdaptiveScenario:
    name: str
    workload_mode: str = "correlated"
    keyword_zipf: Optional[float] = None
    mix: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    shards: int = 1
    #: Switch the query load from uniform to hot-head-correlated halfway
    #: through the measurement window.
    shift: bool = False


_ADAPTIVE_SCENARIOS = (
    _AdaptiveScenario("uniform", workload_mode="uniform"),
    _AdaptiveScenario("zipf-hot", keyword_zipf=1.2),
    _AdaptiveScenario("flash-crowd", workload_mode="uniform", shards=4, shift=True),
    _AdaptiveScenario("multi-key", mix=(0.2, 0.6, 0.2)),
)
_ADAPTIVE_BUDGETS = (("tight", 10.0), ("normal", 30.0))
#: Timed repetitions per matrix cell; the digestion ratio is the median
#: of the per-rep paired ratios (wall-clock on shared runners is noisy)
#: while the hit ratios, deterministic given the seed, are asserted
#: identical across reps.
_ADAPTIVE_BENCH_REPS = 3


def _adaptive_point(
    preset: ScalePreset, seed: int, scenario: _AdaptiveScenario, memory_gb: float,
    adaptive: bool,
):
    """One steady-state run of a matrix scenario (run_trial protocol).

    The stream and query sequence are fully determined by ``seed`` and
    the scenario — the ``adaptive`` flag is the *only* difference between
    the two runs of a pair, so their hit-ratio delta isolates the
    controller.
    """
    spec = TrialSpec(
        policy="kflushing",
        scale=preset,
        seed=seed,
        memory_gb=memory_gb,
        shards=scenario.shards,
        workload_mode=scenario.workload_mode,
        keyword_zipf=scenario.keyword_zipf,
        adaptive=adaptive,
    )
    system = spec.build_system()
    stream = spec.build_stream()
    queries = QueryLoad(
        QueryLoadConfig(
            seed=seed + 1, mode=scenario.workload_mode, k=spec.k, mix=scenario.mix
        ),
        stream,
    )
    warmed = 0
    while (
        len(system.flush_reports()) < spec.scale.warm_flushes
        and warmed < spec.scale.max_warm_records
    ):
        system.ingest_many(stream.take(_WARM_CHUNK))
        warmed += _WARM_CHUNK
    system.quiesce()
    system.stats.queries = QueryStats()
    ingest0 = _ingest_baseline(system)
    book0 = system.executor.bookkeeping_seconds
    flushes0 = len(system.flush_reports())

    shift_at = spec.scale.eval_records // 2 if scenario.shift else None
    pending = 0.0
    for count, record in enumerate(stream.take(spec.scale.eval_records), start=1):
        system.ingest(record)
        if shift_at is not None and count == shift_at:
            # The crowd forms: from here on, queries concentrate on the
            # stream's hot head (same shapes for both runs of the pair).
            queries = QueryLoad(
                QueryLoadConfig(
                    seed=seed + 2, mode="correlated", k=spec.k, mix=scenario.mix
                ),
                stream,
            )
        pending += spec.scale.queries_per_record
        while pending >= 1.0:
            system.search(queries.next_query())
            pending -= 1.0

    system.quiesce()
    result = _collect_result(system, spec, ingest0, book0, flushes0)
    system.close()
    return result


def bench_adaptive_matrix(preset: ScalePreset, seed: int) -> list[BenchRecord]:
    """Adaptive vs static kFlushing over the scenario × budget matrix.

    Every cell replays the identical deterministic workload twice at the
    same byte budget — once with the paper's static tuning and once with
    the adaptive controller (per-key retention depth, shard budget
    slices, escalation slack).  Hit ratios are deterministic given the
    seed; the digestion ratio is wall-clock and prices the controller's
    bookkeeping overhead (it must stay near 1.0).
    """
    records: list[BenchRecord] = []
    for budget_name, memory_gb in _ADAPTIVE_BUDGETS:
        for scenario in _ADAPTIVE_SCENARIOS:
            # Interleave the reps so slow phases of a noisy shared host
            # hit both sides instead of biasing whichever ran second.
            reps: dict[bool, list] = {False: [], True: []}
            for _ in range(_ADAPTIVE_BENCH_REPS):
                for adaptive in (False, True):
                    reps[adaptive].append(
                        _adaptive_point(preset, seed, scenario, memory_gb, adaptive)
                    )
            static, adap = reps[False][0], reps[True][0]
            for adaptive, runs in reps.items():
                assert len({r.hit_ratio for r in runs}) == 1, (
                    f"non-deterministic hit ratio ({scenario.name}, "
                    f"adaptive={adaptive}): {[r.hit_ratio for r in runs]}"
                )
            label = f"{scenario.name}_{budget_name}"
            # Median of per-rep paired ratios, not a ratio of maxima: the
            # two runs of a rep execute back-to-back so host noise hits
            # both sides of a pair, and the median discards the one rep a
            # CPU-steal burst (or a lucky fast outlier) lands on — a
            # ratio of maxima compounds the extreme of each side instead.
            paired = sorted(
                a.effective_digestion_rate / s.effective_digestion_rate
                for s, a in zip(reps[False], reps[True])
                if s.effective_digestion_rate > 0
            )
            digestion_ratio = (
                paired[len(paired) // 2] if paired else float("inf")
            )
            records.extend(
                [
                    BenchRecord(
                        f"adaptive_hit_ratio_{label}",
                        "static",
                        100.0 * static.hit_ratio,
                        "%",
                        seed,
                    ),
                    BenchRecord(
                        f"adaptive_hit_ratio_{label}",
                        "adaptive",
                        100.0 * adap.hit_ratio,
                        "%",
                        seed,
                    ),
                    BenchRecord(
                        f"adaptive_hit_delta_{label}",
                        "adaptive-vs-static",
                        100.0 * (adap.hit_ratio - static.hit_ratio),
                        "pp",
                        seed,
                    ),
                    BenchRecord(
                        f"adaptive_digestion_ratio_{label}",
                        "adaptive-vs-static",
                        digestion_ratio,
                        "x",
                        seed,
                    ),
                ]
            )
    return records


#: Permissive always-compliant spec the overhead bench tracks: the point
#: is to pay the full tick cost (capture + window math + gauge export)
#: every flush without ever breaching (a breach dump would bill I/O to
#: the "slo on" side that production only pays when something is wrong).
_OBS_OVERHEAD_SPEC = json.dumps(
    {
        "objectives": [
            {"name": "flush-latency", "metric": "span.flush.seconds.p99", "max": 3600},
            {"name": "flush-progress", "metric": "flush.count", "min": 0},
        ]
    }
)
#: Tag-count distribution of the overhead bench's stream: 7–8 keys per
#: record, so per-posting work dominates the shared per-record costs.
_OBS_BENCH_TAG_PROBS = (0.0,) * 6 + (0.3, 0.7)
#: Timed repetitions per side; the reported rate is the *fastest* rep
#: (timeit-style min: robust against CPU-steal noise on shared runners).
_OBS_BENCH_REPS = 3


def bench_obs_overhead(preset: ScalePreset, seed: int) -> list[BenchRecord]:
    """Digestion rate with the SLO tracker + flight recorder on vs off.

    Both sides replay the identical warmed, posting-dense kFlushing
    digestion workload (small k and a skewed stream keep every flush
    inside Phase 1); the ``slo`` side adds a two-objective
    always-compliant SLO spec ticked at every flush boundary plus a
    256-event flight-recorder ring.  The acceptance bar is that the
    enabled side digests within 2 % of the disabled side — the
    observability tax rides on flush boundaries, never on the
    per-record path.
    """
    import dataclasses
    import gc

    from repro.workload.stream import MicroblogStream

    def one_rep(with_obs: bool) -> float:
        spec = TrialSpec(
            policy="kflushing",
            scale=preset,
            seed=seed,
            k=5,
            flush_budget=0.1,
            keyword_zipf=1.2,
            memory_gb=30,
        )
        if with_obs:
            spec = dataclasses.replace(
                spec, slo_spec=_OBS_OVERHEAD_SPEC, flight_recorder_events=256
            )
        system = spec.build_system()
        base_cfg = spec.build_stream().config
        stream = MicroblogStream(
            dataclasses.replace(
                base_cfg, tags_per_record_probs=_OBS_BENCH_TAG_PROBS
            )
        )
        warmed = 0
        while (
            len(system.flush_reports()) < spec.scale.warm_flushes
            and warmed < spec.scale.max_warm_records
        ):
            system.ingest_many(stream.take(_WARM_CHUNK))
            warmed += _WARM_CHUNK
        batch = stream.take(spec.scale.eval_records * 6)
        # Timed region is the facade-level digestion loop (ingest +
        # inline flush): it must go through the system so SLO ticks and
        # watermark sampling are in the timed path — they hook the
        # facade's flush boundary.
        ingest = system.ingest
        gc.collect()
        start = time.perf_counter()
        for record in batch:
            ingest(record)
        elapsed = time.perf_counter() - start
        rate = len(batch) / elapsed if elapsed > 0 else 0.0
        system.close()
        return rate

    records: list[BenchRecord] = []
    reps: dict[str, list[float]] = {"off": [], "slo": []}
    # Interleaved so host noise hits both sides evenly.
    for _ in range(_OBS_BENCH_REPS):
        reps["off"].append(one_rep(False))
        reps["slo"].append(one_rep(True))
    rate_off = max(reps["off"])
    rate_slo = max(reps["slo"])
    records.append(
        BenchRecord("obs_overhead_digestion_rate", "kflushing+slo", rate_slo,
                    "records/s", seed)
    )
    records.append(
        BenchRecord(
            "obs_overhead_digestion_ratio",
            "slo-vs-off",
            rate_slo / rate_off if rate_off > 0 else float("inf"),
            "x",
            seed,
        )
    )
    return records


ALL_SUITES: dict[str, Callable[..., list[BenchRecord]]] = {
    "kfilled": lambda preset, seed, jobs: bench_kfilled_sampling(preset, seed),
    "digestion": lambda preset, seed, jobs: bench_digestion_and_flush(preset, seed),
    "sweep": bench_sweep_wallclock,
    "shards": lambda preset, seed, jobs: bench_shard_scaling(preset, seed),
    "disk": lambda preset, seed, jobs: bench_disk_tier(preset, seed),
    "pipeline": lambda preset, seed, jobs: bench_pipelined_stalls(preset, seed),
    "adaptive": lambda preset, seed, jobs: bench_adaptive_matrix(preset, seed),
    "obs_overhead": lambda preset, seed, jobs: bench_obs_overhead(preset, seed),
}

#: Functions shown in the ``--profile`` report (top cumulative time).
PROFILE_TOP_N = 30


def _write_profile(profiler: cProfile.Profile, out: Path) -> Path:
    """Dump the profiler's top cumulative-time table next to the JSON."""
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.strip_dirs().sort_stats("cumulative").print_stats(PROFILE_TOP_N)
    profile_path = out.with_suffix(".profile.txt")
    profile_path.write_text(stream.getvalue(), encoding="utf-8")
    return profile_path


def run_bench(
    preset: Union[str, ScalePreset] = "tiny",
    seed: int = 42,
    out: Optional[Union[str, Path]] = "BENCH_PR9.json",
    jobs: int = 2,
    suites: Optional[Sequence[str]] = None,
    profile: bool = False,
) -> list[BenchRecord]:
    """Run the benchmark suites and (optionally) write ``out`` as JSON.

    With ``profile=True`` the suites run under ``cProfile`` and the top
    :data:`PROFILE_TOP_N` cumulative-time functions are written to
    ``<out-stem>.profile.txt`` beside the JSON.  Profiled timings carry
    tracer overhead, so profiled runs are for finding hot spots, not for
    comparing against unprofiled trajectories.
    """
    if isinstance(preset, str):
        preset = PRESETS[preset]
    names = list(suites) if suites else list(ALL_SUITES)
    records: list[BenchRecord] = []
    profiler = cProfile.Profile() if profile else None
    if profiler is not None:
        profiler.enable()
    try:
        for name in names:
            records.extend(ALL_SUITES[name](preset, seed, jobs))
    finally:
        if profiler is not None:
            profiler.disable()
    if out is not None:
        path = Path(out)
        payload = [asdict(record) for record in records]
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        if profiler is not None:
            _write_profile(profiler, path)
    return records
