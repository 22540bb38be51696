"""Experiment runner: steady-state trials matching the paper's method.

The paper's measurements are taken "only in the steady state, i.e., after
filling the main-memory budget and have multiple data flushes"
(Section V).  :func:`run_trial` reproduces that protocol:

1. build a system for one (policy, attribute, k, memory, budget) point;
2. **warm up** by ingesting the stream until several flushes have run;
3. **measure** over a window in which queries are interleaved with
   continued ingestion, counting hits only inside the window.

:func:`run_digestion_stress` is the Figure 10(b) protocol: ingestion is
unbounded while queries arrive at a fixed *wall-clock* rate, so slower
policies face proportionally more query-side bookkeeping per ingested
record — the closed loop that amplifies per-item-bookkeeping costs exactly
the way thread contention does in the paper's testbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Union

from repro.config import SystemConfig
from repro.engine.queries import CombineMode
from repro.engine.sharded import build_system as build_system_from_config
from repro.engine.system import MicroblogSystem
from repro.engine.stats import QueryStats
from repro.errors import ConfigurationError
from repro.obs import Instrumentation, JsonlSink
from repro.experiments.scale import (
    PAPER_FLUSH_BUDGET,
    PAPER_K,
    PAPER_MEMORY_GB,
    PAPER_QUERY_RATE_PER_S,
    SMALL,
    ScalePreset,
)
from repro.workload.queryload import QueryLoad, QueryLoadConfig
from repro.workload.stream import MicroblogStream, StreamConfig

__all__ = ["TrialSpec", "TrialResult", "run_trial", "run_digestion_stress"]

_WARM_CHUNK = 4096


@dataclass(frozen=True)
class TrialSpec:
    """One experimental point."""

    policy: str
    attribute: str = "keyword"
    workload_mode: str = "correlated"
    k: int = PAPER_K
    memory_gb: float = PAPER_MEMORY_GB
    flush_budget: float = PAPER_FLUSH_BUDGET
    scale: ScalePreset = SMALL
    seed: int = 42
    #: Override the stream's keyword Zipf exponent (None = stream default);
    #: used by the skew-sensitivity extension experiment.
    keyword_zipf: float | None = None
    #: Evaluate AND queries under the strict (provable) hit criterion
    #: instead of the paper's operational one; used by the AND-semantics
    #: ablation.
    strict_and: bool = False
    #: Hash-partitioned shard count (1 = the paper's single partition).
    shards: int = 1

    def build_system(self, obs: Optional[Instrumentation] = None) -> MicroblogSystem:
        # Every field this spec shares with SystemConfig is forwarded by
        # name; only the scale-derived ones are spelled out.
        shared = {f.name for f in fields(SystemConfig)} & {f.name for f in fields(self)}
        config = SystemConfig(
            **{name: getattr(self, name) for name in shared},
            memory_capacity_bytes=self.scale.capacity_bytes(self.memory_gb),
            flush_fraction=self.flush_budget,
            and_scan_depth=max(self.scale.and_scan_depth, self.k),
            and_disk_limit=max(self.scale.and_disk_limit, self.k),
            tile_side_degrees=self.scale.tile_side_degrees,
        )
        return build_system_from_config(config, strict_and=self.strict_and, obs=obs)

    def build_stream(self) -> MicroblogStream:
        kwargs = dict(
            seed=self.seed,
            vocabulary_size=self.scale.vocabulary_size,
            user_count=self.scale.user_count,
            with_locations=(self.attribute == "spatial"),
        )
        if self.keyword_zipf is not None:
            kwargs["keyword_zipf_exponent"] = self.keyword_zipf
        return MicroblogStream(StreamConfig(**kwargs))

    def build_queries(self, stream: MicroblogStream) -> QueryLoad:
        return QueryLoad(
            QueryLoadConfig(
                seed=self.seed + 1,
                mode=self.workload_mode,
                attribute=self.attribute,
                k=self.k,
                tile_side_degrees=self.scale.tile_side_degrees,
            ),
            stream,
        )


@dataclass
class TrialResult:
    """Steady-state measurements of one trial."""

    spec: TrialSpec
    hit_ratio: float
    hit_ratio_by_mode: dict[str, float]
    k_filled: int
    policy_overhead_bytes: int
    records_ingested: int
    queries_run: int
    insert_rate: float
    effective_digestion_rate: float
    flush_count: int
    mean_flush_freed_fraction: float
    memory_utilization: float
    extras: dict[str, float] = field(default_factory=dict)

    @property
    def hit_percent(self) -> float:
        return 100.0 * self.hit_ratio


def _warm_up(system: MicroblogSystem, stream: MicroblogStream, spec: TrialSpec) -> int:
    """Ingest until steady state (several flushes) and return the count."""
    warmed = 0
    while (
        len(system.flush_reports()) < spec.scale.warm_flushes
        and warmed < spec.scale.max_warm_records
    ):
        system.ingest_many(stream.take(_WARM_CHUNK))
        warmed += _WARM_CHUNK
    return warmed


def _trial_obs(metrics_path: Optional[Union[str, Path]]) -> Optional[Instrumentation]:
    """A JSONL-sinked Instrumentation when a metrics path was requested.

    Metrics-collecting runs get the full observability surface: trace
    trees for every query/flush and eviction-cause miss attribution.
    Runs without a metrics path keep the zero-cost defaults.
    """
    if metrics_path is None:
        return None
    return Instrumentation(sink=JsonlSink(metrics_path), tracing=True, attribution=True)


def _finish_trial_metrics(
    system: MicroblogSystem, spec: TrialSpec, obs: Optional[Instrumentation]
) -> None:
    """Append the end-of-trial registry snapshot and release the sink."""
    if obs is None:
        return
    obs.event(
        "trial_snapshot",
        policy=spec.policy,
        attribute=spec.attribute,
        k=spec.k,
        seed=spec.seed,
        metrics=system.snapshot(),
    )
    obs.close()


def _ingest_baseline(system: MicroblogSystem) -> tuple:
    """Ingest counters at the start of the measurement window."""
    ingest = system.stats.ingest
    return (ingest.indexed, ingest.insert_seconds, ingest.flush_seconds)


def _collect_result(
    system: MicroblogSystem,
    spec: TrialSpec,
    ingest0: tuple,
    book0: float,
    flushes0: int,
    extras: Optional[dict[str, float]] = None,
) -> TrialResult:
    """Assemble a :class:`TrialResult` from the measurement window.

    ``ingest0``/``book0``/``flushes0`` are the counters sampled when the
    window opened; every rate, flush count, and freed-fraction mean below
    is computed over the deltas, so warm-up behaviour never leaks into
    the reported steady-state numbers.
    """
    ingest = system.stats.ingest
    d_indexed = ingest.indexed - ingest0[0]
    d_insert = ingest.insert_seconds - ingest0[1]
    d_flush = ingest.flush_seconds - ingest0[2]
    d_book = system.executor.bookkeeping_seconds - book0
    denom = d_insert + d_flush + d_book
    reports = system.flush_reports()[flushes0:]
    qstats = system.stats.queries
    # Ingest stalls over the window: every flush stalls ingest for its
    # whole wall time, so the window's flush reports are its stalls
    # (p99 by nearest rank).
    stalls = sorted(report.wall_seconds for report in reports)
    all_extras: dict[str, float] = {
        "ingest_stalls": float(len(stalls)),
        "ingest_stall_seconds": sum(stalls),
        "ingest_stall_max_seconds": stalls[-1] if stalls else 0.0,
        "ingest_stall_p99_seconds": (
            stalls[math.ceil(0.99 * len(stalls)) - 1] if stalls else 0.0
        ),
    }
    if extras:
        all_extras.update(extras)
    return TrialResult(
        spec=spec,
        hit_ratio=qstats.hit_ratio,
        hit_ratio_by_mode={
            mode.value: qstats.hit_ratio_for(mode) for mode in CombineMode
        },
        k_filled=system.k_filled_count(),
        policy_overhead_bytes=system.policy_overhead_bytes(),
        records_ingested=d_indexed,
        queries_run=qstats.queries,
        insert_rate=(d_indexed / d_insert) if d_insert > 0 else 0.0,
        effective_digestion_rate=(d_indexed / denom) if denom > 0 else 0.0,
        flush_count=len(reports),
        mean_flush_freed_fraction=(
            sum(r.freed_bytes / max(1, r.target_bytes) for r in reports) / len(reports)
            if reports
            else 0.0
        ),
        memory_utilization=system.memory_utilization(),
        extras=all_extras,
    )


def run_trial(
    spec: TrialSpec, metrics_path: Optional[Union[str, Path]] = None
) -> TrialResult:
    """Run one steady-state trial and collect the paper's metrics.

    ``metrics_path`` (optional) streams every instrumentation event of
    the trial — flush spans, query events, the final registry snapshot —
    to a JSONL file alongside whatever tables the caller exports.
    """
    if spec.attribute in ("user", "spatial") and spec.workload_mode not in (
        "correlated",
        "uniform",
    ):
        raise ConfigurationError(f"bad workload mode {spec.workload_mode!r}")
    obs = _trial_obs(metrics_path)
    system = spec.build_system(obs=obs)
    stream = spec.build_stream()
    queries = spec.build_queries(stream)

    _warm_up(system, stream, spec)

    # Measurement window: reset the query counters and timing baselines so
    # only steady-state behaviour is reported.
    system.stats.queries = QueryStats()
    ingest0 = _ingest_baseline(system)
    book0 = system.executor.bookkeeping_seconds
    flushes0 = len(system.flush_reports())

    pending_queries = 0.0
    for record in stream.take(spec.scale.eval_records):
        system.ingest(record)
        pending_queries += spec.scale.queries_per_record
        while pending_queries >= 1.0:
            system.search(queries.next_query())
            pending_queries -= 1.0

    _finish_trial_metrics(system, spec, obs)
    return _collect_result(system, spec, ingest0, book0, flushes0)


def run_digestion_stress(
    spec: TrialSpec,
    query_rate_per_wall_second: float = PAPER_QUERY_RATE_PER_S,
    metrics_path: Optional[Union[str, Path]] = None,
) -> TrialResult:
    """Figure 10(b): unbounded ingestion with wall-clock-paced queries.

    Queries are issued so that their count tracks
    ``query_rate_per_wall_second × elapsed wall time in the data path``.
    A policy whose inserts/flushes/bookkeeping are slow therefore faces
    more queries per ingested record — the feedback loop that makes
    per-item bookkeeping (LRU) collapse under combined load.
    """
    obs = _trial_obs(metrics_path)
    system = spec.build_system(obs=obs)
    stream = spec.build_stream()
    queries = spec.build_queries(stream)

    # A deeper warm-up than plain trials: the overhead metric reads the
    # steady-state flush-buffer size, which needs the cold-start flushes
    # to have aged out of the recent window.
    warmed = 0
    while (
        len(system.flush_reports()) < max(10, spec.scale.warm_flushes)
        and warmed < 2 * spec.scale.max_warm_records
    ):
        system.ingest_many(stream.take(_WARM_CHUNK))
        warmed += _WARM_CHUNK
    system.stats.queries = QueryStats()
    ingest0 = _ingest_baseline(system)
    book0 = system.executor.bookkeeping_seconds
    flushes0 = len(system.flush_reports())

    issued = 0
    for record in stream.take(spec.scale.eval_records):
        system.ingest(record)
        ingest = system.stats.ingest
        elapsed = (
            (ingest.insert_seconds - ingest0[1])
            + (ingest.flush_seconds - ingest0[2])
            + (system.executor.bookkeeping_seconds - book0)
        )
        due = math.floor(elapsed * query_rate_per_wall_second)
        # Bounded backlog: when a policy's per-query cost exceeds the
        # query inter-arrival time, the closed loop would diverge (every
        # served query schedules more than one new one).  A real system
        # bounds its admission queue and sheds the excess, so the catch-up
        # is capped at 32 queries per ingested record; the time the slow
        # policy did spend is already charged to its digestion rate.
        due = min(due, issued + 32)
        while issued < due:
            system.search(queries.next_query())
            issued += 1

    _finish_trial_metrics(system, spec, obs)
    # Unlike the pre-refactor code, flush_count and the freed-fraction
    # mean now cover exactly the measurement window (the old path
    # hard-coded mean_flush_freed_fraction=0.0 and counted warm-up
    # flushes), making stress results comparable with run_trial's.
    return _collect_result(
        system,
        spec,
        ingest0,
        book0,
        flushes0,
        extras={"queries_issued": float(issued)},
    )
