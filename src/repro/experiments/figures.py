"""One experiment definition per figure of the paper's evaluation.

Each ``figN`` function runs the sweeps behind the corresponding paper
figure and returns a :class:`FigureResult` whose panels can be printed
with :mod:`repro.experiments.report`.  The ``expectation`` string on each
panel records the paper's qualitative shape, which is what this
reproduction is judged against (absolute numbers belong to the authors'
testbed; see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from repro.config import SystemConfig
from repro.engine.system import MicroblogSystem
from repro.experiments.parallel import run_trials
from repro.experiments.runner import (
    TrialResult,
    TrialSpec,
    run_digestion_stress,
    run_trial,
)
from repro.experiments.scale import (
    PAPER_FLUSH_BUDGET,
    PAPER_K,
    PAPER_MEMORY_GB,
    SMALL,
    ScalePreset,
)
from repro.workload.stream import MicroblogStream, StreamConfig

__all__ = [
    "SweepResult",
    "TableResult",
    "FigureResult",
    "fig1_snapshot",
    "fig5_timeline",
    "fig7_k_filled",
    "fig8_hit_correlated",
    "fig9_hit_uniform",
    "fig10_overhead",
    "fig11_spatial",
    "fig12_user",
    "shard_sweep",
    "ALL_FIGURES",
]

ALL_POLICIES = ("fifo", "kflushing", "kflushing-mk", "lru")
#: Figures 11/12 omit kFlushing-MK: single-key query loads make it
#: identical to kFlushing (Section V-D).
SINGLE_KEY_POLICIES = ("fifo", "kflushing", "lru")

K_SWEEP = (5, 10, 20, 40, 60, 80, 100)
K_SWEEP_SHORT = (5, 20, 40, 60, 80, 100)
BUDGET_SWEEP = (0.2, 0.4, 0.6, 0.8, 1.0)
MEMORY_SWEEP_GB = (10.0, 20.0, 30.0, 40.0, 50.0)
SHARD_SWEEP = (1, 2, 4, 8)


@dataclass
class SweepResult:
    """One panel: y-values per series over a shared x-axis."""

    panel_id: str
    title: str
    x_label: str
    y_label: str
    xs: list[float]
    series: dict[str, list[float]]
    expectation: str = ""


@dataclass
class TableResult:
    """One panel holding free-form rows (snapshot-style results)."""

    panel_id: str
    title: str
    headers: list[str]
    rows: list[list]
    expectation: str = ""


Panel = Union[SweepResult, TableResult]


@dataclass
class FigureResult:
    """All panels of one paper figure."""

    figure_id: str
    title: str
    panels: list[Panel] = field(default_factory=list)


def _sweep(
    panel_id: str,
    title: str,
    x_label: str,
    y_label: str,
    xs: Sequence[float],
    policies: Sequence[str],
    spec_for: Callable[[str, float], TrialSpec],
    measure: Callable[[TrialResult], float],
    expectation: str,
    runner: Callable[[TrialSpec], TrialResult] = run_trial,
    jobs: int = 1,
) -> SweepResult:
    # Build the whole (x, policy) grid up front and hand it to the
    # (optionally process-parallel) trial runner; results come back in
    # grid order, so the per-series append order matches the old loops.
    grid = [(x, policy) for x in xs for policy in policies]
    results = run_trials(
        [spec_for(policy, x) for x, policy in grid], jobs=jobs, runner=runner
    )
    series: dict[str, list[float]] = {policy: [] for policy in policies}
    for (_x, policy), result in zip(grid, results):
        series[policy].append(measure(result))
    return SweepResult(
        panel_id=panel_id,
        title=title,
        x_label=x_label,
        y_label=y_label,
        xs=list(xs),
        series=series,
        expectation=expectation,
    )


# ----------------------------------------------------------------------
# Section V-A / Figure 1: snapshot of in-memory contents
# ----------------------------------------------------------------------

def fig1_snapshot(
    preset: ScalePreset = SMALL,
    seed: int = 42,
    shards: int = 1,
    slo_spec: Optional[str] = None,
    flight_recorder_events: int = 0,
    flight_recorder_path: Optional[str] = None,
) -> FigureResult:
    """Memory-content snapshots under temporal flushing vs kFlushing.

    Reproduces the paper's motivating observation: under temporal (FIFO)
    flushing, the bulk of memory is consumed by *useless* microblogs that
    sit beyond the top-k of their keywords (the paper reports >75% for
    k=20 on real tweets), while kFlushing drives the snapshot toward
    "every keyword holds exactly k".
    """
    rows: list[list] = []
    for policy in ("fifo", "kflushing"):
        spec = TrialSpec(
            policy=policy,
            scale=preset,
            seed=seed,
            shards=shards,
            slo_spec=slo_spec,
            flight_recorder_events=flight_recorder_events,
            flight_recorder_path=flight_recorder_path,
        )
        system = spec.build_system()
        stream = spec.build_stream()
        while (
            len(system.flush_reports()) < preset.warm_flushes
            and system.stats.ingest.offered < preset.max_warm_records
        ):
            system.ingest_many(stream.take(4096))
        # Snapshot right after a flush completes, when the policy has just
        # re-shaped memory (mid-cycle, every policy accumulates fresh
        # overflow on top — that is arrival, not policy, behaviour).
        flushes_seen = len(system.flush_reports())
        while (
            len(system.flush_reports()) == flushes_seen
            and system.stats.ingest.offered < 2 * preset.max_warm_records
        ):
            system.ingest_many(stream.take(512))
        snapshot = system.frequency_snapshot()
        k = spec.k
        total = sum(snapshot.values())
        useless = sum(max(0, count - k) for count in snapshot.values())
        below = sum(1 for count in snapshot.values() if count < k)
        exact = sum(1 for count in snapshot.values() if count == k)
        above = sum(1 for count in snapshot.values() if count > k)
        rows.append(
            [
                policy,
                total,
                useless,
                round(100.0 * useless / total, 1) if total else 0.0,
                below,
                exact,
                above,
                system.k_filled_count(),
            ]
        )
    return FigureResult(
        figure_id="fig1",
        title="Snapshot of in-memory contents (Sec V-A / Fig 1)",
        panels=[
            TableResult(
                panel_id="fig1",
                title="In-memory keyword frequency snapshot at steady state (k=20)",
                headers=[
                    "policy",
                    "postings",
                    "useless postings (beyond top-k)",
                    "useless %",
                    "keys <k",
                    "keys =k",
                    "keys >k",
                    "k-filled keys",
                ],
                rows=rows,
                expectation=(
                    "FIFO: most postings useless (paper: >75% of memory); "
                    "kFlushing: useless% near zero, far more k-filled keys."
                ),
            )
        ],
    )


# ----------------------------------------------------------------------
# Figure 5: memory consumption behaviour of the phases
# ----------------------------------------------------------------------

def fig5_timeline(preset: ScalePreset = SMALL, seed: int = 42) -> FigureResult:
    """Per-flush freed fraction: Phase-1-only saturates, full kFlushing
    keeps flushing the budgeted share (Figure 5(a) vs 5(b))."""
    max_flushes = 12
    series: dict[str, list[float]] = {}
    flush_x: list[float] = list(range(1, max_flushes + 1))
    for label, max_phase in (("phase1-only", 1), ("phases-1+2+3", 3)):
        spec = TrialSpec(policy="kflushing", scale=preset, seed=seed)
        config = SystemConfig(
            policy="kflushing",
            k=spec.k,
            memory_capacity_bytes=preset.capacity_bytes(spec.memory_gb),
            flush_fraction=spec.flush_budget,
        )
        system = MicroblogSystem(config)
        system.engine.max_phase = max_phase
        stream = spec.build_stream()
        freed: list[float] = []
        saturated = False
        while len(freed) < max_flushes and not saturated:
            for record in stream.take(2048):
                record_ok = system.engine.insert(record)
                if not record_ok:
                    continue
                if system.engine.needs_flush():
                    report = system.engine.run_flush(record.timestamp)
                    freed.append(100.0 * report.freed_bytes / max(1, report.target_bytes) * spec.flush_budget)
                    if report.freed_bytes <= 0:
                        saturated = True
                    if len(freed) >= max_flushes or saturated:
                        break
        # Pad a saturated run with zeros: after saturation no further
        # memory can be freed by that variant.
        freed.extend([0.0] * (max_flushes - len(freed)))
        series[label] = freed
    return FigureResult(
        figure_id="fig5",
        title="Memory consumption behaviour (Fig 5)",
        panels=[
            SweepResult(
                panel_id="fig5",
                title="Freed memory per flush operation (% of budgeted capacity)",
                x_label="flush #",
                y_label="freed (% of memory)",
                xs=flush_x,
                series=series,
                expectation=(
                    "phase1-only decays toward zero (saturation, Fig 5a); "
                    "the full three-phase policy keeps freeing ~the flush "
                    "budget every time (Fig 5b)."
                ),
            )
        ],
    )


# ----------------------------------------------------------------------
# Figure 7: k-filled keywords
# ----------------------------------------------------------------------

def fig7_k_filled(
    preset: ScalePreset = SMALL,
    seed: int = 42,
    jobs: int = 1,
    shards: int = 1,
) -> FigureResult:
    def measure(result: TrialResult) -> float:
        return float(result.k_filled)

    panels = [
        _sweep(
            "fig7a",
            "k-filled keywords vs k",
            "k",
            "k-filled keys",
            K_SWEEP,
            ALL_POLICIES,
            lambda policy, x: TrialSpec(
                policy=policy,
                k=int(x),
                scale=preset,
                seed=seed,
                shards=shards,
            ),
            measure,
            "Decreasing in k for all; kFlushing variants several times "
            "above FIFO and LRU (paper: >=7x FIFO, up to 3x LRU); "
            "kFlushing-MK slightly below kFlushing.",
            jobs=jobs,
        ),
        _sweep(
            "fig7b",
            "k-filled keywords vs flushing budget",
            "flushing budget (%)",
            "k-filled keys",
            [100 * b for b in BUDGET_SWEEP],
            ALL_POLICIES,
            lambda policy, x: TrialSpec(
                policy=policy,
                flush_budget=x / 100.0,
                scale=preset,
                seed=seed,
                shards=shards,
            ),
            measure,
            "Decreasing in budget; kFlushing variants 8-10x FIFO and "
            "2-9x LRU across budgets.",
            jobs=jobs,
        ),
        _sweep(
            "fig7c",
            "k-filled keywords vs memory budget",
            "memory budget (GB)",
            "k-filled keys",
            MEMORY_SWEEP_GB,
            ALL_POLICIES,
            lambda policy, x: TrialSpec(
                policy=policy,
                memory_gb=x,
                scale=preset,
                seed=seed,
                shards=shards,
            ),
            measure,
            "kFlushing advantage largest at tight memory (paper: ~13x FIFO "
            "and ~50x LRU at 10GB), narrowing as memory grows.",
            jobs=jobs,
        ),
    ]
    return FigureResult("fig7", "Number of memory-hit keywords (Fig 7)", panels)


# ----------------------------------------------------------------------
# Figures 8 and 9: memory hit ratio
# ----------------------------------------------------------------------

def _hit_figure(
    figure_id: str,
    workload_mode: str,
    preset: ScalePreset,
    seed: int,
    expectation: str,
    jobs: int = 1,
    shards: int = 1,
    slo_spec: Optional[str] = None,
    flight_recorder_events: int = 0,
    flight_recorder_path: Optional[str] = None,
) -> FigureResult:
    service_kwargs = dict(
        slo_spec=slo_spec,
        flight_recorder_events=flight_recorder_events,
        flight_recorder_path=flight_recorder_path,
    )

    def measure(result: TrialResult) -> float:
        return round(result.hit_percent, 2)

    def spec_k(policy: str, x: float) -> TrialSpec:
        return TrialSpec(
            policy=policy,
            k=int(x),
            workload_mode=workload_mode,
            scale=preset,
            seed=seed,
            shards=shards,
            **service_kwargs,
        )

    def spec_budget(policy: str, x: float) -> TrialSpec:
        return TrialSpec(
            policy=policy,
            flush_budget=x / 100.0,
            workload_mode=workload_mode,
            scale=preset,
            seed=seed,
            shards=shards,
            **service_kwargs,
        )

    def spec_memory(policy: str, x: float) -> TrialSpec:
        return TrialSpec(
            policy=policy,
            memory_gb=x,
            workload_mode=workload_mode,
            scale=preset,
            seed=seed,
            shards=shards,
            **service_kwargs,
        )

    panels = [
        _sweep(
            f"{figure_id}a",
            f"hit ratio vs k ({workload_mode} load)",
            "k",
            "hit ratio (%)",
            K_SWEEP_SHORT,
            ALL_POLICIES,
            spec_k,
            measure,
            expectation,
            jobs=jobs,
        ),
        _sweep(
            f"{figure_id}b",
            f"hit ratio vs flushing budget ({workload_mode} load)",
            "flushing budget (%)",
            "hit ratio (%)",
            [100 * b for b in BUDGET_SWEEP],
            ALL_POLICIES,
            spec_budget,
            measure,
            expectation,
            jobs=jobs,
        ),
        _sweep(
            f"{figure_id}c",
            f"hit ratio vs memory budget ({workload_mode} load)",
            "memory budget (GB)",
            "hit ratio (%)",
            MEMORY_SWEEP_GB,
            ALL_POLICIES,
            spec_memory,
            measure,
            expectation,
            jobs=jobs,
        ),
    ]
    title = (
        "Hit ratio on correlated query load (Fig 8)"
        if workload_mode == "correlated"
        else "Hit ratio on uniform query load (Fig 9)"
    )
    return FigureResult(figure_id, title, panels)


def fig8_hit_correlated(
    preset: ScalePreset = SMALL,
    seed: int = 42,
    jobs: int = 1,
    shards: int = 1,
    slo_spec: Optional[str] = None,
    flight_recorder_events: int = 0,
    flight_recorder_path: Optional[str] = None,
) -> FigureResult:
    return _hit_figure(
        "fig8",
        "correlated",
        preset,
        seed,
        "kFlushing variants above LRU above FIFO for every parameter "
        "(paper: 12-20% absolute over FIFO, 2-18% over LRU); decreasing "
        "in k and flushing budget, increasing in memory budget.",
        jobs=jobs,
        shards=shards,
        slo_spec=slo_spec,
        flight_recorder_events=flight_recorder_events,
        flight_recorder_path=flight_recorder_path,
    )


def fig9_hit_uniform(
    preset: ScalePreset = SMALL,
    seed: int = 42,
    jobs: int = 1,
    shards: int = 1,
    slo_spec: Optional[str] = None,
    flight_recorder_events: int = 0,
    flight_recorder_path: Optional[str] = None,
) -> FigureResult:
    return _hit_figure(
        "fig9",
        "uniform",
        preset,
        seed,
        "Absolute hit ratios low for all policies (rare keys dominate a "
        "uniform load); kFlushing variants give large *relative* gains "
        "(paper: 100-330% over FIFO, 26-240% over LRU).",
        jobs=jobs,
        shards=shards,
        slo_spec=slo_spec,
        flight_recorder_events=flight_recorder_events,
        flight_recorder_path=flight_recorder_path,
    )


# ----------------------------------------------------------------------
# Figure 10: flushing overhead
# ----------------------------------------------------------------------

def fig10_overhead(
    preset: ScalePreset = SMALL,
    seed: int = 42,
    jobs: int = 1,
    digestion_seeds: int = 1,
    shards: int = 1,
) -> FigureResult:
    """Figure 10 grid: one digestion-stress run per (policy, k).

    ``digestion_seeds`` > 1 repeats the grid under ``seed``, ``seed+1``,
    ... and reports the *mean* digestion rate per (policy, k).  Single-run
    wall-clock timings are noisy enough that the paper's policy ordering
    (FIFO > kFlushing > MK > LRU) can flip at individual points on a
    loaded machine; averaging a few seeds makes the comparison stable.
    The overhead panel (modelled bytes, deterministic) uses the base seed
    only.
    """
    seeds = [seed + i for i in range(max(1, digestion_seeds))]
    grid = [
        (policy, k, s)
        for s in seeds
        for k in K_SWEEP_SHORT
        for policy in ALL_POLICIES
    ]
    trial_results = run_trials(
        [
            TrialSpec(
                policy=policy,
                k=k,
                scale=preset,
                seed=s,
                shards=shards,
            )
            for policy, k, s in grid
        ],
        jobs=jobs,
        runner=run_digestion_stress,
    )
    by_point: dict[tuple[str, int, int], TrialResult] = {
        point: result for point, result in zip(grid, trial_results)
    }
    results: dict[tuple[str, int], TrialResult] = {
        (policy, k): by_point[(policy, k, seeds[0])]
        for policy in ALL_POLICIES
        for k in K_SWEEP_SHORT
    }

    def mean_digestion(policy: str, k: int) -> float:
        rates = [by_point[(policy, k, s)].effective_digestion_rate for s in seeds]
        return sum(rates) / len(rates)

    xs = list(K_SWEEP_SHORT)
    overhead = SweepResult(
        panel_id="fig10a",
        title="Policy bookkeeping memory vs k",
        x_label="k",
        y_label="overhead (simulated GB)",
        xs=xs,
        series={
            policy: [
                round(results[(policy, k)].policy_overhead_bytes / preset.bytes_per_gb, 4)
                for k in xs
            ]
            for policy in ALL_POLICIES
        },
        expectation=(
            "Stable in k for all policies; LRU highest (per-item list "
            "nodes; paper ~2-2.5x the kFlushing variants), FIFO lowest "
            "(segment headers only); kFlushing's cost is per-entry "
            "timestamps plus the temporary flush buffer."
        ),
    )
    digestion = SweepResult(
        panel_id="fig10b",
        title="Digestion rate vs k (unbounded arrival, wall-paced queries)",
        x_label="k",
        y_label="digestion rate (K records/s)",
        xs=xs,
        series={
            policy: [round(mean_digestion(policy, k) / 1000.0, 1) for k in xs]
            for policy in ALL_POLICIES
        },
        expectation=(
            "Roughly flat in k; FIFO highest (paper ~120K/s), kFlushing "
            "close behind (~100K/s), kFlushing-MK below it (~80K/s), LRU "
            "far lowest (~29K/s, per-item bookkeeping on the query path)."
        ),
    )
    return FigureResult("fig10", "Flushing overhead vs k (Fig 10)", [overhead, digestion])


# ----------------------------------------------------------------------
# Figures 11 and 12: extensibility (spatial and user attributes)
# ----------------------------------------------------------------------

def _attribute_figure(
    figure_id: str,
    attribute: str,
    key_label: str,
    preset: ScalePreset,
    seed: int,
    jobs: int = 1,
    shards: int = 1,
) -> FigureResult:
    # Both panels draw from the same (policy, memory, mode) trial grid;
    # enumerate it once so the whole figure can fan out in parallel.
    points = [
        (policy, gb, mode)
        for mode in ("correlated", "uniform")
        for policy in SINGLE_KEY_POLICIES
        for gb in MEMORY_SWEEP_GB
    ]
    trial_results = run_trials(
        [
            TrialSpec(
                policy=policy,
                attribute=attribute,
                workload_mode=mode,
                memory_gb=gb,
                scale=preset,
                seed=seed,
                shards=shards,
            )
            for policy, gb, mode in points
        ],
        jobs=jobs,
    )
    cache: dict[tuple[str, float, str], TrialResult] = {
        point: result for point, result in zip(points, trial_results)
    }

    def trial(policy: str, memory_gb: float, mode: str) -> TrialResult:
        return cache[(policy, memory_gb, mode)]

    xs = list(MEMORY_SWEEP_GB)
    k_filled = SweepResult(
        panel_id=f"{figure_id}a",
        title=f"k-filled {key_label} vs memory budget",
        x_label="memory budget (GB)",
        y_label=f"k-filled {key_label}",
        xs=xs,
        series={
            policy: [float(trial(policy, gb, "correlated").k_filled) for gb in xs]
            for policy in SINGLE_KEY_POLICIES
        },
        expectation=(
            "kFlushing 2-5x the baselines, holding up at tight budgets "
            "(paper Fig 11a / 12a)."
        ),
    )
    hit_series: dict[str, list[float]] = {}
    for mode in ("uniform", "correlated"):
        for policy in SINGLE_KEY_POLICIES:
            hit_series[f"{policy}-{mode}"] = [
                round(trial(policy, gb, mode).hit_percent, 2) for gb in xs
            ]
    hit = SweepResult(
        panel_id=f"{figure_id}b",
        title=f"hit ratio vs memory budget ({attribute} attribute)",
        x_label="memory budget (GB)",
        y_label="hit ratio (%)",
        xs=xs,
        series=hit_series,
        expectation=(
            "kFlushing above FIFO and LRU on both workloads at every "
            "budget, with the largest margins at <=30GB (paper Fig 11b / "
            "12b)."
        ),
    )
    title = (
        "kFlushing on the spatial attribute (Fig 11)"
        if attribute == "spatial"
        else "kFlushing on the user attribute (Fig 12)"
    )
    return FigureResult(figure_id, title, [k_filled, hit])


def fig11_spatial(
    preset: ScalePreset = SMALL,
    seed: int = 42,
    jobs: int = 1,
    shards: int = 1,
) -> FigureResult:
    return _attribute_figure(
        "fig11",
        "spatial",
        "spatial tiles",
        preset,
        seed,
        jobs=jobs,
        shards=shards,
    )


def fig12_user(
    preset: ScalePreset = SMALL,
    seed: int = 42,
    jobs: int = 1,
    shards: int = 1,
) -> FigureResult:
    return _attribute_figure(
        "fig12",
        "user",
        "user ids",
        preset,
        seed,
        jobs=jobs,
        shards=shards,
    )


# ----------------------------------------------------------------------
# Shard-count sweep (sharded-architecture experiment; no paper analogue)
# ----------------------------------------------------------------------

def shard_sweep(
    preset: ScalePreset = SMALL,
    seed: int = 42,
    jobs: int = 1,
    shard_counts: Sequence[int] = SHARD_SWEEP,
) -> FigureResult:
    """Hit ratio and effective digestion rate vs shard count.

    Every trial keeps the *total* memory budget fixed and splits it over
    N hash-partitioned shards (capacity/N each, independent flush
    cycles).  Two effects compete as N grows: per-shard flushes are
    smaller and cheaper, but multi-key records are replicated into every
    owning shard, so the same budget holds fewer distinct records — the
    hit-ratio curve prices that replication.
    """
    policies = ("fifo", "kflushing")

    def spec_for(policy: str, x: float) -> TrialSpec:
        return TrialSpec(
            policy=policy,
            scale=preset,
            seed=seed,
            shards=int(x),
        )

    panels = [
        _sweep(
            "shardsa",
            "hit ratio vs shard count",
            "shards",
            "hit ratio (%)",
            list(shard_counts),
            policies,
            spec_for,
            lambda result: round(result.hit_percent, 2),
            "Gently decreasing in N (fan-out replication dilutes the "
            "fixed total budget); kFlushing stays above FIFO at every N.",
            jobs=jobs,
        ),
        _sweep(
            "shardsb",
            "effective digestion rate vs shard count",
            "shards",
            "digestion rate (K records/s)",
            list(shard_counts),
            policies,
            spec_for,
            lambda result: round(result.effective_digestion_rate / 1000.0, 1),
            "Within a small factor of N=1 (single-process simulation pays "
            "routing overhead without the parallel-flush win a threaded "
            "deployment would collect); smaller per-shard flushes shorten "
            "the ingestion stalls.",
            jobs=jobs,
        ),
    ]
    return FigureResult("shards", "Hash-partitioned shard-count sweep", panels)


#: Registry used by the CLI and the benchmark harness.  The extension
#: experiments register themselves on import (see experiments/__init__).
ALL_FIGURES: dict[str, Callable[..., FigureResult]] = {
    "fig1": fig1_snapshot,
    "fig5": fig5_timeline,
    "fig7": fig7_k_filled,
    "fig8": fig8_hit_correlated,
    "fig9": fig9_hit_uniform,
    "fig10": fig10_overhead,
    "fig11": fig11_spatial,
    "fig12": fig12_user,
    "shards": shard_sweep,
}
