"""Perf suite: assertions about the PR's fast paths on tiny workloads.

These run under the benchmarks tree (not tier-1) because they time real
work.  Assertions are deliberately conservative — they check *ordering*
(incremental sampler beats brute force by a wide margin, parallel equals
serial bit-for-bit), never absolute wall-clock, so they hold on slow CI
runners and single-core containers alike.
"""

from __future__ import annotations

from repro.experiments.bench import (
    bench_digestion_and_flush,
    bench_disk_tier,
    bench_kfilled_sampling,
    bench_sweep_wallclock,
    run_bench,
)
from repro.experiments.scale import PRESETS

TINY = PRESETS["tiny"]


def _by_metric(records):
    return {(r.metric, r.policy): r.value for r in records}


def test_kfilled_sampling_speedup_at_least_2x():
    # The incremental counter is O(1) vs an O(entries) rescan with two
    # slice allocations per entry; 2x is a very loose floor (measured
    # speedups are in the thousands).
    records = _by_metric(bench_kfilled_sampling(TINY, seed=42, repeats=50))
    speedup = records[("kfilled_sampling_speedup", "kflushing")]
    assert speedup >= 2.0, f"incremental sampler only {speedup:.1f}x faster"


def test_digestion_suite_covers_all_policies():
    records = _by_metric(bench_digestion_and_flush(TINY, seed=42))
    for policy in ("fifo", "kflushing", "kflushing-mk", "lru"):
        assert records[("digestion_rate", policy)] > 0
        # Every policy flushes at tiny scale, so the flush-cost metric
        # must be present and positive too.
        assert records[("flush_cost_per_freed_mb", policy)] > 0


def test_sweep_parallel_matches_serial():
    # bench_sweep_wallclock asserts internally that the parallel hit
    # ratios equal the serial ones; reaching the speedup record proves
    # the assertion passed.
    records = _by_metric(bench_sweep_wallclock(TINY, seed=42, jobs=2))
    assert ("sweep_serial_wallclock", "all") in records
    assert ("sweep_parallel_speedup_j2", "all") in records


def test_disk_suite_reports_commit_and_lookup_costs():
    records = _by_metric(bench_disk_tier(TINY, seed=42, batches=60))
    assert records[("disk_commit_postings_per_s", "segmented-runs")] > 0
    assert records[("disk_lookup_top20_us", "segmented-runs")] > 0
    assert records[("disk_lookup_unbounded_us", "merged-view")] > 0


def test_run_bench_writes_schema(tmp_path):
    out = tmp_path / "bench.json"
    records = run_bench(preset="tiny", seed=42, out=out, jobs=1, suites=["kfilled"])
    assert out.exists()
    import json

    payload = json.loads(out.read_text(encoding="utf-8"))
    assert len(payload) == len(records) == 3
    for row in payload:
        assert set(row) == {"metric", "policy", "value", "unit", "seed"}
