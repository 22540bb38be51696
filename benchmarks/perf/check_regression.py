"""Gate a fresh BENCH_*.json against a checked-in baseline.

Usage::

    python benchmarks/perf/check_regression.py BENCH_PR2.json \
        benchmarks/perf/baseline_tiny.json --tolerance 0.30

Only throughput records are compared (wall-clock suites vary too much
across machines to gate on): ``digestion_rate`` plus the disk-tier
commit/lookup throughput metrics.  For every (metric, policy) pair
present in both files, the new rate must be at least ``(1 - tolerance)``
of the baseline rate.  Faster is always fine; pairs missing from either
file are reported but not fatal.  Exits non-zero on any regression.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

GATED_METRICS = (
    "digestion_rate",
    # Disk-tier throughput gate (PR 4): commit must stay fast under the
    # segmented-runs layout.
    "disk_commit_postings_per_s",
    # Adaptive-controller gates (PR 9): the hit-ratio advantage over
    # static kFlushing on the skewed/shifting matrix cells must hold,
    # and the controller's digestion-rate cost must stay near 1.0x.
    # The single-shard deltas are bit-deterministic given the seed; the
    # flash-crowd cell (4 shards) drifts a few hundredths of a point
    # with the interpreter's hash seed (PR 3 scatter-gather tie-breaks),
    # so its baseline is pinned at the observed minimum.
    "adaptive_hit_delta_zipf-hot_tight",
    "adaptive_hit_delta_multi-key_tight",
    "adaptive_hit_delta_flash-crowd_tight",
    "adaptive_hit_delta_multi-key_normal",
    "adaptive_digestion_ratio_zipf-hot_tight",
    "adaptive_digestion_ratio_multi-key_tight",
    # Observability gates (PR 10): absolute digestion rate with the SLO
    # tracker + flight recorder enabled, and the tight ratio proving the
    # tax of flush-boundary ticking stays within 2% of the disabled
    # side (the ratio is measured on one host in one process, so the
    # machine-variance argument for the global tolerance does not
    # apply — both sides see the same noise).
    "obs_overhead_digestion_rate",
    "obs_overhead_digestion_ratio",
)

#: Per-metric tolerance overrides: ratios measured against an in-run
#: control are gated far tighter than cross-machine throughput numbers.
TOLERANCE_OVERRIDES = {
    "obs_overhead_digestion_ratio": 0.02,
}


def _load(path: Path) -> dict[tuple[str, str], float]:
    records = json.loads(path.read_text(encoding="utf-8"))
    return {
        (r["metric"], r["policy"]): r["value"]
        for r in records
        if r["metric"] in GATED_METRICS
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", type=Path, help="freshly generated BENCH_*.json")
    parser.add_argument("baseline", type=Path, help="checked-in baseline JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional slowdown vs baseline (default 0.30)",
    )
    args = parser.parse_args(argv)

    current = _load(args.current)
    baseline = _load(args.baseline)
    regressions: list[str] = []
    for key, base_value in sorted(baseline.items()):
        metric, policy = key
        if key not in current:
            print(f"  MISSING {metric} [{policy}] (baseline {base_value:.0f})")
            continue
        new_value = current[key]
        tolerance = TOLERANCE_OVERRIDES.get(metric, args.tolerance)
        floor = base_value * (1.0 - tolerance)
        status = "ok" if new_value >= floor else "REGRESSED"
        print(
            f"  {status:9s} {metric} [{policy}]: "
            f"{new_value:.0f} vs baseline {base_value:.0f} "
            f"(floor {floor:.0f})"
        )
        if new_value < floor:
            regressions.append(f"{metric} [{policy}]")
    for key in sorted(set(current) - set(baseline)):
        print(f"  NEW     {key[0]} [{key[1]}] = {current[key]:.0f} (no baseline)")

    if regressions:
        print(f"FAIL: {len(regressions)} regression(s): {', '.join(regressions)}")
        return 1
    print("benchmark regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
