#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``.

``python benchmarks/e2e/compare.py A.json B.json`` prints one row per
(workload, end-to-end metric): A's and B's median over their passes, the
ratio B/A (A is the base), the bound from ``BENCHMARK.json`` and a verdict:

* ``ok`` — B is no worse than A by more than the bound;
* ``regressed`` — B is worse than A by more than the bound;
* ``unresolved`` — A's own run-to-run spread is wider than the bound, so
  the pair cannot tell (unless every run of B beats every run of A).

Counts that must repeat exactly (the traced pass's ``exact`` metrics, and
the operation counts and hit ratio of every untraced pass) are compared for
equality.  Exit status 1 on any ``regressed`` row or differing count.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

#: Untraced figures that are a pure function of (workload, seed, seconds).
_EXACT_END_TO_END = ("hit_ratio_pct",)
_EXACT_INFO = ("records", "queries", "flushes")


def spread(values) -> float:
    """Run-to-run spread as a share of the median: the interquartile
    distance with four or more runs, the full range with fewer."""
    if len(values) < 2:
        return 0.0
    if len(values) >= 4:
        quartiles = statistics.quantiles(values, n=4)
        width = quartiles[2] - quartiles[0]
    else:
        width = max(values) - min(values)
    return width / abs(statistics.median(values))


def verdict(a_values, b_values, better: str, bound: float) -> tuple[float, str]:
    """``(B/A ratio of medians, ok|regressed|unresolved)``."""
    a, b = statistics.median(a_values), statistics.median(b_values)
    ratio = b / a
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (ratio - 1.0)
    if sign > 0:
        b_always_better = max(b_values) < min(a_values)
    else:
        b_always_better = min(b_values) > max(a_values)
    if spread(a_values) > bound and not b_always_better:
        return ratio, "unresolved"
    return ratio, "regressed" if worse_by > bound else "ok"


def _passes_values(document: dict, workload: str, metric: str) -> list[float]:
    return [one[workload]["end_to_end"][metric] for one in document["passes"]]


def _exact_differences(a: dict, b: dict, exact_layer_names) -> list[str]:
    differences = []
    for workload in a["passes"][0]:
        seen = set()
        for document in (a, b):
            for one in document["passes"]:
                result = one[workload]
                seen.add(
                    tuple(result["end_to_end"][name] for name in _EXACT_END_TO_END)
                    + tuple(result["info"][name] for name in _EXACT_INFO)
                )
        if len(seen) > 1:
            names = _EXACT_END_TO_END + _EXACT_INFO
            differences.append(f"{workload}: {names} differ across passes: {sorted(seen)}")
        if a.get("traced") and b.get("traced"):
            left = a["traced"][workload]["per_layer"]
            right = b["traced"][workload]["per_layer"]
            for name in exact_layer_names:
                if left[name] != right[name]:
                    differences.append(
                        f"{workload}: exact count {name} differs: {left[name]} vs {right[name]}"
                    )
    return differences


def compare(a: dict, b: dict, contract: dict, exact_layer_names) -> int:
    regressed = 0
    print(f"{'workload':14s} {'metric':22s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            a_values = _passes_values(a, workload, metric["name"])
            b_values = _passes_values(b, workload, metric["name"])
            ratio, status = verdict(a_values, b_values, metric["better"], metric["bound"])
            regressed += status == "regressed"
            print(f"{workload:14s} {metric['name']:22s} {statistics.median(a_values):12.6g} "
                  f"{statistics.median(b_values):12.6g} {ratio:7.3f} "
                  f"{100 * metric['bound']:5.0f}%  {status}")
    differences = _exact_differences(a, b, exact_layer_names)
    for line in differences:
        print(f"exact: {line}")
    noisy = sorted(
        {r["workload"] for doc in (a, b) for one in doc["passes"] for r in one.values()
         if r["host_speed"]["noisy"]}
    )
    if noisy:
        print(f"noisy runs (host speed moved by more than 1.5x within a run): {', '.join(noisy)}")
    print(f"{regressed} regressed, {len(differences)} exact differences")
    return 1 if regressed or differences else 0


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    import catalog

    a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    contract = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    exact = [metric.name for metric in catalog.PER_LAYER if metric.exact]
    return compare(a, b, contract, exact)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
