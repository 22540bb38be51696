#!/usr/bin/env python3
"""Render a result file (``run.py --trace --passes N --out FILE``) as the
markdown tables the README carries: end-to-end medians with their spread,
and the layer budgets ("of 1 s of ingest-tail: x % Phase 2, ...").

``python benchmarks/e2e/report.py benchmarks/e2e/baseline/results.json``
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from compare import spread

#: Budget rows below this share are folded into "other".
_MIN_SHARE_PCT = 1.0


def end_to_end_table(document: dict) -> str:
    passes = document["passes"]
    workloads = list(passes[0])
    metrics = list(passes[0][workloads[0]]["end_to_end"])
    lines = [
        f"Median of {len(passes)} passes (spread = range / median).",
        "",
        "| metric | " + " | ".join(workloads) + " |",
        "|---|" + "---:|" * len(workloads),
    ]
    for metric in metrics:
        cells = []
        for workload in workloads:
            values = [one[workload]["end_to_end"][metric] for one in passes]
            cells.append(f"{statistics.median(values):.5g} (±{100 * spread(values):.1f}%)")
        lines.append(f"| `{metric}` | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def budget_table(traced: dict, kind: str) -> str:
    """Self-time shares of the ``kind`` ops (ingest or query), one column
    per workload, one row per span."""
    workloads = list(traced)
    spans: list[str] = []
    for workload in workloads:
        for span, share in traced[workload]["budgets"][kind].items():
            if share >= _MIN_SHARE_PCT and span not in spans:
                spans.append(span)
    lines = [
        f"Of 1 s of `{kind}` operations, percent spent in each layer's own code:",
        "",
        "| span | " + " | ".join(workloads) + " |",
        "|---|" + "---:|" * len(workloads),
    ]
    for span in spans:
        cells = [f"{traced[w]['budgets'][kind].get(span, 0.0):.1f}" for w in workloads]
        lines.append(f"| `{span}` | " + " | ".join(cells) + " |")
    other = [
        max(0.0, 100.0 - sum(traced[w]["budgets"][kind].get(span, 0.0) for span in spans))
        for w in workloads
    ]
    lines.append("| other | " + " | ".join(f"{share:.1f}" for share in other) + " |")
    return "\n".join(lines)


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    document = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    print(end_to_end_table(document))
    if document.get("traced"):
        for kind in ("ingest", "query"):
            print()
            print(budget_table(document["traced"], kind))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
