"""Paper↔simulation scaling.

The paper runs on 2B+ real tweets against a 30 GB memory budget; this
reproduction runs on a synthetic stream against a *modelled* byte budget.
A :class:`ScalePreset` fixes the exchange rate (simulated bytes per paper
gigabyte) together with the workload sizes, so every figure harness can be
run at three fidelities:

* ``tiny``   — seconds per trial; used by the test suite and the default
  of the figure suite under ``benchmarks/``;
* ``small``  — the CLI's default; minutes per figure;
* ``full``   — the highest fidelity; use for EXPERIMENTS.md numbers when
  time allows.

What must be preserved for the paper's phenomena to reproduce is not the
absolute size but the *regime*: the memory budget must hold far fewer than
``vocabulary_size * k`` postings, so that the long Zipf tail stays below k
and flushing policy choices matter.  All presets satisfy this.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = [
    "ScalePreset",
    "TINY",
    "SMALL",
    "FULL",
    "PRESETS",
    "preset_from_env",
    "PAPER_MEMORY_GB",
    "PAPER_FLUSH_BUDGET",
    "PAPER_K",
    "PAPER_QUERY_RATE_PER_S",
]

#: The paper's defaults (Section V).
PAPER_MEMORY_GB = 30.0
PAPER_FLUSH_BUDGET = 0.10
PAPER_K = 20
#: Query arrival rate in the paper's workload replay.
PAPER_QUERY_RATE_PER_S = 25_000.0


@dataclass(frozen=True)
class ScalePreset:
    """One fidelity level for the experiment harness."""

    name: str
    #: Simulated (modelled) bytes representing one paper gigabyte.
    bytes_per_gb: int
    #: Synthetic hashtag vocabulary size.
    vocabulary_size: int
    #: Synthetic user population size.
    user_count: int
    #: Steady state is declared after this many flush operations.
    warm_flushes: int
    #: Hard cap on warm-up records (safety against tiny flush budgets).
    max_warm_records: int
    #: Records ingested during the measured phase.
    eval_records: int
    #: Queries issued per ingested record during the measured phase.
    queries_per_record: float
    #: AND-evaluation scan caps (see SystemConfig).
    and_scan_depth: int
    and_disk_limit: int
    #: Grid tile side for the spatial attribute.  The paper's 4 mi^2
    #: (~0.03 deg) tiles assume 2B tweets; scaled-down streams need
    #: proportionally coarser tiles so hotspot tiles can reach k at all.
    tile_side_degrees: float = 0.03

    def capacity_bytes(self, memory_gb: float) -> int:
        """Simulated memory budget for a paper-scale gigabyte figure."""
        return max(1, int(memory_gb * self.bytes_per_gb))


TINY = ScalePreset(
    name="tiny",
    bytes_per_gb=100_000,
    vocabulary_size=3_000,
    user_count=8_000,
    warm_flushes=3,
    max_warm_records=150_000,
    eval_records=6_000,
    queries_per_record=1.0,
    and_scan_depth=400,
    and_disk_limit=400,
    tile_side_degrees=0.30,
)

SMALL = ScalePreset(
    name="small",
    bytes_per_gb=300_000,
    vocabulary_size=12_000,
    user_count=30_000,
    warm_flushes=5,
    max_warm_records=500_000,
    eval_records=25_000,
    queries_per_record=1.5,
    and_scan_depth=1_000,
    and_disk_limit=1_000,
    tile_side_degrees=0.15,
)

FULL = ScalePreset(
    name="full",
    bytes_per_gb=1_000_000,
    vocabulary_size=30_000,
    user_count=80_000,
    warm_flushes=5,
    max_warm_records=2_000_000,
    eval_records=80_000,
    queries_per_record=2.0,
    and_scan_depth=1_500,
    and_disk_limit=1_500,
    tile_side_degrees=0.08,
)

PRESETS: dict[str, ScalePreset] = {p.name: p for p in (TINY, SMALL, FULL)}


def preset_from_env(default: str = "small") -> ScalePreset:
    """Resolve the preset from ``REPRO_SCALE`` (tiny/small/full)."""
    name = os.environ.get("REPRO_SCALE", default).strip().lower()
    try:
        return PRESETS[name]
    except KeyError:
        valid = ", ".join(sorted(PRESETS))
        raise ValueError(f"REPRO_SCALE={name!r} unknown; expected one of: {valid}") from None
