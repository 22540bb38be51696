"""A seeded workload and the trial run on it must not depend on the
interpreter's string-hash seed (``PYTHONHASHSEED``).

Each case runs in a fresh interpreter per hash seed, because the seed is
fixed at start-up.
"""

import json
import os
import subprocess
import sys

import pytest

_CHILD = """
import json, sys
from dataclasses import asdict
from repro.experiments.runner import TrialSpec, run_trial
from tests.test_experiments import MICRO

spec = TrialSpec(
    policy="kflushing",
    scale=MICRO,
    seed=13,
    shards=int(sys.argv[1]),
)
result = asdict(run_trial(spec))
system = spec.build_system()
records = spec.build_stream().take(3_000)
system.ingest_many(records)
json.dump(
    {
        "keywords": [record.keywords for record in records[:500]],
        "flushes": len(system.flush_reports()),
        "postings_flushed": sum(r.postings_flushed for r in system.flush_reports()),
        # Every TrialResult field that is not a wall-clock measurement.
        "trial": {
            name: result[name]
            for name in (
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
        },
    },
    sys.stdout,
)
"""


def _run_under_hash_seed(hash_seed: int, shards: int) -> dict:
    env = dict(
        os.environ,
        PYTHONHASHSEED=str(hash_seed),
        PYTHONPATH=os.pathsep.join(p for p in sys.path if p),
    )
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(shards)],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize("shards", [1, 4])
def test_stream_and_trial_identical_across_hash_seeds(shards):
    first = _run_under_hash_seed(1, shards)
    second = _run_under_hash_seed(2, shards)
    assert first["postings_flushed"] > 0
    assert any(len(keywords) > 1 for keywords in first["keywords"])
    assert first == second
