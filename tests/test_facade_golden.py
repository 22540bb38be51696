"""Golden pins of the facade's deterministic outputs.

Every literal below was recorded at the commit *before* the unsharded
facade and its hash-partitioned sibling became one ``MicroblogSystem``
over a list of partitions; the one class must reproduce them bit for bit
at every shard count.  They pin numbers, not a second implementation: a
change that moves one of them changed the paper's accounting and has to
say so.
"""

import pytest

from repro.config import SystemConfig
from repro.engine.sharded import build_system
from repro.experiments.runner import TrialSpec, run_trial
from repro.workload.queryload import QueryLoad, QueryLoadConfig
from repro.workload.stream import MicroblogStream, StreamConfig
from tests.test_experiments import MICRO

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

#: (policy, shards) -> the DETERMINISTIC_FIELDS of ``run_trial`` at MICRO
#: scale, seed 3, plus ``extras["ingest_stalls"]``.
TRIALS = {
    ("fifo", 1): dict(
        hit_ratio=0.24375,
        hit_ratio_by_mode={'single': 0.45491803278688525, 'and': 0.0, 'or': 0.2828282828282828},
        k_filled=14,
        flush_count=7,
        records_ingested=800,
        queries_run=800,
        policy_overhead_bytes=1280,
        mean_flush_freed_fraction=1.003749094884652,
        memory_utilization=0.9774875,
        ingest_stalls=7.0,
    ),
    ("fifo", 2): dict(
        hit_ratio=0.24125,
        hit_ratio_by_mode={'single': 0.44672131147540983, 'and': 0.0, 'or': 0.2828282828282828},
        k_filled=14,
        flush_count=18,
        records_ingested=800,
        queries_run=800,
        policy_overhead_bytes=2560,
        mean_flush_freed_fraction=1.007313601227584,
        memory_utilization=0.975125,
        ingest_stalls=18.0,
    ),
    ("fifo", 4): dict(
        hit_ratio=0.23,
        hit_ratio_by_mode={'single': 0.44672131147540983, 'and': 0.0, 'or': 0.25252525252525254},
        k_filled=9,
        flush_count=36,
        records_ingested=800,
        queries_run=800,
        policy_overhead_bytes=4992,
        mean_flush_freed_fraction=1.0460163105343372,
        memory_utilization=0.9539208333333333,
        ingest_stalls=36.0,
    ),
    ("kflushing", 1): dict(
        hit_ratio=0.365,
        hit_ratio_by_mode={'single': 0.6434426229508197, 'and': 0.0, 'or': 0.45454545454545453},
        k_filled=51,
        flush_count=6,
        records_ingested=800,
        queries_run=800,
        policy_overhead_bytes=27524,
        mean_flush_freed_fraction=1.0413839789688872,
        memory_utilization=0.9091833333333333,
        ingest_stalls=6.0,
    ),
    ("kflushing", 2): dict(
        hit_ratio=0.36,
        hit_ratio_by_mode={'single': 0.639344262295082, 'and': 0.0, 'or': 0.4444444444444444},
        k_filled=45,
        flush_count=13,
        records_ingested=800,
        queries_run=800,
        policy_overhead_bytes=28088,
        mean_flush_freed_fraction=1.0847118905678532,
        memory_utilization=0.9408291666666667,
        ingest_stalls=13.0,
    ),
    ("kflushing", 4): dict(
        hit_ratio=0.3725,
        hit_ratio_by_mode={'single': 0.6352459016393442, 'and': 0.0, 'or': 0.48148148148148145},
        k_filled=44,
        flush_count=30,
        records_ingested=800,
        queries_run=800,
        policy_overhead_bytes=28137,
        mean_flush_freed_fraction=1.0731465592437301,
        memory_utilization=0.9525416666666666,
        ingest_stalls=30.0,
    ),
    ("kflushing-mk", 1): dict(
        hit_ratio=0.30875,
        hit_ratio_by_mode={'single': 0.5532786885245902, 'and': 0.0, 'or': 0.3771043771043771},
        k_filled=37,
        flush_count=6,
        records_ingested=800,
        queries_run=800,
        policy_overhead_bytes=26885,
        mean_flush_freed_fraction=1.0340200366388466,
        memory_utilization=0.8993208333333333,
        ingest_stalls=6.0,
    ),
    ("kflushing-mk", 2): dict(
        hit_ratio=0.30875,
        hit_ratio_by_mode={'single': 0.5491803278688525, 'and': 0.0, 'or': 0.38047138047138046},
        k_filled=36,
        flush_count=14,
        records_ingested=800,
        queries_run=800,
        policy_overhead_bytes=27465,
        mean_flush_freed_fraction=1.0577138475867087,
        memory_utilization=0.9536666666666667,
        ingest_stalls=14.0,
    ),
    ("kflushing-mk", 4): dict(
        hit_ratio=0.28625,
        hit_ratio_by_mode={'single': 0.5286885245901639, 'and': 0.0, 'or': 0.3367003367003367},
        k_filled=38,
        flush_count=30,
        records_ingested=800,
        queries_run=800,
        policy_overhead_bytes=28944,
        mean_flush_freed_fraction=1.1123398973111365,
        memory_utilization=0.9367958333333334,
        ingest_stalls=30.0,
    ),
    ("lru", 1): dict(
        hit_ratio=0.2825,
        hit_ratio_by_mode={'single': 0.5204918032786885, 'and': 0.0, 'or': 0.3333333333333333},
        k_filled=27,
        flush_count=6,
        records_ingested=800,
        queries_run=800,
        policy_overhead_bytes=80688,
        mean_flush_freed_fraction=1.0038531392157721,
        memory_utilization=0.9167333333333333,
        ingest_stalls=6.0,
    ),
    ("lru", 2): dict(
        hit_ratio=0.2725,
        hit_ratio_by_mode={'single': 0.4959016393442623, 'and': 0.0, 'or': 0.3265993265993266},
        k_filled=24,
        flush_count=14,
        records_ingested=800,
        queries_run=800,
        policy_overhead_bytes=84109,
        mean_flush_freed_fraction=1.0067257832751784,
        memory_utilization=0.9530083333333333,
        ingest_stalls=14.0,
    ),
    ("lru", 4): dict(
        hit_ratio=0.265,
        hit_ratio_by_mode={'single': 0.48770491803278687, 'and': 0.0, 'or': 0.31313131313131315},
        k_filled=20,
        flush_count=32,
        records_ingested=800,
        queries_run=800,
        policy_overhead_bytes=84436,
        mean_flush_freed_fraction=1.0155486773966547,
        memory_utilization=0.9441333333333334,
        ingest_stalls=32.0,
    ),
}


# The ids keep the "-synchronous" suffix the rows were recorded under.
@pytest.mark.parametrize(
    "policy,shards", TRIALS, ids=[f"{p}-{n}-synchronous" for p, n in TRIALS]
)
def test_trial_matches_recorded_row(policy, shards):
    result = run_trial(TrialSpec(policy=policy, scale=MICRO, seed=3, shards=shards))
    row = {name: getattr(result, name) for name in DETERMINISTIC_FIELDS}
    row["ingest_stalls"] = result.extras["ingest_stalls"]
    assert row == TRIALS[policy, shards]


#: ``snapshot()`` key sets of a kFlushing system (k=5, 60 kB) after 3 000
#: records and 200 queries: every handle the system binds, recorded or
#: not.
COUNTERS = [
    "disk.bytes_read",
    "disk.bytes_written",
    "disk.compactions",
    "disk.flush_batches",
    "disk.index_lookups",
    "disk.postings_written",
    "disk.record_fetches",
    "disk.records_written",
    "flush.count",
    "flush.freed_bytes",
    "flush.phase1-regular.freed_bytes",
    "flush.phase2-aggressive.freed_bytes",
    "flush.phase3-forced.freed_bytes",
    "query.and.disk_lookups",
    "query.and.hits",
    "query.and.misses",
    "query.or.disk_lookups",
    "query.or.hits",
    "query.or.misses",
    "query.single.disk_lookups",
    "query.single.hits",
    "query.single.misses",
]
GAUGES = [
    "memory.bytes_used",
    "watermark.memory.bytes_used",
]
#: What four shards add: these per shard under ``shard.<i>.``.
SHARD_COUNTERS = [
    "disk.bytes_read",
    "disk.bytes_written",
    "disk.compactions",
    "disk.flush_batches",
    "disk.index_lookups",
    "disk.postings_written",
    "disk.record_fetches",
    "disk.records_written",
    "flush.count",
    "flush.freed_bytes",
]
SHARD_GAUGES = [
    "memory.bytes_used",
    "watermark.memory.bytes_used",
]


def _snapshot(shards):
    config = SystemConfig(
        policy="kflushing", k=5, memory_capacity_bytes=60_000, shards=shards
    )
    system = build_system(config)
    stream = MicroblogStream(StreamConfig(seed=3, vocabulary_size=400, user_count=400))
    queries = QueryLoad(QueryLoadConfig(seed=4, k=5), stream)
    system.ingest_many(stream.take(3_000))
    for _ in range(200):
        system.search(queries.next_query())
    return system.snapshot()


def test_one_partition_snapshot_keys():
    snap = _snapshot(1)
    assert sorted(snap) == ["counters", "gauges", "histograms"]
    assert sorted(snap["counters"]) == COUNTERS
    assert sorted(snap["gauges"]) == GAUGES


def test_four_shard_snapshot_keys():
    snap = _snapshot(4)
    assert sorted(snap) == ["counters", "gauges", "histograms", "shard_skew", "shards"]
    per_shard = lambda names: [f"shard.{i}.{n}" for i in range(4) for n in names]
    assert sorted(snap["counters"]) == sorted(COUNTERS + per_shard(SHARD_COUNTERS))
    assert sorted(snap["gauges"]) == sorted(GAUGES + per_shard(SHARD_GAUGES))
