"""Sharded-architecture tests: routing, equivalence, and metrics merging.

The correctness anchors of the hash-partitioned system:

* **routed reference** — routing one partition is the identity: the
  scatter-gather adapters over the single partition of a ``shards=1``
  system answer every query exactly as its directly wired executor;
* **answer equality** — for any shard count, scatter-gather answers on
  single-, OR-, and AND-mode queries must equal the unsharded system's
  exactly (same postings, same order), under the strict/unbounded
  configuration where every answer is provably exact;
* **metrics merge** — ``run_trials`` with ``jobs > 1`` inside an
  ``activated`` scope must leave the same counters and JSONL event
  stream a serial run leaves, with no worker event files behind.
"""

import dataclasses
import json
from collections import Counter

import pytest

from repro.config import SystemConfig
from repro.engine.executor import QueryExecutor
from repro.engine.sharded import (
    ShardRouter,
    _RoutedDisk,
    _RoutedEngine,
    build_system,
    stable_key_hash,
)
from repro.engine.system import MicroblogSystem, Partition
from repro.errors import ConfigurationError
from repro.experiments.parallel import run_trials
from repro.experiments.runner import TrialSpec, run_trial
from repro.obs import Instrumentation, JsonlSink, activated
from repro.obs.traceview import build_traces_report
from repro.storage.posting_list import Posting
from repro.storage.topk import merge_run_tails, merge_topk
from repro.workload.queryload import QueryLoad, QueryLoadConfig
from repro.workload.stream import MicroblogStream, StreamConfig
from tests.test_experiments import MICRO

#: Deterministic TrialResult fields (wall-clock rates excluded).
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


class TestStableHash:
    def test_deterministic_per_type(self):
        assert stable_key_hash("kw1") == stable_key_hash("kw1")
        assert stable_key_hash(42) == stable_key_hash(42)
        assert stable_key_hash((3, 4)) == stable_key_hash((3, 4))

    def test_not_python_hash(self):
        # The whole point: routing must not depend on the per-process
        # salt of builtin str hashing.
        assert stable_key_hash("kw1") != hash("kw1") or stable_key_hash(
            "kw2"
        ) != hash("kw2")

    def test_distinct_keys_spread(self):
        shards = {stable_key_hash(f"kw{i}") % 4 for i in range(100)}
        assert shards == {0, 1, 2, 3}


class TestShardRouter:
    def test_rejects_zero_shards(self):
        with pytest.raises(ConfigurationError):
            ShardRouter(0)

    def test_shard_of_in_range_and_cached(self):
        router = ShardRouter(3)
        for key in ["a", "b", 7, (1, 2)]:
            shard = router.shard_of(key)
            assert 0 <= shard < 3
            assert router.shard_of(key) == shard  # memoised, stable

    def test_shards_for_distinct_sorted(self):
        router = ShardRouter(4)
        keys = [f"kw{i}" for i in range(40)]
        owners = router.shards_for(keys)
        assert list(owners) == sorted(set(owners))
        assert set(owners) == {router.shard_of(k) for k in keys}

    def test_group_by_shard_partitions_in_order(self):
        router = ShardRouter(4)
        keys = [f"kw{i}" for i in range(40)]
        groups = router.group_by_shard(keys)
        regrouped = [k for shard in sorted(groups) for k in groups[shard]]
        assert sorted(regrouped) == sorted(keys)
        for shard, group in groups.items():
            assert all(router.shard_of(k) == shard for k in group)
            # Original key order is preserved within each group.
            assert list(group) == [k for k in keys if router.shard_of(k) == shard]


class TestShardConfig:
    def test_shards_validated(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(shards=0)

    def test_even_split_with_remainder(self):
        config = SystemConfig(shards=4, memory_capacity_bytes=1_000_003)
        budgets = [config.shard_capacity(i) for i in range(4)]
        assert sum(budgets) == 1_000_003
        assert max(budgets) - min(budgets) <= 1
        assert config.total_capacity_bytes == 1_000_003

    def test_explicit_budgets(self):
        config = SystemConfig(
            shards=2, shard_capacity_bytes=(600_000, 400_000)
        )
        assert config.shard_capacity(0) == 600_000
        assert config.shard_capacity(1) == 400_000
        assert config.total_capacity_bytes == 1_000_000

    def test_explicit_budgets_validated(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(shards=2, shard_capacity_bytes=(1_000,))
        with pytest.raises(ConfigurationError):
            SystemConfig(shards=2, shard_capacity_bytes=(1_000, 0))

    def test_shard_capacity_bounds_checked(self):
        config = SystemConfig(shards=2)
        with pytest.raises(ConfigurationError):
            config.shard_capacity(2)


class TestFanOut:
    """The facade extracts a record's keys once and hands each owning
    shard only its own group of them."""

    @pytest.mark.parametrize("policy", ["fifo", "kflushing", "kflushing-mk", "lru"])
    def test_every_key_held_only_by_its_owner(self, policy):
        system = build_system(
            SystemConfig(policy=policy, shards=3, memory_capacity_bytes=60_000)
        )
        stream = MicroblogStream(
            StreamConfig(seed=5, vocabulary_size=200, with_locations=False)
        )
        records = stream.take(3_000)
        system.ingest_many(records)
        assert system.flush_reports(), "no shard flushed: disk side untested"
        system.check_integrity()
        expected = Counter(key for record in records for key in record.keywords)
        resident = [p.engine.frequency_snapshot() for p in system.partitions]
        for key, count in expected.items():
            held = [
                memory.get(key, 0) + p.disk.posting_count(key)
                for memory, p in zip(resident, system.partitions)
            ]
            owner = system.router.shard_of(key)
            assert held[owner] == count, key
            assert sum(held) == count, key


class TestBuildSystem:
    """One class at any ``shards``; only the wiring follows the count."""

    def test_unsharded_by_default(self):
        system = build_system(SystemConfig())
        assert type(system) is MicroblogSystem
        assert len(system.partitions) == 1
        assert system.shards is None and system.router is None
        assert system.engine is system.partitions[0].engine
        assert system.disk is system.partitions[0].disk
        # Wired directly: no routed adapters.
        assert system.engine.attribute is system.attribute
        assert system.executor._engine is system.engine

    def test_sharded_when_asked(self):
        system = build_system(SystemConfig(shards=3))
        assert type(system) is MicroblogSystem
        assert system.shards is system.partitions and len(system.shards) == 3
        assert all(isinstance(s, Partition) for s in system.shards)
        assert system.router.shard_count == 3
        assert system.engine is None and system.disk is None
        # Every engine walks a record's keys with the system's attribute.
        assert all(s.engine.attribute is system.attribute for s in system.shards)


class TestRoutedReference:
    """Routing one partition is the identity: the scatter-gather adapters
    over a ``shards=1`` system's single partition give the answers of its
    directly wired executor."""

    @pytest.mark.parametrize("policy", ["fifo", "kflushing", "kflushing-mk", "lru"])
    def test_routing_one_partition_is_identity(self, policy):
        direct = _strict_system(1, policy)
        router = ShardRouter(1)
        routed = QueryExecutor(
            _RoutedEngine(direct.partitions, router, direct.obs),
            _RoutedDisk(direct.partitions, router, direct.obs),
            strict_and=True,
            and_scan_depth=None,
            and_disk_limit=None,
            obs=direct.obs,
        )
        modes_seen = set()
        for query in _query_mix():
            modes_seen.add(query.mode.value)
            a = direct.executor.execute(query, direct.now)
            b = routed.execute(query, direct.now)
            # The latency is a difference of the archive's running I/O
            # total, so it carries float rounding; all else is exact.
            assert b.simulated_latency == pytest.approx(a.simulated_latency)
            assert a == dataclasses.replace(
                b, simulated_latency=a.simulated_latency
            ), f"result mismatch on {query!r}"
            assert [r.blog_id for r in direct.executor.materialize(a)] == [
                r.blog_id for r in routed.materialize(b)
            ]
        assert modes_seen == {"single", "and", "or"}


def _strict_system(shards: int, policy: str = "kflushing", seed: int = 21):
    """A loaded system under strict AND semantics with unbounded
    scan/disk depth, so every answer it produces is provably exact — and
    exact answers over a unique sort key are unique, which is what makes
    answer-set equality a meaningful oracle."""
    config = SystemConfig(
        policy=policy,
        shards=shards,
        memory_capacity_bytes=250_000,
        and_scan_depth=None,
        and_disk_limit=None,
    )
    system = build_system(config, strict_and=True)
    stream = MicroblogStream(
        StreamConfig(seed=seed, vocabulary_size=300, with_locations=False)
    )
    system.ingest_many(stream.take(9_000))
    return system


def _query_mix(seed: int = 21):
    """400 correlated single/AND/OR queries over the same vocabulary."""
    query_stream = MicroblogStream(
        StreamConfig(seed=seed, vocabulary_size=300, with_locations=False)
    )
    load = QueryLoad(
        QueryLoadConfig(seed=seed + 1, mode="correlated"), query_stream
    )
    return [load.next_query() for _ in range(400)]


def _ingested_pair(shards: int, policy: str = "kflushing", seed: int = 21):
    """An unsharded and an N-sharded system fed the identical stream."""
    return (
        _strict_system(1, policy, seed),
        _strict_system(shards, policy, seed),
        _query_mix(seed),
    )


class TestScatterGatherEquality:
    """Property: sharded answers == unsharded answers, any mode, any N."""

    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_answers_identical(self, shards):
        unsharded, sharded, queries = _ingested_pair(shards)
        modes_seen = set()
        for query in queries:
            modes_seen.add(query.mode.value)
            a = unsharded.search(query)
            b = sharded.search(query)
            assert a.provably_exact and b.provably_exact
            assert [
                (p.score, p.timestamp, p.blog_id) for p in a.postings
            ] == [(p.score, p.timestamp, p.blog_id) for p in b.postings], (
                f"answer mismatch on {query!r}"
            )
        assert modes_seen == {"single", "and", "or"}

    @pytest.mark.parametrize("shards", [2, 4])
    def test_materialized_records_identical(self, shards):
        unsharded, sharded, queries = _ingested_pair(shards)
        for query in queries[:80]:
            a = unsharded.search(query)
            b = sharded.search(query)
            ids_a = [r.blog_id for r in unsharded.fetch_records(a)]
            ids_b = [r.blog_id for r in sharded.fetch_records(b)]
            assert ids_a == ids_b

    def test_lru_answers_identical(self):
        # LRU exercises the fanned note_query path (touches on every
        # owning shard); answers must still match.
        unsharded, sharded, queries = _ingested_pair(4, policy="lru")
        for query in queries[:150]:
            a = unsharded.search(query)
            b = sharded.search(query)
            assert a.blog_ids == b.blog_ids


class TestShardedSystem:
    def _loaded(self, shards=4, policy="kflushing"):
        system = build_system(SystemConfig(policy=policy, shards=shards,
                                           memory_capacity_bytes=400_000))
        stream = MicroblogStream(
            StreamConfig(seed=9, vocabulary_size=300, with_locations=False)
        )
        system.ingest_many(stream.take(12_000))
        return system

    def test_integrity_and_ownership(self):
        system = self._loaded()
        system.check_integrity()  # per-engine invariants + key ownership
        for shard in system.shards:
            for key in shard.engine.frequency_snapshot():
                assert system.router.shard_of(key) == shard.shard_id

    def test_ownership_violation_detected(self):
        system = self._loaded()
        # Re-map one resident key to a different shard: the ownership
        # invariant must now fail.
        shard = next(s for s in system.shards if s.engine.frequency_snapshot())
        key = next(iter(shard.engine.frequency_snapshot()))
        system.router._cache[key] = (shard.shard_id + 1) % len(system.shards)
        with pytest.raises(AssertionError):
            system.check_integrity()

    def test_per_shard_flushing_and_metrics(self):
        system = self._loaded()
        assert len(system.flush_reports()) > 0
        snap = system.snapshot()
        assert set(snap["shards"]) == {"0", "1", "2", "3"}
        total_flushes = sum(
            info["flush_count"] for info in snap["shards"].values()
        )
        assert total_flushes == len(system.flush_reports())
        assert snap["counters"]["flush.count"] == total_flushes
        flushed_shards = [
            i for i in range(4)
            if snap["counters"].get(f"shard.{i}.flush.count", 0) > 0
        ]
        assert flushed_shards, "no per-shard flush counters recorded"
        skew = snap["shard_skew"]
        assert skew["shards"] == 4
        assert skew["record_skew"] >= 1.0
        assert 0 <= skew["hot_shard"] < 4
        # Gauges land in the registry for the prometheus/json exporters.
        assert "shard.0.memory.bytes_used" in snap["gauges"]

    def test_set_k_propagates(self):
        system = self._loaded()
        system.set_k(7)
        assert all(shard.engine.k == 7 for shard in system.shards)

    def test_frequency_snapshot_merges_disjoint_keys(self):
        system = self._loaded()
        merged = system.frequency_snapshot()
        per_shard_total = sum(
            len(shard.engine.frequency_snapshot()) for shard in system.shards
        )
        assert len(merged) == per_shard_total  # keys are partitioned


class TestMergeTopk:
    """The shared top-k merge (executor, scatter-gather, segments)."""

    def _posting(self, score, blog_id):
        return Posting(score, float(blog_id), blog_id)

    def test_orders_and_truncates(self):
        a = [self._posting(3.0, 1), self._posting(1.0, 2)]
        b = [self._posting(2.0, 3), self._posting(0.5, 4)]
        merged = merge_topk([a, b], k=3)
        assert [p.blog_id for p in merged] == [1, 3, 2]

    def test_first_occurrence_wins_dedup(self):
        a = [self._posting(3.0, 1)]
        b = [self._posting(9.0, 1), self._posting(2.0, 2)]
        merged = merge_topk([a, b], k=None)
        # blog 1 keeps its first-seen posting (score 3.0), so it sorts
        # below nothing else here but is not duplicated.
        assert [p.blog_id for p in merged] == [1, 2]
        assert merged[0].score == 3.0

    def test_unlimited_when_k_none(self):
        groups = [[self._posting(float(i), i)] for i in range(10)]
        assert len(merge_topk(groups, k=None)) == 10

    def test_executor_and_segments_share_impl(self):
        # All merge sites draw from repro.storage.topk: the executor uses
        # the dedupping merge, the segmented index the duplicate-free
        # stream merge (segments are temporally disjoint).
        from repro.engine import executor as executor_mod
        from repro.storage import segmented_index as seg_mod

        assert executor_mod.merge_topk is merge_topk
        assert seg_mod.merge_run_tails is merge_run_tails


class TestParallelMetricsMerge:
    """Inside an activated scope, worker trials report to the scope: each
    worker's registry is merged into it once and its events are appended
    to the scope's JSONL sink in spec order."""

    def _specs(self):
        return [
            TrialSpec(policy="fifo", scale=MICRO, seed=s) for s in (1, 2)
        ] + [TrialSpec(policy="kflushing", scale=MICRO, seed=3, shards=2)]

    def _run(self, path, specs, jobs, **switches):
        obs = Instrumentation(sink=JsonlSink(path), **switches)
        with activated(obs):
            results = run_trials(specs, jobs=jobs)
        obs.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        return results, obs.registry.snapshot()["counters"], events

    def test_parallel_matches_serial_events(self, tmp_path):
        specs = self._specs()
        switches = dict(tracing=True, attribution=True)
        serial, serial_counters, serial_events = self._run(
            tmp_path / "serial.jsonl", specs, 1, **switches
        )
        parallel, parallel_counters, parallel_events = self._run(
            tmp_path / "parallel.jsonl", specs, 2, **switches
        )
        for a, b in zip(serial, parallel):
            for name in DETERMINISTIC_FIELDS:
                assert getattr(a, name) == getattr(b, name)
        # Modulo wall-clock fields the streams describe the same events,
        # and every trial's counters land in the scope exactly once.
        assert len(serial_events) == len(parallel_events)
        assert parallel_counters == serial_counters
        assert parallel_counters["flush.count"] > 0
        # Each worker's trace ids carry its own prefix.
        prefixes = {e["trace"].split(".")[0] for e in parallel_events if "trace" in e}
        assert prefixes == {"w000", "w001", "w002"}
        assert not list(tmp_path.glob("parallel.jsonl.w*")), "shards left behind"

    def test_two_grids_in_one_scope_keep_trace_ids_unique(self, tmp_path):
        """A scope that runs two parallel grids (``repro run --figure all
        --jobs 2 --metrics-out``) numbers its workers across both, so no
        trace of the second grid overwrites one of the first."""
        grids = [
            [TrialSpec(policy="kflushing", scale=MICRO, seed=s) for s in seeds]
            for seeds in ((1, 2), (3, 4))
        ]
        roots, reports = {}, {}
        for jobs in (1, 2):
            path = tmp_path / f"jobs{jobs}.jsonl"
            obs = Instrumentation(sink=JsonlSink(path), tracing=True)
            with activated(obs):
                for specs in grids:
                    run_trials(specs, jobs=jobs)
            obs.close()
            events = [json.loads(line) for line in path.read_text().splitlines()]
            roots[jobs] = [
                e["trace"] for e in events
                if e["type"] == "trace" and e["parent_span"] is None
            ]
            reports[jobs] = build_traces_report(events)
        assert len(roots[1]) == len(roots[2]) > 0
        for jobs, ids in roots.items():
            assert len(ids) == len(set(ids)), f"duplicate root ids at jobs={jobs}"
        assert len(reports[2].traces) == len(reports[1].traces) == len(roots[1])
        assert reports[2].duplicate_spans == reports[1].duplicate_spans == 0

    def test_activated_scope_discovery(self, tmp_path):
        specs = self._specs()[:2]
        path = tmp_path / "scope.jsonl"
        _, counters, events = self._run(path, specs, 2)
        assert counters["flush.count"] > 0
        assert any(e["type"] == "flush" for e in events)
        assert not any(e["type"] == "trial_snapshot" for e in events)
        assert not list(tmp_path.glob("scope.jsonl.w*"))
