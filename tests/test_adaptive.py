"""Adaptive-controller tests: neutrality, determinism, and the levers.

The correctness anchors of PR 9:

* **adaptive-off differential** — with ``adaptive=False`` (the default)
  and with a never-firing controller (``adaptive=True`` at a huge
  retune interval), every deterministic ``TrialResult`` field must be
  bit-identical to the static kFlushing run: the heat/ledger
  bookkeeping the flag turns on changes no answers;
* **controller determinism** — two identical adaptive runs produce the
  same results, depths, and adaptive counters (no wall clock, no
  per-process hash order anywhere in the decisions);
* **controller effect** — what the controller buys, as literal
  per-seed hit ratios of static/adaptive pairs at one byte budget (the
  trials are pure functions of spec and seed, so ``==`` holds);
* **k_i >= k property** (hypothesis) — no sequence of allocator
  operations can push a per-key retention depth below the global ``k``,
  the structural invariant answer completeness rests on;
* **ledger overflow** — a tiny ``eviction_ledger_capacity`` overflows
  visibly: the ``eviction_ledger.dropped`` counter counts every evicted
  attribution record instead of dropping them silently.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.core.adaptive import (
    AdaptiveController,
    AdaptiveSettings,
    KAllocator,
    KeyHeat,
    ShardBudgetBalancer,
)
from repro.engine.queries import CombineMode
from repro.engine.sharded import build_system
from repro.errors import ConfigurationError
from repro.experiments.runner import TrialSpec, _warm_up, run_trial
from repro.experiments.scale import TINY
from repro.obs import Instrumentation
from repro.workload.queryload import QueryLoad, QueryLoadConfig
from repro.workload.stream import MicroblogStream, StreamConfig
from tests.test_experiments import MICRO
from tests.test_sharding import DETERMINISTIC_FIELDS

#: A retune interval no MICRO-scale run ever reaches: the controller is
#: armed (heat tracking, ledger, allocator all live) but never fires.
NEVER = 1_000_000


def _fields(result) -> dict:
    return {name: getattr(result, name) for name in DETERMINISTIC_FIELDS}


class TestAdaptiveOffDifferential:
    @pytest.mark.parametrize("policy", ["fifo", "kflushing", "kflushing-mk", "lru"])
    def test_armed_but_idle_controller_is_bit_identical(self, policy):
        """adaptive=True with a never-firing controller changes nothing:
        the feedback bookkeeping is provably off the answer path."""
        static = run_trial(TrialSpec(policy=policy, scale=MICRO, seed=11))
        armed = run_trial(
            TrialSpec(
                policy=policy,
                scale=MICRO,
                seed=11,
                adaptive=True,
                adaptive_interval=NEVER,
            )
        )
        assert _fields(static) == _fields(armed)

    @pytest.mark.parametrize("shards", [1, 4])
    def test_sharded_armed_idle_differential(self, shards):
        static = run_trial(
            TrialSpec(policy="kflushing", scale=MICRO, seed=11, shards=shards)
        )
        armed = run_trial(
            TrialSpec(
                policy="kflushing",
                scale=MICRO,
                seed=11,
                shards=shards,
                adaptive=True,
                adaptive_interval=NEVER,
            )
        )
        assert _fields(static) == _fields(armed)

    def test_default_config_has_no_controller(self):
        system = build_system(SystemConfig(memory_capacity_bytes=200_000))
        assert system.engine.adaptive is None
        assert system.engine.allocator is None
        assert system.engine.key_heat is None


class TestControllerDeterminism:
    def _adaptive_trial(self):
        return run_trial(
            TrialSpec(policy="kflushing", scale=MICRO, seed=11, adaptive=True)
        )

    def test_identical_runs_identical_results(self):
        assert _fields(self._adaptive_trial()) == _fields(self._adaptive_trial())

    def test_identical_runs_identical_depths_and_counters(self):
        def run():
            config = SystemConfig(
                policy="kflushing",
                k=5,
                memory_capacity_bytes=120_000,
                adaptive=True,
            )
            obs = Instrumentation()
            system = build_system(config, obs=obs)
            stream = MicroblogStream(
                StreamConfig(seed=3, vocabulary_size=300, with_locations=False)
            )
            queries = QueryLoad(
                QueryLoadConfig(seed=4, mode="correlated", k=5), stream
            )
            for i, record in enumerate(stream.take(6_000)):
                system.ingest(record)
                if i % 2 == 0:
                    system.search(queries.next_query())
            allocator = system.engine.allocator
            depths = {
                key: allocator.depth_of(key) for key in allocator.deepened_keys()
            }
            counters = {
                name: value
                for name, value in obs.registry.snapshot()["counters"].items()
                if name.startswith("adaptive.")
            }
            return depths, counters

        first, second = run(), run()
        assert first == second
        depths, counters = first
        assert counters["adaptive.retune_cycles"] > 0
        assert depths, "expected at least one deepened key"


class TestControllerEffect:
    """Static vs adaptive kFlushing on the identical workload and byte
    budget (TINY, seed 42); the ``adaptive`` flag is the only difference
    inside a pair, so the pinned delta isolates the controller."""

    @pytest.mark.parametrize(
        "mode, keyword_zipf, memory_gb, static, adaptive",
        [
            # No signal to exploit: adaptivity must not hurt.
            ("uniform", None, 10.0, 0.012833333333333334, 0.013),
            # Hot head under a tight budget: deeper hot keys pay (+4.3 pp).
            ("correlated", 1.2, 10.0, 0.49133333333333334, 0.5345),
            # Same stream with room to spare: nothing left to win.
            ("correlated", 1.2, 30.0, 0.6123333333333333, 0.6123333333333333),
        ],
        ids=["uniform-tight", "zipf-hot-tight", "zipf-hot-normal"],
    )
    def test_hit_ratio_pair(self, mode, keyword_zipf, memory_gb, static, adaptive):
        spec = TrialSpec(
            policy="kflushing",
            scale=TINY,
            seed=42,
            memory_gb=memory_gb,
            workload_mode=mode,
            keyword_zipf=keyword_zipf,
        )
        assert run_trial(spec).hit_ratio == static
        assert run_trial(dataclasses.replace(spec, adaptive=True)).hit_ratio == adaptive

    @pytest.mark.parametrize(
        "adaptive, overall, and_only",
        [
            (False, 0.21733333333333332, 0.0),
            (True, 0.23866666666666667, 0.036440677966101696),
        ],
        ids=["static", "adaptive"],
    )
    def test_and_heavy_mix_under_a_tight_budget(self, adaptive, overall, and_only):
        """60 % AND queries: promoting the keys of missed AND pairs lifts
        the AND hit ratio off zero.  Warm-up issues no query, so the
        system's own counters cover exactly the measured window."""
        spec = TrialSpec(
            policy="kflushing", scale=TINY, seed=42, memory_gb=10.0, adaptive=adaptive
        )
        system = spec.build_system()
        stream = spec.build_stream()
        queries = QueryLoad(
            QueryLoadConfig(seed=43, mode="correlated", k=20, mix=(0.2, 0.6, 0.2)),
            stream,
        )
        _warm_up(system, stream, spec)
        for record in stream.take(TINY.eval_records):
            system.ingest(record)
            system.search(queries.next_query())
        assert system.hit_ratio() == overall
        assert system.stats.queries.hit_ratio_for(CombineMode.AND) == and_only


class TestKAllocator:
    def test_depth_floor_and_sparse_default(self):
        alloc = KAllocator(20)
        assert alloc.depth_of("a") == 20
        assert alloc.set_depth("a", 5) == 20  # clamped to the floor
        assert len(alloc) == 0  # floor depths are not stored
        assert alloc.set_depth("a", 80) == 80
        assert alloc.depth_of("a") == 80
        assert len(alloc) == 1

    def test_rebase_drops_shallow_depths(self):
        alloc = KAllocator(10)
        alloc.set_depth("a", 15)
        alloc.set_depth("b", 40)
        alloc.rebase(20)
        assert alloc.depth_of("a") == 20  # 15 <= new floor, dropped
        assert alloc.depth_of("b") == 40
        assert alloc.max_depth() == 40

    def test_rejects_nonpositive_base(self):
        with pytest.raises(ValueError):
            KAllocator(0)
        with pytest.raises(ValueError):
            KAllocator(10).rebase(-1)

    @given(
        base_k=st.integers(min_value=1, max_value=64),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["set", "rebase"]),
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=-50, max_value=500),
            ),
            max_size=60,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_depth_never_below_global_k(self, base_k, ops):
        """The structural invariant: whatever sequence of promotions,
        demotions, and dynamic-k rebases runs, every per-key retention
        depth stays >= the current global k."""
        alloc = KAllocator(base_k)
        keys = [f"key{i}" for i in range(10)]
        for op, key_idx, value in ops:
            if op == "set":
                alloc.set_depth(keys[key_idx], value)
            else:
                if value >= 1:
                    alloc.rebase(value)
        for key in keys:
            assert alloc.depth_of(key) >= alloc.base_k
        assert alloc.max_depth() >= alloc.base_k


class TestKeyHeat:
    def test_query_and_miss_counting(self):
        heat = KeyHeat()
        heat.note_query(("a", "b"), hit=True)
        heat.note_query(("a",), hit=False)
        assert heat.queried == {"a": 2, "b": 1}
        assert heat.missed == {"a": 1}

    def test_decay_halves_and_drops_zeros(self):
        heat = KeyHeat()
        heat.note_query(("a",) * 4, hit=False)
        heat.note_query(("b",), hit=False)
        heat.decay()
        assert heat.queried == {"a": 2}  # b's count 1 -> 0, dropped
        assert heat.missed == {"a": 2}

    def test_top_order_is_stable(self):
        heat = KeyHeat()
        heat.note_query(("b", "a", "c"), hit=False)
        # All counts equal: ties break on repr, not insertion order.
        assert [k for k, _ in heat.top_queried(3)] == ["a", "b", "c"]


class TestControllerLevers:
    def _engine_stub(self):
        config = SystemConfig(
            policy="kflushing", k=5, memory_capacity_bytes=200_000, adaptive=True
        )
        return build_system(config)

    def test_promotion_and_demotion(self):
        system = self._engine_stub()
        engine = system.engine
        controller = engine.adaptive
        heat = engine.key_heat
        for _ in range(10):
            heat.note_query(("hot",), hit=False)
        controller.retune(engine)
        assert engine.allocator.depth_of("hot") > engine.k
        # Once the key cools off the depth decays back toward k.
        for _ in range(40):
            for key in ("x", "y", "z"):
                heat.note_query((key,), hit=True)
            controller.retune(engine)
        assert engine.allocator.depth_of("hot") == engine.k

    def test_depth_capped_at_k_max(self):
        system = self._engine_stub()
        engine = system.engine
        controller = engine.adaptive
        k_max = controller.settings.resolved_k_max(engine.k)
        for _ in range(30):
            engine.key_heat.note_query(("hot",), hit=False)
            controller.retune(engine)
        assert engine.allocator.depth_of("hot") == k_max

    def test_slack_follows_wholesale_miss_fraction(self):
        system = self._engine_stub()
        engine = system.engine
        controller = engine.adaptive
        step = controller.settings.slack_step
        for _ in range(20):
            controller.observe(False, "phase3-forced")
        controller.retune(engine)
        assert engine.escalation_slack == pytest.approx(step)
        # A window of phase-1 misses decays the slack back down.
        for _ in range(20):
            controller.observe(False, "phase1-regular")
        controller.retune(engine)
        assert engine.escalation_slack == pytest.approx(0.0)

    def test_slack_needs_minimum_window(self):
        system = self._engine_stub()
        engine = system.engine
        controller = engine.adaptive
        for _ in range(controller.settings.min_window_misses - 1):
            controller.observe(False, "phase3-forced")
        controller.retune(engine)
        assert engine.escalation_slack == 0.0


class TestShardBudgetBalancer:
    def _sharded(self, shards=4):
        return build_system(
            SystemConfig(
                memory_capacity_bytes=400_000, shards=shards, adaptive=True
            )
        )

    def test_rebalance_is_bounded_and_sum_preserving(self):
        system = self._sharded()
        shards = system.shards
        total0 = sum(s.capacity_bytes for s in shards)
        balancer = system._balancer
        assert balancer is not None
        # Fake a skewed flush window: shard 0 flushed, others idle.
        balancer._last_counts = [0] * len(shards)
        shards[0].engine.flush_reports.extend([object()] * 5)
        balancer.rebalance(system)
        assert sum(s.capacity_bytes for s in shards) == total0
        step = int(total0 * balancer.settings.shard_step)
        assert shards[0].capacity_bytes <= total0 // len(shards) + step
        # The engine's own budget field moved with the shard's.
        for shard in shards:
            assert shard.engine.capacity_bytes == shard.capacity_bytes

    def test_floor_prevents_starvation(self):
        system = self._sharded()
        shards = system.shards
        balancer = system._balancer
        for round_ in range(50):
            balancer._last_counts = [0] * len(shards)
            shards[0].engine.flush_reports.extend([object()] * 3)
            balancer.rebalance(system)
        for shard, floor in zip(shards, balancer._floors):
            assert shard.capacity_bytes >= floor

    def test_single_shard_has_no_balancer(self):
        system = build_system(
            SystemConfig(memory_capacity_bytes=200_000, adaptive=True)
        )
        assert getattr(system, "_balancer", None) is None


class TestEvictionLedgerOverflow:
    def test_tiny_ledger_counts_drops(self):
        """Overflowing the attribution ledger is visible, not silent."""
        obs = Instrumentation(attribution=True)
        config = SystemConfig(
            policy="kflushing",
            k=5,
            memory_capacity_bytes=60_000,
            eviction_ledger_capacity=4,
        )
        system = build_system(config, obs=obs)
        stream = MicroblogStream(
            StreamConfig(seed=5, vocabulary_size=500, with_locations=False)
        )
        system.ingest_many(stream.take(20_000))
        counters = obs.registry.snapshot()["counters"]
        assert counters["eviction_ledger.dropped"] > 0
        assert len(system.engine.eviction_ledger) <= 4

    def test_default_capacity_never_drops_here(self):
        obs = Instrumentation(attribution=True)
        system = build_system(
            SystemConfig(
                policy="kflushing", k=5, memory_capacity_bytes=60_000
            ),
            obs=obs,
        )
        stream = MicroblogStream(
            StreamConfig(seed=5, vocabulary_size=500, with_locations=False)
        )
        system.ingest_many(stream.take(20_000))
        counters = obs.registry.snapshot()["counters"]
        # The counter exists (pre-created with the ledger) and is zero.
        assert counters["eviction_ledger.dropped"] == 0


class TestHotKeysSnapshot:
    def test_snapshot_carries_hot_keys_when_heat_is_on(self):
        config = SystemConfig(
            policy="kflushing", k=5, memory_capacity_bytes=150_000, adaptive=True
        )
        system = build_system(config)
        stream = MicroblogStream(
            StreamConfig(seed=6, vocabulary_size=300, with_locations=False)
        )
        queries = QueryLoad(QueryLoadConfig(seed=7, mode="correlated", k=5), stream)
        for i, record in enumerate(stream.take(8_000)):
            system.ingest(record)
            if i % 4 == 0:
                system.search(queries.next_query())
        snap = system.snapshot()
        hot = snap["hot_keys"]
        assert hot["most_queried"], "expected a non-empty most-queried table"
        for key, count in hot["most_queried"]:
            assert isinstance(key, str) and count > 0
        counts = [count for _key, count in hot["most_queried"]]
        assert counts == sorted(counts, reverse=True)

    def test_snapshot_has_no_hot_keys_by_default(self):
        system = build_system(SystemConfig(memory_capacity_bytes=150_000))
        assert "hot_keys" not in system.snapshot()


class TestConfigValidation:
    def test_rejects_bad_adaptive_knobs(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(memory_capacity_bytes=1000, adaptive_interval=0)
        with pytest.raises(ConfigurationError):
            SystemConfig(memory_capacity_bytes=1000, k=20, adaptive_k_max=10)
        with pytest.raises(ConfigurationError):
            SystemConfig(memory_capacity_bytes=1000, adaptive_hot_keys=0)
        with pytest.raises(ConfigurationError):
            SystemConfig(memory_capacity_bytes=1000, adaptive_shard_step=1.5)
        with pytest.raises(ConfigurationError):
            SystemConfig(memory_capacity_bytes=1000, eviction_ledger_capacity=0)

    def test_settings_resolution(self):
        config = SystemConfig(memory_capacity_bytes=1000, adaptive=True)
        settings = config.adaptive_settings()
        assert isinstance(settings, AdaptiveSettings)
        assert SystemConfig(memory_capacity_bytes=1000).adaptive_settings() is None
