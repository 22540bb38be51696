"""Instrumentation wiring: the obs subsystem observed through the stack."""

import json
import time

import pytest

from repro.config import SystemConfig
from repro.core.eviction_ledger import EvictionLedger, KeyHeat
from repro.engine.queries import AndQuery, KeywordQuery, OrQuery, TopKQuery
from repro.engine.sharded import build_system
from repro.engine.system import MicroblogSystem
from repro.experiments.runner import TrialSpec, run_trial
from repro.experiments.scale import TINY
from repro.obs import Instrumentation, ListSink, activated
from repro.model.attributes import AttributeExtractor
from repro.obs.events import EventSink
from repro.workload.queryload import QueryLoad, QueryLoadConfig
from repro.workload.stream import MicroblogStream, StreamConfig
from tests.conftest import make_blog, make_blogs


def observed_system(**overrides):
    defaults = dict(policy="kflushing", k=3, memory_capacity_bytes=5_000)
    defaults.update(overrides)
    sink = ListSink()
    obs = Instrumentation(sink=sink)
    system = MicroblogSystem(SystemConfig(**defaults), obs=obs)
    return system, obs, sink


class TestFlushInstrumentation:
    def test_flush_emits_span_and_event(self):
        system, obs, sink = observed_system()
        for blog in make_blogs(60):
            system.ingest(blog)
        assert len(system.flush_reports()) >= 1
        flush_events = sink.of_type("flush")
        assert len(flush_events) == len(system.flush_reports())
        event = flush_events[0]
        assert event["policy"] == "kflushing"
        assert event["freed_bytes"] > 0
        assert "phase1-regular" in event["phase_freed"]
        spans = {e["name"] for e in sink.of_type("span")}
        assert "flush" in spans
        assert "flush.phase1-regular" in spans

    def test_phase_spans_nest_under_flush(self):
        system, obs, sink = observed_system()
        for blog in make_blogs(60):
            system.ingest(blog)
        parents = {
            e["name"]: e["parent"]
            for e in sink.of_type("span")
            if e["name"].startswith("flush.")
        }
        assert parents, "expected per-phase spans"
        assert set(parents.values()) == {"flush"}

    def test_phase_counters_sum_to_total_freed(self):
        system, obs, sink = observed_system()
        for blog in make_blogs(120):
            system.ingest(blog)
        counters = system.snapshot()["counters"]
        total = counters["flush.freed_bytes"]
        by_phase = sum(
            value
            for name, value in counters.items()
            if name.startswith("flush.phase") and name.endswith(".freed_bytes")
        )
        assert total > 0
        assert by_phase == total

    def test_flush_count_matches_reports(self):
        system, obs, sink = observed_system()
        for blog in make_blogs(120):
            system.ingest(blog)
        assert system.snapshot()["counters"]["flush.count"] == len(
            system.flush_reports()
        )


class _SlowFlushSink(EventSink):
    """Sleeps on the events the flush *wrapper* emits (the outer
    ``flush`` trace/span and the ``flush`` event) — never on the
    per-phase spans inside the timed eviction work."""

    def __init__(self, delay: float) -> None:
        self.delay = delay
        self.slept = 0

    def emit(self, event: dict) -> None:
        type_ = event.get("type")
        if type_ == "flush" or (
            type_ in ("span", "trace") and event.get("name") == "flush"
        ):
            self.slept += 1
            time.sleep(self.delay)


class TestFlushWallTiming:
    def test_wall_seconds_excludes_obs_overhead(self):
        sink = _SlowFlushSink(delay=0.05)
        obs = Instrumentation(sink=sink, tracing=True)
        system = MicroblogSystem(
            SystemConfig(policy="kflushing", memory_capacity_bytes=20_000), obs=obs
        )
        for blog in make_blogs(250):
            system.ingest(blog)
        reports = system.flush_reports()
        assert reports, "no flush happened"
        assert sink.slept >= 3  # the slow wrapper events really fired
        # The eviction work at this scale is ~1ms; had the timer wrapped
        # the trace/span managers (the old bug), every report would
        # carry >= one 50ms sleep.
        for report in reports:
            assert report.wall_seconds < 0.05, report.wall_seconds


class TestQueryInstrumentation:
    def test_per_mode_hit_miss_counters(self):
        system, obs, sink = observed_system(memory_capacity_bytes=60_000)
        for blog in make_blogs(6, keywords=("hot",)):
            system.ingest(blog)
        system.search(KeywordQuery("hot", k=3))   # hit
        system.search(KeywordQuery("cold", k=3))  # miss -> disk
        system.search(OrQuery(["hot", "cold"], k=3))
        system.search(AndQuery(["hot", "cold"], k=3))
        counters = system.snapshot()["counters"]
        assert counters["query.single.hits"] == 1
        assert counters["query.single.misses"] == 1
        assert counters["query.or.misses"] == 1
        assert sum(counters[f"query.{m}.disk_lookups"] for m in ("single", "or", "and")) >= 2
        events = sink.of_type("query")
        assert len(events) == 4
        assert {e["mode"] for e in events} == {"single", "or", "and"}

    def test_query_latency_histogram_counts_every_query(self):
        system, obs, sink = observed_system(memory_capacity_bytes=60_000)
        for blog in make_blogs(6, keywords=("hot",)):
            system.ingest(blog)
        for _ in range(5):
            system.search(KeywordQuery("hot", k=3))
        hist = system.snapshot()["histograms"]["query.simulated_latency_seconds"]
        assert hist["count"] == 5


class TestSnapshotAndRuntime:
    def test_snapshot_is_json_serialisable(self):
        system, obs, sink = observed_system()
        for blog in make_blogs(60):
            system.ingest(blog)
        snap = system.snapshot()
        assert json.loads(json.dumps(snap)) == snap

    def test_system_adopts_active_instrumentation(self):
        obs = Instrumentation(sink=ListSink())
        with activated(obs):
            system = MicroblogSystem(
                SystemConfig(policy="kflushing", k=3, memory_capacity_bytes=5_000)
            )
        assert system.obs is obs

    def test_explicit_obs_beats_active(self):
        scoped = Instrumentation()
        explicit = Instrumentation()
        with activated(scoped):
            system = MicroblogSystem(
                SystemConfig(policy="kflushing", k=3, memory_capacity_bytes=5_000),
                obs=explicit,
            )
        assert system.obs is explicit


class TestRunnerMetrics:
    def test_run_trial_writes_metrics_jsonl(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        spec = TrialSpec(policy="kflushing", scale=TINY, seed=3)
        run_trial(spec, metrics_path=path)
        events = [json.loads(line) for line in path.read_text().splitlines()]
        types = {e["type"] for e in events}
        assert {"flush", "query", "span", "trial_snapshot"} <= types
        snapshot = [e for e in events if e["type"] == "trial_snapshot"][-1]
        assert snapshot["policy"] == "kflushing"
        counters = snapshot["metrics"]["counters"]
        assert counters["flush.count"] > 0
        assert any(name.startswith("query.") for name in counters)
        assert any(name.startswith("disk.") for name in counters)


class TestEvictionLedgerOverflow:
    def test_tiny_ledger_counts_drops(self):
        """Overflowing the attribution ledger is visible, not silent."""
        obs = Instrumentation(attribution=True)
        config = SystemConfig(policy="kflushing", k=5, memory_capacity_bytes=60_000)
        system = build_system(config, obs=obs)
        system.engine.eviction_ledger = EvictionLedger(4)
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


class _TextAttribute(AttributeExtractor):
    """Indexes each record under its text, so a test picks the keys."""

    name = "text"

    def keys(self, record):
        return (record.text,)


class TestHotKeysSnapshot:
    def test_snapshot_carries_hot_keys_when_heat_is_on(self):
        config = SystemConfig(
            policy="kflushing", k=5, memory_capacity_bytes=150_000
        )
        system = build_system(config, obs=Instrumentation(attribution=True))
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

    def test_tie_order_does_not_depend_on_shard_count(self):
        """``"a"`` and ``"b'"`` sort one way by ``str`` and the other by
        ``repr`` (and live on different shards of four): equal heat must
        print the same table at one partition and at four."""
        keys = ("a", "b'", "c")
        tables = {}
        for shards in (1, 4):
            config = SystemConfig(
                k=3,
                memory_capacity_bytes=400_000,
                shards=shards,
                attribute=_TextAttribute(),
            )
            system = build_system(config, obs=Instrumentation(attribution=True))
            for key in keys:
                system.ingest(make_blog(text=key))
            for _ in range(3):
                for key in keys:
                    system.search(TopKQuery(keys=(key,), k=3))
            tables[shards] = system.hot_keys()
        assert tables[1]["most_queried"] == [["b'", 3], ["a", 3], ["c", 3]]
        assert tables[4] == tables[1]


class TestKeyHeat:
    def test_query_counting(self):
        heat = KeyHeat()
        heat.note_query(("a", "b"))
        heat.note_query(("a",))
        assert heat.queried == {"a": 2, "b": 1}

    def test_top_order_is_stable(self):
        heat = KeyHeat()
        heat.note_query(("b", "a", "c"))
        # All counts equal: ties break on repr, not insertion order.
        assert [k for k, _ in heat.top_queried(3)] == ["a", "b", "c"]


def _drive(config: SystemConfig, records: int = 15_000):
    system = build_system(config)
    stream = MicroblogStream(
        StreamConfig(seed=11, vocabulary_size=2_000, with_locations=False)
    )
    system.ingest_many(stream.take(records))
    return system


class TestWatermarks:
    """The ``watermark.*`` peaks, raised at flush boundaries."""

    def test_peak_is_run_wide_across_systems(self):
        """Every system of a run shares one registry, so a later, smaller
        trial must not lower the peak an earlier one set."""
        stream = MicroblogStream(
            StreamConfig(seed=11, vocabulary_size=2_000, with_locations=False)
        )
        obs = Instrumentation()
        peaks = []
        with activated(obs):
            for capacity in (2_000_000, 500_000):
                system = build_system(SystemConfig(memory_capacity_bytes=capacity))
                system.ingest_many(stream.take(40_000))
                peaks.append(obs.registry.snapshot()["gauges"]["watermark.memory.bytes_used"])
        assert peaks[0] > 500_000
        assert peaks[1] == peaks[0]

    def test_watermark_names_do_not_depend_on_shard_count(self):
        """One rule: with every optional source on (the ledger), the
        watermark set at 4 shards is the one-partition set plus the
        per-shard memory marks — bound at construction, before any flush."""
        names = {}
        for shards in (1, 4):
            config = SystemConfig(memory_capacity_bytes=400_000, shards=shards)
            system = build_system(config, obs=Instrumentation(attribution=True))
            names[shards] = {
                name
                for name in system.obs.registry.snapshot()["gauges"]
                if "watermark." in name
            }
        assert "watermark.eviction_ledger.entries" in names[1]
        assert names[4] - names[1] == {
            f"shard.{i}.watermark.memory.bytes_used" for i in range(4)
        }
        assert names[1] <= names[4]

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param({}, id="unsharded"),
            pytest.param({"shards": 4}, id="sharded"),
        ],
    )
    def test_watermarks_surface_in_registry(self, overrides):
        config = SystemConfig(memory_capacity_bytes=400_000, **overrides)
        system = _drive(config)
        gauges = system.obs.registry.snapshot()["gauges"]
        assert gauges["watermark.memory.bytes_used"] > 0
        if overrides.get("shards"):
            assert all(
                gauges[f"shard.{i}.watermark.memory.bytes_used"] > 0
                for i in range(overrides["shards"])
            )
