"""Trace trees, eviction-cause miss attribution, registry merging, and
offline trace analysis (``repro trace``)."""

import json

import pytest

from repro.cli import main as cli_main
from repro.config import SystemConfig
from repro.core.eviction_ledger import (
    ALL_CAUSES,
    CAUSE_NEVER_RESIDENT,
    EvictionLedger,
    EvictionRecord,
)
from repro.engine.queries import AndQuery, KeywordQuery, OrQuery
from repro.engine.sharded import ShardRouter
from repro.engine.system import MicroblogSystem
from repro.obs import (
    Histogram,
    Instrumentation,
    ListSink,
    MetricsRegistry,
    to_prometheus_text,
)
from repro.obs.traceview import (
    build_traces,
    build_traces_report,
    flush_attribution,
    load_events,
    miss_cause_table,
    query_summaries,
)
from tests.conftest import make_blog, make_blogs

POLICIES = ("fifo", "kflushing", "kflushing-mk", "lru")
WORDS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta")


def traced_system(policy="kflushing", shards=1, **overrides):
    defaults = dict(policy=policy, k=3, memory_capacity_bytes=6_000, shards=shards)
    defaults.update(overrides)
    sink = ListSink()
    obs = Instrumentation(sink=sink, tracing=True, attribution=True)
    config = SystemConfig(**defaults)
    return MicroblogSystem(config, obs=obs), obs, sink


def churn(system, records=240):
    """Ingest enough varied-keyword records to force flushes."""
    for i in range(records):
        system.ingest(make_blog(keywords=(WORDS[i % len(WORDS)],)))


def run_query_mix(system):
    for word in WORDS:
        system.search(KeywordQuery(word, k=3))
    system.search(OrQuery(("alpha", "beta"), k=3))
    system.search(OrQuery(("gamma", "nosuchword"), k=3))
    system.search(AndQuery(("alpha", "beta"), k=3))
    system.search(AndQuery(("delta", "epsilon"), k=3))
    system.search(KeywordQuery("neverseen", k=3))


class TestPercentileClamp:
    def test_percentile_never_exceeds_observed_max(self):
        # Regression: percentile used to return the bucket's upper bound
        # (scale * 2^(i+1)), which can overshoot the largest recorded
        # value — e.g. a single 7.0 sample landed in the bucket whose
        # bound is ~8.39, and p50 reported 8.39.
        hist = Histogram()
        hist.record(7.0)
        assert hist.percentile(50.0) == pytest.approx(7.0)
        assert hist.percentile(99.0) == pytest.approx(7.0)

    def test_percentile_still_brackets_from_below(self):
        hist = Histogram()
        for _ in range(100):
            hist.record(1e-3)
        assert 1e-3 <= hist.percentile(95.0) <= 1e-3 * (1 + 1e-9)


class TestEvictionLedger:
    def test_record_and_get(self):
        ledger = EvictionLedger()
        ledger.record("alpha", "phase1-regular", at=3.0, postings=5)
        record = ledger.get("alpha")
        assert record == EvictionRecord("phase1-regular", 3.0, 5)
        assert ledger.get("missing") is None
        assert "alpha" in ledger and len(ledger) == 1

    def test_rerecord_overwrites(self):
        ledger = EvictionLedger()
        ledger.record("alpha", "phase1-regular", at=1.0, postings=2)
        ledger.record("alpha", "phase3-forced", at=9.0, postings=1)
        assert ledger.get("alpha").cause == "phase3-forced"
        assert len(ledger) == 1

    def test_capacity_is_bounded_fifo_on_staleness(self):
        ledger = EvictionLedger(capacity=3)
        for i in range(5):
            ledger.record(f"k{i}", "whole-key-fifo", at=float(i), postings=1)
        assert len(ledger) == 3
        assert ledger.get("k0") is None and ledger.get("k1") is None
        assert ledger.get("k4") is not None

    def test_rerecord_refreshes_position(self):
        ledger = EvictionLedger(capacity=2)
        ledger.record("a", "whole-key-lru", at=1.0, postings=1)
        ledger.record("b", "whole-key-lru", at=2.0, postings=1)
        ledger.record("a", "whole-key-lru", at=3.0, postings=1)  # refresh a
        ledger.record("c", "whole-key-lru", at=4.0, postings=1)  # evicts b
        assert ledger.get("a") is not None and ledger.get("b") is None

    def test_cause_constants_match_phase_names(self):
        from repro.core.phases import PHASE_AGGRESSIVE, PHASE_FORCED, PHASE_REGULAR

        assert {PHASE_REGULAR, PHASE_AGGRESSIVE, PHASE_FORCED} <= set(ALL_CAUSES)
        assert CAUSE_NEVER_RESIDENT in ALL_CAUSES


class TestDeterministicTraceIds:
    def test_ids_are_reproducible_across_instances(self):
        def collect():
            sink = ListSink()
            obs = Instrumentation(sink=sink, tracing=True)
            for _ in range(3):
                with obs.trace("query"):
                    with obs.trace_span("disk.lookup"):
                        pass
            return [(e["trace"], e["span"], e["parent_span"]) for e in sink.events]

        assert collect() == collect()

    def test_trace_ids_are_serial_and_prefixed(self):
        sink = ListSink()
        obs = Instrumentation(sink=sink, tracing=True, trace_prefix="w007.")
        with obs.trace("query"):
            pass
        with obs.trace("flush"):
            pass
        ids = [e["trace"] for e in sink.events]
        assert ids == ["w007.query-1", "w007.flush-2"]

    def test_children_emitted_before_root(self):
        sink = ListSink()
        obs = Instrumentation(sink=sink, tracing=True)
        with obs.trace("query"):
            with obs.trace_span("child"):
                pass
        names = [e["name"] for e in sink.events]
        assert names == ["child", "query"]
        root = sink.events[-1]
        assert root["span"] == 0 and root["parent_span"] is None
        assert all(e["parent_span"] == 0 for e in sink.events[:-1])

    def test_tracing_off_emits_nothing_and_yields_none(self):
        sink = ListSink()
        obs = Instrumentation(sink=sink)
        with obs.trace("query") as ctx:
            assert ctx is None
        with obs.trace_span("child") as extra:
            assert extra is None
        assert sink.events == []

    def test_span_events_join_open_trace(self):
        sink = ListSink()
        obs = Instrumentation(sink=sink, tracing=True)
        with obs.trace("flush"):
            with obs.span("flush.phase1-regular"):
                pass
        phase = [e for e in sink.events if e["name"] == "flush.phase1-regular"][0]
        assert phase["trace"] == "flush-1" and phase["parent_span"] == 0


class TestTracePropagation:
    def _query_traces(self, shards):
        system, obs, sink = traced_system(shards=shards)
        churn(system)
        run_query_mix(system)
        events = [e for e in sink.events if "trace" in e and "span" in e]
        traces = build_traces(events)
        queries = [t for t in traces if t.name == "query"]
        assert queries, "expected query traces"
        return system, queries

    @pytest.mark.parametrize("shards", [1, 4])
    def test_child_spans_sum_within_parent(self, shards):
        _, queries = self._query_traces(shards)
        for trace in queries:
            for node in trace.root.walk():
                assert node.child_seconds <= node.seconds + 1e-6

    def test_sharded_spans_reference_only_owning_shards(self):
        system, queries = self._query_traces(shards=4)
        router = ShardRouter(4)
        checked = 0
        for trace in queries:
            for node in trace.root.walk():
                if node.name in ("shard.memory.lookup", "shard.disk.lookup"):
                    assert node.fields["shard"] == router.shard_of(node.fields["key"])
                    checked += 1
        assert checked > 0

    def test_flush_traces_carry_phase_children(self):
        system, obs, sink = traced_system()
        churn(system)
        traces = build_traces([e for e in sink.events if "trace" in e and "span" in e])
        flushes = [t for t in traces if t.name == "flush"]
        assert flushes
        phases = {
            node.name
            for trace in flushes
            for node in trace.root.walk()
            if node.name.startswith("flush.phase")
        }
        assert "flush.phase1-regular" in phases
        for trace in flushes:
            assert trace.root.fields["policy"] == "kflushing"
            assert "freed_bytes" in trace.root.fields


class TestMissAttribution:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_per_cause_counts_sum_to_misses_per_mode(self, policy):
        system, obs, sink = traced_system(policy=policy)
        churn(system)
        for _ in range(3):
            run_query_mix(system)
        counters = obs.registry.snapshot()["counters"]
        total_misses = 0
        for mode in ("single", "or", "and"):
            misses = counters.get(f"query.{mode}.misses", 0)
            attributed = sum(
                value
                for name, value in counters.items()
                if name.startswith(f"query.{mode}.miss.cause.")
            )
            assert attributed == misses, (policy, mode)
            total_misses += misses
        assert total_misses > 0, "workload produced no misses"
        assert sum(system.miss_attribution().values()) == total_misses

    def test_causes_use_known_taxonomy(self):
        for policy in POLICIES:
            system, obs, sink = traced_system(policy=policy)
            churn(system)
            run_query_mix(system)
            assert set(system.miss_attribution()) <= set(ALL_CAUSES)

    def test_never_resident_key_attributed(self):
        system, obs, sink = traced_system()
        system.search(KeywordQuery("ghost", k=3))
        assert system.miss_attribution() == {CAUSE_NEVER_RESIDENT: 1}

    def test_miss_events_carry_cause(self):
        system, obs, sink = traced_system()
        churn(system)
        run_query_mix(system)
        misses = [e for e in sink.of_type("query") if not e["hit"]]
        assert misses
        assert all(e.get("miss_cause") in ALL_CAUSES for e in misses)

    def test_attribution_off_keeps_ledger_none(self):
        obs = Instrumentation()
        system = MicroblogSystem(
            SystemConfig(policy="kflushing", k=3, memory_capacity_bytes=6_000), obs=obs
        )
        churn(system)
        run_query_mix(system)
        assert system.miss_attribution() == {}
        assert system.engine.eviction_ledger is None


class TestRegistryMerge:
    def _loaded(self, values):
        registry = MetricsRegistry()
        registry.counter("query.single.hits").inc(3)
        registry.gauge("memory.bytes").set(7)
        hist = registry.histogram("lat")
        for value in values:
            hist.record(value)
        return registry

    def test_counters_sum_gauges_last_write(self):
        a = self._loaded([0.1])
        b = self._loaded([0.2])
        b.gauge("memory.bytes").set(99)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["query.single.hits"] == 6
        assert snap["gauges"]["memory.bytes"] == 99

    def test_histogram_merge_is_exact(self):
        left_values = [0.001 * (i + 1) for i in range(50)]
        right_values = [0.004 * (i + 1) for i in range(50)]
        a = self._loaded(left_values)
        b = self._loaded(right_values)
        combined = Histogram()
        for value in left_values + right_values:
            combined.record(value)
        a.merge(b.snapshot())
        merged = a.snapshot()["histograms"]["lat"]
        reference = combined.snapshot()
        for field in ("count", "sum", "min", "max", "p50", "p95", "p99", "buckets"):
            assert merged[field] == pytest.approx(reference[field]), field

    def test_merge_scale_mismatch_rejected(self):
        hist = Histogram(scale=1e-6)
        with pytest.raises(ValueError):
            hist.merge_snapshot({"count": 1, "sum": 1.0, "scale": 1e-3})

    def test_counter_values_prefix_view(self):
        registry = MetricsRegistry()
        registry.counter("query.miss.cause.phase1-regular").inc(4)
        registry.counter("query.miss.cause.never-resident").inc()
        registry.counter("query.single.hits").inc()
        assert registry.counter_values("query.miss.cause.") == {
            "phase1-regular": 4,
            "never-resident": 1,
        }


class TestPrometheusGolden:
    def test_golden_text_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("query.single.hits").inc(3)
        registry.counter("shard.0.disk.index_lookups").inc(2)
        registry.gauge("memory.bytes").set(123)
        hist = registry.histogram("span.flush.seconds")
        hist.record(0.25)
        hist.record(0.5)
        expected = """\
# HELP repro_query_single_hits_total Queries of one mode answered from memory
# TYPE repro_query_single_hits_total counter
repro_query_single_hits_total 3
# HELP repro_shard_0_disk_index_lookups_total Disk index lookups, each paying one modelled seek
# TYPE repro_shard_0_disk_index_lookups_total counter
repro_shard_0_disk_index_lookups_total 2
# HELP repro_memory_bytes repro metric
# TYPE repro_memory_bytes gauge
repro_memory_bytes 123
# HELP repro_span_flush_seconds Wall time of one flush cycle, which is how long it stalled ingest
# TYPE repro_span_flush_seconds summary
repro_span_flush_seconds{quantile="0.50"} 0.262144
repro_span_flush_seconds{quantile="0.95"} 0.5
repro_span_flush_seconds{quantile="0.99"} 0.5
repro_span_flush_seconds_count 2
repro_span_flush_seconds_sum 0.75
repro_span_flush_seconds_min 0.25
repro_span_flush_seconds_max 0.5
repro_span_flush_seconds_mean 0.375
"""
        assert to_prometheus_text(registry) == expected

    def test_miss_cause_counters_have_help(self):
        registry = MetricsRegistry()
        registry.counter("query.miss.cause.phase1-regular").inc()
        text = to_prometheus_text(registry)
        assert "# HELP repro_query_miss_cause_phase1_regular_total" in text


class TestTraceview:
    def _events(self):
        return [
            {"type": "trace", "trace": "query-1", "span": 1, "parent_span": 0,
             "name": "disk.lookup", "seconds": 0.002, "shard": 0},
            {"type": "trace", "trace": "query-1", "span": 0, "parent_span": None,
             "name": "query", "seconds": 0.01, "mode": "single", "hit": False,
             "miss_cause": "phase1-regular", "disk_lookups": 1},
            {"type": "trace", "trace": "flush-2", "span": 1, "parent_span": 0,
             "name": "flush.phase1-regular", "seconds": 0.004},
            {"type": "trace", "trace": "flush-2", "span": 0, "parent_span": None,
             "name": "flush", "seconds": 0.005},
            # Orphan from a truncated file: no root ever arrives.
            {"type": "trace", "trace": "query-9", "span": 3, "parent_span": 0,
             "name": "disk.lookup", "seconds": 0.001},
        ]

    def test_build_traces_links_and_drops_orphans(self):
        traces = build_traces(self._events())
        assert [t.trace_id for t in traces] == ["query-1", "flush-2"]
        query = traces[0]
        assert query.span_count == 2
        assert query.root.children[0].name == "disk.lookup"
        assert query.root.fields["miss_cause"] == "phase1-regular"

    def test_build_traces_dedupes_duplicate_roots(self):
        events = self._events()
        events.append(dict(events[1]))  # same root event twice
        traces = build_traces(events)
        assert [t.trace_id for t in traces] == ["query-1", "flush-2"]
        assert len(traces[0].root.children) == 1

    def test_query_summaries(self):
        summaries = query_summaries(build_traces(self._events()), top=5)
        assert len(summaries) == 1
        summary = summaries[0]
        assert summary["trace"] == "query-1"
        assert summary["miss_cause"] == "phase1-regular"
        assert summary["children"][0]["shard"] == 0

    def test_flush_attribution(self):
        report = flush_attribution(build_traces(self._events()))
        assert report["flush_traces"] == 1
        assert report["total_seconds"] == pytest.approx(0.005)
        assert report["per_phase_seconds"]["phase1-regular"] == pytest.approx(0.004)

    def test_miss_cause_table_prefers_query_events(self):
        events = self._events() + [
            {"type": "query", "hit": False, "miss_cause": "never-resident"},
            {"type": "query", "hit": True},
            {"type": "trial_snapshot",
             "metrics": {"counters": {"query.miss.cause.whole-key-fifo": 50}}},
        ]
        assert miss_cause_table(events) == {"never-resident": 1}

    def test_miss_cause_table_snapshot_fallback(self):
        events = [
            {"type": "trial_snapshot",
             "metrics": {"counters": {"query.miss.cause.whole-key-fifo": 50,
                                      "query.miss.cause.trimmed-topk": 7}}},
            {"type": "trial_snapshot",
             "metrics": {"counters": {"query.miss.cause.whole-key-fifo": 3}}},
        ]
        assert miss_cause_table(events) == {"whole-key-fifo": 53, "trimmed-topk": 7}

    def test_load_events_skips_garbage(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"type": "query"}\nnot json\n\n[1, 2]\n')
        assert load_events(str(path)) == [{"type": "query"}]


class TestTraceCli:
    def _write_events(self, tmp_path):
        system, obs, sink = traced_system()
        churn(system)
        run_query_mix(system)
        path = tmp_path / "events.jsonl"
        with open(path, "w") as handle:
            for event in sink.events:
                handle.write(json.dumps(event) + "\n")
        return path

    def test_trace_command_reconstructs_and_reports(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_events(tmp_path)
        assert main(["trace", str(path), "--require-miss-causes"]) == 0
        out = capsys.readouterr().out
        assert "complete traces" in out
        assert "Miss attribution" in out
        assert "Flush wall-time attribution" in out

    def test_require_miss_causes_fails_on_empty(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "empty.jsonl"
        path.write_text('{"type": "query", "hit": true}\n')
        assert main(["trace", str(path), "--require-miss-causes"]) == 1


class TestTraceStrict:
    def _write(self, tmp_path, events):
        path = tmp_path / "events.jsonl"
        path.write_text(
            "".join(json.dumps(e) + "\n" for e in events), encoding="utf-8"
        )
        return path

    _COMPLETE = {"type": "trace", "trace": "q1", "span": 0, "parent_span": None,
                 "name": "query", "seconds": 0.01, "mode": "single", "hit": True,
                 "disk_lookups": 0}
    _ORPHAN = {"type": "trace", "trace": "q2", "span": 3, "parent_span": 0,
               "name": "disk.lookup", "seconds": 0.001}

    def test_clean_file_passes_strict(self, tmp_path, capsys):
        path = self._write(tmp_path, [self._COMPLETE])
        assert cli_main(["trace", str(path), "--strict"]) == 0
        out = capsys.readouterr().out
        assert "[dropped_orphans: 0]" in out
        assert "[duplicate_spans: 0]" in out

    def test_orphans_reported_and_fail_strict(self, tmp_path, capsys):
        path = self._write(tmp_path, [self._COMPLETE, self._ORPHAN])
        assert cli_main(["trace", str(path)]) == 0  # informational by default
        assert "[dropped_orphans: 1]" in capsys.readouterr().out
        assert cli_main(["trace", str(path), "--strict"]) == 1

    def test_duplicate_span_ids_reported_and_fail_strict(self, tmp_path, capsys):
        # Two writers that reused trace id q1: the second root replaces
        # the first, so one trace comes back and one span is a duplicate.
        path = self._write(tmp_path, [self._COMPLETE, dict(self._COMPLETE, seconds=0.02)])
        report = build_traces_report([self._COMPLETE, dict(self._COMPLETE)])
        assert (len(report.traces), report.dropped_orphans, report.duplicate_spans) == (1, 0, 1)
        assert cli_main(["trace", str(path)]) == 0
        assert "[duplicate_spans: 1]" in capsys.readouterr().out
        assert cli_main(["trace", str(path), "--strict"]) == 1
