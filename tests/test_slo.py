"""SLO engine, flight recorder, and resource watermarks.

Covers the spec parser and its catalog check of selectors, the
tick-based tracker (windows, error budgets, burn rates, breach/recovery
transitions), the metric probes, the flight-recorder ring and its
black-box dump, the run-wide watermark gauges, the ``/slo`` +
breach-aware ``/healthz`` endpoints, the ``repro slo`` CLI, and the
default-off guarantee: with no spec configured, trial results are
bit-identical to a build without any of this machinery.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from dataclasses import asdict

import pytest

from repro.cli import main as cli_main
from repro.config import SystemConfig
from repro.engine.sharded import build_system
from repro.engine.system import MicroblogSystem
from repro.errors import ConfigurationError
from repro.experiments.runner import TrialSpec, run_trial
from repro.obs import (
    FlightRecorder,
    Instrumentation,
    ListSink,
    MetricsRegistry,
    OpsServer,
    SLOSpec,
    SLOTracker,
    activated,
    attach_flight_recorder,
    evaluate_registry,
)
from repro.workload.stream import MicroblogStream, StreamConfig
from tests.test_experiments import MICRO

# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------

#: A declared histogram for the selector tests.
_LATENCY = "query.simulated_latency_seconds"

_SPEC = {
    "objectives": [
        {"name": "latency", "metric": "query.simulated_latency_seconds.p99",
         "max": 0.5},
        {"metric": "hit_ratio", "min": 0.6},
    ]
}


class TestSLOSpec:
    def test_from_dict_applies_defaults(self):
        spec = SLOSpec.from_dict(_SPEC)
        assert len(spec.objectives) == 2
        latency = spec.objectives[0]
        assert (latency.name, latency.op, latency.threshold) == ("latency", "<=", 0.5)
        assert latency.budget == 0.1
        assert latency.slow_window == 60
        hit = spec.objectives[1]
        # Name defaults to the metric selector.
        assert (hit.name, hit.op) == ("hit_ratio", ">=")

    def test_defaults_block_overrides(self):
        spec = SLOSpec.from_dict(
            {"defaults": {"budget": 0, "slow_window": 7},
             "objectives": [{"metric": "flush.count", "min": 1}]}
        )
        assert spec.objectives[0].budget == 0
        assert spec.objectives[0].slow_window == 7

    @pytest.mark.parametrize(
        "bad",
        [
            {},
            {"objectives": []},
            {"objectives": [{"metric": "flush.count"}]},  # neither max nor min
            {"objectives": [{"metric": "flush.count", "max": 1, "min": 0}]},
            {"objectives": [{"max": 1}]},  # no metric
            {"objectives": [{"metric": "flush.count", "max": 1, "budget": -0.1}]},
            {"objectives": [{"metric": "flush.count", "max": 1, "window": 0}]},
            {"objectives": [{"metric": "flush.count", "max": 1, "name": "x"},
                            {"metric": "slo.breaches", "max": 1, "name": "x"}]},
            {"objectives": [{"metric": "flush.cuont", "max": 1}]},
        ],
        ids=["empty", "no-objectives", "no-bound", "both-bounds", "no-metric",
             "neg-budget", "zero-window", "dup-names", "undeclared"],
    )
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            SLOSpec.from_dict(bad)

    def test_parse_inline_json_and_file(self, tmp_path):
        inline = SLOSpec.parse(json.dumps(_SPEC))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_SPEC), encoding="utf-8")
        from_file = SLOSpec.parse(str(path))
        assert inline == from_file == SLOSpec.from_dict(_SPEC)
        assert SLOSpec.parse(inline) is inline

    def test_config_validates_inline_spec_eagerly(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(slo_spec={"objectives": []})
        with pytest.raises(ConfigurationError):
            SystemConfig(slo_spec='{"objectives": "nope"}')
        with pytest.raises(ConfigurationError):
            SystemConfig(flight_recorder_events=-1)
        with pytest.raises(ConfigurationError, match="flush.cuont"):
            SystemConfig(slo_spec={"objectives": [{"metric": "flush.cuont", "min": 1}]})
        # File paths resolve lazily: the file may be written later.
        config = SystemConfig(slo_spec="does/not/exist/yet.json")
        with pytest.raises(OSError):
            config.build_slo_spec()


# ----------------------------------------------------------------------
# Tracker: budgets, burn rates, breach/recovery
# ----------------------------------------------------------------------


#: A declared gauge the tracker tests set by hand.
_GAUGE = "memory.bytes_used"


def _gauge_spec(**overrides) -> SLOSpec:
    entry = {"name": "depth", "metric": _GAUGE, "max": 10.0,
             "budget": 0, "slow_window": 60}
    entry.update(overrides)
    return SLOSpec.from_dict({"objectives": [entry]})


class TestSLOTracker:
    def test_compliant_ticks_stay_healthy(self):
        registry = MetricsRegistry()
        registry.gauge(_GAUGE).set(3)
        tracker = SLOTracker(_gauge_spec(), registry)
        for _ in range(5):
            tracker.tick()
        state = tracker.state()
        assert state["healthy"] is True
        assert state["ticks"] == 5
        (obj,) = state["objectives"]
        assert obj["value"] == 3.0
        assert obj["violations"] == 0
        assert obj["budget_spent"] == 0.0

    def test_zero_budget_breaches_on_first_violation(self):
        registry = MetricsRegistry()
        registry.gauge(_GAUGE).set(99)
        events = []
        tracker = SLOTracker(
            _gauge_spec(), registry, emit=lambda t, **f: events.append((t, f))
        )
        tracker.tick()
        assert tracker.healthy is False
        assert [t for t, _ in events] == ["slo_breach"]
        assert events[0][1]["name"] == "depth"
        assert events[0][1]["budget_spent"] >= 1.0
        assert registry.counter("slo.breaches").value == 1
        # A second violating tick is not a new transition.
        tracker.tick()
        assert [t for t, _ in events] == ["slo_breach"]

    def test_budget_tolerates_allowed_violations_then_breaches(self):
        registry = MetricsRegistry()
        gauge = registry.gauge(_GAUGE)
        # budget 0.2 of slow_window 10 -> 2 violating ticks allowed.
        spec = _gauge_spec(budget=0.2, slow_window=10)
        tracker = SLOTracker(spec, registry)
        gauge.set(99)
        tracker.tick()
        tracker.tick()
        assert tracker.healthy is True
        assert tracker.state()["objectives"][0]["budget_spent"] == 1.0
        tracker.tick()  # third violation: 3 > 2 allowed
        assert tracker.healthy is False

    def test_recovery_as_violations_age_out(self):
        registry = MetricsRegistry()
        gauge = registry.gauge(_GAUGE)
        events = []
        spec = _gauge_spec(budget=0.25, slow_window=4)  # 1 violation allowed
        tracker = SLOTracker(
            spec, registry, emit=lambda t, **f: events.append(t)
        )
        gauge.set(99)
        tracker.tick()
        tracker.tick()  # 2 violations > 1 allowed -> breach
        assert tracker.healthy is False
        gauge.set(1)
        for _ in range(4):  # compliant ticks push violations out of window
            tracker.tick()
        assert tracker.healthy is True
        assert events == ["slo_breach", "slo_recovered"]

    def test_burn_rates_distinguish_fast_and_slow(self):
        registry = MetricsRegistry()
        gauge = registry.gauge(_GAUGE)
        spec = _gauge_spec(budget=0.1, fast_window=2, slow_window=20)
        tracker = SLOTracker(spec, registry)
        gauge.set(1)
        for _ in range(18):
            tracker.tick()
        gauge.set(99)
        tracker.tick()
        tracker.tick()
        obj = tracker.state()["objectives"][0]
        # Fast window is all violations: (2/2)/0.1 = 10x burn.
        assert obj["burn_fast"] == pytest.approx(10.0)
        # Slow window: (2/20)/0.1 = 1x burn.
        assert obj["burn_slow"] == pytest.approx(1.0)

    def test_exports_state_gauges(self):
        registry = MetricsRegistry()
        registry.gauge(_GAUGE).set(4)
        SLOTracker(_gauge_spec(), registry).tick()
        gauges = registry.snapshot()["gauges"]
        assert gauges["slo.depth.value"] == 4.0
        assert gauges["slo.depth.budget_spent"] == 0.0

    def test_breach_callback_receives_payload(self):
        registry = MetricsRegistry()
        registry.gauge(_GAUGE).set(99)
        payloads = []
        tracker = SLOTracker(_gauge_spec(), registry)
        tracker.add_breach_callback(payloads.append)
        tracker.tick()
        assert payloads and payloads[0]["name"] == "depth"
        assert payloads[0]["breached"] is True


class TestProbes:
    @pytest.mark.parametrize(
        "selector",
        ["no.such.metric", "flush.cuont", "flush.count.p99", "memory.bytes_used.p50",
         "span.flush.seconds", "hit_ratio.a.b"],
    )
    def test_undeclared_selector_is_a_spec_error(self, selector):
        with pytest.raises(ValueError, match="undeclared metric selector"):
            SLOSpec.from_dict({"objectives": [{"metric": selector, "max": 1}]})

    def test_declared_series_without_samples_is_no_data_and_never_creates(self):
        registry = MetricsRegistry()
        tracker = SLOTracker(
            SLOSpec.from_dict(
                {"objectives": [{"metric": "disk.bytes_read", "max": 1},
                                {"metric": "hit_ratio.and", "min": 0.5}]}
            ),
            registry,
        )
        tracker.tick()
        for state in tracker.state()["objectives"]:
            assert state["no_data"] == 1 and state["ticks"] == 0
            assert state["value"] is None
        assert "disk.bytes_read" not in registry
        assert "query.and.hits" not in registry

    def test_counter_selector_is_windowed_delta(self):
        registry = MetricsRegistry()
        counter = registry.counter("flush.count")
        spec = SLOSpec.from_dict(
            {"objectives": [{"metric": "flush.count", "min": 2, "window": 1,
                             "budget": 0}]}
        )
        tracker = SLOTracker(spec, registry)
        counter.inc(5)
        tracker.tick()  # first capture: delta vs nothing = 5
        assert tracker.state()["objectives"][0]["value"] == 5.0
        counter.inc(1)
        tracker.tick()  # window 1: delta vs previous tick = 1 -> violation
        assert tracker.state()["objectives"][0]["value"] == 1.0
        assert tracker.healthy is False

    def test_hit_ratio_mode_selector(self):
        registry = MetricsRegistry()
        registry.counter("query.and.hits").inc(8)
        registry.counter("query.and.misses").inc(2)
        spec = SLOSpec.from_dict(
            {"objectives": [{"metric": "hit_ratio.and", "min": 0.7}]}
        )
        tracker = SLOTracker(spec, registry)
        tracker.tick()
        assert tracker.state()["objectives"][0]["value"] == pytest.approx(0.8)

    def test_hit_ratio_aggregate_ignores_cause_counters(self):
        registry = MetricsRegistry()
        registry.counter("query.single.hits").inc(3)
        registry.counter("query.single.misses").inc(1)
        # Neither of these is a per-mode hit/miss counter.
        registry.counter("query.miss.cause.phase1-regular").inc(50)
        registry.counter("query.single.disk_lookups").inc(50)
        report = evaluate_registry(
            SLOSpec.from_dict({"objectives": [{"metric": "hit_ratio", "min": 0.7}]}),
            registry,
        )
        assert report["objectives"][0]["value"] == pytest.approx(0.75)

    def test_hit_ratio_without_queries_is_no_data(self):
        registry = MetricsRegistry()
        spec = SLOSpec.from_dict(
            {"objectives": [{"metric": "hit_ratio", "min": 0.5}]}
        )
        tracker = SLOTracker(spec, registry)
        tracker.tick()
        assert tracker.state()["objectives"][0]["no_data"] == 1
        assert tracker.healthy is True  # no data is never a violation

    def test_histogram_percentile_selector_windows_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram(_LATENCY)
        spec = SLOSpec.from_dict(
            {"objectives": [{"metric": f"{_LATENCY}.p99", "max": 0.01, "window": 1,
                             "budget": 0}]}
        )
        tracker = SLOTracker(spec, registry)
        for _ in range(20):
            hist.record(0.001)
        tracker.tick()
        assert tracker.healthy is True
        # New window: only slow samples land in the delta.
        for _ in range(20):
            hist.record(0.1)
        tracker.tick()
        obj = tracker.state()["objectives"][0]
        assert obj["value"] > 0.05  # windowed p99 sees only the slow burst
        assert tracker.healthy is False

    def test_histogram_stat_selectors(self):
        registry = MetricsRegistry()
        hist = registry.histogram(_LATENCY)
        for value in (0.001, 0.002, 0.003):
            hist.record(value)
        def value_of(metric):
            report = evaluate_registry(
                SLOSpec.from_dict({"objectives": [{"metric": metric, "max": 1e9}]}),
                registry,
            )
            return report["objectives"][0]["value"]
        assert value_of(f"{_LATENCY}.count") == 3.0
        assert value_of(f"{_LATENCY}.sum") == pytest.approx(0.006)
        assert value_of(f"{_LATENCY}.mean") == pytest.approx(0.002)
        assert value_of(f"{_LATENCY}.max") == pytest.approx(0.003)

    def test_evaluate_registry_one_shot(self):
        registry = MetricsRegistry()
        registry.gauge(_GAUGE).set(99)
        report = evaluate_registry(_gauge_spec(), registry)
        assert report["healthy"] is False
        (obj,) = report["objectives"]
        assert obj["ok"] is False and obj["no_data"] is False
        assert obj["value"] == 99.0


# ----------------------------------------------------------------------
# Watermarks
# ----------------------------------------------------------------------


class TestWatermarks:
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


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_is_bounded_and_tees_to_inner(self):
        inner = ListSink()
        recorder = FlightRecorder(3, inner=inner)
        for i in range(5):
            recorder.emit({"type": "x", "i": i})
        assert [e["i"] for e in recorder.events()] == [2, 3, 4]
        assert len(recorder) == 3
        assert len(inner.events) == 5  # the inner sink saw everything

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(0)

    def test_dump_layout_round_trips(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("flush.count").inc(2)
        recorder = FlightRecorder(8)
        recorder.emit({"type": "span", "name": "flush", "seconds": 0.1})
        path = recorder.dump(
            tmp_path / "box.jsonl",
            registry=registry,
            slo_state={"healthy": False},
            reason="slo_breach:latency",
        )
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["type"] == "flight_recorder_dump"
        assert lines[0]["reason"] == "slo_breach:latency"
        assert lines[0]["events"] == 1
        assert lines[1]["type"] == "run_snapshot"
        assert lines[1]["source"] == "flight_recorder"
        assert lines[1]["metrics"]["counters"]["flush.count"] == 2
        assert lines[2] == {"type": "slo_state", "slo": {"healthy": False}}
        assert lines[3]["type"] == "span"

    def test_attach_shares_registry_and_enables_tracing(self):
        base = Instrumentation()
        forked, recorder = attach_flight_recorder(base, 16)
        assert forked.registry is base.registry
        forked.event("ping")
        assert len(recorder) == 1
        with forked.trace("query"):
            pass
        assert any(e.get("type") == "trace" for e in recorder.events())


# ----------------------------------------------------------------------
# End-to-end through the system facade
# ----------------------------------------------------------------------

_UNMEETABLE = json.dumps(
    {"objectives": [{"name": "impossible", "metric": "span.flush.seconds.p99",
                     "max": 1e-12, "budget": 0}]}
)
_PERMISSIVE = json.dumps(
    {"objectives": [{"name": "flush-latency", "metric": "span.flush.seconds.p99",
                     "max": 3600.0}]}
)


def _drive(config: SystemConfig, records: int = 15_000):
    system = build_system(config)
    stream = MicroblogStream(
        StreamConfig(seed=11, vocabulary_size=2_000, with_locations=False)
    )
    system.ingest_many(stream.take(records))
    return system


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({}, id="unsharded"),
        pytest.param({"shards": 4}, id="sharded"),
    ],
)
class TestSystemIntegration:
    def test_forced_breach_dumps_black_box(self, tmp_path, overrides):
        dump_path = tmp_path / "box.jsonl"
        config = SystemConfig(
            memory_capacity_bytes=400_000,
            slo_spec=_UNMEETABLE,
            flight_recorder_events=64,
            flight_recorder_path=str(dump_path),
            **overrides,
        )
        system = _drive(config)
        state = system.slo_state()
        assert state is not None and state["healthy"] is False
        (obj,) = state["objectives"]
        assert obj["breached"] is True
        assert obj["budget_spent"] >= 1.0
        assert dump_path.exists()
        lines = [json.loads(l) for l in dump_path.read_text().splitlines()]
        assert lines[0]["reason"] == "slo_breach:impossible"
        slo_line = next(l for l in lines if l["type"] == "slo_state")
        assert slo_line["slo"]["healthy"] is False

    def test_permissive_spec_stays_healthy(self, overrides):
        config = SystemConfig(
            memory_capacity_bytes=400_000, slo_spec=_PERMISSIVE, **overrides
        )
        system = _drive(config)
        state = system.slo_state()
        assert state is not None and state["healthy"] is True
        assert state["ticks"] > 0  # flush boundaries actually ticked

    def test_watermarks_surface_in_registry(self, overrides):
        config = SystemConfig(memory_capacity_bytes=400_000, **overrides)
        system = _drive(config)
        assert system.slo_state() is None  # no spec configured
        gauges = system.obs.registry.snapshot()["gauges"]
        assert gauges["watermark.memory.bytes_used"] > 0
        if overrides.get("shards"):
            assert all(
                gauges[f"shard.{i}.watermark.memory.bytes_used"] > 0
                for i in range(overrides["shards"])
            )


def test_watermark_names_do_not_depend_on_shard_count():
    """One rule: with every optional source on (the ledger), the
    watermark set at 4 shards is the one-partition set plus the
    per-shard memory marks — bound at construction, before any flush."""
    names = {}
    for shards in (1, 4):
        config = SystemConfig(
            memory_capacity_bytes=400_000,
            shards=shards,
        )
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


def test_on_demand_dump_without_breach(tmp_path):
    config = SystemConfig(
        memory_capacity_bytes=400_000, flight_recorder_events=32
    )
    system = _drive(config)
    path = system.dump_flight_recorder(tmp_path / "demand.jsonl")
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines[0]["reason"] == "on_demand"
    # No SLO tracker: the dump carries no slo_state line.
    assert not any(l["type"] == "slo_state" for l in lines)
    assert any(l["type"] == "run_snapshot" for l in lines)


def test_recorder_off_dump_is_none():
    config = SystemConfig(memory_capacity_bytes=400_000)
    system = _drive(config, records=2_000)
    assert system.flight_recorder is None
    assert system.dump_flight_recorder() is None


# ----------------------------------------------------------------------
# Default-off differential: results bit-identical with the machinery on
# ----------------------------------------------------------------------

_WALL_CLOCK_FIELDS = ("spec", "insert_rate", "effective_digestion_rate")


def _comparable(result):
    payload = asdict(result)
    for field_name in _WALL_CLOCK_FIELDS:
        payload.pop(field_name, None)
    payload["extras"] = {
        key: value
        for key, value in payload.get("extras", {}).items()
        if "seconds" not in key and "rate" not in key
    }
    return payload


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param(dict(policy="fifo"), id="fifo"),
        pytest.param(dict(policy="lru"), id="lru"),
        pytest.param(dict(policy="kflushing"), id="kflushing"),
        pytest.param(dict(policy="kflushing-mk"), id="kflushing-mk"),
        pytest.param(dict(policy="kflushing", shards=4), id="kflushing-shards4"),
    ],
)
def test_trial_results_bit_identical_with_slo_and_recorder(overrides):
    results = {}
    for enabled in (False, True):
        extra = (
            dict(slo_spec=_PERMISSIVE, flight_recorder_events=128)
            if enabled
            else {}
        )
        spec = TrialSpec(scale=MICRO, seed=13, **overrides, **extra)
        results[enabled] = _comparable(run_trial(spec))
    assert results[True] == results[False]


# ----------------------------------------------------------------------
# Ops endpoint: /slo, breach-aware /healthz, concurrent scrapes
# ----------------------------------------------------------------------


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.read().decode("utf-8")


class TestOpsEndpoint:
    def test_slo_404_without_provider(self):
        with OpsServer(MetricsRegistry(), port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"{server.url}/slo")
            assert err.value.code == 404
            status, body = _get(f"{server.url}/healthz")
            assert (status, body) == (200, "ok\n")

    def test_slo_state_served_and_healthz_follows_budget(self):
        registry = MetricsRegistry()
        registry.gauge(_GAUGE).set(1)
        tracker = SLOTracker(_gauge_spec(), registry)
        tracker.tick()
        with OpsServer(registry, port=0, slo_provider=tracker.state) as server:
            status, body = _get(f"{server.url}/slo")
            assert status == 200
            state = json.loads(body)
            assert state["healthy"] is True
            assert state["objectives"][0]["name"] == "depth"
            assert _get(f"{server.url}/healthz")[0] == 200
            # Exhaust the budget: /healthz flips to 503.
            registry.gauge(_GAUGE).set(99)
            tracker.tick()
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"{server.url}/healthz")
            assert err.value.code == 503
            assert "budget exhausted" in err.value.read().decode("utf-8")

    def test_broken_provider_degrades_to_healthy(self):
        def boom():
            raise RuntimeError("provider broke")

        with OpsServer(MetricsRegistry(), port=0, slo_provider=boom) as server:
            assert _get(f"{server.url}/healthz")[0] == 200
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"{server.url}/slo")
            assert err.value.code == 404

    def test_concurrent_scrapes_during_mutation(self):
        """N scraper threads hammer /metrics and /snapshot while the
        registry mutates underneath; every response must parse and the
        server must shut down cleanly."""
        registry = MetricsRegistry()
        stop = threading.Event()
        errors: list[Exception] = []

        def mutate():
            i = 0
            while not stop.is_set():
                registry.counter(f"churn.c{i % 50}").inc()
                registry.gauge(f"churn.g{i % 50}").set(i)
                registry.histogram(f"churn.h{i % 20}").record(1e-4)
                i += 1

        def scrape(url):
            try:
                for _ in range(20):
                    status, body = _get(f"{url}/metrics")
                    assert status == 200 and "repro_" in body
                    status, body = _get(f"{url}/snapshot")
                    assert status == 200
                    json.loads(body)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with OpsServer(registry, port=0) as server:
            mutator = threading.Thread(target=mutate, daemon=True)
            mutator.start()
            scrapers = [
                threading.Thread(target=scrape, args=(server.url,))
                for _ in range(4)
            ]
            for thread in scrapers:
                thread.start()
            for thread in scrapers:
                thread.join(timeout=30)
            stop.set()
            mutator.join(timeout=5)
        assert not errors, errors
        assert not any(t.is_alive() for t in scrapers)


# ----------------------------------------------------------------------
# CLI: repro slo / repro trace --strict
# ----------------------------------------------------------------------


class TestSloCli:
    def _events_file(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("flush.count").inc(4)
        registry.histogram("span.flush.seconds").record(0.01)
        path = tmp_path / "events.jsonl"
        path.write_text(
            json.dumps({"type": "run_snapshot", "metrics": registry.snapshot()})
            + "\n",
            encoding="utf-8",
        )
        return path

    def test_events_pass_and_fail(self, tmp_path, capsys):
        events = self._events_file(tmp_path)
        passing = json.dumps(
            {"objectives": [{"metric": "flush.count", "min": 1}]}
        )
        assert cli_main(["slo", passing, "--events", str(events)]) == 0
        failing = json.dumps(
            {"objectives": [{"metric": "flush.count", "min": 100}]}
        )
        assert cli_main(["slo", failing, "--events", str(events)]) == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out

    def test_check_fails_on_no_data(self, tmp_path, capsys):
        events = self._events_file(tmp_path)
        # Declared, but the captured run answered no AND queries.
        spec = json.dumps({"objectives": [{"metric": "hit_ratio.and", "min": 1}]})
        assert cli_main(["slo", spec, "--events", str(events)]) == 0
        assert cli_main(["slo", spec, "--events", str(events), "--check"]) == 1

    def test_json_output(self, tmp_path, capsys):
        events = self._events_file(tmp_path)
        spec = json.dumps({"objectives": [{"metric": "flush.count", "min": 1}]})
        assert cli_main(["slo", spec, "--events", str(events), "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[: out.rindex("}") + 1])
        assert payload["healthy"] is True

    def test_url_source(self):
        registry = MetricsRegistry()
        registry.counter("flush.count").inc(3)
        spec = json.dumps({"objectives": [{"metric": "flush.count", "min": 1}]})
        with OpsServer(registry, port=0) as server:
            assert cli_main(["slo", spec, "--url", server.url]) == 0

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        spec = json.dumps({"objectives": [{"metric": "flush.count", "min": 1}]})
        assert cli_main(["slo", spec]) == 2
        events = self._events_file(tmp_path)
        assert (
            cli_main(
                ["slo", spec, "--events", str(events), "--url", "http://unused"]
            )
            == 2
        )

    def test_bad_spec_is_a_usage_error(self, tmp_path):
        events = self._events_file(tmp_path)
        assert cli_main(["slo", '{"objectives": []}', "--events", str(events)]) == 2

    def test_misspelled_selector_is_a_usage_error(self, tmp_path, capsys):
        spec = json.dumps({"objectives": [{"metric": "flush.cuont", "min": 1}]})
        events = self._events_file(tmp_path)
        assert cli_main(["slo", spec, "--events", str(events)]) == 2
        capsys.readouterr()
        assert cli_main(["run", "--figure", "fig1", "--scale", "tiny", "--slo", spec]) == 2
        out = capsys.readouterr().out
        assert "flush.cuont" in out
        assert "completed in" not in out  # no figure ran


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
        assert "[dropped_orphans: 0]" in capsys.readouterr().out

    def test_orphans_reported_and_fail_strict(self, tmp_path, capsys):
        path = self._write(tmp_path, [self._COMPLETE, self._ORPHAN])
        assert cli_main(["trace", str(path)]) == 0  # informational by default
        assert "[dropped_orphans: 1]" in capsys.readouterr().out
        assert cli_main(["trace", str(path), "--strict"]) == 1
