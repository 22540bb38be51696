"""Tests for the experiment harness: presets, runner, figures, reporting."""

import dataclasses
import time

import pytest

from repro.config import SystemConfig
from repro.core.kflushing import KFlushingEngine
from repro.experiments.figures import (
    FIGURES,
    FigureResult,
    SweepResult,
    TableResult,
    run_figure,
)
from repro.experiments.report import format_figure, format_panel
from repro.experiments.runner import TrialSpec, run_digestion_stress, run_trial
from repro.experiments.scale import (
    PRESETS,
    ScalePreset,
    TINY,
    preset_from_env,
)

#: A micro preset so harness tests finish in well under a second each.
MICRO = ScalePreset(
    name="micro",
    bytes_per_gb=8_000,
    vocabulary_size=400,
    user_count=400,
    warm_flushes=2,
    max_warm_records=30_000,
    eval_records=800,
    queries_per_record=1.0,
    and_scan_depth=100,
    and_disk_limit=100,
)


class TestScalePresets:
    def test_registry(self):
        assert set(PRESETS) == {"tiny", "small", "full"}

    def test_capacity_scaling(self):
        assert TINY.capacity_bytes(30.0) == 30 * TINY.bytes_per_gb
        assert TINY.capacity_bytes(0.0) == 1  # clamped

    def test_preset_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert preset_from_env().name == "tiny"
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ValueError):
            preset_from_env()
        monkeypatch.delenv("REPRO_SCALE")
        assert preset_from_env("full").name == "full"

    def test_regime_holds_for_all_presets(self):
        """Memory must hold far fewer postings than vocab*k for the
        paper's phenomena to exist at any preset."""
        for preset in PRESETS.values():
            capacity_records = preset.capacity_bytes(30.0) / 150
            assert capacity_records < preset.vocabulary_size * 20


class TestRunTrial:
    @pytest.mark.parametrize("policy", ["fifo", "kflushing", "kflushing-mk", "lru"])
    def test_steady_state_trial(self, policy):
        result = run_trial(TrialSpec(policy=policy, scale=MICRO, seed=3))
        assert result.flush_count > 0
        assert result.queries_run > 0
        assert 0.0 <= result.hit_ratio <= 1.0
        assert result.k_filled >= 0
        assert result.insert_rate > 0
        assert result.effective_digestion_rate > 0

    def test_hit_ratio_by_mode_keys(self):
        result = run_trial(TrialSpec(policy="kflushing", scale=MICRO, seed=3))
        assert set(result.hit_ratio_by_mode) == {"single", "and", "or"}

    def test_user_attribute_trial(self):
        result = run_trial(
            TrialSpec(policy="kflushing", attribute="user", scale=MICRO, seed=3)
        )
        assert result.queries_run > 0

    def test_spatial_attribute_trial(self):
        result = run_trial(
            TrialSpec(policy="fifo", attribute="spatial", scale=MICRO, seed=3)
        )
        assert result.queries_run > 0

    def test_kflushing_beats_fifo_on_k_filled(self):
        fifo = run_trial(TrialSpec(policy="fifo", scale=MICRO, seed=3))
        kf = run_trial(TrialSpec(policy="kflushing", scale=MICRO, seed=3))
        assert kf.k_filled > fifo.k_filled

    def test_digestion_stress(self):
        result = run_digestion_stress(
            TrialSpec(policy="fifo", scale=MICRO, seed=3),
            query_rate_per_wall_second=1000.0,
        )
        assert result.effective_digestion_rate > 0
        assert "queries_issued" in result.extras

    def test_stall_accounting_matches_flush_count(self):
        # Every flush stalls ingest once: one stall per window flush.
        sync = run_trial(TrialSpec(policy="kflushing", scale=MICRO, seed=11))
        assert sync.extras["ingest_stalls"] == float(sync.flush_count)

    def test_stall_extras_exclude_warm_up(self, monkeypatch):
        # A cold-start flush far slower than any steady-state one must
        # not reach the window's stall figures.
        flush = KFlushingEngine.flush
        calls = []

        def slow_first_flush(engine, now):
            calls.append(now)
            if len(calls) == 1:
                time.sleep(0.05)
            return flush(engine, now)

        monkeypatch.setattr(KFlushingEngine, "flush", slow_first_flush)
        result = run_trial(TrialSpec(policy="kflushing", scale=MICRO, seed=11))
        assert len(calls) > result.flush_count > 0  # the slow one was warm-up
        assert result.extras["ingest_stalls"] == float(result.flush_count)
        assert result.extras["ingest_stall_max_seconds"] < 0.05
        assert result.extras["ingest_stall_p99_seconds"] < 0.05


#: One non-default value per field name ``TrialSpec`` shares with
#: ``SystemConfig`` (the plumbing ``build_system`` threads by hand).
_SHARED_FIELD_VALUES = {
    "attribute": "user",
    "k": 7,
    "policy": "lru",
    "shards": 2,
}


class TestSpecPlumbing:
    def test_every_shared_field_is_probed(self):
        shared = {f.name for f in dataclasses.fields(TrialSpec)} & {
            f.name for f in dataclasses.fields(SystemConfig)
        }
        assert shared == set(_SHARED_FIELD_VALUES)

    @pytest.mark.parametrize("name", sorted(_SHARED_FIELD_VALUES))
    def test_forwards(self, name):
        value = _SHARED_FIELD_VALUES[name]
        defaults = {f.name: f.default for f in dataclasses.fields(SystemConfig)}
        assert value != defaults[name]
        spec = TrialSpec(**{"policy": "kflushing", "scale": MICRO, name: value})
        system = spec.build_system()
        assert getattr(system.config, name) == value


class TestFigureHarness:
    def test_fig1_snapshot_structure(self):
        figure = run_figure("fig1", MICRO, seed=3)
        assert isinstance(figure, FigureResult)
        panel = figure.panels[0]
        assert isinstance(panel, TableResult)
        assert len(panel.rows) == 2
        fifo_row = next(r for r in panel.rows if r[0] == "fifo")
        kf_row = next(r for r in panel.rows if r[0] == "kflushing")
        # The paper's headline claim: temporal flushing wastes most of the
        # memory on useless postings; kFlushing does not.
        assert fifo_row[3] > kf_row[3]

    def test_fig5_saturation_shape(self):
        figure = run_figure("fig5", MICRO, seed=3)
        panel = figure.panels[0]
        assert isinstance(panel, SweepResult)
        phase1 = panel.series["phase1-only"]
        full = panel.series["phases-1+2+3"]
        # Phase-1-only decays to (near) zero; the full policy keeps
        # freeing the budget.
        assert phase1[-1] < phase1[0] / 4
        assert full[-1] > phase1[-1]

    @staticmethod
    def _record_trials(monkeypatch):
        from repro.experiments import figures
        from repro.experiments.parallel import run_trials

        seen = []

        def recording(specs, jobs, runner):
            seen.extend(specs)
            return run_trials(specs, jobs=jobs, runner=runner)

        monkeypatch.setattr(figures, "run_trials", recording)
        return seen

    @staticmethod
    def _at(row, xs):
        return dataclasses.replace(
            row, panels=tuple(dataclasses.replace(p, xs=xs) for p in row.panels)
        )

    def test_trials_shared_by_panels_run_once(self, monkeypatch):
        seen = self._record_trials(monkeypatch)
        # fig11a's correlated trials are also fig11b's.
        row = self._at(FIGURES["fig11"], (10.0,))
        assert len(row.grid(MICRO, 3)) == 9
        figure = run_figure(row, MICRO, seed=3)
        assert len(seen) == len(set(seen)) == 6
        assert set(figure.panels[1].series) == {
            f"{p}-{m}" for p in ("fifo", "kflushing", "lru") for m in ("uniform", "correlated")
        }

    def test_overrides_reach_every_trial_but_not_the_axis(self, monkeypatch):
        seen = self._record_trials(monkeypatch)
        row = self._at(FIGURES["shards"], (1, 2))
        run_figure(row, MICRO, seed=3, shards=4, k=7)
        assert {spec.shards for spec in seen} == {1, 2}
        assert {spec.k for spec in seen} == {7}


class TestExtensions:
    def test_registered_in_figure_registry(self):
        from repro.experiments import FIGURES as exported

        assert exported is FIGURES
        assert "ext1" in FIGURES
        assert "ext2" in FIGURES

    def test_and_semantics_strict_never_above_operational(self):
        figure = run_figure("ext2", MICRO, seed=3)
        panel = figure.panels[0]
        for policy in ("kflushing", "kflushing-mk"):
            operational, strict = panel.series[policy]
            assert strict <= operational + 1e-9

    def test_skew_sensitivity_structure(self):
        # Two zipf points keep this a fast structural test.
        row = FIGURES["ext1"]
        two_points = dataclasses.replace(
            row,
            panels=tuple(dataclasses.replace(p, xs=(0.0, 1.0)) for p in row.panels),
        )
        assert {s.keyword_zipf for s in two_points.grid(MICRO, 3)} == {0.0, 1.0}
        figure = run_figure(two_points, MICRO, seed=3)
        panel = figure.panels[0]
        assert "kflushing-gain-pts" in panel.series
        assert len(panel.series["fifo"]) == 2


class TestReportFormatting:
    def test_format_sweep_panel(self):
        panel = SweepResult(
            panel_id="figX",
            title="demo",
            x_label="k",
            y_label="things",
            xs=[1, 2],
            series={"fifo": [10.0, 20.5], "lru": [1.0, 2.0]},
            expectation="fifo above lru",
        )
        text = format_panel(panel)
        assert "figX" in text
        assert "fifo" in text and "lru" in text
        assert "20.50" in text
        assert "paper shape" in text

    def test_format_table_panel(self):
        panel = TableResult(
            panel_id="figY",
            title="snap",
            headers=["a", "b"],
            rows=[["x", 1], ["y", 2]],
        )
        text = format_panel(panel)
        assert "a" in text and "y" in text

    def test_format_figure(self):
        figure = run_figure("fig5", MICRO, seed=3)
        text = format_figure(figure)
        assert text.startswith("==== fig5")
