"""Tests for the command-line interface."""

import argparse
import dataclasses
import json
import typing

import pytest

from repro.cli import CONFIG_FLAGS, build_parser, main
from repro.config import SystemConfig
from repro.core import POLICY_NAMES
from repro.experiments.figures import FIGURES
from repro.experiments.runner import TrialSpec


def _subparser(name):
    sub = next(
        a
        for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return sub.choices[name]


def _flags(name):
    return sorted(
        flag
        for action in _subparser(name)._actions
        for flag in action.option_strings
        if flag != "--help" and flag.startswith("--")
    )


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.figure == "all"
        assert args.scale == "small"
        assert args.seed == 42

    def test_run_with_options(self):
        args = build_parser().parse_args(
            ["run", "--figure", "fig5", "--scale", "tiny", "--seed", "7"]
        )
        assert args.figure == "fig5"
        assert args.scale == "tiny"
        assert args.seed == 7

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--figure", "fig99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_stats_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.policy == "kflushing"
        assert args.format == "json"
        assert args.out is None

    def test_run_metrics_out(self):
        args = build_parser().parse_args(["run", "--metrics-out", "m.jsonl"])
        assert args.metrics_out == "m.jsonl"


class TestFlagTable:
    """The config flags are built from the dataclass fields they set."""

    # Pinned from the hand-written parser the flag table replaced.
    def test_run_flags(self):
        assert _flags("run") == [
            "--figure", "--jobs", "--metrics-out", "--scale", "--seed", "--shards",
        ]

    def test_stats_flags(self):
        assert _flags("stats") == [
            "--capacity-bytes", "--events-out", "--format", "--k", "--out",
            "--policy", "--queries", "--records", "--seed", "--shards",
        ]

    @pytest.mark.parametrize("command", ["run", "stats"])
    def test_flags_match_their_fields(self, command):
        config_actions = [
            a for a in _subparser(command)._actions if a.dest in CONFIG_FLAGS
        ]
        assert config_actions
        for action in config_actions:
            owner = TrialSpec if command == "run" else SystemConfig
            hint = typing.get_type_hints(owner)[action.dest]
            assert action.option_strings == [CONFIG_FLAGS[action.dest][0]]
            assert action.type is hint or action.type in typing.get_args(hint)
            if action.dest == "policy":
                assert tuple(action.choices) == POLICY_NAMES

    def test_every_table_entry_is_a_field(self):
        names = {f.name for f in dataclasses.fields(SystemConfig)}
        names |= {f.name for f in dataclasses.fields(TrialSpec)}
        assert set(CONFIG_FLAGS) <= names


class TestExecution:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out
        assert "tiny" in out

    def test_list_describes_every_figure(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for name in FIGURES:
            line = next(line for line in lines if line.split()[:1] == [name])
            assert line.split(None, 1)[1].strip(), f"{name} has no description"

    def test_demo_command(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "fifo" in out
        assert "kflushing" in out

    def test_run_says_which_flags_a_figure_ignored(self, capsys):
        run = ["run", "--figure", "fig5", "--scale", "tiny"]
        assert main(run + ["--shards", "4"]) == 0
        assert (
            "[fig5: --shards not supported by this figure; ignored]"
            in capsys.readouterr().out
        )
        assert main(run) == 0
        assert "ignored" not in capsys.readouterr().out

    def test_stats_command_emits_snapshot(self, capsys, tmp_path):
        events = tmp_path / "events.jsonl"
        assert (
            main(
                [
                    "stats",
                    "--records",
                    "12000",
                    "--queries",
                    "600",
                    "--capacity-bytes",
                    "1000000",
                    "--events-out",
                    str(events),
                ]
            )
            == 0
        )
        snap = json.loads(capsys.readouterr().out)
        counters = snap["counters"]
        # Per-phase flush attribution, per-mode query counters, disk I/O.
        assert counters["flush.count"] > 0
        assert counters["flush.phase1-regular.freed_bytes"] > 0
        assert any(name.startswith("query.single.") for name in counters)
        assert counters["disk.flush_batches"] > 0
        assert "span.flush.seconds" in snap["histograms"]
        lines = [json.loads(line) for line in events.read_text().splitlines()]
        assert {"flush", "query", "span"} <= {e["type"] for e in lines}

    def test_stats_prometheus_format_to_file(self, capsys, tmp_path):
        out = tmp_path / "metrics.prom"
        assert (
            main(
                [
                    "stats",
                    "--records",
                    "6000",
                    "--queries",
                    "300",
                    "--capacity-bytes",
                    "1000000",
                    "--format",
                    "prom",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        text = out.read_text()
        assert "repro_flush_count_total" in text
        assert "# TYPE" in text
