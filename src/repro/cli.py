"""Command-line interface: ``repro-microblogs``.

Subcommands
-----------
``list``
    Show the available figure experiments and scale presets.
``run --figure fig7 [--scale small] [--seed 42] [--jobs 4] [--shards 4] [--metrics-out m.jsonl]``
    Run one figure experiment (or ``all``) and print its tables;
    ``--jobs`` fans the figure's trial grid out over worker processes
    (results, metrics and events are those of a serial run);
    ``--shards`` hash-partitions each trial's system over N shards;
    ``--metrics-out`` streams every instrumentation event of the run
    (flush spans, query events, final snapshot) to a JSONL file.
``stats [--shards 4]``
    Run a tiny synthetic workload and dump the instrumentation registry
    (flush and phase spans, per-mode query counters, disk I/O, memory
    peaks, ``shard.<i>.*`` twins when sharded) as JSON or
    Prometheus-style text; the system's invariants are checked before
    the dump.
``trace metrics.jsonl [--top 5] [--require-miss-causes] [--strict]``
    Offline analysis of an events JSONL (``--metrics-out`` /
    ``--events-out`` output): reconstruct query/flush span trees, print
    the top-N slowest queries with their shard/disk breakdown, flush
    wall-time attribution per phase, the eviction-cause miss table, and
    the counts of orphan spans dropped during reconstruction and of
    duplicate span ids (``--strict`` turns either into a non-zero exit).
``demo``
    A 30-second end-to-end demo: ingest a synthetic stream under two
    policies and compare their steady-state hit ratios.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence, get_args, get_type_hints

from repro.config import SystemConfig
from repro.core import POLICY_NAMES
from repro.engine.sharded import build_system
from repro.engine.system import MicroblogSystem
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.report import format_miss_attribution, print_figure
from repro.experiments.runner import TrialSpec
from repro.experiments.scale import PRESETS, SMALL
from repro.obs import (
    Instrumentation,
    JsonlSink,
    activated,
    to_json,
    to_prometheus_text,
)
from repro.obs.catalog import QUERY_MISS_CAUSE
from repro.obs.traceview import (
    build_traces_report,
    flush_attribution,
    load_events,
    miss_cause_table,
    query_summaries,
)
from repro.workload.queryload import QueryLoad, QueryLoadConfig
from repro.workload.stream import MicroblogStream, StreamConfig

__all__ = ["main"]

#: Config fields exposed as flags: field -> (flag, metavar, help).  The
#: argparse type and default come from the field itself, so a flag cannot
#: drift from the ``SystemConfig`` / ``TrialSpec`` field it sets.
CONFIG_FLAGS = {
    "policy": ("--policy", None, "flushing policy"),
    "k": ("--k", None, "top-k answer size"),
    "memory_capacity_bytes": (
        "--capacity-bytes",
        None,
        "modelled memory budget (small by default so flushes happen)",
    ),
    "shards": (
        "--shards",
        None,
        "hash-partition each system over N shards (total memory budget "
        "split N ways; 1 = the paper's single partition; adds shard.<i>.* "
        "series)",
    ),
}
RUN_FIELDS = ("shards",)
STATS_FIELDS = ("policy", "k", "memory_capacity_bytes", "shards")

#: The small system ``stats`` and ``demo`` drive: a budget a
#: few thousand records overflow, so flushes happen within seconds.
BASE_CONFIG = SystemConfig(
    memory_capacity_bytes=2_000_000, and_scan_depth=500, and_disk_limit=500
)


def _add_config_flags(parser: argparse.ArgumentParser, base, names: Sequence[str]) -> None:
    """Add the :data:`CONFIG_FLAGS` of ``names`` for fields of ``base``
    (a dataclass, or an instance whose values become the defaults)."""
    hints = get_type_hints(base if isinstance(base, type) else type(base))
    for name in names:
        flag, metavar, help_text = CONFIG_FLAGS[name]
        # The scalar a flag parses: the field's type, or the str/int/float
        # member of an Optional / Union annotation.
        hint = hints[name]
        scalar = next(t for t in get_args(hint) or (hint,) if t in (str, int, float))
        parser.add_argument(
            flag,
            dest=name,
            type=scalar,
            default=getattr(base, name),
            choices=POLICY_NAMES if name == "policy" else None,
            metavar=metavar,
            help=help_text,
        )


def _config_values(args: argparse.Namespace, names: Sequence[str]) -> dict:
    return {name: getattr(args, name) for name in names}


def _cmd_list(_args: argparse.Namespace) -> int:
    print("figures:")
    for name, row in sorted(FIGURES.items()):
        print(f"  {name:7s} {row.title}")
    print("scale presets:", ", ".join(sorted(PRESETS)))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    preset = PRESETS[args.scale]
    names = sorted(FIGURES) if args.figure == "all" else [args.figure]
    overrides = {
        name: value
        for name, value in _config_values(args, RUN_FIELDS).items()
        if value != getattr(TrialSpec, name)
    }
    obs: Optional[Instrumentation] = None
    if args.metrics_out:
        # Every system of the run, in this process or a worker, reports to
        # one registry and one JSONL sink, with trace trees and
        # eviction-cause miss attribution.
        obs = Instrumentation(
            sink=JsonlSink(args.metrics_out), tracing=True, attribution=True
        )
    for name in names:
        ignored = [CONFIG_FLAGS[f][0] for f in overrides if f in FIGURES[name].ignores]
        if ignored:
            print(
                f"[{name}: {', '.join(ignored)} not supported by this "
                "figure; ignored]"
            )
        start = time.perf_counter()
        with activated(obs) if obs is not None else nullcontext():
            figure = run_figure(name, preset, args.seed, args.jobs, **overrides)
        elapsed = time.perf_counter() - start
        print_figure(figure)
        print(f"[{name} completed in {elapsed:.1f}s at scale={preset.name}]\n")
    if obs is not None:
        causes = obs.registry.counter_values(QUERY_MISS_CAUSE.prefix)
        if causes:
            print(format_miss_attribution(causes))
            print()
        obs.event("run_snapshot", figures=names, metrics=obs.registry.snapshot())
        obs.close()
        print(f"[metrics written to {args.metrics_out}]")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Offline analysis of an events JSONL: span trees + attributions."""
    events = load_events(args.path)
    report = build_traces_report(events)
    traces = report.traces
    print(f"[{args.path}: {len(events)} events, {len(traces)} complete traces]")
    print(
        f"[dropped_orphans: {report.dropped_orphans}] "
        f"[duplicate_spans: {report.duplicate_spans}]"
    )

    queries = query_summaries(traces, top=args.top)
    print(f"\n-- Top {min(args.top, len(queries))} slowest query traces --")
    if not queries:
        print("(no query traces — was the file produced with tracing on?)")
    for summary in queries:
        outcome = "hit" if summary["hit"] else f"MISS({summary['miss_cause'] or '?'})"
        print(
            f"  {summary['trace']:>12s}  {summary['seconds'] * 1e6:9.1f}us  "
            f"mode={summary['mode'] or '?':6s} {outcome:24s} "
            f"disk_lookups={summary['disk_lookups']}  spans={summary['spans']}"
        )
        for child in summary["children"]:
            where = "" if child["shard"] is None else f" shard={child['shard']}"
            print(f"      {child['name']:22s} {child['seconds'] * 1e6:9.1f}us{where}")

    flush = flush_attribution(traces)
    print(
        f"\n-- Flush wall-time attribution "
        f"({flush['flush_traces']} flush traces, "
        f"{flush['total_seconds'] * 1e3:.2f}ms total) --"
    )
    for phase, seconds in flush["per_phase_seconds"].items():
        share = seconds / flush["total_seconds"] if flush["total_seconds"] else 0.0
        print(f"  {phase:20s} {seconds * 1e3:9.3f}ms  {share:6.1%}")
    if not flush["per_phase_seconds"]:
        print("  (no phase spans — FIFO/LRU flushes have no phases)")

    causes = miss_cause_table(events)
    print()
    print(format_miss_attribution(causes))
    if args.require_miss_causes and not causes:
        print("error: no miss causes found (expected a non-empty table)")
        return 1
    if args.strict and report.dropped_orphans:
        print(
            f"error: {report.dropped_orphans} orphan span(s) could not be "
            "attached to any trace (truncated or corrupt events file)"
        )
        return 1
    if args.strict and report.duplicate_spans:
        print(
            f"error: {report.duplicate_spans} span(s) reused a (trace, span) "
            "id already seen (two writers shared a trace id)"
        )
        return 1
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Tiny fig1-style run: ingest + interleaved queries, dump metrics."""
    obs = Instrumentation(
        sink=JsonlSink(args.events_out) if args.events_out else None,
        # Events-producing runs also get trace trees; attribution is
        # always on here so the dump includes the miss-cause counters.
        tracing=bool(args.events_out),
        attribution=True,
    )
    config = replace(BASE_CONFIG, **_config_values(args, STATS_FIELDS))
    system = build_system(config, obs=obs)
    stream = MicroblogStream(
        StreamConfig(seed=args.seed, vocabulary_size=5_000, with_locations=False)
    )
    queries = QueryLoad(QueryLoadConfig(seed=args.seed + 1, mode="correlated"), stream)
    per_query = max(1, args.records // max(1, args.queries))
    ingested = 0
    for record in stream.take(args.records):
        system.ingest(record)
        ingested += 1
        if ingested % per_query == 0:
            system.search(queries.next_query())
    # Invariant check through the facade: per-engine structure plus, when
    # sharded, the router's key-ownership invariant on every shard.
    system.check_integrity()
    # The snapshot carries the per-key hotness tables (attribution is on).
    snap = system.snapshot()
    obs.close()
    if args.format == "prom":
        rendered = to_prometheus_text(obs.registry)
    else:
        # Stdout must stay a single JSON document (scripts parse it), so
        # the hot-key tables ride inside the payload, not beside it.
        payload = json.loads(to_json(obs.registry))
        if snap.get("hot_keys"):
            payload["hot_keys"] = snap["hot_keys"]
        rendered = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(rendered + "\n", encoding="utf-8")
        print(f"[metrics snapshot written to {args.out}]")
    else:
        print(rendered)
    return 0


def _cmd_demo(_args: argparse.Namespace) -> int:
    print("Comparing FIFO and kFlushing on the same synthetic stream ...")
    for policy in ("fifo", "kflushing"):
        system = MicroblogSystem(replace(BASE_CONFIG, policy=policy))
        stream = MicroblogStream(
            StreamConfig(seed=7, vocabulary_size=5_000, with_locations=False)
        )
        queries = QueryLoad(QueryLoadConfig(seed=8, mode="correlated"), stream)
        system.ingest_many(stream.take(40_000))
        from repro.engine.stats import QueryStats

        system.stats.queries = QueryStats()
        for record in stream.take(10_000):
            system.ingest(record)
            system.search(queries.next_query())
        print(
            f"  {policy:10s} hit ratio {100 * system.hit_ratio():5.1f}%  "
            f"k-filled keys {system.k_filled_count():5d}  "
            f"flushes {len(system.flush_reports())}"
        )
    print("kFlushing should answer noticeably more queries from memory.")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-microblogs",
        description=(
            "Reproduction harness for 'On Main-memory Flushing in "
            "Microblogs Data Management Systems' (ICDE 2016)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list figures and scale presets").set_defaults(
        fn=_cmd_list
    )

    run = sub.add_parser("run", help="run a figure experiment")
    run.add_argument(
        "--figure",
        default="all",
        choices=sorted(FIGURES) + ["all"],
        help="which paper figure to regenerate",
    )
    run.add_argument(
        "--scale", default=SMALL.name, choices=sorted(PRESETS), help="fidelity preset"
    )
    run.add_argument("--seed", type=int, default=42, help="workload seed")
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for the trial grid (negative = all cores); "
            "results, metrics and events match a serial run"
        ),
    )
    run.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="stream instrumentation events of the run to this JSONL file",
    )
    _add_config_flags(run, TrialSpec, RUN_FIELDS)
    run.set_defaults(fn=_cmd_run)

    stats = sub.add_parser(
        "stats", help="run a tiny workload and dump the metrics registry"
    )
    _add_config_flags(stats, BASE_CONFIG, STATS_FIELDS)
    stats.add_argument("--records", type=int, default=20_000, help="records to ingest")
    stats.add_argument(
        "--queries", type=int, default=2_000, help="queries interleaved with ingestion"
    )
    stats.add_argument("--seed", type=int, default=42, help="workload seed")
    stats.add_argument(
        "--format",
        default="json",
        choices=("json", "prom"),
        help="snapshot format: JSON or Prometheus text exposition",
    )
    stats.add_argument(
        "--out", default=None, metavar="PATH", help="write the snapshot here"
    )
    stats.add_argument(
        "--events-out",
        default=None,
        metavar="PATH",
        help="also stream per-flush/per-query events to this JSONL file",
    )
    stats.set_defaults(fn=_cmd_stats)

    trace = sub.add_parser(
        "trace", help="offline span-tree / attribution analysis of an events JSONL"
    )
    trace.add_argument("path", help="events JSONL (--metrics-out / --events-out output)")
    trace.add_argument(
        "--top", type=int, default=5, help="how many slowest query traces to show"
    )
    trace.add_argument(
        "--require-miss-causes",
        action="store_true",
        help="exit non-zero when the miss-cause table is empty (CI gate)",
    )
    trace.add_argument(
        "--strict",
        action="store_true",
        help=(
            "exit non-zero when any span could not be attached to a "
            "complete trace (dropped_orphans > 0; truncated event files) "
            "or reused a span id already seen (duplicate_spans > 0)"
        ),
    )
    trace.set_defaults(fn=_cmd_trace)

    sub.add_parser("demo", help="quick FIFO vs kFlushing comparison").set_defaults(
        fn=_cmd_demo
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
