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
    (flush phase spans, per-mode query counters, disk I/O, ingest-stall
    histogram, per-shard gauges when sharded) as JSON or
    Prometheus-style text; the system's invariants are checked before
    the dump.
``trace metrics.jsonl [--top 5] [--require-miss-causes] [--strict]``
    Offline analysis of an events JSONL (``--metrics-out`` /
    ``--events-out`` output): reconstruct query/flush span trees, print
    the top-N slowest queries with their shard/disk breakdown, flush
    wall-time attribution per phase, the eviction-cause miss table, and
    the count of orphan spans dropped during reconstruction
    (``--strict`` turns orphans into a non-zero exit).
``slo spec.json (--events m.jsonl | --url http://...) [--check]``
    Evaluate a declarative SLO spec against captured metrics (registry
    snapshots inside an events JSONL) or a live ops endpoint's
    ``/snapshot``; exits non-zero on any violated objective (``--check``
    also fails objectives with no data).
``serve [--port 8080] [--policy kflushing] [--duration 0]``
    Standalone ops-endpoint demo: drive a continuous synthetic workload
    while serving ``/metrics`` (Prometheus), ``/snapshot`` (JSON) and
    ``/healthz`` on the given port.  ``run --serve PORT`` serves the
    same endpoints for the duration of a figure run.
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
from functools import partial
from pathlib import Path
from typing import Optional, Sequence, get_args, get_type_hints

from repro.config import SystemConfig
from repro.core import policy_names
from repro.engine.sharded import build_system
from repro.engine.system import MicroblogSystem
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.report import format_miss_attribution, print_figure
from repro.experiments.runner import TrialSpec
from repro.experiments.scale import PRESETS, SMALL
from repro.obs import (
    Instrumentation,
    JsonlSink,
    MetricsRegistry,
    activated,
    to_json,
    to_prometheus_text,
)
from repro.obs.slo import SLOSpec, evaluate_registry
from repro.obs.traceview import (
    build_traces_report,
    flush_attribution,
    load_events,
    merge_snapshot_events,
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
    "slo_spec": (
        "--slo",
        "SPEC",
        "SLO spec (JSON file path or inline JSON object): every system "
        "tracks its error budgets at flush boundaries; run exits non-zero "
        "when the aggregate registry violates any objective; with an ops "
        "endpoint also turns on /slo and breach-aware /healthz",
    ),
    "flight_recorder_events": (
        "--flight-recorder",
        "N",
        "keep the last N instrumentation events in a flight-recorder ring "
        "per system; an SLO breach dumps them plus the registry and SLO "
        "state as JSONL (0 = off, zero overhead)",
    ),
    "flight_recorder_path": (
        "--flight-recorder-dump",
        "PATH",
        "where breach dumps are written (default: "
        "flight_recorder_dump.jsonl in the working directory)",
    ),
}
RUN_FIELDS = ("shards", "slo_spec", "flight_recorder_events", "flight_recorder_path")
STATS_FIELDS = ("policy", "k", "memory_capacity_bytes", "shards")
SERVE_FIELDS = ("policy", "shards", "slo_spec", "flight_recorder_events")

#: The small system ``stats``, ``serve`` and ``demo`` drive: a budget a
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
            choices=policy_names() if name == "policy" else None,
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


def _slo_verdict(report: dict, check: bool = False, as_json: bool = False) -> int:
    """Print an SLO evaluation and its verdict line; return the exit code.

    Violations fail; objectives with no data fail only under ``check``.
    """
    objectives = report["objectives"]
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("-- SLO report --")
        for obj in objectives:
            if obj["no_data"]:
                status, shown = "NO DATA", "-"
            else:
                status, shown = ("ok" if obj["ok"] else "VIOLATED"), f"{obj['value']:g}"
            print(
                f"  {status:9s} {obj['name']}: {obj['metric']} {obj['op']} "
                f"{obj['threshold']:g} (observed {shown})"
            )
    violations = sum(1 for obj in objectives if not obj["no_data"] and not obj["ok"])
    no_data = sum(1 for obj in objectives if obj["no_data"])
    if violations:
        print(f"[slo: {violations} objective(s) violated]")
        return 1
    if no_data:
        print(f"[slo: {no_data} objective(s) had no data]")
        # --check is the CI gate: an objective that silently never
        # measured anything must fail loudly, not pass vacuously.
        return 1 if check else 0
    print("[slo: all objectives met]")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    preset = PRESETS[args.scale]
    names = sorted(FIGURES) if args.figure == "all" else [args.figure]
    overrides = {
        name: value
        for name, value in _config_values(args, RUN_FIELDS).items()
        if value != getattr(TrialSpec, name)
    }
    # Fail fast: a malformed spec should die before hours of trials.
    slo_spec = SLOSpec.parse(args.slo_spec) if args.slo_spec else None
    obs: Optional[Instrumentation] = None
    if args.metrics_out or slo_spec is not None or args.serve is not None:
        # Every system of the run, in this process or a worker, reports to
        # one registry: the miss table, the SLO verdict and /metrics read
        # it.  Metrics-collecting runs also get trace trees; they and SLO
        # runs get eviction-cause miss attribution.
        obs = Instrumentation(
            sink=JsonlSink(args.metrics_out) if args.metrics_out else None,
            tracing=bool(args.metrics_out),
            attribution=bool(args.metrics_out) or slo_spec is not None,
        )
    server = None
    if args.serve is not None:
        from repro.obs import OpsServer

        slo_provider = None
        if slo_spec is not None:
            slo_provider = partial(evaluate_registry, slo_spec, obs.registry)
        server = OpsServer(obs.registry, port=args.serve, slo_provider=slo_provider).start()
        endpoints = "/metrics /snapshot /healthz" + (" /slo" if slo_spec else "")
        print(f"[ops endpoint live at {server.url} — {endpoints}]")
    exit_code = 0
    try:
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
        if args.metrics_out:
            causes = obs.registry.counter_values("query.miss.cause.")
            if causes:
                print(format_miss_attribution(causes))
                print()
            obs.event("run_snapshot", figures=names, metrics=obs.registry.snapshot())
            obs.close()
            print(f"[metrics written to {args.metrics_out}]")
        if slo_spec is not None:
            # One-shot verdict over the whole run (the per-system
            # SLOTrackers already ticked at flush boundaries; this is the
            # CI-facing aggregate over the shared registry).
            exit_code = _slo_verdict(evaluate_registry(slo_spec, obs.registry))
    finally:
        if server is not None:
            server.stop()
    return exit_code


def _cmd_trace(args: argparse.Namespace) -> int:
    """Offline analysis of an events JSONL: span trees + attributions."""
    events = load_events(args.path)
    report = build_traces_report(events)
    traces = report.traces
    print(f"[{args.path}: {len(events)} events, {len(traces)} complete traces]")
    print(f"[dropped_orphans: {report.dropped_orphans}]")

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
    return 0


def _slo_registry_from_url(url: str) -> MetricsRegistry:
    """Registry built from a live ops endpoint's ``/snapshot``."""
    from urllib.request import urlopen

    base = url.rstrip("/")
    if not base.endswith("/snapshot"):
        base = f"{base}/snapshot"
    with urlopen(base, timeout=10.0) as response:
        payload = json.loads(response.read().decode("utf-8"))
    registry = MetricsRegistry()
    registry.merge(payload)
    return registry


def _cmd_slo(args: argparse.Namespace) -> int:
    """Evaluate an SLO spec against captured or live metrics."""
    if bool(args.events) == bool(args.url):
        print("error: provide exactly one of --events, --url")
        return 2
    try:
        spec = SLOSpec.parse(args.spec)
    except (ValueError, OSError) as exc:
        print(f"error: invalid SLO spec: {exc}")
        return 2
    try:
        if args.events:
            registry = merge_snapshot_events(args.events)
        else:
            registry = _slo_registry_from_url(args.url)
    except (OSError, ValueError) as exc:
        print(f"error: could not load metrics: {exc}")
        return 2
    return _slo_verdict(evaluate_registry(spec, registry), args.check, args.json)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Standalone ops-endpoint demo over a continuous workload."""
    from repro.obs import OpsServer

    obs = Instrumentation(attribution=True)
    config = replace(BASE_CONFIG, **_config_values(args, SERVE_FIELDS))
    system = build_system(config, obs=obs)
    server = OpsServer(
        system.obs.registry,
        port=args.port,
        snapshot_provider=system.snapshot,
        slo_provider=system.slo_state if args.slo_spec else None,
    ).start()
    endpoints = "/metrics /snapshot /healthz" + (" /slo" if args.slo_spec else "")
    print(f"[serving {endpoints} at {server.url}]")
    if args.duration > 0:
        print(f"[driving a {args.policy} workload for {args.duration:.0f}s ...]")
    else:
        print(f"[driving a {args.policy} workload until interrupted (Ctrl-C) ...]")
    stream = MicroblogStream(
        StreamConfig(seed=args.seed, vocabulary_size=5_000, with_locations=False)
    )
    queries = QueryLoad(QueryLoadConfig(seed=args.seed + 1, mode="correlated"), stream)
    deadline = time.monotonic() + args.duration if args.duration > 0 else None
    try:
        while deadline is None or time.monotonic() < deadline:
            for record in stream.take(500):
                system.ingest(record)
            for _ in range(50):
                system.search(queries.next_query())
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    print(
        f"[served {args.policy}: hit ratio {100 * system.hit_ratio():.1f}%, "
        f"{len(system.flush_reports())} flushes]"
    )
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
    # snapshot() refreshes the per-shard gauges into the registry, so the
    # rendered dump includes shard.<i>.* series for a sharded run; it also
    # carries the per-key hotness tables when query-heat tracking is on.
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
    run.add_argument(
        "--serve",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "serve /metrics, /snapshot and /healthz on this port for the "
            "duration of the run (0 = OS-assigned)"
        ),
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
            "complete trace (dropped_orphans > 0; CI gate for truncated "
            "event files)"
        ),
    )
    trace.set_defaults(fn=_cmd_trace)

    slo = sub.add_parser(
        "slo", help="evaluate an SLO spec against captured or live metrics"
    )
    slo.add_argument(
        "spec", help="SLO spec: JSON file path or inline JSON object"
    )
    slo.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help=(
            "evaluate against the merged registry snapshots of an events "
            "JSONL (--metrics-out / --events-out output)"
        ),
    )
    slo.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help="evaluate against a live ops endpoint's /snapshot",
    )
    slo.add_argument(
        "--check",
        action="store_true",
        help=(
            "CI gate: also exit non-zero when any objective had no data "
            "(a spec that measures nothing must not pass vacuously)"
        ),
    )
    slo.add_argument(
        "--json",
        action="store_true",
        help="print the evaluation as JSON instead of a table",
    )
    slo.set_defaults(fn=_cmd_slo)

    serve = sub.add_parser(
        "serve", help="live ops endpoint over a continuous demo workload"
    )
    serve.add_argument(
        "--port", type=int, default=8080, help="HTTP port (0 = OS-assigned)"
    )
    _add_config_flags(serve, BASE_CONFIG, SERVE_FIELDS)
    serve.add_argument("--seed", type=int, default=42, help="workload seed")
    serve.add_argument(
        "--duration",
        type=float,
        default=0.0,
        help="seconds to run before exiting (0 = until interrupted)",
    )
    serve.set_defaults(fn=_cmd_serve)

    sub.add_parser("demo", help="quick FIFO vs kFlushing comparison").set_defaults(
        fn=_cmd_demo
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
