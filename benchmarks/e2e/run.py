#!/usr/bin/env python3
"""The repo's one benchmark: ingest, query and mixed workloads, end to end.

Two ways in:

* ``python benchmarks/e2e/run.py [--seed 42] [--trace] [--smoke]
  [--passes N] [--out FILE]`` — the whole suite: every workload in a fresh
  subprocess, every metric printed by name with its unit, answers verified.
* ``python benchmarks/e2e/run.py --workload NAME --seed N --seconds S
  --trace 0|1`` — one workload, as the benchmark driver calls it; the last
  line of standard output is one JSON object with ``correct``,
  ``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
  ``--trace 0``, the per-layer metrics with ``--trace 1``).

Each workload runs in its own process under ``PYTHONHASHSEED=0``: set
iteration order reaches record keyword tuples and scatter-gather
tie-breaks, so counts drift by a few units across hash seeds otherwise, and
interpreter-wide state (interner, active obs scope, RSS) must not leak from
one workload into the next.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_SRC = HERE.parents[1] / "src"
OUT_DIR = HERE / "out"
HASH_SEED = "0"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-phase length at reference speed (default: run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="traced pass: per-layer metrics instead of end-to-end ones")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 of every size; whole suite in well under 30 s")
    parser.add_argument("--passes", type=int, default=1, help="suite passes (suite mode)")
    parser.add_argument("--out", type=Path, help="write the suite's results as JSON here")
    parser.add_argument("--full", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _print_metrics(title: str, values: dict, units: dict) -> None:
    print(f"  {title}")
    for name, value in values.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"    {name:38s} {shown:>14s} {units[name]}")


def _single(args) -> int:
    """One workload in this process (re-executed under the pinned hash seed)."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)
    if not (REPO_SRC / "repro").is_dir():
        print(f"error: the system under test is not at {REPO_SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(REPO_SRC), str(HERE)]
    import catalog
    import harness
    from workloads import BY_NAME

    workload = BY_NAME.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(BY_NAME)}",
              file=sys.stderr)
        return 2
    seconds = catalog.RUN_SECONDS if args.seconds is None else args.seconds
    result = harness.run_workload(
        workload, args.seed, seconds, bool(args.trace), args.smoke, OUT_DIR
    )

    for line in result["info"]["warnings"]:
        print(f"warning: {line}")
    for line in result["info"]["failures"]:
        print(f"failure: {line}")
    speed = result["host_speed"]
    print(f"{workload.name}  seed={args.seed}  seconds={seconds:g}"
          f"{'  smoke' if args.smoke else ''}{'  traced' if args.trace else ''}")
    print(f"  host_speed median={speed['median']:.3f} min={speed['min']:.3f} "
          f"max={speed['max']:.3f} noisy={str(speed['noisy']).lower()}")
    info = result["info"]
    print(f"  records={info['records']} queries={info['queries']} flushes={info['flushes']} "
          f"verified={info['verified_queries']} truncated={str(info['truncated']).lower()}")
    print(f"  timed slices: {info['timed_slices']} of {info['slices']} "
          f"(records={info['timed_records']} queries={info['timed_queries']} "
          f"F={info['timed_flushes']})")
    print(f"  information only: ingest_stall_p90_ms={info['ingest_stall_p90_ms']:.3f} "
          f"ingest_stall_max_ms={info['ingest_stall_max_ms']:.3f} "
          f"query_p99.9_us={info['query_p99.9_us']:.1f}")
    if args.trace:
        units = {m.name: m.unit for m in catalog.PER_LAYER}
        chosen = result["per_layer"]
        _print_metrics("per-layer metrics (traced pass)", chosen, units)
    else:
        units = {m.name: m.unit for m in catalog.END_TO_END}
        chosen = result["end_to_end"]
        _print_metrics("end-to-end metrics (untraced pass)", chosen, units)
    print(f"  failed_ops_pct {100.0 * result['failed'] / result['attempted']:.4f} % "
          f"({result['failed']} of {result['attempted']})")

    if args.full:
        document = result
    else:
        document = {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in chosen.items()
            },
        }
    print(json.dumps(document))
    return 0


def _child(workload: str, args, trace: int) -> dict:
    """Run one workload in a fresh subprocess; returns its full result."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--trace", str(trace), "--full"]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        raise SystemExit(f"workload {workload} exited with code {done.returncode}")
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def _suite(args) -> int:
    """Every workload, each in its own subprocess; optional traced pass."""
    contract = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in contract["workloads"]]
    passes = []
    for number in range(1, args.passes + 1):
        print(f"== pass {number} of {args.passes}: untraced ==")
        passes.append({name: _child(name, args, trace=0) for name in names})
    traced = None
    if args.trace:
        print("== traced pass ==")
        traced = {name: _child(name, args, trace=1) for name in names}

    everything = [result for one in passes for result in one.values()]
    everything += list((traced or {}).values())
    failed = sum(result["failed"] for result in everything)
    noisy = sorted({r["workload"] for r in everything if r["host_speed"]["noisy"]})
    print(f"== {len(passes)} pass(es), {len(names)} workloads: {failed} failed ops"
          f"{'; noisy: ' + ', '.join(noisy) if noisy else ''} ==")
    if args.passes > 1:
        for name in names:
            for metric in contract["end_to_end"]:
                values = [one[name]["end_to_end"][metric["name"]] for one in passes]
                print(f"  {name:14s} {metric['name']:22s} median {statistics.median(values):12.6g} "
                      f"min {min(values):12.6g} max {max(values):12.6g} {metric['unit']}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        document = {"seed": args.seed, "smoke": args.smoke, "passes": passes, "traced": traced}
        args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload is not None:
        return _single(args)
    return _suite(args)


if __name__ == "__main__":
    sys.exit(main())
