"""The metric catalog: every metric the benchmark prints, declared once.

``BENCHMARK.json`` at the repo root carries the part of this catalog the
benchmark contract has keys for (name, unit, direction, bound); the rest —
which counts repeat exactly, and which end-to-end metric on which workload
each layer metric is expected to move — lives here and in the README.
``benchmark_json()`` renders the contract file; the test suite checks the
committed file against it.
"""

from __future__ import annotations

from dataclasses import dataclass

from workloads import QUERY_MODES, WORKLOADS

#: How long one run measures on the reference box, and what the suite
#: passes as ``--seconds`` by default.
RUN_SECONDS = 10


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may get worse.
    bound: float
    definition: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: True when the value is a count that repeats exactly for a given
    #: (workload, seed, seconds) under the pinned hash seed.
    exact: bool
    #: The end-to-end metric (and workload) this one is expected to move.
    moves: str


END_TO_END = (
    EndToEnd("ingest_rps", "1/s", "higher", 0.25,
             "records / sum of ingest() call time, flushes included"),
    EndToEnd("ingest_stall_p50_ms", "ms", "lower", 0.25,
             "median of the F slowest ingest() calls, F = flushes in the timed slices: "
             "the pause a producer feels"),
    EndToEnd("query_qps", "1/s", "higher", 0.25,
             "queries / sum of parse+search+fetch time"),
    EndToEnd("query_p50_us", "us", "lower", 0.25, "median per-query time"),
    EndToEnd("query_p99_us", "us", "lower", 0.25, "p99 per-query time"),
    EndToEnd("hit_ratio_pct", "%", "higher", 0.15,
             "queries answered from memory / queries of the timed phase (every slice)"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "ru_maxrss of the workload process at the end of the timed phase"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "wall time to generate the warm-up stream, build the system and "
             "ingest the warm-up; median of the run's set-ups"),
)

_T = "ingest-tail"
_D = "ingest-dense"
_H = "query-hot"
_C = "query-cold"
_M = "mixed-sharded"

PER_LAYER = (
    PerLayer("system.ingest_self_us", "us", "lower", False, "ingest_rps, all workloads (small share)"),
    PerLayer("system.search_self_us", "us", "lower", False, "query_qps, all workloads (small share)"),
    PerLayer("model.keys_us", "us", "lower", False, f"ingest_rps on {_D} (3 tags/record)"),
    PerLayer("model.score_us", "us", "lower", False, f"ingest_rps on {_D}"),
    PerLayer("raw_store.add_us", "us", "lower", False, f"ingest_rps on {_T}, {_D}"),
    PerLayer("raw_store.records_resident", "count", "higher", True, "peak_rss_mb"),
    PerLayer("inverted_index.insert_us", "us", "lower", False, f"ingest_rps on {_D} (most), {_T} (little)"),
    PerLayer("inverted_index.postings_inserted", "count", "lower", True, f"ingest_rps on {_D}"),
    PerLayer("inverted_index.entries_resident", "count", "higher", True, "peak_rss_mb"),
    PerLayer("inverted_index.k_filled_keys", "count", "higher", True, "hit_ratio_pct"),
    PerLayer("kflushing.insert_self_us", "us", "lower", False, "ingest_rps"),
    PerLayer("kflushing.flush_ms", "ms", "lower", False, f"ingest_stall_p50_ms on {_T}, {_M}"),
    PerLayer("kflushing.flushes", "count", "lower", True, f"ingest_rps on {_T}, {_M}"),
    PerLayer("kflushing.flush_share_pct", "%", "lower", False, f"ingest_rps on {_T}, {_M}"),
    PerLayer("kflushing.lookup_us", "us", "lower", False, f"query_p50_us on {_H}"),
    PerLayer("kflushing.lookups_per_query", "count", "lower", True, f"query_p50_us on {_H}"),
    PerLayer("kflushing.note_query_us", "us", "lower", False, f"query_p50_us on {_H}"),
    PerLayer("phases.phase1_ms", "ms", "lower", False, f"ingest_stall_p50_ms on {_D}"),
    PerLayer("phases.phase2_ms", "ms", "lower", False, f"ingest_stall_p50_ms, ingest_rps on {_T}; none on {_D}"),
    PerLayer("phases.phase3_ms", "ms", "lower", False, f"ingest_stall_p50_ms, ingest_rps on {_T}; none on {_D}"),
    PerLayer("phases.phase1_freed_pct", "%", "higher", True, f"hit_ratio_pct on {_M}"),
    PerLayer("phases.phase2_freed_pct", "%", "lower", True, f"hit_ratio_pct on {_M}"),
    PerLayer("phases.phase3_freed_pct", "%", "lower", True, f"hit_ratio_pct on {_M}"),
    PerLayer("phases.postings_flushed", "count", "lower", True, f"ingest_rps on {_T}"),
    PerLayer("phases.entries_flushed", "count", "lower", True, f"ingest_rps on {_T}"),
    PerLayer("phases.records_flushed", "count", "lower", True, f"ingest_rps on {_T}"),
    PerLayer("phases.overshoot_pct", "%", "lower", True, f"hit_ratio_pct on {_M} (wasted eviction)"),
    PerLayer("flush_buffer.commit_self_ms", "ms", "lower", False, f"ingest_stall_p50_ms on {_T}"),
    PerLayer("disk.commit_ms", "ms", "lower", False, f"ingest_stall_p50_ms on {_T}"),
    PerLayer("disk.postings_written", "count", "lower", True, f"ingest_stall_p50_ms on {_T}"),
    PerLayer("disk.bytes_written", "count", "lower", True, f"ingest_stall_p50_ms on {_T}"),
    PerLayer("disk.compactions", "count", "lower", True, f"ingest_stall_p50_ms on {_D}"),
    PerLayer("disk.write_amp", "ratio", "lower", True, f"ingest_stall_p50_ms on {_T}"),
    PerLayer("disk.lookup_us", "us", "lower", False, f"query_qps, query_p99_us on {_C}; little on {_H}"),
    PerLayer("disk.lookups_per_query", "count", "lower", True, f"query_qps on {_C}"),
    PerLayer("disk.fetch_us", "us", "lower", False, f"query_qps on {_C}"),
    PerLayer("disk.fetches_per_query", "count", "lower", True, f"query_qps on {_C}"),
    PerLayer("disk.sim_io_ms_per_query", "ms", "lower", True, f"none (modelled, not wall time); tracks hit_ratio_pct"),
    PerLayer("parser.parse_us", "us", "lower", False, f"query_p50_us on {_C} (cheapest queries)"),
    PerLayer("executor.execute_self_us", "us", "lower", False, "query_qps"),
    PerLayer("executor.single_us", "us", "lower", False, "query_p50_us"),
    PerLayer("executor.or_us", "us", "lower", False, "query_p50_us"),
    PerLayer("executor.and_us", "us", "lower", False, f"query_p99_us, query_qps on {_H}"),
    PerLayer("executor.fetch_self_us", "us", "lower", False, "query_qps"),
    PerLayer("executor.hit_pct_single", "%", "higher", True, "hit_ratio_pct"),
    PerLayer("executor.hit_pct_or", "%", "higher", True, "hit_ratio_pct"),
    PerLayer("executor.hit_pct_and", "%", "higher", True, "hit_ratio_pct"),
    PerLayer("executor.rows_examined_per_result", "ratio", "lower", True, f"executor.and_us, so query_p99_us on {_H}"),
    PerLayer("sharded.route_self_us", "us", "lower", False, f"query_qps, ingest_rps on {_M} only (0 at shards=1)"),
    PerLayer("sharded.flush_skew", "ratio", "lower", True, f"ingest_stall_p50_ms on {_M} only (1 at shards=1)"),
    PerLayer("obs.calls_per_op", "count", "lower", True, f"query_qps on {_C}"),
    PerLayer("obs.self_us_per_op", "us", "lower", False, f"query_qps on {_C}; ingest_rps little"),
    PerLayer("memory.modelled_bytes_used", "count", "lower", True, "peak_rss_mb"),
    PerLayer("memory.rss_growth_mb", "MB", "lower", False, "peak_rss_mb (real vs modelled gap)"),
    PerLayer("trace.overhead_pct", "%", "lower", False, "none: validity of this table"),
    PerLayer("trace.coverage_pct", "%", "higher", False, "none: validity of this table"),
)


def benchmark_json() -> dict:
    """The contract file, rendered from this catalog."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def _per(numerator, denominator, scale: float = 1.0):
    """``scale * numerator / denominator``; None when a hook was missing."""
    if numerator is None or denominator is None:
        return None
    return scale * numerator / denominator if denominator else 0.0


def _add(*parts):
    return None if any(part is None for part in parts) else sum(parts)


def per_layer_values(tracer, window: dict) -> dict:
    """Every ``PER_LAYER`` metric of one traced window.

    ``window`` holds what the harness observed around the traced ops (op
    counts, flush reports, registry counter deltas, resident sizes); the
    tracer holds span times.  Times come from the timed (quiet)
    segments and are divided by the ops, calls or flushes *of those
    segments*; counts come from every segment.
    """
    t = tracer
    ingests, queries = window["ingests"], window["queries"]
    timed_ingests, timed_queries = window["timed_ingests"], window["timed_queries"]
    timed_ops = timed_ingests + timed_queries
    timed_flushes = t.timed_calls("kflushing.run_flush")
    reports = window["flush_reports"]
    freed = sum(report.freed_bytes for report in reports)
    target = sum(report.target_bytes for report in reports)
    phase_freed = {"phase1": 0, "phase2": 0, "phase3": 0}
    for report in reports:
        for phase, nbytes in report.phase_freed.items():
            phase_freed[phase.split("-")[0]] += nbytes
    counters = window["counters"]
    modes = window["modes"]
    us, ms = 1e6, 1e3

    def hit_pct(mode):
        asked, hits = modes[mode]
        return 100.0 * hits / asked if asked else 0.0

    def per_call_us(span, kinds=None):
        return _per(t.self_s(span, kinds), t.timed_calls(span, kinds), us)

    def mode_us(mode):
        return _per(
            t.total_s("executor.execute", (mode,)),
            t.timed_calls("executor.execute", (mode,)),
            us,
        )

    return {
        "system.ingest_self_us": _per(t.self_s("system.ingest"), timed_ingests, us),
        "system.search_self_us": _per(t.self_s("system.search"), timed_queries, us),
        "model.keys_us": _per(t.self_s("model.keys", ("ingest",)), timed_ingests, us),
        "model.score_us": _per(t.self_s("model.score", ("ingest",)), timed_ingests, us),
        "raw_store.add_us": _per(t.self_s("raw_store.add"), timed_ingests, us),
        "raw_store.records_resident": window["records_resident"],
        "inverted_index.insert_us": _per(t.self_s("inverted_index.insert"), timed_ingests, us),
        "inverted_index.postings_inserted": window["postings_inserted"],
        "inverted_index.entries_resident": window["entries_resident"],
        "inverted_index.k_filled_keys": window["k_filled_keys"],
        "kflushing.insert_self_us": _per(t.self_s("kflushing.insert"), timed_ingests, us),
        "kflushing.flush_ms": _per(t.total_s("kflushing.run_flush"), timed_flushes, ms),
        "kflushing.flushes": len(reports),
        "kflushing.flush_share_pct": _per(
            t.total_s("kflushing.run_flush"), t.total_s("system.ingest"), 100.0
        ),
        "kflushing.lookup_us": per_call_us("kflushing.lookup"),
        "kflushing.lookups_per_query": _per(t.calls("kflushing.lookup"), queries),
        "kflushing.note_query_us": _per(t.self_s("kflushing.note_query"), timed_queries, us),
        "phases.phase1_ms": _per(t.total_s("phases.phase1"), timed_flushes, ms),
        "phases.phase2_ms": _per(t.total_s("phases.phase2"), timed_flushes, ms),
        "phases.phase3_ms": _per(t.total_s("phases.phase3"), timed_flushes, ms),
        "phases.phase1_freed_pct": _per(phase_freed["phase1"], freed, 100.0),
        "phases.phase2_freed_pct": _per(phase_freed["phase2"], freed, 100.0),
        "phases.phase3_freed_pct": _per(phase_freed["phase3"], freed, 100.0),
        "phases.postings_flushed": sum(report.postings_flushed for report in reports),
        "phases.entries_flushed": sum(report.entries_flushed for report in reports),
        "phases.records_flushed": sum(report.records_flushed for report in reports),
        "phases.overshoot_pct": 100.0 * (freed / target - 1.0) if target else 0.0,
        "flush_buffer.commit_self_ms": _per(
            t.self_s("flush_buffer.commit"), timed_flushes, ms
        ),
        "disk.commit_ms": _per(t.total_s("disk.commit_flush"), timed_flushes, ms),
        "disk.postings_written": counters.get("disk.postings_written", 0),
        "disk.bytes_written": counters.get("disk.bytes_written", 0),
        "disk.compactions": counters.get("disk.compactions", 0),
        "disk.write_amp": _per(
            counters.get("disk.bytes_written", 0), window["modelled_bytes_ingested"]
        ),
        "disk.lookup_us": per_call_us("disk.lookup"),
        "disk.lookups_per_query": _per(t.calls("disk.lookup"), queries),
        "disk.fetch_us": per_call_us("disk.fetch_record"),
        "disk.fetches_per_query": _per(t.calls("disk.fetch_record"), queries),
        "disk.sim_io_ms_per_query": _per(window["simulated_latency_s"], queries, ms),
        "parser.parse_us": _per(t.self_s("parser.parse"), timed_queries, us),
        "executor.execute_self_us": _per(t.self_s("executor.execute"), timed_queries, us),
        "executor.single_us": mode_us("single"),
        "executor.or_us": mode_us("or"),
        "executor.and_us": mode_us("and"),
        "executor.fetch_self_us": _per(t.self_s("executor.materialize"), timed_queries, us),
        "executor.hit_pct_single": hit_pct("single"),
        "executor.hit_pct_or": hit_pct("or"),
        "executor.hit_pct_and": hit_pct("and"),
        "executor.rows_examined_per_result": _per(
            _add(t.count("kflushing.lookup", QUERY_MODES), t.count("disk.lookup", QUERY_MODES)),
            window["postings_returned"],
        ),
        "sharded.route_self_us": _per(t.self_s("sharded.route"), timed_ops, us),
        "sharded.flush_skew": window["flush_skew"],
        "obs.calls_per_op": _per(
            _add(t.calls("obs.registry"), t.calls("obs.emit")), ingests + queries
        ),
        "obs.self_us_per_op": _per(
            _add(t.self_s("obs.registry"), t.self_s("obs.emit")), timed_ops, us
        ),
        "memory.modelled_bytes_used": window["modelled_bytes_used"],
        "memory.rss_growth_mb": window["rss_growth_mb"],
        "trace.overhead_pct": window["overhead_pct"],
        "trace.coverage_pct": _per(
            _add(t.total_s("system.ingest"), t.total_s("parser.parse"),
                 t.total_s("system.search"), t.total_s("system.fetch_records")),
            window["timed_op_seconds"],
            100.0,
        ),
    }
