"""One workload, one process: set up, time, verify, report.

The system is driven only through its public facade
(``build_system``/``ingest``/``search``/``fetch_records``/``parse_query``/
``flush_reports``/``snapshot``/``check_integrity``), closed loop, one
client, one thread.  Inputs are generated between timed segments, never
inside one; every slice of a segment is bracketed by the calibration
kernel (see ``timebase``).  Verification (oracle, integrity) runs after timing.

Two things keep the wall-clock numbers steady on a shared box:

* **Quiet slices only.**  The host slows down in bursts of 50-500 ms.
  Segments run as 30-60 ms slices with a kernel pass between slices, and
  timings are built only from the slices whose two bracketing kernel
  readings sit at the window's quiet level — chosen by what the *kernel*
  saw, never by what the program did.  Counts (hits, flushes, calls) are
  always taken over every slice, so they do not depend on the host.
* **The collector is kept off the modelled disk.**  The disk tier keeps
  every flushed record as a live Python object, so CPython's full
  collections would cost time proportional to the *disk* size — 100-300 ms
  pauses that dwarf a flush.  ``gc.freeze()`` between segments parks what
  survived out of the collector's sight, as a real disk would be; young
  collections run as usual.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import repro.engine.parser as parser
from repro.engine.sharded import build_system

import catalog
import oracle
from spans import Tracer, engines
from timebase import C_REF_S, Kernel, percentile, speed_summary
from workloads import (
    INGEST_SEGMENT, MIXED_SEGMENT, QUERY_MODES, QUERY_SEGMENT, SLICE_OPS, Inputs, Workload,
)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Warm-up records ingested between two ``gc.freeze()`` calls during set-up.
SETUP_CHUNK = 10_000
#: A slice is quiet when both kernel readings around it are within this
#: factor of its kind's quiet level.
QUIET_FACTOR = 1.2
#: Timings are built from the quiet slices of each kind, or from this share
#: with the lowest readings if fewer are quiet (a thoroughly disturbed run).
MIN_KEEP_SHARE = 1 / 4
#: One timed query in this many is checked against the oracle.
VERIFY_EVERY = 50
#: The timed phase stops early once it has run this many times ``--seconds``
#: (a much slower host); the result is then flagged ``truncated``.
OVERRUN_FACTOR = 1.6
#: The traced pass does this share of the untraced pass's cycles (traced
#: ops are up to twice as slow and the run must still fit its time slot),
#: the first ``_TRACE_BASELINE_SHARE`` of them before hooks are installed,
#: as the untraced baseline ``trace.overhead_pct`` compares against.
_TRACE_WORK_SHARE = 3 / 4
_TRACE_BASELINE_SHARE = 1 / 3

_clock = time.perf_counter_ns


def _rss_mb() -> float:
    """Current resident set size (Linux)."""
    with open("/proc/self/statm", encoding="ascii") as statm:
        pages = int(statm.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Slice:
    """One timed slice, raw."""

    kind: str
    #: Kernel seconds just before and just after the slice.
    kernel_s: tuple[float, float]
    ingest_ns: list[int]
    query_ns: list[int]
    flushes: int
    #: The tracer's cells for this slice (empty when untraced).
    cells: dict


class Tally:
    """What one window of timed slices observed."""

    def __init__(self) -> None:
        self.slices: list[Slice] = []
        #: mode -> [asked, memory hits]
        self.modes = {mode: [0, 0] for mode in QUERY_MODES}
        self.postings_returned = 0
        self.simulated_latency_s = 0.0
        self.postings_inserted = 0

    @property
    def queries(self) -> int:
        return sum(asked for asked, _ in self.modes.values())

    @property
    def hits(self) -> int:
        return sum(hits for _, hits in self.modes.values())


class Timing:
    """Timings of a window, built from its quiet slices only.

    A slice is quiet when both kernel readings around it are within
    ``QUIET_FACTOR`` of the quiet level of its kind (the 10th percentile of
    that kind's readings: what ran just before a kernel pass decides how
    warm the kernel's table is, so each kind has its own level).  When the
    host was disturbed nearly all the time, the ``MIN_KEEP_SHARE`` of the
    slices with the lowest readings stand in.
    """

    def __init__(self, slices: list[Slice]) -> None:
        self.kept: list[Slice] = []
        for kind in sorted({piece.kind for piece in slices}):
            group = sorted(
                (piece for piece in slices if piece.kind == kind),
                key=lambda piece: max(piece.kernel_s),
            )
            readings = sorted(reading for piece in group for reading in piece.kernel_s)
            limit = QUIET_FACTOR * percentile(readings, 10)
            quiet = sum(max(piece.kernel_s) <= limit for piece in group)
            self.kept += group[: max(quiet, math.ceil(MIN_KEEP_SHARE * len(group)))]
        self.ingest_s = sorted(1e-9 * ns for piece in self.kept for ns in piece.ingest_ns)
        self.query_s = sorted(1e-9 * ns for piece in self.kept for ns in piece.query_ns)
        self.flushes = sum(piece.flushes for piece in self.kept)

    def per_op_s(self) -> float:
        return (sum(self.ingest_s) + sum(self.query_s)) / (
            len(self.ingest_s) + len(self.query_s)
        )


class Run:
    """A built, warmed-up system plus everything needed to drive it."""

    def __init__(self, workload: Workload, seed: int, smoke: bool, kernel: Kernel) -> None:
        self.kernel = kernel
        start = time.perf_counter()
        self.inputs = Inputs(workload, seed)
        self.system = build_system(workload.config(smoke))
        #: Every record ingested, in order (references only: the modelled
        #: disk keeps the records alive anyway).  The oracle's ground truth.
        self.history = self.inputs.records(workload.warm(smoke))
        for offset in range(0, len(self.history), SETUP_CHUNK):
            gc.freeze()
            for record in self.history[offset : offset + SETUP_CHUNK]:
                self.system.ingest(record)
        #: Wall seconds this set-up took.
        self.setup_s = time.perf_counter() - start
        self.ingested = len(self.history)
        self.tracer: Tracer | None = None
        self.checks: list[oracle.Check] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._query_serial = 0

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(reason)

    # -- timed phase --------------------------------------------------------

    def segment(self, kind: str, tally: Tally) -> None:
        """Generate one segment's inputs (untimed), then run it timed."""
        if kind == "I":
            ops = self.inputs.records(INGEST_SEGMENT)
        elif kind == "Q":
            ops = self.inputs.queries(QUERY_SEGMENT)
        else:
            records = self.inputs.records(MIXED_SEGMENT)
            queries = self.inputs.queries(MIXED_SEGMENT)
            ops = [op for pair in zip(records, queries) for op in pair]
        gc.freeze()
        self._timed(kind, ops, tally, verify_all=False)

    def _timed(self, kind: str, ops: list, tally: Tally, verify_all: bool) -> None:
        """Run ``ops`` as slices with a kernel pass before, between and after."""
        reading = self.kernel.run()
        for offset in range(0, len(ops), SLICE_OPS[kind]):
            piece, answered = self._slice(kind, ops[offset : offset + SLICE_OPS[kind]], tally)
            piece.kernel_s = (reading, reading := self.kernel.run())
            tally.slices.append(piece)
            for text, expected, query, result, fetched, ingested in answered:
                mode = tally.modes[expected.mode.value]
                mode[0] += 1
                mode[1] += result.memory_hit
                tally.postings_returned += len(result.postings)
                tally.simulated_latency_s += result.simulated_latency
                self._query_serial += 1
                if verify_all or self._query_serial % VERIFY_EVERY == 0:
                    self.checks.append(
                        oracle.Check(
                            text, expected, query, result,
                            tuple(record.blog_id for record in fetched), ingested,
                        )
                    )

    def _slice(self, kind: str, ops: list, tally: Tally) -> tuple[Slice, list[tuple]]:
        """Time each op of one slice; returns it with the answered queries."""
        system = self.system
        # Resolved per slice: the tracer swaps these attributes.
        ingest, search, fetch = system.ingest, system.search, system.fetch_records
        parse = parser.parse_query
        begin_op = self.tracer.begin_op if self.tracer is not None else _no_op
        ingest_ns: list[int] = []
        query_ns: list[int] = []
        answered: list[tuple] = []
        flushes_before = len(system.flush_reports())
        for op in ops:
            self.attempted += 1
            if type(op) is tuple:
                text, expected = op
                begin_op(expected.mode.value)
                start = _clock()
                try:
                    query = parse(text)
                    result = search(query)
                    fetched = fetch(result)
                except Exception:  # an op that raises is a failed op, not a crash
                    self.fail(f"query {text!r}: {traceback.format_exc(limit=3)}")
                    continue
                query_ns.append(_clock() - start)
                answered.append((text, expected, query, result, fetched, self.ingested))
            else:
                begin_op("ingest")
                start = _clock()
                try:
                    ingest(op)
                except Exception:
                    self.fail(f"ingest {op.blog_id}: {traceback.format_exc(limit=3)}")
                    continue
                ingest_ns.append(_clock() - start)
                self.history.append(op)
                self.ingested += 1
                tally.postings_inserted += len(op.keywords)
        piece = Slice(
            kind, (0.0, 0.0), ingest_ns, query_ns,
            len(system.flush_reports()) - flushes_before,
            self.tracer.take_slice() if self.tracer is not None else {},
        )
        return piece, answered

    # -- after timing ---------------------------------------------------

    def verify(self, extra_queries: int) -> None:
        """Untimed: ``extra_queries`` fully checked queries, the oracle over
        every sampled answer, and the system's own integrity check."""
        if extra_queries:
            self._timed("Q", self.inputs.queries(extra_queries), Tally(), verify_all=True)
        self.attempted += 1
        try:
            self.system.check_integrity()
        except Exception:
            self.fail(f"check_integrity: {traceback.format_exc(limit=3)}")
        for reason in oracle.verify(self.system, self.history, self.checks):
            self.fail(reason)


def _no_op(kind: str) -> None:
    pass


def _set_up(workload: Workload, seed: int, smoke: bool, kernel: Kernel) -> tuple[Run, list[float]]:
    """Build and warm the system ``SETUP_REPEATS`` times; keep the last.

    Returns ``(run, wall seconds of each set-up)``.
    """
    seconds = []
    for _ in range(SETUP_REPEATS):
        run = None  # drop the previous system before building the next
        gc.unfreeze()
        gc.collect()
        run = Run(workload, seed, smoke, kernel)
        seconds.append(run.setup_s)
    return run, seconds


def _end_to_end(tally: Tally, timing: Timing, setup_s: float, peak_rss_mb: float):
    """The end-to-end metrics of the untraced window, plus the
    information-only figures (sample counts, ungated tail percentiles)."""
    ingest, query = timing.ingest_s, timing.query_s
    stalls = ingest[-max(timing.flushes, 1):]
    metrics = {
        "ingest_rps": len(ingest) / sum(ingest),
        "ingest_stall_p50_ms": 1e3 * percentile(stalls, 50),
        "query_qps": len(query) / sum(query),
        "query_p50_us": 1e6 * percentile(query, 50),
        "query_p99_us": 1e6 * percentile(query, 99),
        "hit_ratio_pct": 100.0 * tally.hits / tally.queries,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }
    slices = tally.slices
    info = {
        "records": sum(len(piece.ingest_ns) for piece in slices),
        "queries": tally.queries,
        "flushes": sum(piece.flushes for piece in slices),
        "timed_records": len(ingest),
        "timed_queries": len(query),
        "timed_flushes": timing.flushes,
        "slices": len(slices),
        "timed_slices": len(timing.kept),
        # What the same figures read without the noise filter.
        "all_slices_ingest_rps": 1e9 * sum(len(piece.ingest_ns) for piece in slices)
        / sum(sum(piece.ingest_ns) for piece in slices),
        "all_slices_query_qps": 1e9 * sum(len(piece.query_ns) for piece in slices)
        / sum(sum(piece.query_ns) for piece in slices),
        "ingest_stall_p90_ms": 1e3 * percentile(stalls, 90),
        "ingest_stall_max_ms": 1e3 * stalls[-1],
        "query_p99.9_us": 1e6 * percentile(query, 99.9),
    }
    return metrics, info


def _counter_delta(before: dict, after: dict) -> dict:
    return {
        name: value - before["counters"].get(name, 0)
        for name, value in after["counters"].items()
    }


def _per_layer(run: Run, tracer: Tracer, base: Timing, tally: Tally, timing: Timing,
               observed: dict) -> dict:
    """Fold the traced window into the tracer and derive every per-layer
    metric from it."""
    system = run.system
    kept = {id(piece) for piece in timing.kept}
    for piece in tally.slices:
        tracer.add(piece.cells, timed=id(piece) in kept)

    def resident():
        try:
            return sum(engine.record_count() for engine in engines(system))
        except AttributeError:
            return None

    window = dict(
        observed,
        ingests=sum(len(piece.ingest_ns) for piece in tally.slices),
        queries=tally.queries,
        timed_ingests=len(timing.ingest_s),
        timed_queries=len(timing.query_s),
        timed_op_seconds=sum(timing.ingest_s) + sum(timing.query_s),
        modes=tally.modes,
        postings_inserted=tally.postings_inserted,
        postings_returned=tally.postings_returned,
        simulated_latency_s=tally.simulated_latency_s,
        records_resident=resident(),
        entries_resident=len(system.frequency_snapshot()),
        k_filled_keys=system.k_filled_count(),
        modelled_bytes_used=round(
            system.memory_utilization() * system.config.total_capacity_bytes
        ),
        flush_skew=system.snapshot().get("shard_skew", {}).get("flush_skew", 1.0),
        overhead_pct=100.0 * (timing.per_op_s() / base.per_op_s() - 1.0),
    )
    return catalog.per_layer_values(tracer, window)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 smoke: bool, out_dir: Path) -> dict:
    """Run one workload in this process and return its result document."""
    kernel = Kernel()
    rss_before = _rss_mb()
    run, setup_seconds = _set_up(workload, seed, smoke, kernel)
    rss_after_setup = _rss_mb()

    cycles = workload.cycles(seconds, smoke)
    if trace:
        cycles = max(2, round(cycles * _TRACE_WORK_SHARE))
    baseline_cycles = max(1, round(cycles * _TRACE_BASELINE_SHARE)) if trace else cycles
    deadline = time.perf_counter() + OVERRUN_FACTOR * seconds

    def run_cycles(count: int, tally: Tally) -> int:
        """Run ``count`` cycles, fewer if the deadline passes; returns how
        many ran."""
        for done in range(1, count + 1):
            for kind in workload.cycle:
                run.segment(kind, tally)
            if time.perf_counter() > deadline:
                return done
        return count

    gc.collect()
    base = Tally()
    timed_phase_start = time.perf_counter()
    done = run_cycles(baseline_cycles, base)
    peak_rss_mb = _peak_rss_mb()
    base_timing = Timing(base.slices)
    slices = list(base.slices)

    warnings: list[str] = []
    per_layer = budgets = None
    if trace:
        system = run.system
        tracer = run.tracer = Tracer()
        warnings = tracer.install(system)
        counters_before = system.snapshot()
        reports_before = len(system.flush_reports())
        history_before = len(run.history)
        traced = Tally()
        done += run_cycles(cycles - baseline_cycles, traced)
        tracer.uninstall()
        run.tracer = None
        model = system.config.memory_model
        observed = {
            "counters": _counter_delta(counters_before, system.snapshot()),
            "flush_reports": list(system.flush_reports()[reports_before:]),
            "modelled_bytes_ingested": sum(
                model.record_bytes(record) + model.postings_bytes(len(record.keywords))
                for record in run.history[history_before:]
            ),
            "rss_growth_mb": _rss_mb() - rss_before,
        }
        traced_timing = Timing(traced.slices)
        per_layer = _per_layer(run, tracer, base_timing, traced, traced_timing, observed)
        budgets = {"ingest": tracer.budget(("ingest",)), "query": tracer.budget(QUERY_MODES)}
        tracer.write_spans(out_dir / f"trace-{workload.name}.jsonl")
        slices += traced.slices

    timed_phase_wall_s = time.perf_counter() - timed_phase_start
    run.verify(workload.verify(smoke))

    metrics, info = _end_to_end(
        base, base_timing, statistics.median(setup_seconds), peak_rss_mb
    )
    info.update(
        {
            "cycles": done,
            "timed_phase_wall_s": timed_phase_wall_s,
            "truncated": done < cycles,
            "setup_seconds": setup_seconds,
            "rss_after_setup_mb": rss_after_setup,
            "verified_queries": len(run.checks),
            "failures": run.failures,
            "warnings": warnings,
        }
    )
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "end_to_end": metrics,
        "per_layer": per_layer,
        "budgets": budgets,
        "host_speed": speed_summary(
            [sum(piece.kernel_s) / 2.0 / C_REF_S for piece in slices]
        ),
        "info": info,
    }
