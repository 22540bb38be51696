"""The five workloads: system shape, input generation, timed plan.

Every workload is seeded by ``--seed`` alone: the same seed gives the same
records and queries, in the same order.  The stream is the repo's
``MicroblogStream`` (Zipf hashtags, no locations) and the queries are the
paper's Section V loads (``QueryLoad``: 1/3 single, 1/3 AND, 1/3 OR;
correlated = drawn like the data, uniform = drawn over the whole
vocabulary) — a published shape in the spirit of T2K2, not an ad hoc mix.

A timed phase is ``cycles`` repetitions of a fixed ``cycle`` of segments
(each run as a few kernel-bracketed slices, see ``SLICE_OPS``):

* ``I`` — ``INGEST_SEGMENT`` records through ``ingest()``;
* ``Q`` — ``QUERY_SEGMENT`` query strings through
  ``parse_query`` -> ``search`` -> ``fetch_records``;
* ``M`` — ``MIXED_SEGMENT`` (record, query) pairs interleaved 1:1.

Every workload carries both kinds of operation, in very different
proportions, so that every end-to-end metric is defined on every workload
(the benchmark contract asks for that) while each workload still stresses
the layers its ``why`` names.  The amount of work is fixed by
``cycles_per_second * --seconds`` — sized so the timed phase lasts about
``--seconds`` on the reference box — which keeps record counts, hit ratios
and RSS a function of (workload, seed, seconds) only.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig
from repro.engine.queries import CombineMode, TopKQuery
from repro.workload.queryload import QueryLoad, QueryLoadConfig
from repro.workload.stream import MicroblogStream, StreamConfig

INGEST_SEGMENT = 5_000
QUERY_SEGMENT = 1_000
MIXED_SEGMENT = 1_000
#: A segment's inputs are generated in one go, then run in slices of this
#: many operations with a kernel pass between slices: a slice (30-60 ms)
#: is the unit the noise filter keeps or drops.
SLICE_OPS = {"I": 2_500, "Q": 500, "M": 500}

#: ``--smoke`` divides every size (warm-up, cycles, memory budget,
#: verification queries) by this.
SMOKE_DIVISOR = 20

K = 20
#: Op kinds of the three query modes, as the tracer and the tallies key them.
QUERY_MODES = tuple(mode.value for mode in CombineMode)
MEMORY_CAPACITY_BYTES = 3_000_000
DEFAULT_TAG_PROBS = (0.55, 0.30, 0.15)


def _sized(count: int, smoke: bool) -> int:
    return count // SMOKE_DIVISOR if smoke else count


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    vocabulary: int
    tag_probs: tuple[float, ...]
    shards: int
    #: Records ingested before timing so flushing is in steady state.
    warm_records: int
    query_mode: str
    cycle: str
    cycles_per_second: float
    #: Untimed, fully verified queries issued after the timed phase.
    verify_queries: int

    def cycles(self, seconds: float, smoke: bool) -> int:
        count = self.cycles_per_second * seconds
        if smoke:
            count /= SMOKE_DIVISOR
        return max(1, round(count))

    def warm(self, smoke: bool) -> int:
        return _sized(self.warm_records, smoke)

    def verify(self, smoke: bool) -> int:
        return _sized(self.verify_queries, smoke)

    def config(self, smoke: bool) -> SystemConfig:
        """Stable paper knobs only and no default-off flag, so collapsing
        the flag matrix later shows up as a gain, not a broken harness."""
        return SystemConfig(
            policy="kflushing",
            k=K,
            memory_capacity_bytes=_sized(MEMORY_CAPACITY_BYTES, smoke),
            flush_fraction=0.10,
            shards=self.shards,
            and_scan_depth=1000,
            and_disk_limit=1000,
        )


WORKLOADS = (
    Workload(
        name="ingest-tail",
        why="Long Zipf tail below k (vocab 40000): many small entries, so flush Phases 2/3, "
        "victim selection, flush buffer and disk commit dominate ingest; queries are a sliver.",
        vocabulary=40_000,
        tag_probs=DEFAULT_TAG_PROBS,
        shards=1,
        warm_records=100_000,
        query_mode="correlated",
        cycle="IIIIQQ",
        cycles_per_second=1.0,
        verify_queries=2_000,
    ),
    Workload(
        name="ingest-dense",
        why="Every key far above k (vocab 1500, 3 tags/record): index insert and Phase-1 "
        "trimming dominate, Phases 2/3 do little; a Phase-2 optimisation must not move it.",
        vocabulary=1_500,
        tag_probs=(0.10, 0.30, 0.60),
        shards=1,
        warm_records=100_000,
        query_mode="correlated",
        cycle="IIIIQQ",
        cycles_per_second=1.0,
        verify_queries=2_000,
    ),
    Workload(
        name="query-hot",
        why="Correlated queries (~40% memory hits) on a steady-state store: executor AND "
        "intersections on hot keys and memory lookup dominate; ingest is a sliver.",
        vocabulary=12_000,
        tag_probs=DEFAULT_TAG_PROBS,
        shards=1,
        warm_records=100_000,
        query_mode="correlated",
        cycle="QQQQQII",
        cycles_per_second=0.8,
        verify_queries=0,
    ),
    Workload(
        name="query-cold",
        why="Uniform queries (~2% hits) on the same store: the same executor used the other "
        "way, disk lookup/fetch, merge and per-op counters dominate; a memory cache must not move it.",
        vocabulary=12_000,
        tag_probs=DEFAULT_TAG_PROBS,
        shards=1,
        warm_records=100_000,
        query_mode="uniform",
        cycle="QQQQQQQQQQII",
        cycles_per_second=0.8,
        verify_queries=0,
    ),
    Workload(
        name="mixed-sharded",
        why="Records and correlated queries interleaved 1:1 over 4 shards (the paper's steady "
        "state): routing, scatter-gather, many small flushes, query bookkeeping beside ingest.",
        vocabulary=12_000,
        tag_probs=DEFAULT_TAG_PROBS,
        shards=4,
        warm_records=100_000,
        query_mode="correlated",
        cycle="M",
        cycles_per_second=4.5,
        verify_queries=0,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


def render_query(query: TopKQuery) -> str:
    """The search-box string ``parse_query`` turns back into ``query``."""
    if query.mode is CombineMode.SINGLE:
        text = str(query.keys[0])
    else:
        text = f" {query.mode.value.upper()} ".join(str(key) for key in query.keys)
    return text if query.k == K else f"{text} k:{query.k}"


class Inputs:
    """Seeded generator of one workload's records and query strings."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self._stream = MicroblogStream(
            StreamConfig(
                seed=seed,
                vocabulary_size=workload.vocabulary,
                tags_per_record_probs=workload.tag_probs,
                with_locations=False,
            )
        )
        self._queries = QueryLoad(
            QueryLoadConfig(seed=seed + 7919, mode=workload.query_mode, k=K),
            self._stream,
        )

    def records(self, count: int) -> list:
        return self._stream.take(count)

    def queries(self, count: int) -> list[tuple[str, TopKQuery]]:
        """``(text, query)`` pairs: the system is handed ``text``; ``query``
        is what parsing it must give back."""
        return [(render_query(query), query) for query in self._queries.take(count)]
