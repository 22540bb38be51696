"""Equivalence tests for the perf fast paths and the one read shape.

Every optimization here is required to be behaviour-preserving, and these
tests are the proof obligations:

* the incremental k-filled counter must equal a brute-force recount after
  any interleaving of inserts, trims, evictions, and ``set_k``;
* a trial whose MK probes are brute-force definitions must be identical
  to one whose probes read the per-phase memos;
* entry-at-a-time eviction (one index charge, one ledger note, one
  record release and one staging call per entry, at memoized record
  costs) must leave every report, floor, store, archive and buffer peak
  exactly where the per-posting reference leaves them;
* every posting store has one read, ``top(n)``: an uncapped lookup equals
  the lookup capped at the posting count, best first;
* the process-parallel runner must return exactly what the serial loop
  returned, in the same order.
"""

import random
from collections import Counter

import pytest

from repro.config import SystemConfig
from repro.core import create_engine, phases
from repro.core.eviction_ledger import CAUSE_TRIMMED_TOPK, CAUSE_WHOLE_KEY_LRU
from repro.core.kflushing import KFlushingEngine
from repro.core.lru import LRUEngine
from repro.engine.sharded import build_system
from repro.experiments.parallel import resolve_jobs, run_trials
from repro.experiments.runner import TrialSpec, run_digestion_stress, run_trial
from repro.obs import Instrumentation
from repro.storage.disk import DiskArchive
from repro.storage.flush_buffer import FlushBuffer
from repro.storage.inverted_index import HashInvertedIndex
from repro.storage.memory_model import MemoryModel
from repro.storage.posting_list import Posting, PostingList
from repro.workload.queryload import QueryLoad, QueryLoadConfig
from repro.workload.stream import MicroblogStream, StreamConfig
from tests.conftest import engine_kwargs, insert, make_blog
from tests.test_experiments import MICRO


def posting(i):
    return Posting(float(i), float(i), i)


class TestKFilledIncremental:
    """The incremental counter vs a brute-force recount, adversarially."""

    def test_insert_turns_entries_on(self):
        index = HashInvertedIndex(MemoryModel(), k=3)
        for i in range(1, 4):
            index.insert("a", posting(i), now=float(i))
            assert index.k_filled_count() == index.k_filled_count_bruteforce()
        assert index.k_filled_count() == 1

    def test_random_workload_never_drifts(self):
        rng = random.Random(1234)
        index = HashInvertedIndex(MemoryModel(), k=4)
        keys = [f"kw{i}" for i in range(12)]
        next_id = 1
        for step in range(600):
            op = rng.random()
            key = rng.choice(keys)
            entry = index.get(key)
            if op < 0.55 or entry is None:
                index.insert(key, posting(next_id), now=float(next_id))
                next_id += 1
            elif op < 0.75 and len(entry) > index.k:
                removed = entry.trim_beyond(index.k)
                index.charge_removed_postings(len(removed), key, entry=entry)
            elif op < 0.85 and len(entry) > 0:
                victim = rng.choice([p.blog_id for p in entry])
                entry.remove_id(victim)
                index.charge_removed_postings(1, key, entry=entry)
            elif op < 0.95:
                index.remove_entry(key)
            else:
                index.set_k(rng.choice((2, 3, 4, 6)))
            assert index.k_filled_count() == index.k_filled_count_bruteforce()
        index.check_integrity()

    def test_check_integrity_catches_corruption(self):
        index = HashInvertedIndex(MemoryModel(), k=2)
        for i in range(1, 4):
            index.insert("a", posting(i), now=float(i))
        index._k_filled.discard("a")  # simulate a missed refresh
        with pytest.raises(AssertionError):
            index.check_integrity()

    def test_explicit_threshold_bypasses_counter(self):
        index = HashInvertedIndex(MemoryModel(), k=3)
        for i in range(1, 6):
            index.insert("a", posting(i), now=float(i))
        assert index.k_filled_count(5) == index.k_filled_count_bruteforce(5) == 1
        assert index.k_filled_count(6) == 0


class TestOneReadShape:
    @pytest.mark.parametrize("store", ["kflushing", "lru", "fifo", "disk"])
    def test_uncapped_equals_capped_at_count(self, store):
        model = MemoryModel()
        disk = DiskArchive(model)
        rng = random.Random(7)
        blogs = [
            make_blog(keywords=("hot",), blog_id=i, timestamp=rng.uniform(0, 1e3))
            for i in range(1, 301)
        ]
        if store == "disk":
            for start in range(0, len(blogs), 30):
                batch = blogs[start : start + 30]
                disk.commit_flush(
                    [], {"hot": [Posting(0.0, b.timestamp, b.blog_id) for b in batch]}
                )
            assert disk.run_count("hot") > 1

            def read(n=None):
                return disk.lookup("hot", limit=n)

        else:
            engine = create_engine(
                store, **engine_kwargs(model, disk, k=3, capacity=100_000)
            )
            insert(engine, *blogs)
            if store == "fifo":
                assert len(list(engine.segmented.segments())) > 1

            def read(n=None):
                return engine.lookup("hot", depth=n).candidates

        uncapped = read()
        assert uncapped == read(len(blogs))
        assert [p.blog_id for p in uncapped] == [
            b.blog_id for b in sorted(blogs, key=lambda b: b.timestamp, reverse=True)
        ]


class TestBestFirstView:
    """The best-first view of an entry is ``top(len)``: the stored list
    reversed, handed out as a plain sequence."""

    def test_matches_reversed_tuple(self):
        entry = PostingList("kw", created_at=0.0)
        for i in (5, 2, 9, 1, 7):
            entry.insert(posting(i))
        materialized = tuple(reversed(list(entry)))
        view = entry.top(len(entry))
        assert len(view) == 5
        assert tuple(view) == materialized
        assert view[0].blog_id == 9
        assert view[-1].blog_id == 1
        assert tuple(view[1:3]) == materialized[1:3]
        assert entry.top(3) == view[:3]
        assert entry.top(0) == []

    def test_lookup_depth_none_is_zero_copy(self):
        """An unbounded lookup copies the entry once, into the result
        tuple; it leaves the stored entry as it was."""
        model = MemoryModel()
        eng = KFlushingEngine(
            mk=False,
            **engine_kwargs(
                model, DiskArchive(model), k=3, capacity=100_000_000,
                flush_fraction=0.2,
            ),
        )
        blogs = [make_blog(keywords=("hot",), blog_id=i) for i in range(1, 501)]
        insert(eng, *blogs)
        stored = list(eng.index.get("hot"))
        result = eng.lookup("hot")
        assert isinstance(result.candidates, tuple)
        assert len(result.candidates) == 500
        assert result.candidates == tuple(reversed(stored))
        assert list(eng.index.get("hot")) == stored
        # Bounded lookups return the same head.
        bounded = eng.lookup("hot", depth=3)
        assert isinstance(bounded.candidates, tuple)
        assert bounded.candidates == result.candidates[:3]
        assert [p.blog_id for p in bounded.candidates] == [500, 499, 498]


def _brute_in_top_elsewhere(engine, blog_id, exclude_key):
    """MK rule 1 by its definition: the record ranks in the top-k of
    another entry."""
    for key in engine.attribute.keys(engine.raw.get(blog_id)):
        entry = engine.index.get(key)
        if key != exclude_key and entry is not None:
            top = sorted(entry, reverse=True)[: engine.k]
            if any(p.blog_id == blog_id for p in top):
                return True
    return False


def _brute_exists_in_k_filled(engine, blog_id, exclude_key):
    """MK rule 2 by its definition: the record sits in another entry
    holding at least k postings."""
    for key in engine.attribute.keys(engine.raw.get(blog_id)):
        entry = engine.index.get(key)
        if key != exclude_key and entry is not None and len(entry) >= engine.k:
            if any(p.blog_id == blog_id for p in entry):
                return True
    return False


class TestMKProbeReference:
    """Memoized MK probes must be indistinguishable from brute-force ones."""

    @pytest.mark.parametrize("policy", ["kflushing", "kflushing-mk"])
    def test_trial_matches_brute_force(self, policy, monkeypatch):
        spec = TrialSpec(policy=policy, scale=MICRO, seed=3)
        memoized = run_trial(spec)
        calls = Counter()

        def in_top_elsewhere(engine, blog_id, exclude_key, memo):
            calls["in_top_elsewhere"] += 1
            return _brute_in_top_elsewhere(engine, blog_id, exclude_key)

        def exists_in_k_filled(engine, blog_id, exclude_key, memo):
            calls["exists_in_k_filled"] += 1
            return _brute_exists_in_k_filled(engine, blog_id, exclude_key)

        monkeypatch.setattr(KFlushingEngine, "in_top_elsewhere", in_top_elsewhere)
        monkeypatch.setattr(KFlushingEngine, "exists_in_k_filled", exists_in_k_filled)
        brute = run_trial(spec)
        if policy == "kflushing-mk":
            assert calls["in_top_elsewhere"] > 0
            assert calls["exists_in_k_filled"] > 0
        else:
            assert not calls  # plain kFlushing never probes
        assert memoized.hit_ratio == brute.hit_ratio
        assert memoized.k_filled == brute.k_filled
        assert memoized.flush_count == brute.flush_count
        assert memoized.hit_ratio_by_mode == brute.hit_ratio_by_mode
        assert memoized.records_ingested == brute.records_ingested
        assert memoized.memory_utilization == brute.memory_utilization
        assert memoized.mean_flush_freed_fraction == brute.mean_flush_freed_fraction
        assert memoized.policy_overhead_bytes == brute.policy_overhead_bytes


def _per_posting_evict(engine, report, cause, entry, removed=None):
    """The kFlushing eviction by its definition, one posting at a time:
    each posting is staged on its own, drops one reference, and a record
    whose count reaches zero is staged at its bytes priced again by the
    model.  The floor rises posting by posting in Phases 2 and 3."""
    key = entry.key
    if removed is None:
        removed = entry.drain()
    engine.index.charge_removed_postings(len(removed), key, entry=entry)
    if removed:
        engine.note_eviction(key, cause, report.triggered_at, len(removed))
    freed = 0
    for posting in removed:
        engine.buffer.stage(key, [posting], (), ())
        report.postings_flushed += 1
        freed += engine.model.posting_bytes
        record = engine.raw.decref(posting.blog_id)
        if record is not None:
            cost = engine.model.record_bytes(record)
            engine.buffer.stage(key, [], (record,), (cost,))
            report.records_flushed += 1
            freed += cost
        if cause != phases.PHASE_REGULAR and posting.sort_key > engine.global_floor:
            engine.global_floor = posting.sort_key
    if len(entry) == 0:
        engine.index.remove_entry(key)
        freed += engine.model.entry_overhead
        report.entries_flushed += 1
    return freed


def _per_item_evict_record(engine, blog_id, report, now):
    """LRU's record eviction with the record priced again by the model."""
    record = engine.raw.get(blog_id)
    engine.raw.remove(blog_id)
    freed = engine.model.record_bytes(record)
    for key in engine.attribute.keys(record):
        entry = engine.index.get(key)
        posting = None if entry is None else entry.remove_id(blog_id)
        if posting is None:
            continue
        freed += engine.index.charge_removed_postings(1, key, entry=entry)
        engine.buffer.stage(key, [posting], (), ())
        report.postings_flushed += 1
        cause = CAUSE_TRIMMED_TOPK
        if len(entry) == 0:
            engine.global_floor = max(engine.global_floor, entry.floor)
            engine.index.remove_entry(key)
            freed += engine.model.entry_overhead
            report.entries_flushed += 1
            cause = CAUSE_WHOLE_KEY_LRU
        engine.note_eviction(key, cause, now, 1)
    engine.buffer.stage(None, [], (record,), (engine.model.record_bytes(record),))
    report.records_flushed += 1
    return freed


def _per_item_stage(buffer, key, postings, records, costs):
    """Staging one item at a time, the peak taken after each."""
    for posting in postings:
        buffer._postings.setdefault(key, []).append(posting)
        buffer._bytes += buffer._model.posting_bytes
        buffer.peak_bytes = max(buffer.peak_bytes, buffer._bytes)
    for record, cost in zip(records, costs):
        buffer._records.append(record)
        buffer._costs.append(cost)
        buffer._bytes += cost
        buffer.peak_bytes = max(buffer.peak_bytes, buffer._bytes)


def _ingest_state(policy: str, shards: int) -> tuple:
    """Everything a seeded ingest (with queries between records) leaves
    behind that eviction can touch."""
    system = build_system(
        SystemConfig(
            policy=policy, k=5, memory_capacity_bytes=120_000, shards=shards,
            and_scan_depth=50, and_disk_limit=50,
        ),
        obs=Instrumentation(attribution=True),
    )
    stream = MicroblogStream(
        StreamConfig(seed=21, vocabulary_size=1500, with_locations=False)
    )
    load = QueryLoad(QueryLoadConfig(seed=22, mode="correlated", k=5), stream)
    for i, record in enumerate(stream.take(6000)):
        system.ingest(record)
        if i % 3 == 0:
            system.search(load.next_query())
    system.check_integrity()
    reports = [
        {name: value for name, value in vars(r).items() if name != "wall_seconds"}
        for r in system.flush_reports()
    ]
    partitions = []
    for part in system.partitions:
        engine, disk = part.engine, part.disk
        index, raw = engine.index, engine.raw
        partitions.append({
            "global_floor": engine.global_floor,
            "raw": (
                raw.bytes_used,
                [(r, raw.pcount(r.blog_id), raw._costs[r.blog_id]) for r in raw],
            ),
            "index": (
                index.bytes_used, index.posting_count(),
                sorted(index.overflow_keys), sorted(index._k_filled),
                [
                    (key, list(e), e.floor, e.last_arrival, e.last_query, e.seq)
                    for key, e in index.items()
                ],
                [e.key for e in index.oldest_arrivals()],
                [e.key for e in index.oldest_queries()],
            ),
            "disk": (
                list(disk._records.items()),
                {key: (runs.runs, runs.count) for key, runs in disk._index.items()},
                disk.simulated_io_seconds,
            ),
            "buffer": (engine.buffer.peak_bytes, engine.buffer.steady_peak_bytes),
            "ledger": list(engine.eviction_ledger._records.items()),
        })
    counters = {
        name: value
        for name, value in system.obs.registry.snapshot()["counters"].items()
        if name.startswith(("disk.", "flush.", "shard."))
    }
    return reports, partitions, counters


class TestBatchedEvictionReference:
    """Entry-at-a-time eviction must be indistinguishable from evicting
    posting by posting at recomputed record costs."""

    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("policy", ["kflushing", "kflushing-mk", "lru"])
    def test_ingest_matches_per_posting_reference(self, policy, shards, monkeypatch):
        batched = _ingest_state(policy, shards)
        reports = batched[0]
        assert len(reports) > 20
        if policy != "lru":
            for phase in phases.PHASES:
                assert any(r["phase_freed"].get(phase) for r in reports), phase
        monkeypatch.setattr(phases, "_evict", _per_posting_evict)
        monkeypatch.setattr(LRUEngine, "_evict_record", _per_item_evict_record)
        monkeypatch.setattr(FlushBuffer, "stage", _per_item_stage)
        commit = DiskArchive.commit_flush
        monkeypatch.setattr(
            DiskArchive, "commit_flush",
            lambda disk, records, postings_by_key, record_costs=None: commit(
                disk, records, postings_by_key
            ),
        )
        reference = _ingest_state(policy, shards)
        assert batched[0] == reference[0]
        for mine, theirs in zip(batched[1], reference[1], strict=True):
            for part in mine:
                assert mine[part] == theirs[part], part
        assert batched[2] == reference[2]


class TestParallelRunner:
    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(0) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(-1) >= 1

    def test_parallel_equals_serial(self):
        specs = [
            TrialSpec(policy=policy, scale=MICRO, seed=3, k=k)
            for policy in ("fifo", "kflushing")
            for k in (3, 10)
        ]
        serial = run_trials(specs, jobs=1)
        parallel = run_trials(specs, jobs=2)
        assert [r.spec for r in parallel] == specs  # ordered merge
        for s, p in zip(serial, parallel):
            assert s.hit_ratio == p.hit_ratio
            assert s.k_filled == p.k_filled
            assert s.flush_count == p.flush_count
            assert s.records_ingested == p.records_ingested

    def test_parallel_stress_runner(self):
        # run_digestion_stress paces queries off *wall-clock* time, so its
        # query-side numbers are not bit-deterministic even serially; the
        # parallel contract for it is ordered merge plus a deterministic
        # ingest path.
        specs = [
            TrialSpec(policy="fifo", scale=MICRO, seed=3),
            TrialSpec(policy="kflushing", scale=MICRO, seed=3),
        ]
        serial = run_trials(specs, jobs=1, runner=run_digestion_stress)
        parallel = run_trials(specs, jobs=2, runner=run_digestion_stress)
        assert [r.spec for r in parallel] == specs
        assert [r.records_ingested for r in serial] == [
            r.records_ingested for r in parallel
        ]
        for result in parallel:
            assert result.effective_digestion_rate > 0
            assert "queries_issued" in result.extras


class TestCollectResult:
    def test_stress_reports_freed_fraction(self):
        """The old path hard-coded mean_flush_freed_fraction=0.0."""
        result = run_digestion_stress(
            TrialSpec(policy="fifo", scale=MICRO, seed=3),
            query_rate_per_wall_second=1000.0,
        )
        assert result.flush_count > 0
        assert result.mean_flush_freed_fraction > 0.0
        assert result.extras["queries_issued"] >= 0.0

    def test_trial_and_stress_share_schema(self):
        trial = run_trial(TrialSpec(policy="fifo", scale=MICRO, seed=3))
        stress = run_digestion_stress(
            TrialSpec(policy="fifo", scale=MICRO, seed=3),
            query_rate_per_wall_second=1000.0,
        )
        assert set(vars(trial)) == set(vars(stress))
