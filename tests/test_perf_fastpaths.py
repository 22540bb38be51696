"""Equivalence tests for the PR's fast paths.

Every optimization here is required to be behaviour-preserving, and these
tests are the proof obligations:

* the incremental k-filled counter must equal a brute-force recount after
  any interleaving of inserts, trims, evictions, and ``set_k``;
* a trial run with the flush-cycle cache disabled must be bit-identical
  to one with it enabled;
* ``BestFirstView`` must behave like the tuple it replaced without
  copying the posting list;
* the process-parallel runner must return exactly what the serial loop
  returned, in the same order.
"""

import random

import pytest

from repro.core.kflushing import KFlushingEngine
from repro.experiments.parallel import resolve_jobs, run_trials
from repro.experiments.runner import TrialSpec, run_digestion_stress, run_trial
from repro.storage.inverted_index import HashInvertedIndex
from repro.storage.memory_model import MemoryModel
from repro.storage.posting_list import BestFirstView, Posting, PostingList
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


class TestBestFirstView:
    def test_matches_reversed_tuple(self):
        entry = PostingList("kw", created_at=0.0)
        for i in (5, 2, 9, 1, 7):
            entry.insert(posting(i))
        view = entry.best_first()
        materialized = tuple(reversed(list(entry)))
        assert isinstance(view, BestFirstView)
        assert len(view) == 5
        assert tuple(view) == materialized
        assert view == materialized
        assert view[0].blog_id == 9
        assert view[-1].blog_id == 1
        assert view[1:3] == materialized[1:3]
        assert list(entry.iter_best_first()) == list(materialized)

    def test_slice_returns_tuple_without_full_copy(self):
        entry = PostingList("k", created_at=0.0)
        for i in range(10):
            entry.insert(posting(i))
        view = entry.best_first()
        assert view[:3] == (posting(9), posting(8), posting(7))
        assert view[8:20] == (posting(1), posting(0))
        assert view[3:3] == ()
        assert view[1:10:2] == tuple(posting(i) for i in (8, 6, 4, 2, 0))
        with pytest.raises(IndexError):
            view[10]

    def test_lookup_depth_none_is_zero_copy(self, model_disk_engine):
        """Unbounded lookup must not materialize the posting list."""
        eng = model_disk_engine
        from tests.conftest import insert, make_blogs

        blogs = make_blogs(500, keywords=("hot",))
        for blog in blogs:
            insert(eng, blog)
        result = eng.lookup("hot")
        assert isinstance(result.candidates, BestFirstView)
        assert len(result.candidates) == 500
        best = max(b.blog_id for b in blogs)
        assert result.candidates[0].blog_id == best
        # Slicing (how the executor consumes candidates) yields tuples.
        head = result.candidates[:3]
        assert isinstance(head, tuple)
        assert [p.blog_id for p in head] == sorted(
            (b.blog_id for b in blogs), reverse=True
        )[:3]
        # Bounded lookups still return plain tuples.
        bounded = eng.lookup("hot", depth=3)
        assert isinstance(bounded.candidates, tuple)
        assert tuple(head) == bounded.candidates


@pytest.fixture
def model_disk_engine():
    from repro.storage.disk import DiskArchive
    from tests.conftest import engine_kwargs

    model = MemoryModel()
    kwargs = engine_kwargs(
        model, DiskArchive(model), k=3, capacity=100_000_000, flush_fraction=0.2
    )
    return KFlushingEngine(mk=False, **kwargs)


class TestFlushCacheDifferential:
    """Cached flushes must be indistinguishable from brute-force ones."""

    @pytest.mark.parametrize("policy", ["kflushing", "kflushing-mk"])
    def test_trial_identical_with_cache_off(self, policy, monkeypatch):
        spec = TrialSpec(policy=policy, scale=MICRO, seed=3)
        cached = run_trial(spec)
        monkeypatch.setattr(KFlushingEngine, "use_flush_cache", False)
        brute = run_trial(spec)
        assert cached.hit_ratio == brute.hit_ratio
        assert cached.k_filled == brute.k_filled
        assert cached.flush_count == brute.flush_count
        assert cached.hit_ratio_by_mode == brute.hit_ratio_by_mode
        assert cached.records_ingested == brute.records_ingested
        assert cached.memory_utilization == brute.memory_utilization
        assert cached.mean_flush_freed_fraction == brute.mean_flush_freed_fraction

    def test_cache_scoped_to_flush(self):
        spec = TrialSpec(policy="kflushing", scale=MICRO, seed=3)
        system = spec.build_system()
        stream = spec.build_stream()
        system.ingest_many(stream.take(2000))
        assert system.engine.flush_cache is None  # only live inside flush()


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
