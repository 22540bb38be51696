"""Unit tests for the kFlushing engine and its three phases."""

import pytest

from repro.config import SystemConfig
from repro.core.kflushing import KFlushingEngine
from repro.engine.system import MicroblogSystem
from repro.storage.disk import DiskArchive
from repro.storage.memory_model import MemoryModel
from repro.storage.posting_list import MIN_SORT_KEY
from repro.workload.stream import MicroblogStream, StreamConfig
from tests.conftest import engine_kwargs, make_blog, make_blogs


@pytest.fixture
def model():
    return MemoryModel()


@pytest.fixture
def disk(model):
    return DiskArchive(model)


def engine(model, disk, **overrides):
    kwargs = engine_kwargs(
        model,
        disk,
        k=overrides.pop("k", 3),
        capacity=overrides.pop("capacity", 100_000),
        flush_fraction=overrides.pop("flush_fraction", 0.2),
    )
    kwargs.update(overrides)
    return KFlushingEngine(mk=False, **kwargs)


class TestInsert:
    def test_indexes_under_every_keyword(self, model, disk):
        eng = engine(model, disk)
        blog = make_blog(keywords=("a", "b"))
        assert eng.insert(blog)
        assert eng.lookup("a").candidates[0].blog_id == blog.blog_id
        assert eng.lookup("b").candidates[0].blog_id == blog.blog_id
        assert eng.raw.pcount(blog.blog_id) == 2

    def test_keywordless_record_skipped(self, model, disk):
        eng = engine(model, disk)
        assert not eng.insert(make_blog(keywords=()))
        assert eng.record_count() == 0

    def test_memory_bytes_grow(self, model, disk):
        eng = engine(model, disk)
        before = eng.memory_bytes
        eng.insert(make_blog())
        assert eng.memory_bytes > before

    def test_needs_flush_at_capacity(self, model, disk):
        eng = engine(model, disk, capacity=500)
        assert not eng.needs_flush()
        while not eng.needs_flush():
            eng.insert(make_blog())
        assert eng.memory_bytes >= 500


class TestPhase1:
    def test_trims_overflow_to_k(self, model, disk):
        eng = engine(model, disk, k=3)
        for blog in make_blogs(10, keywords=("hot",)):
            eng.insert(blog)
        report = eng.run_flush(now=100.0)
        assert len(eng.index.get("hot")) == 3
        assert report.phase_freed.get("phase1-regular", 0) > 0
        eng.check_integrity()

    def test_keeps_most_recent_k(self, model, disk):
        eng = engine(model, disk, k=3)
        blogs = make_blogs(10, keywords=("hot",))
        for blog in blogs:
            eng.insert(blog)
        eng.run_flush(now=100.0)
        kept = [p.blog_id for p in eng.lookup("hot").candidates]
        expected = sorted((b.blog_id for b in blogs), reverse=True)[:3]
        assert kept == expected

    def test_single_keyword_victim_flushed_to_disk(self, model, disk):
        eng = engine(model, disk, k=3)
        blogs = make_blogs(5, keywords=("hot",))
        for blog in blogs:
            eng.insert(blog)
        eng.run_flush(now=100.0)
        oldest = blogs[0]
        assert oldest.blog_id not in eng.raw
        assert disk.contains_record(oldest.blog_id)
        assert disk.posting_count("hot") == 2

    def test_shared_record_stays_while_referenced(self, model, disk):
        eng = engine(model, disk, k=1)
        shared = make_blog(keywords=("hot", "cold"))
        eng.insert(shared)
        for blog in make_blogs(3, keywords=("hot",)):
            eng.insert(blog)
        eng.run_flush(now=100.0)
        # Trimmed from "hot" (beyond top-1) but still top-1 of "cold":
        # the record must remain memory-resident with pcount 1.
        assert shared.blog_id in eng.raw
        assert eng.raw.pcount(shared.blog_id) == 1
        assert not eng.lookup("hot").candidates or (
            shared.blog_id not in [p.blog_id for p in eng.lookup("hot").candidates]
        )
        assert eng.lookup("cold").candidates[0].blog_id == shared.blog_id
        # Its hot posting is findable on disk for exactness.
        assert disk.posting_count("hot") >= 1
        eng.check_integrity()

    def test_overflow_list_wiped_after_flush(self, model, disk):
        eng = engine(model, disk, k=2)
        for blog in make_blogs(6, keywords=("hot",)):
            eng.insert(blog)
        assert "hot" in eng.index.overflow_keys
        eng.run_flush(now=100.0)
        assert eng.index.overflow_keys == frozenset()

    def test_floor_makes_trimmed_range_unprovable(self, model, disk):
        eng = engine(model, disk, k=3)
        for blog in make_blogs(10, keywords=("hot",)):
            eng.insert(blog)
        eng.run_flush(now=100.0)
        lookup = eng.lookup("hot")
        assert lookup.provable_top(3) is not None
        assert lookup.provable_top(4) is None


class TestPhase2:
    def _saturate_phase1(self, eng, n_keys=30):
        """Build memory with no overflow: every key holds < k postings."""
        for i in range(n_keys):
            eng.insert(make_blog(keywords=(f"kw{i}",)))

    def test_flushes_low_frequency_keys_when_phase1_insufficient(self, model, disk):
        eng = engine(model, disk, k=3, capacity=100_000, flush_fraction=0.3)
        self._saturate_phase1(eng, n_keys=40)
        report = eng.run_flush(now=1000.0)
        assert report.met_target
        assert report.phase_freed.get("phase2-aggressive", 0) > 0
        eng.check_integrity()

    def test_least_recently_arrived_flushed_first(self, model, disk):
        eng = engine(model, disk, k=5, capacity=100_000, flush_fraction=0.1)
        keys = [f"kw{i}" for i in range(20)]
        for i, key in enumerate(keys):
            eng.insert(make_blog(keywords=(key,), timestamp=float(i), blog_id=1000 + i))
        eng.run_flush(now=1000.0)
        surviving = {key for key in keys if eng.index.get(key) is not None}
        flushed = [key for key in keys if key not in surviving]
        assert flushed, "phase 2 should have flushed something"
        # Flushed keys must be a prefix of the arrival order (oldest first).
        oldest_surviving = min(keys.index(k) for k in surviving)
        assert all(keys.index(k) < oldest_surviving for k in flushed)

    def test_entries_removed_wholesale(self, model, disk):
        eng = engine(model, disk, k=5, capacity=100_000, flush_fraction=0.2)
        self._saturate_phase1(eng, n_keys=30)
        eng.run_flush(now=1000.0)
        for key, entry in eng.index.items():
            assert len(entry) > 0

    def test_k_filled_keys_not_flushed_by_phase2(self, model, disk):
        eng = engine(model, disk, k=3, capacity=100_000, flush_fraction=0.15)
        for blog in make_blogs(3, keywords=("filled",), start_id=1):
            eng.insert(blog)
        for i in range(30):
            eng.insert(
                make_blog(keywords=(f"kw{i}",), blog_id=100 + i, timestamp=100.0 + i)
            )
        eng.run_flush(now=1000.0)
        # "filled" has exactly k postings: it is in neither phase-1 nor
        # phase-2 victim sets (phase 3 never ran: budget was met).
        assert eng.index.get("filled") is not None
        assert len(eng.index.get("filled")) == 3


class TestPhase3:
    def test_runs_when_all_keys_k_filled(self, model, disk):
        eng = engine(model, disk, k=2, capacity=100_000, flush_fraction=0.3)
        for i in range(25):
            for blog in make_blogs(2, keywords=(f"kw{i}",)):
                eng.insert(blog)
        report = eng.run_flush(now=1000.0)
        assert report.met_target
        assert report.phase_freed.get("phase3-forced", 0) > 0

    def test_least_recently_queried_flushed_first(self, model, disk):
        eng = engine(model, disk, k=2, capacity=100_000, flush_fraction=0.2)
        keys = [f"kw{i}" for i in range(10)]
        for key in keys:
            for blog in make_blogs(2, keywords=(key,)):
                eng.insert(blog)
        # Touch all but the first three keys recently.
        for key in keys[3:]:
            eng.note_query([key], [], now=500.0)
        eng.run_flush(now=1000.0)
        flushed = [key for key in keys if eng.index.get(key) is None]
        assert flushed
        assert set(flushed) <= set(keys[:3])

    def test_global_floor_rises_after_wholesale_flush(self, model, disk):
        eng = engine(model, disk, k=2, capacity=100_000, flush_fraction=0.5)
        for i in range(20):
            for blog in make_blogs(2, keywords=(f"kw{i}",)):
                eng.insert(blog)
        assert eng.global_floor == MIN_SORT_KEY
        eng.run_flush(now=1000.0)
        assert eng.global_floor > MIN_SORT_KEY

    def test_recreated_entry_not_falsely_complete(self, model, disk):
        eng = engine(model, disk, k=3, capacity=100_000, flush_fraction=0.9)
        for blog in make_blogs(3, keywords=("victim",)):
            eng.insert(blog)
        eng.run_flush(now=1000.0)
        assert eng.index.get("victim") is None
        # Re-create the entry; auto timestamps continue increasing, so the
        # new postings arrive after the flush horizon.
        for blog in make_blogs(3, keywords=("victim",)):
            eng.insert(blog)
        lookup = eng.lookup("victim")
        # New postings arrived after the flush: they are provable.
        assert lookup.provable_top(3) is not None


class TestFullEscalation:
    def test_phase_freed_has_all_three_phases(self, model, disk):
        """A flush that escalates to Phase 3 attributes freed bytes to
        every phase: regular, aggressive, and forced."""
        eng = engine(model, disk, k=3, capacity=100_000, flush_fraction=1.0)
        # Overflow entry for Phase 1, under-k entries for Phase 2, and
        # exactly-k entries only Phase 3 will take.
        for blog in make_blogs(6, keywords=("hot",)):
            eng.insert(blog)
        for i in range(5):
            eng.insert(make_blog(keywords=(f"rare{i}",)))
        for i in range(5):
            for blog in make_blogs(3, keywords=(f"mid{i}",)):
                eng.insert(blog)
        report = eng.run_flush(now=1e6)
        assert set(report.phase_freed) == {
            "phase1-regular",
            "phase2-aggressive",
            "phase3-forced",
        }
        assert all(freed > 0 for freed in report.phase_freed.values())
        assert sum(report.phase_freed.values()) == report.freed_bytes
        eng.check_integrity()

    def test_phase_freed_composition_under_mk(self, model, disk):
        eng = KFlushingEngine(
            mk=True, **engine_kwargs(model, disk, k=3, flush_fraction=1.0)
        )
        for blog in make_blogs(6, keywords=("hot",)):
            eng.insert(blog)
        for i in range(5):
            eng.insert(make_blog(keywords=(f"rare{i}",)))
        for i in range(5):
            for blog in make_blogs(3, keywords=(f"mid{i}",)):
                eng.insert(blog)
        report = eng.run_flush(now=1e6)
        assert set(report.phase_freed) == {
            "phase1-regular",
            "phase2-aggressive",
            "phase3-forced",
        }
        assert sum(report.phase_freed.values()) == report.freed_bytes


class TestBudget:
    def test_flush_meets_budget(self, model, disk):
        eng = engine(model, disk, k=3, capacity=50_000, flush_fraction=0.25)
        i = 0
        while not eng.needs_flush():
            eng.insert(make_blog(keywords=(f"kw{i % 50}",)))
            i += 1
        report = eng.run_flush(now=1e6)
        assert report.freed_bytes >= report.target_bytes

    def test_flush_report_recorded(self, model, disk):
        eng = engine(model, disk, k=2)
        for blog in make_blogs(5, keywords=("hot",)):
            eng.insert(blog)
        report = eng.run_flush(now=10.0)
        assert report.policy == "kflushing"
        assert report.wall_seconds >= 0.0
        assert eng.obs.registry.peek("counter", "flush.count").value == 1

    def test_max_phase_1_saturates(self, model, disk):
        eng = engine(model, disk, k=3, capacity=100_000, flush_fraction=0.5)
        eng.max_phase = 1
        for i in range(50):
            eng.insert(make_blog(keywords=(f"kw{i}",)))
        report = eng.run_flush(now=1000.0)
        # Nothing exceeds k: phase 1 alone cannot free anything.
        assert report.freed_bytes == 0
        assert not report.met_target

    def test_invalid_max_phase_rejected(self, model, disk):
        with pytest.raises(ValueError):
            KFlushingEngine(mk=False, max_phase=4, **engine_kwargs(model, disk))


class TestDynamicK:
    def test_decreasing_k_trims_next_flush(self, model, disk):
        eng = engine(model, disk, k=5)
        for blog in make_blogs(5, keywords=("hot",)):
            eng.insert(blog)
        eng.set_k(2)
        assert eng.k == 2
        eng.run_flush(now=100.0)
        assert len(eng.index.get("hot")) == 2

    def test_increasing_k_keeps_more(self, model, disk):
        eng = engine(model, disk, k=2)
        for blog in make_blogs(8, keywords=("hot",)):
            eng.insert(blog)
        eng.set_k(4)
        eng.run_flush(now=100.0)
        assert len(eng.index.get("hot")) == 4

    def test_invalid_k_rejected(self, model, disk):
        eng = engine(model, disk)
        with pytest.raises(Exception):
            eng.set_k(0)


class TestBookkeeping:
    def test_note_query_stamps_entries(self, model, disk):
        eng = engine(model, disk)
        eng.insert(make_blog(keywords=("a",)))
        eng.note_query(["a"], [1], now=1e9)
        assert eng.index.get("a").last_query == 1e9

    def test_policy_overhead_scales_with_entries(self, model, disk):
        eng = engine(model, disk)
        base = eng.policy_overhead_bytes
        for i in range(10):
            eng.insert(make_blog(keywords=(f"kw{i}",)))
        assert eng.policy_overhead_bytes >= base + 10 * 2 * model.timestamp_bytes

    def test_get_record(self, model, disk):
        eng = engine(model, disk)
        blog = make_blog()
        eng.insert(blog)
        assert eng.get_record(blog.blog_id) is blog
        assert eng.get_record(424242) is None

    def test_frequency_snapshot(self, model, disk):
        eng = engine(model, disk)
        eng.insert(make_blog(keywords=("a", "b")))
        eng.insert(make_blog(keywords=("a",)))
        assert eng.frequency_snapshot() == {"a": 2, "b": 1}


def test_needs_flush_fast_path_agrees_with_property():
    system = MicroblogSystem(
        SystemConfig(
            policy="kflushing",
            k=5,
            memory_capacity_bytes=300_000,
            and_scan_depth=50,
            and_disk_limit=50,
        )
    )
    engine = system.engine
    stream = MicroblogStream(
        StreamConfig(seed=9, vocabulary_size=500, with_locations=False)
    )
    for record in stream.take(1_500):
        system.ingest(record)
        assert engine.needs_flush() == (
            engine.memory_bytes >= engine.capacity_bytes
        )
