"""Unit tests for the kFlushing-MK multiple-keyword extension (Sec IV-D)."""

import pytest

from repro.core.kflushing import KFlushingEngine
from repro.model.attributes import UserAttribute
from repro.storage.disk import DiskArchive
from repro.storage.memory_model import MemoryModel
from tests.conftest import engine_kwargs, make_blog, make_blogs


@pytest.fixture
def model():
    return MemoryModel()


@pytest.fixture
def disk(model):
    return DiskArchive(model)


def mk_engine(model, disk, **overrides):
    kwargs = engine_kwargs(
        model,
        disk,
        k=overrides.pop("k", 3),
        capacity=overrides.pop("capacity", 100_000),
        flush_fraction=overrides.pop("flush_fraction", 0.2),
    )
    kwargs.update(overrides)
    return KFlushingEngine(mk=True, **kwargs)


class TestPhase1MK:
    def test_keeps_posting_still_topk_elsewhere(self, model, disk):
        """The Figure 6(a) scenario: M1 beyond top-k in W1, within top-k in
        W2 — the extended Phase 1 keeps M1's id in W1."""
        eng = mk_engine(model, disk, k=2)
        m1 = make_blog(keywords=("w1", "w2"), blog_id=1, timestamp=1.0)
        eng.insert(m1)
        for blog in make_blogs(4, keywords=("w1",), start_id=10):
            eng.insert(blog)
        eng.run_flush(now=100.0)
        w1_ids = [p.blog_id for p in eng.lookup("w1").candidates]
        assert m1.blog_id in w1_ids  # kept despite being beyond top-2
        assert len(w1_ids) == 3  # top-2 plus the spared straggler
        assert eng.raw.pcount(m1.blog_id) == 2
        eng.check_integrity()

    def test_plain_engine_would_trim_same_posting(self, model, disk):
        plain = KFlushingEngine(
            mk=False, **engine_kwargs(model, disk, k=2, capacity=100_000)
        )
        m1 = make_blog(keywords=("w1", "w2"), blog_id=1, timestamp=1.0)
        plain.insert(m1)
        for blog in make_blogs(4, keywords=("w1",), start_id=10):
            plain.insert(blog)
        plain.run_flush(now=100.0)
        w1_ids = [p.blog_id for p in plain.lookup("w1").candidates]
        assert m1.blog_id not in w1_ids
        assert plain.raw.pcount(m1.blog_id) == 1

    def test_trims_once_out_of_topk_everywhere(self, model, disk):
        """The Figure 6(b) follow-up: when M1 falls out of the top-k of
        all its keywords, the next Phase 1 removes it everywhere."""
        eng = mk_engine(model, disk, k=2)
        m1 = make_blog(keywords=("w1", "w2"), blog_id=1, timestamp=1.0)
        eng.insert(m1)
        for blog in make_blogs(4, keywords=("w1",), start_id=10):
            eng.insert(blog)
        eng.run_flush(now=100.0)
        assert m1.blog_id in eng.raw
        # Now push w2 beyond top-2 as well.
        for blog in make_blogs(4, keywords=("w2",), start_id=20):
            eng.insert(blog)
        eng.run_flush(now=200.0)
        assert m1.blog_id not in eng.raw
        assert disk.contains_record(m1.blog_id)
        assert m1.blog_id not in [p.blog_id for p in eng.lookup("w1").candidates]
        assert m1.blog_id not in [p.blog_id for p in eng.lookup("w2").candidates]
        eng.check_integrity()

    def test_mk_disabled_for_single_key_attribute(self, model, disk):
        kwargs = engine_kwargs(model, disk, k=2, capacity=100_000)
        kwargs["attribute"] = UserAttribute()
        eng = KFlushingEngine(mk=True, **kwargs)
        assert not eng.mk_enabled
        for blog in make_blogs(5, user_id=7):
            eng.insert(blog)
        eng.run_flush(now=100.0)
        # Behaves exactly like plain kFlushing: trimmed to k.
        assert len(eng.index.get(7)) == 2


class TestPhase2MK:
    def test_spares_postings_living_in_k_filled_entries(self, model, disk):
        """Section IV-D Phase 2 rule (3): a posting of a selected victim
        entry survives when its record exists in a >=k entry."""
        eng = mk_engine(model, disk, k=3, capacity=100_000, flush_fraction=0.5)
        # m1 lives in frequent key "hot" and rare key "rare".
        m1 = make_blog(keywords=("hot", "rare"), blog_id=1, timestamp=1.0)
        eng.insert(m1)
        for blog in make_blogs(2, keywords=("hot",), start_id=10):
            eng.insert(blog)
        # Many rare keys to give Phase 2 victims.
        for i in range(40):
            eng.insert(
                make_blog(keywords=(f"cold{i}",), blog_id=100 + i, timestamp=50.0 + i)
            )
        eng.run_flush(now=1000.0)
        rare_entry = eng.index.get("rare")
        if rare_entry is not None:
            # If "rare" was selected, m1 must have been spared.
            assert [p.blog_id for p in rare_entry] == [m1.blog_id]
        assert m1.blog_id in eng.raw
        eng.check_integrity()

    def test_budget_still_met(self, model, disk):
        eng = mk_engine(model, disk, k=3, capacity=50_000, flush_fraction=0.3)
        i = 0
        while not eng.needs_flush():
            eng.insert(make_blog(keywords=(f"kw{i % 40}", f"kw{(i + 1) % 40}")))
            i += 1
        report = eng.run_flush(now=1e6)
        assert report.freed_bytes >= report.target_bytes

    def test_integrity_across_repeated_flushes(self, model, disk):
        eng = mk_engine(model, disk, k=3, capacity=40_000, flush_fraction=0.25)
        i = flushes = 0
        for _ in range(3000):
            keywords = (f"kw{i % 25}", f"kw{(i * 7) % 25}")
            keywords = tuple(dict.fromkeys(keywords))
            eng.insert(make_blog(keywords=keywords))
            i += 1
            if eng.needs_flush():
                eng.run_flush(now=1e9 + i)
                flushes += 1
        assert flushes > 1
        eng.check_integrity()


class TestNaming:
    def test_engine_name(self, model, disk):
        assert mk_engine(model, disk).name == "kflushing-mk"

    def test_plain_name(self, model, disk):
        eng = KFlushingEngine(mk=False, **engine_kwargs(model, disk))
        assert eng.name == "kflushing"
