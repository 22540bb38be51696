"""Unit tests for Phase 2/3 victim selection (heap, pruned replay, sort)
and a differential of the engine's selections against a full scan."""

import random

import pytest

from repro.config import SystemConfig
from repro.core import phases
from repro.core.phases import entry_flush_cost
from repro.core.victim_selection import (
    select_victims_heap,
    select_victims_pruned,
    select_victims_sort,
)
from repro.engine.queries import AndQuery, KeywordQuery, OrQuery
from repro.engine.system import MicroblogSystem
from repro.model.microblog import Microblog


def cands(*triples):
    return [(float(ts), cost, name) for ts, cost, name in triples]


class TestEntryFlushCost:
    def test_fractional_record_share_rounds_up(self):
        """Regression: Phases 2/3 used int(), truncating the fractional
        mean-record-share and under-estimating every victim's cost."""
        assert entry_flush_cost(3, 16, 10.5) == 16 + 32  # not 16 + 31
        assert entry_flush_cost(2, 0, 10.6) == 22  # not 21

    def test_integral_share_unchanged(self):
        assert entry_flush_cost(4, 8, 12.0) == 8 + 48

    def test_ceil_estimates_select_minimal_victim_set(self):
        """With ceil'd costs the heap stops as soon as the budget is
        covered; the truncated estimates needed one victim more."""
        per_posting = 10.6
        candidates = cands(
            *[(i, entry_flush_cost(2, 0, per_posting), f"k{i}") for i in range(4)]
        )
        victims = select_victims_heap(candidates, 44)
        # 2 victims at ceil(21.2)=22 bytes cover 44; the pre-fix estimate
        # of int(21.2)=21 would have needed a third.
        assert len(victims) == 2
        assert sum(c[1] for c in victims) >= 44


class TestHeapSelection:
    def test_covers_budget_with_oldest(self):
        chosen = select_victims_heap(
            cands((1, 10, "a"), (5, 10, "b"), (3, 10, "c"), (9, 10, "d")), 20
        )
        names = {c[2] for c in chosen}
        assert names == {"a", "c"}

    def test_budget_zero_selects_nothing(self):
        assert select_victims_heap(cands((1, 10, "a")), 0) == []

    def test_insufficient_candidates_returns_all(self):
        chosen = select_victims_heap(cands((1, 10, "a"), (2, 10, "b")), 100)
        assert {c[2] for c in chosen} == {"a", "b"}

    def test_total_meets_budget_when_coverable(self):
        candidates = cands(*[(i, 7, f"k{i}") for i in range(50)])
        chosen = select_victims_heap(candidates, 100)
        assert sum(c[1] for c in chosen) >= 100

    def test_keeps_extra_member_when_needed_for_coverage(self):
        # An old large candidate cannot be dropped if removing it breaks
        # the budget; the paper's rule inserts without removing then.
        chosen = select_victims_heap(cands((10, 100, "big"), (1, 5, "small")), 100)
        names = {c[2] for c in chosen}
        assert "big" in names

    def test_replacement_prefers_older(self):
        # Seed covers budget with a recent key; an older one must displace it.
        chosen = select_victims_heap(
            cands((100, 50, "recent"), (1, 50, "old")), 50
        )
        assert {c[2] for c in chosen} == {"old"}

    def test_non_positive_cost_rejected(self):
        with pytest.raises(ValueError):
            select_victims_heap(cands((1, 0, "a")), 10)

    def test_duplicate_timestamps_no_payload_comparison(self):
        # Payloads are dicts (unorderable): the tie-break must not compare
        # them.
        candidates = [(1.0, 10, {"k": i}) for i in range(5)]
        chosen = select_victims_heap(candidates, 30)
        assert sum(c[1] for c in chosen) >= 30

    def test_empty_candidates(self):
        assert select_victims_heap([], 10) == []


class TestSortSelection:
    def test_prefix_of_sorted_order(self):
        chosen = select_victims_sort(
            cands((5, 10, "b"), (1, 10, "a"), (9, 10, "d"), (3, 10, "c")), 25
        )
        assert [c[2] for c in chosen] == ["a", "c", "b"]

    def test_budget_zero(self):
        assert select_victims_sort(cands((1, 5, "a")), 0) == []

    def test_non_positive_cost_rejected(self):
        with pytest.raises(ValueError):
            select_victims_sort(cands((1, -3, "a")), 10)


class TestEquivalence:
    @pytest.mark.parametrize("budget", [1, 17, 40, 95, 1000])
    def test_heap_matches_sort_for_distinct_timestamps(self, budget):
        import random

        rng = random.Random(7)
        candidates = [
            (float(ts), rng.randint(1, 20), f"k{ts}")
            for ts in rng.sample(range(1000), 60)
        ]
        heap_names = {c[2] for c in select_victims_heap(candidates, budget)}
        sort_names = {c[2] for c in select_victims_sort(candidates, budget)}
        # The heap variant may retain one extra member it could not drop
        # without breaking coverage; the sorted prefix is always a subset.
        assert sort_names <= heap_names or heap_names == sort_names
        total_heap = sum(c[1] for c in select_victims_heap(candidates, budget))
        assert total_heap >= min(budget, sum(c[1] for c in candidates))

    def test_heap_not_wasteful(self):
        # With uniform costs the heap result should be exactly the minimal
        # covering prefix.
        candidates = cands(*[(i, 10, f"k{i}") for i in range(20)])
        chosen = select_victims_heap(candidates, 45)
        assert len(chosen) == 5
        assert {c[2] for c in chosen} == {f"k{i}" for i in range(5)}

    def test_heap_and_sort_break_boundary_ties_differently(self):
        """The heap is not a sorted prefix, even without a surplus seed
        member: on a timestamp tie at the coverage boundary it sheds the
        earliest-fed member, the stable sort keeps it.  Phases 2 and 3
        are defined by the heap, so neither may be "simplified" to the
        sort."""
        candidates = cands((1, 10, "a"), (1, 10, "b"), (0, 10, "c"))
        heap_names = {c[2] for c in select_victims_heap(candidates, 20)}
        sort_names = {c[2] for c in select_victims_sort(candidates, 20)}
        assert heap_names == {"b", "c"}
        assert sort_names == {"a", "c"}


def by_position(candidate):
    return candidate[2]


def pruned(candidates, target):
    """Pruned replay over positional payloads, ties in any order."""
    oldest_first = sorted(candidates, key=lambda c: c[0])
    return select_victims_pruned(candidates, oldest_first, target, by_position)


class TestPrunedReplay:
    def test_boundary_tie_follows_the_heap(self):
        candidates = [(1.0, 10, 0), (1.0, 10, 1), (0.0, 10, 2)]
        assert {c[2] for c in pruned(candidates, 20)} == {1, 2}

    def test_budget_zero_selects_nothing(self):
        assert pruned([(1.0, 10, 0)], 0) == []

    def test_insufficient_candidates_returns_all(self):
        candidates = [(2.0, 10, 0), (1.0, 10, 1)]
        assert {c[2] for c in pruned(candidates, 100)} == {0, 1}

    def test_seed_kept_when_nothing_older_follows(self):
        # S = {0}; every later candidate is newer, so the heap never pushes.
        candidates = [(5.0, 30, 0), (6.0, 10, 1), (7.0, 10, 2)]
        assert {c[2] for c in pruned(candidates, 20)} == {0}

    def test_first_older_candidate_newer_than_ts_star_is_replayed(self):
        # S = {0, 1}, ts* = 1.  Candidate 2 (ts 4, above ts* but below S's
        # newest 9) is the heap's first push: it sheds 0 and itself, so
        # the tied candidate 3 is skipped.  Replayed without candidate 2,
        # the heap would push 3 and shed 1 instead.
        candidates = [(9.0, 5, 0), (1.0, 10, 1), (4.0, 5, 2), (1.0, 10, 3)]
        assert {c[2] for c in select_victims_heap(candidates, 10)} == {1}
        assert {c[2] for c in select_victims_heap(
            [candidates[0], candidates[1], candidates[3]], 10
        )} == {3}
        assert {c[2] for c in pruned(candidates, 10)} == {1}

    def test_reads_only_the_cold_end(self):
        """The recency view is consumed only up to the covering tie group."""
        candidates = [(float(i), 10, i) for i in range(1000)]
        consumed = []

        def oldest_first():
            for c in candidates:
                consumed.append(c)
                yield c

        chosen = select_victims_pruned(candidates, oldest_first(), 30, by_position)
        assert {c[2] for c in chosen} == {0, 1, 2}
        assert len(consumed) <= 4


class TestEngineSelectionsMatchFullScan:
    """Every Phase 2/3 selection of a running system equals the heap fed
    the whole index, recomputed here from the index itself — under
    out-of-order record timestamps, query times that go backwards and a
    mid-run ``set_k``."""

    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("policy", ["kflushing", "kflushing-mk"])
    def test_every_selection_is_the_full_scan_set(self, policy, shards, monkeypatch):
        checked = {"arrival": 0, "query": 0}
        select = phases._select_victims

        def full_scan_checked(engine, in_order, oldest_first, stamp, target):
            index = engine.index
            if stamp is phases._LAST_ARRIVAL:
                pool = [e for e in index.entries() if len(e) < engine.k]
                checked["arrival"] += 1
            else:
                pool = list(index.entries())
                checked["query"] += 1
            per_posting = engine.model.posting_bytes + phases._mean_record_share(engine)
            full = [
                (
                    stamp(e),
                    entry_flush_cost(len(e), engine.model.entry_overhead, per_posting),
                    e.key,
                )
                for e in pool
            ]
            expected = {c[2] for c in select_victims_heap(full, target)}
            victims = select(engine, in_order, oldest_first, stamp, target)
            assert {e.key for e in victims} == expected
            seqs = [e.seq for e in victims]
            assert seqs == sorted(seqs)
            return victims

        monkeypatch.setattr(phases, "_select_victims", full_scan_checked)
        system = MicroblogSystem(
            SystemConfig(
                policy=policy,
                k=4,
                memory_capacity_bytes=40_000,
                flush_fraction=0.3,
                shards=shards,
            )
        )
        rng = random.Random(7)
        vocabulary = [f"kw{i}" for i in range(150)]
        query_now = 10_000.0
        for blog_id in range(2_500):
            # Timestamps jitter backwards by up to 40 positions.
            timestamp = float(blog_id - rng.randint(0, 40))
            keywords = tuple(
                rng.sample(vocabulary[: rng.choice((10, 150))], rng.randint(1, 3))
            )
            system.ingest(
                Microblog(
                    blog_id=blog_id, timestamp=timestamp, user_id=0, keywords=keywords
                )
            )
            if blog_id % 3 == 0:
                a, b = rng.sample(vocabulary[:30], 2)
                query = rng.choice(
                    (KeywordQuery(a, k=4), AndQuery([a, b], k=4), OrQuery([a, b], k=4))
                )
                # Query time wanders both ways around the ingest clock.
                query_now += rng.uniform(-30.0, 25.0)
                system.search(query, now=query_now)
            if blog_id == 1_200:
                system.set_k(6)
        system.check_integrity()
        assert checked["arrival"] > 0 and checked["query"] > 0
