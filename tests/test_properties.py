"""Property-based tests (hypothesis) on core data structures and
end-to-end invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kflushing import KFlushingEngine
from repro.core.victim_selection import (
    select_victims_heap,
    select_victims_pruned,
    select_victims_sort,
)
from repro.engine.queries import KeywordQuery
from repro.model.microblog import Microblog
from repro.storage.disk import DiskArchive
from repro.storage.memory_model import MemoryModel
from repro.storage.posting_list import Posting, PostingList
from repro.storage.raw_store import RawDataStore
from tests.conftest import engine_kwargs, insert

# ----------------------------------------------------------------------
# PostingList
# ----------------------------------------------------------------------

postings_strategy = st.lists(
    st.tuples(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
    ),
    min_size=0,
    max_size=60,
).map(
    lambda pairs: [
        Posting(score, ts, i) for i, (score, ts) in enumerate(pairs)
    ]
)


@given(postings_strategy)
def test_posting_list_always_sorted(postings):
    entry = PostingList("k", created_at=0.0)
    for p in postings:
        entry.insert(p)
    keys = [p.sort_key for p in entry]
    assert keys == sorted(keys)
    assert len(entry) == len(postings)


@given(postings_strategy, st.integers(min_value=0, max_value=70))
def test_trim_beyond_keeps_exactly_topk(postings, k):
    entry = PostingList("k", created_at=0.0)
    for p in postings:
        entry.insert(p)
    all_sorted = sorted(postings, key=lambda p: p.sort_key, reverse=True)
    removed = entry.trim_beyond(k)
    kept = list(entry)
    assert len(kept) == min(k, len(postings))
    assert {p.blog_id for p in kept} == {p.blog_id for p in all_sorted[:k]}
    assert len(removed) + len(kept) == len(postings)
    if removed:
        # Floor equals the best removed key; all kept postings are above.
        assert all(p.sort_key > entry.floor for p in kept)


@given(postings_strategy, st.integers(min_value=1, max_value=70))
def test_provable_top_is_true_topk(postings, k):
    entry = PostingList("k", created_at=0.0)
    for p in postings:
        entry.insert(p)
    top = entry.provable_top(k)
    if top is not None:
        truth = sorted(postings, key=lambda p: p.sort_key, reverse=True)[:k]
        assert [p.blog_id for p in top] == [p.blog_id for p in truth]


@given(postings_strategy, st.data())
def test_remove_id_floor_soundness(postings, data):
    """After arbitrary removals, every posting above the floor is one that
    was never removed — the completeness guarantee."""
    entry = PostingList("k", created_at=0.0)
    for p in postings:
        entry.insert(p)
    if postings:
        n_removals = data.draw(st.integers(min_value=0, max_value=len(postings)))
        ids = data.draw(
            st.lists(
                st.sampled_from([p.blog_id for p in postings]),
                min_size=n_removals,
                max_size=n_removals,
            )
        )
        removed_ids = set()
        for blog_id in ids:
            if entry.remove_id(blog_id) is not None:
                removed_ids.add(blog_id)
        # No removed posting ranks above the floor.
        removed_keys = [p.sort_key for p in postings if p.blog_id in removed_ids]
        assert all(key <= entry.floor for key in removed_keys)


# ----------------------------------------------------------------------
# Victim selection
# ----------------------------------------------------------------------

candidates_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=1e4, allow_nan=False),
        st.integers(min_value=1, max_value=100),
    ),
    min_size=0,
    max_size=50,
).map(lambda pairs: [(ts, cost, f"key{i}") for i, (ts, cost) in enumerate(pairs)])


@given(candidates_strategy, st.integers(min_value=1, max_value=2000))
def test_heap_selection_covers_budget_when_possible(candidates, budget):
    chosen = select_victims_heap(candidates, budget)
    total_available = sum(c[1] for c in candidates)
    total_chosen = sum(c[1] for c in chosen)
    if total_available >= budget:
        assert total_chosen >= budget
    else:
        assert {c[2] for c in chosen} == {c[2] for c in candidates}


@given(
    st.lists(
        st.floats(min_value=0, max_value=1e4, allow_nan=False),
        min_size=0,
        max_size=50,
        unique=True,
    ),
    st.integers(min_value=1, max_value=300),
)
def test_heap_matches_sorted_prefix_for_uniform_costs(timestamps, budget):
    """With uniform costs and distinct timestamps the bounded-heap result
    must equal the minimal sorted-prefix cover — the O(n) algorithm loses
    nothing against the O(n log n) baseline (the paper's claim)."""
    candidates = [(ts, 10, f"key{i}") for i, ts in enumerate(timestamps)]
    heap_names = {c[2] for c in select_victims_heap(candidates, budget)}
    sort_names = {c[2] for c in select_victims_sort(candidates, budget)}
    assert heap_names == sort_names


@given(candidates_strategy, st.integers(min_value=1, max_value=2000))
def test_sort_selection_is_minimal_prefix(candidates, budget):
    chosen = select_victims_sort(candidates, budget)
    if chosen:
        without_last = sum(c[1] for c in chosen[:-1])
        assert without_last < budget


@settings(max_examples=500)
@given(st.data())
def test_pruned_replay_matches_heap_on_tie_heavy_candidates(data):
    """The pruned replay returns the heap's exact victim set — ties at the
    coverage boundary included — for timestamps drawn from at most five
    distinct values and any tie order in the recency view."""
    stamps = data.draw(
        st.lists(
            st.floats(min_value=0, max_value=1e4, allow_nan=False),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    pairs = data.draw(
        st.lists(
            st.tuples(st.sampled_from(stamps), st.integers(min_value=1, max_value=40)),
            max_size=60,
        )
    )
    candidates = [(ts, cost, i) for i, (ts, cost) in enumerate(pairs)]
    total = sum(cost for _ts, cost, _i in candidates)
    target = data.draw(st.integers(min_value=0, max_value=total + 50))
    shuffled = data.draw(st.permutations(candidates))
    oldest_first = sorted(shuffled, key=lambda c: c[0])
    chosen = select_victims_pruned(candidates, oldest_first, target, lambda c: c[2])
    assert {c[2] for c in chosen} == {
        c[2] for c in select_victims_heap(candidates, target)
    }


# ----------------------------------------------------------------------
# Raw store
# ----------------------------------------------------------------------

@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=4), st.text(max_size=30)),
        min_size=1,
        max_size=40,
    )
)
def test_raw_store_byte_accounting(specs):
    model = MemoryModel()
    store = RawDataStore(model)
    for i, (pcount, text) in enumerate(specs):
        record = Microblog(blog_id=i, timestamp=float(i), user_id=0, text=text)
        store.add(record, pcount=pcount)
    # Fully dereference every other record.
    for i, (pcount, _) in enumerate(specs):
        if i % 2 == 0:
            for _ in range(pcount):
                store.decref(i)
    store.check_integrity()
    assert all(i % 2 == 1 for i in (r.blog_id for r in store))


# ----------------------------------------------------------------------
# End-to-end engine invariants under random workloads
# ----------------------------------------------------------------------

keyword_strategy = st.lists(
    st.sampled_from([f"kw{i}" for i in range(12)]), min_size=1, max_size=3, unique=True
)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(keyword_strategy, min_size=10, max_size=150),
    st.booleans(),
)
def test_kflushing_integrity_under_random_streams(keyword_sets, mk):
    model = MemoryModel()
    disk = DiskArchive(model)
    eng = KFlushingEngine(
        mk=mk,
        **engine_kwargs(model, disk, k=3, capacity=6_000, flush_fraction=0.3),
    )
    for i, keywords in enumerate(keyword_sets):
        insert(
            eng,
            Microblog(
                blog_id=i, timestamp=float(i), user_id=0, keywords=tuple(keywords)
            ),
        )
        if eng.needs_flush():
            eng.run_flush(now=float(i))
    eng.check_integrity()
    # Lossless partition per key.
    for key in [f"kw{i}" for i in range(12)]:
        truth = {
            i for i, kws in enumerate(keyword_sets) if key in kws
        }
        memory_ids = {p.blog_id for p in eng.lookup(key).candidates}
        disk_ids = {p.blog_id for p in disk.lookup(key)}
        assert memory_ids | disk_ids == truth


@settings(max_examples=15, deadline=None)
@given(st.lists(keyword_strategy, min_size=30, max_size=120), st.integers(0, 10**6))
def test_or_and_query_exactness_random(keyword_sets, seed):
    """OR always exact; AND exact in strict mode — against brute force,
    under random streams, any policy, with flushing exercised."""
    from repro.config import SystemConfig
    from repro.engine.queries import AndQuery, OrQuery
    from repro.engine.system import MicroblogSystem

    system = MicroblogSystem(
        SystemConfig(
            policy=("fifo", "kflushing", "kflushing-mk", "lru")[seed % 4],
            k=3,
            memory_capacity_bytes=6_000,
            flush_fraction=0.3,
        ),
        strict_and=True,
    )
    records = [
        Microblog(blog_id=i, timestamp=float(i), user_id=0, keywords=tuple(kws))
        for i, kws in enumerate(keyword_sets)
    ]
    for record in records:
        system.ingest(record)
    a, b = f"kw{seed % 12}", f"kw{(seed + 5) % 12}"
    or_result = system.search(OrQuery([a, b], k=3))
    or_truth = sorted(
        (r.blog_id for r in records if a in r.keywords or b in r.keywords),
        reverse=True,
    )[:3]
    assert list(or_result.blog_ids) == or_truth
    and_result = system.search(AndQuery([a, b], k=3))
    and_truth = sorted(
        (r.blog_id for r in records if a in r.keywords and b in r.keywords),
        reverse=True,
    )[:3]
    assert list(and_result.blog_ids) == and_truth


@settings(max_examples=15, deadline=None)
@given(st.lists(keyword_strategy, min_size=30, max_size=120), st.integers(0, 10**6))
def test_single_query_exactness_random(keyword_sets, seed):
    from repro.config import SystemConfig
    from repro.engine.system import MicroblogSystem

    system = MicroblogSystem(
        SystemConfig(
            policy=("fifo", "kflushing", "kflushing-mk", "lru")[seed % 4],
            k=3,
            memory_capacity_bytes=6_000,
            flush_fraction=0.3,
        )
    )
    records = [
        Microblog(blog_id=i, timestamp=float(i), user_id=0, keywords=tuple(kws))
        for i, kws in enumerate(keyword_sets)
    ]
    for record in records:
        system.ingest(record)
    key = f"kw{seed % 12}"
    result = system.search(KeywordQuery(key, k=3))
    truth = [r.blog_id for r in records if key in r.keywords]
    truth.sort(reverse=True)
    assert list(result.blog_ids) == truth[:3]


@settings(max_examples=15, deadline=None)
@given(
    st.lists(keyword_strategy, min_size=30, max_size=120),
    st.integers(0, 10**6),
    st.integers(3, 8),
    st.one_of(st.none(), st.integers(3, 8)),
    st.booleans(),
)
def test_capped_and_is_never_exact_and_answers_from_the_intersection(
    keyword_sets, seed, scan_depth, disk_limit, strict_and
):
    """With a scan cap no AND result claims exactness, and every answer,
    hit or miss, is a best-first subset of the true intersection."""
    from repro.config import SystemConfig
    from repro.engine.queries import AndQuery
    from repro.engine.system import MicroblogSystem

    system = MicroblogSystem(
        SystemConfig(
            policy=("fifo", "kflushing", "kflushing-mk", "lru")[seed % 4],
            k=3,
            memory_capacity_bytes=6_000,
            flush_fraction=0.3,
            and_scan_depth=scan_depth,
            and_disk_limit=disk_limit,
        ),
        strict_and=strict_and,
    )
    records = [
        Microblog(blog_id=i, timestamp=float(i), user_id=0, keywords=tuple(kws))
        for i, kws in enumerate(keyword_sets)
    ]
    for record in records:
        system.ingest(record)
    for offset in range(1, 12, 3):
        a, b = f"kw{seed % 12}", f"kw{(seed + offset) % 12}"
        result = system.search(AndQuery([a, b], k=3))
        truth = {r.blog_id for r in records if a in r.keywords and b in r.keywords}
        assert not result.provably_exact
        assert set(result.blog_ids) <= truth
        assert list(result.blog_ids) == sorted(result.blog_ids, reverse=True)
