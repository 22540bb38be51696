"""PR 4 disk-tier invariants: the segmented-runs index layout.

Two families of guarantees:

* **Differential** — under real trial traffic every lookup of the
  segmented-runs layout, and its simulated I/O, equal a sorted,
  id-deduplicated list of what was committed.
* **Property** (hypothesis) — per-key disk postings stay globally
  rank-sorted and duplicate-free under arbitrary interleavings of
  commits (including re-flushed postings) and compactions, and always
  match that sorted reference.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.engine.sharded import build_system
from repro.experiments.runner import TrialSpec
from repro.experiments.scale import ScalePreset
from repro.storage.disk import DiskArchive, DiskCostModel
from repro.storage.memory_model import MemoryModel
from repro.storage.posting_list import Posting
from repro.workload.queryload import QueryLoad, QueryLoadConfig
from repro.workload.stream import MicroblogStream, StreamConfig

MICRO = ScalePreset(
    name="micro",
    bytes_per_gb=8_000,
    vocabulary_size=400,
    user_count=400,
    warm_flushes=2,
    max_warm_records=30_000,
    eval_records=800,
    queries_per_record=1.0,
    and_scan_depth=100,
    and_disk_limit=100,
)


def posting(i: int, score: float | None = None) -> Posting:
    return Posting(float(i) if score is None else score, float(i), i)


# ----------------------------------------------------------------------
# Differential: runs layout vs a sorted list of what was committed
# ----------------------------------------------------------------------


def _check_against_reference(disk: DiskArchive, model: MemoryModel) -> dict:
    """Wrap ``disk``'s own methods so every lookup is compared with the
    reference — per key, everything committed, id-deduplicated, best rank
    first — and the simulated I/O the reference implies is summed up."""
    cost = DiskCostModel()
    committed: dict = {}
    records: dict = {}
    seen = {"lookups": 0, "io_seconds": 0.0}
    commit, lookup, fetch = disk.commit_flush, disk.lookup, disk.fetch_record

    def commit_flush(new_records, postings_by_key, record_costs=None):
        new_records = list(new_records)
        nbytes = 0
        for record in new_records:
            if records.setdefault(record.blog_id, record) is record:
                nbytes += model.record_bytes(record)
        for key, postings in postings_by_key.items():
            by_id = committed.setdefault(key, {})
            before = len(by_id)
            for p in postings:
                by_id.setdefault(p.blog_id, p)
            nbytes += model.postings_bytes(len(by_id) - before)
        seen["io_seconds"] += cost.write_cost(nbytes)
        return commit(new_records, postings_by_key, record_costs)

    def checked_lookup(key, limit=None):
        result = lookup(key, limit)
        expected = sorted(committed.get(key, {}).values(), reverse=True)[:limit]
        assert list(result) == expected
        seen["lookups"] += 1
        seen["io_seconds"] += cost.read_cost(model.postings_bytes(len(expected)))
        return result

    def fetch_record(blog_id):
        record = fetch(blog_id)
        assert record is records.get(blog_id)
        if record is not None:
            seen["io_seconds"] += cost.read_cost(model.record_bytes(record))
        return record

    disk.commit_flush, disk.lookup, disk.fetch_record = (
        commit_flush,
        checked_lookup,
        fetch_record,
    )
    return seen


class TestRunsLayoutDifferential:
    """Real trial traffic: what the archive answers, and what it charges,
    must equal the sorted reference of what was committed."""

    @pytest.mark.parametrize("policy", ["fifo", "kflushing", "kflushing-mk", "lru"])
    def test_trial_lookups_match_reference(self, policy):
        spec = TrialSpec(policy=policy, scale=MICRO, seed=11)
        system = spec.build_system()
        seen = _check_against_reference(system.disk, system.config.memory_model)
        stream = spec.build_stream()
        queries = spec.build_queries(stream)
        for record in stream.take(MICRO.max_warm_records // 2):
            system.ingest(record)
            system.search(queries.next_query())
        assert len(system.flush_reports()) >= MICRO.warm_flushes
        assert seen["lookups"] > 0

    def test_simulated_io_matches_reference(self):
        config = SystemConfig(
            policy="kflushing",
            memory_capacity_bytes=200_000,
            and_scan_depth=100,
            and_disk_limit=100,
        )
        system = build_system(config)
        seen = _check_against_reference(system.disk, config.memory_model)
        stream = MicroblogStream(
            StreamConfig(seed=5, vocabulary_size=300, with_locations=False)
        )
        load = QueryLoad(
            QueryLoadConfig(seed=6, mode="correlated"),
            MicroblogStream(
                StreamConfig(seed=5, vocabulary_size=300, with_locations=False)
            ),
        )
        for i, record in enumerate(stream.take(8_000)):
            system.ingest(record)
            if i % 10 == 0:
                system.search(load.next_query())
        assert system.disk.simulated_io_seconds == pytest.approx(
            seen["io_seconds"]
        )
        assert system.disk.simulated_io_seconds > 0


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------

#: A commit interleaving: each element is one flush batch mapping a key
#: (from a tiny alphabet, so batches collide) to posting ids (from a
#: small id range, so re-flushed duplicates occur often).
batches_strategy = st.lists(
    st.dictionaries(
        st.sampled_from(("a", "b", "c")),
        st.lists(st.integers(min_value=0, max_value=120), min_size=1, max_size=20),
        min_size=1,
        max_size=3,
    ),
    min_size=1,
    max_size=25,
)


@given(batches_strategy, st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_postings_rank_sorted_after_any_interleaving(batches, max_runs):
    """Global rank order and dedup survive arbitrary commit/compaction
    interleavings — and always match the sorted reference."""
    model = MemoryModel()
    runs = DiskArchive(model, max_runs_per_key=max_runs)
    committed: dict[str, set[int]] = {}
    for by_key in batches:
        batch = {key: [posting(i) for i in ids] for key, ids in by_key.items()}
        runs.commit_flush([], batch)
        for key, ids in by_key.items():
            committed.setdefault(key, set()).update(ids)
    for key, ids in committed.items():
        result = list(runs.lookup(key))
        sort_keys = [p.sort_key for p in result]
        assert sort_keys == sorted(sort_keys, reverse=True)
        assert {p.blog_id for p in result} == ids
        assert len(result) == len(ids)  # no duplicates survive
        assert runs.run_count(key) <= max_runs
        reference = sorted((posting(i) for i in ids), reverse=True)
        assert result == reference
        assert list(runs.lookup(key, limit=7)) == reference[:7]
