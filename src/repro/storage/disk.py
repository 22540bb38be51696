"""Simulated disk archive: where flushed microblogs go.

The paper's disk tier (Figure 2/3) mirrors the in-memory layout — a raw
record store plus an attribute index — and is "an expensive process" to
visit.  We model it as in-process dictionaries wrapped in an explicit I/O
cost model, because what the experiments measure is not real disk latency
but (a) *how often* queries must fall to disk (the memory hit ratio) and
(b) the I/O volume a flushing policy generates.

Cost model: every batch write pays one seek plus bytes/bandwidth; every
index lookup pays one seek plus the postings read; every record fetch pays
one seek plus the record read.  The accumulated simulated seconds are the
archive's ``simulated_io_seconds``; the operation counters are the
``disk.*`` metrics of the catalog, bound at construction.

Index layout (PR 4): the attribute index is log-structured.  Each key
holds a :class:`_PostingRuns` — a set of sorted *runs* appended O(1) per
flush batch (flush batches arrive rank-ordered from the posting lists),
lazily k-way-merged on read, and size-tiered-compacted when the run count
exceeds ``max_runs_per_key``.  Every lookup pays its seek, including
one on a key the archive has never indexed: there is no read cache and
no lookup elision (docs/PERFORMANCE.md, "Why there is no adaptive
controller or disk cache").
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import merge as _heap_merge
from itertools import islice
from typing import Hashable, Iterable, NamedTuple, Optional, Sequence

from repro.model.microblog import Microblog
from repro.obs import Counter, Instrumentation, catalog
from repro.storage.memory_model import MemoryModel
from repro.storage.posting_list import Posting

__all__ = ["DiskArchive", "DiskCostModel"]


@dataclass(frozen=True)
class DiskCostModel:
    """Latency/bandwidth constants of the simulated disk."""

    seek_seconds: float = 5e-3
    read_bandwidth_bytes_per_s: float = 150e6
    write_bandwidth_bytes_per_s: float = 120e6

    def write_cost(self, nbytes: int) -> float:
        return self.seek_seconds + nbytes / self.write_bandwidth_bytes_per_s

    def read_cost(self, nbytes: int) -> float:
        return self.seek_seconds + nbytes / self.read_bandwidth_bytes_per_s


class _ShardTee(NamedTuple):
    """A shard archive's disk counter: the aggregate plus the shard's twin."""

    total: Counter
    shard: Counter

    def inc(self, amount: float = 1) -> None:
        self.total.inc(amount)
        self.shard.inc(amount)


class _PostingRuns:
    """Per-key log-structured posting storage: sorted runs + id set.

    Each run is ascending by sort key (best posting at the end — the same
    orientation as the in-memory :class:`PostingList`).  Blog ids are
    unique across all runs (``commit_flush`` dedups against ``ids``), and
    a posting's sort key embeds its blog id, so every sort key appears in
    exactly one run and the merged best-first order is independent of the
    order runs are stored in — compaction may regroup them freely.
    """

    __slots__ = ("runs", "ids")

    def __init__(self) -> None:
        self.runs: list[list[Posting]] = []
        self.ids: set[int] = set()

    def __len__(self) -> int:
        return len(self.ids)

    def append_batch(self, postings: Sequence[Posting]) -> int:
        """Append one flush batch; returns the count of fresh postings.

        Postings whose blog id is already indexed under this key are
        dropped (idempotent re-flush).  The batch lands as one new run —
        or extends the newest run in place when it ranks entirely above
        it — so the per-batch cost is O(batch), not O(list).
        """
        ids = self.ids
        fresh = []
        for p in postings:
            # Membership check against ids as we go also drops duplicate
            # blog ids *within* one batch.
            if p.blog_id not in ids:
                ids.add(p.blog_id)
                fresh.append(p)
        if not fresh:
            return 0
        # Flush batches come off ascending posting lists and normally
        # arrive already sorted; fall back to sorting when they don't.
        for i in range(len(fresh) - 1):
            if fresh[i] > fresh[i + 1]:
                fresh.sort()
                break
        runs = self.runs
        if runs and fresh[0] > runs[-1][-1]:
            runs[-1].extend(fresh)
        else:
            runs.append(fresh)
        return len(fresh)

    def compact(self, target: int) -> int:
        """Merge the smallest runs until at most ``target`` remain.

        Size-tiered: the largest ``target - 1`` runs are kept as-is and
        everything smaller is merged into a single sorted run, so big
        cold runs are not rewritten every cycle.  Returns the number of
        runs merged away (0 when already within target).
        """
        runs = self.runs
        if len(runs) <= target:
            return 0
        runs.sort(key=len, reverse=True)
        victims = runs[max(1, target) - 1 :]
        del runs[max(1, target) - 1 :]
        runs.append(list(_heap_merge(*victims)))
        return len(victims)

    def top(self, limit: int) -> list[Posting]:
        """Best ``limit`` postings, best rank first, reading run tails."""
        runs = self.runs
        if len(runs) == 1:
            run = runs[0]
            # C-speed tail slice: the last `limit` postings, reversed.
            return run[: -limit - 1 : -1] if limit < len(run) else run[::-1]
        return list(
            islice(_heap_merge(*map(reversed, runs), reverse=True), limit)
        )


class DiskArchive:
    """Append-mostly disk tier with an attribute index over flushed data.

    Postings may arrive before their record does: kFlushing trims a
    microblog id from one entry while the record stays memory-resident
    under another key.  The trimmed posting is written to the disk index
    immediately so that a later disk lookup on that key is exact; the
    record body follows once its reference count reaches zero.  The query
    executor resolves a disk posting to the in-memory record when it is
    still resident.
    """

    def __init__(
        self,
        model: MemoryModel,
        cost_model: Optional[DiskCostModel] = None,
        obs: Optional[Instrumentation] = None,
        shard_id: Optional[int] = None,
        *,
        max_runs_per_key: int = 8,
    ) -> None:
        self._model = model
        self._cost = cost_model or DiskCostModel()
        self._records: dict[int, Microblog] = {}
        self._index: dict[Hashable, _PostingRuns] = {}
        if max_runs_per_key < 1:
            raise ValueError(
                f"max_runs_per_key must be >= 1, got {max_runs_per_key}"
            )
        self._max_runs = max_runs_per_key
        #: Modelled seconds of every write and read so far (the executor
        #: charges each query its delta).
        self.simulated_io_seconds = 0.0
        self.obs = obs if obs is not None else Instrumentation()
        #: Which shard's namespace this archive holds (None = unsharded).
        #: A sharded system builds one archive per shard; its counters
        #: also feed the shard's ``shard.<i>.disk.*`` twins, so
        #: ``snapshot()`` exposes per-shard I/O beside the aggregates.
        self.shard_id = shard_id
        self._flush_batches = self._bind(catalog.DISK_FLUSH_BATCHES)
        self._records_written = self._bind(catalog.DISK_RECORDS_WRITTEN)
        self._postings_written = self._bind(catalog.DISK_POSTINGS_WRITTEN)
        self._bytes_written = self._bind(catalog.DISK_BYTES_WRITTEN)
        self._compactions = self._bind(catalog.DISK_COMPACTIONS)
        self._index_lookups = self._bind(catalog.DISK_INDEX_LOOKUPS)
        self._record_fetches = self._bind(catalog.DISK_RECORD_FETCHES)
        self._bytes_read = self._bind(catalog.DISK_BYTES_READ)

    def _bind(self, metric: catalog.Metric):
        """The aggregate counter, teed to the shard's twin when sharded."""
        total = metric.bind(self.obs.registry)
        if self.shard_id is None:
            return total
        return _ShardTee(total, metric.bind(self.obs.registry, shard=self.shard_id))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def record_count(self) -> int:
        return len(self._records)

    @property
    def key_count(self) -> int:
        return len(self._index)

    def contains_record(self, blog_id: int) -> bool:
        return blog_id in self._records

    def posting_count(self, key: Hashable) -> int:
        postings = self._index.get(key)
        return 0 if postings is None else len(postings)

    def run_count(self, key: Hashable) -> int:
        """Number of stored runs for ``key``."""
        entry = self._index.get(key)
        return 0 if entry is None else len(entry.runs)

    # ------------------------------------------------------------------
    # Writes (called by the flush buffer on commit)
    # ------------------------------------------------------------------

    def commit_flush(
        self,
        records: Iterable[Microblog],
        postings_by_key: dict[Hashable, list[Posting]],
    ) -> int:
        """Persist one flush batch; returns modelled bytes written.

        Idempotent per ``(key, blog_id)``: a posting trimmed in one flush
        and re-flushed later (e.g. alongside its record body) is written
        once — re-commits neither inflate ``posting_count`` nor widen the
        merge inputs of later lookups.
        """
        nbytes = 0
        nrecords = 0
        for record in records:
            # Re-flushing the same record id is idempotent (can happen when
            # a record's postings were flushed from several keys and the
            # record itself follows later).
            if record.blog_id not in self._records:
                self._records[record.blog_id] = record
                nbytes += self._model.record_bytes(record)
                nrecords += 1
        npostings = 0
        for key, postings in postings_by_key.items():
            if not postings:
                continue
            fresh = self._commit_key(key, postings)
            if not fresh:
                continue
            npostings += fresh
            nbytes += self._model.postings_bytes(fresh)
        self.simulated_io_seconds += self._cost.write_cost(nbytes)
        self._flush_batches.inc()
        self._records_written.inc(nrecords)
        self._postings_written.inc(npostings)
        self._bytes_written.inc(nbytes)
        return nbytes

    def _commit_key(self, key: Hashable, postings: list[Posting]) -> int:
        """O(1) batch append plus occasional compaction."""
        entry = self._index.get(key)
        if entry is None:
            entry = _PostingRuns()
            fresh = entry.append_batch(postings)
            if fresh:
                self._index[key] = entry
            return fresh
        fresh = entry.append_batch(postings)
        if len(entry.runs) > self._max_runs:
            entry.compact(max(1, self._max_runs // 2))
            self._compactions.inc()
        return fresh

    # ------------------------------------------------------------------
    # Reads (called by the query executor on a memory miss)
    # ------------------------------------------------------------------

    def lookup(self, key: Hashable, limit: Optional[int] = None) -> list[Posting]:
        """Return disk postings for ``key``, best rank first.

        ``limit`` bounds the number returned (a real system reads the head
        blocks of the posting file); the I/O cost charges one seek plus
        the postings actually read.  Inside an open trace, each lookup
        becomes a ``disk.lookup`` child span recording runs merged and
        postings returned.
        """
        if self.obs.current_trace is None:
            return self._read(key, limit)
        with self.obs.trace_span(
            "disk.lookup", key=str(key), shard=self.shard_id
        ) as extra:
            result = self._read(key, limit)
            extra["postings"] = len(result)
            extra["runs"] = self.run_count(key)
            return result

    def _read(self, key: Hashable, limit: Optional[int]) -> list[Posting]:
        """One key's best ``limit`` postings (all of them when ``limit`` is
        None), with the index read accounted."""
        entry = self._index.get(key)
        if entry is None:
            result = []
        else:
            result = entry.top(len(entry) if limit is None else limit)
        nbytes = self._model.postings_bytes(len(result))
        self.simulated_io_seconds += self._cost.read_cost(nbytes)
        self._index_lookups.inc()
        self._bytes_read.inc(nbytes)
        return result

    def fetch_record(self, blog_id: int) -> Optional[Microblog]:
        """Fetch a flushed record body, charging one read."""
        record = self._records.get(blog_id)
        if record is None:
            return None
        nbytes = self._model.record_bytes(record)
        self.simulated_io_seconds += self._cost.read_cost(nbytes)
        self._record_fetches.inc()
        self._bytes_read.inc(nbytes)
        return record
