"""Flush buffer: staging area between a flushing policy and the disk.

"All flushed data are collected in a temporary main-memory buffer before
writing them to disk.  This is mainly to reduce the number of I/O
operations." (Section III-A.)  The buffer accumulates evicted records and
postings during one flush operation and commits them to the
:class:`~repro.storage.disk.DiskArchive` in a single batch.  It also tracks
its peak size — the paper reports the ~2 GB temporary buffer kFlushing
needs — which feeds the Figure 10(a) overhead measurement.
"""

from __future__ import annotations

import statistics
from collections import deque
from typing import Hashable

from repro.model.microblog import Microblog
from repro.storage.disk import DiskArchive
from repro.storage.memory_model import MemoryModel
from repro.storage.posting_list import Posting

__all__ = ["FlushBuffer"]


class FlushBuffer:
    """Accumulates one flush batch, then commits it in a single write."""

    def __init__(self, model: MemoryModel, disk: DiskArchive) -> None:
        self._model = model
        self._disk = disk
        self._records: list[Microblog] = []
        self._postings: dict[Hashable, list[Posting]] = {}
        self._bytes = 0
        #: Largest modelled size the buffer ever reached.
        self.peak_bytes = 0
        #: Staged sizes of the most recent commits.  The first flush after
        #: a cold start evicts far more than the steady-state budget; the
        #: Figure 10(a) overhead metric wants the *steady-state* buffer
        #: requirement, i.e. the peak over recent flushes only.
        self._recent_commit_bytes: deque[int] = deque(maxlen=4)

    @property
    def is_empty(self) -> bool:
        return not self._records and not self._postings

    def add_record(self, record: Microblog) -> None:
        """Stage a record whose reference count reached zero."""
        self._records.append(record)
        self._bytes += self._model.record_bytes(record)
        self.peak_bytes = max(self.peak_bytes, self._bytes)

    def add_posting(self, key: Hashable, posting: Posting) -> None:
        """Stage one trimmed posting under ``key``."""
        self._postings.setdefault(key, []).append(posting)
        self._bytes += self._model.posting_bytes
        self.peak_bytes = max(self.peak_bytes, self._bytes)

    @property
    def steady_peak_bytes(self) -> int:
        """Typical staged size of recent flushes (Figure 10(a)).

        The median over the recent-commit window discounts the oversized
        cold-start flushes (a fresh store's first flush can evict over
        half of memory; steady-state flushes evict ~the budget B).
        """
        if not self._recent_commit_bytes:
            return self._bytes
        return int(statistics.median(self._recent_commit_bytes))

    def commit(self) -> int:
        """Write everything staged to disk in one batch; returns bytes
        written.  The buffer is empty afterwards and reusable."""
        if self.is_empty:
            return 0
        self._recent_commit_bytes.append(self._bytes)
        written = self._disk.commit_flush(self._records, self._postings)
        self._records = []
        self._postings = {}
        self._bytes = 0
        return written
