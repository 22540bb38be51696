"""The raw data store: complete microblog records with reference counts.

This is the "raw data store" container of the paper's Figure 3.  Each
record carries an auxiliary ``pcount`` (Section III-A): the number of
in-memory index entries that still reference it.  A record physically
leaves memory — and becomes eligible for the disk flush buffer — only when
its ``pcount`` falls to zero.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import DuplicateRecordError, UnknownRecordError
from repro.model.microblog import Microblog
from repro.storage.memory_model import MemoryModel

__all__ = ["RawDataStore"]


class RawDataStore:
    """In-memory container of complete records, keyed by ``blog_id``."""

    def __init__(self, model: MemoryModel) -> None:
        self._model = model
        self._records: dict[int, Microblog] = {}
        self._pcounts: dict[int, int] = {}
        #: Modelled bytes charged per resident record, memoized at insert
        #: time.  Removal refunds exactly what was charged, so the budget
        #: stays balanced even if the model's parameters change mid-run
        #: (and the refund skips re-tokenizing the record text).
        self._costs: dict[int, int] = {}
        self._bytes = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, blog_id: int) -> bool:
        return blog_id in self._records

    def __iter__(self) -> Iterator[Microblog]:
        return iter(self._records.values())

    @property
    def bytes_used(self) -> int:
        """Modelled bytes currently occupied by raw records."""
        return self._bytes

    def get(self, blog_id: int) -> Microblog:
        """Return the record for ``blog_id``.

        Raises :class:`UnknownRecordError` when the record is not resident.
        """
        try:
            return self._records[blog_id]
        except KeyError:
            raise UnknownRecordError(blog_id) from None

    def pcount(self, blog_id: int) -> int:
        """Current reference count of a resident record."""
        try:
            return self._pcounts[blog_id]
        except KeyError:
            raise UnknownRecordError(blog_id) from None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, record: Microblog, pcount: int) -> int:
        """Store ``record`` with an initial reference count.

        Returns the modelled bytes charged.  ``pcount`` is the number of
        index entries the record was posted under (Section III-A
        initialises it to the number of the record's keywords).
        """
        if record.blog_id in self._records:
            raise DuplicateRecordError(record.blog_id)
        if pcount <= 0:
            raise ValueError(f"pcount must be positive, got {pcount}")
        cost = self._model.record_bytes(record)
        self._records[record.blog_id] = record
        self._pcounts[record.blog_id] = pcount
        self._costs[record.blog_id] = cost
        self._bytes += cost
        return cost

    def decref(self, blog_id: int) -> Microblog | None:
        """Drop one index reference from a record.

        When the count reaches zero the record is removed from the store
        and returned (the caller moves it to the flush buffer, per the
        paper: "whenever M.pcount reaches zero ... flushed to disk right
        away").  Otherwise returns None and the record stays resident.
        """
        try:
            count = self._pcounts[blog_id]
        except KeyError:
            raise UnknownRecordError(blog_id) from None
        if count <= 0:
            raise ValueError(f"pcount underflow for blog_id={blog_id}")
        count -= 1
        if count > 0:
            self._pcounts[blog_id] = count
            return None
        record = self._records.pop(blog_id)
        del self._pcounts[blog_id]
        self._bytes -= self._costs.pop(blog_id)
        return record

    def remove(self, blog_id: int) -> Microblog:
        """Forcibly remove a record regardless of its reference count.

        Used by per-item policies (LRU) that evict a record from all of its
        entries at once.  Returns the removed record.
        """
        try:
            record = self._records.pop(blog_id)
        except KeyError:
            raise UnknownRecordError(blog_id) from None
        del self._pcounts[blog_id]
        self._bytes -= self._costs.pop(blog_id)
        return record

    def check_integrity(self) -> None:
        """Assert internal invariants (used by tests and debug builds).

        The byte counter is checked against the *memoized* per-record
        costs, not a recomputation under the current model: the charge at
        insert time is the truth the refund must match.
        """
        assert set(self._records) == set(self._pcounts), "record/pcount key mismatch"
        assert set(self._records) == set(self._costs), "record/cost key mismatch"
        assert all(c > 0 for c in self._pcounts.values()), "non-positive pcount"
        expected = sum(self._costs.values())
        assert self._bytes == expected, f"byte accounting drift: {self._bytes} != {expected}"
