"""Eviction-cause ledger: remembering *why* each key left memory.

The paper's central claim is an attribution claim — kFlushing's phased
eviction raises hit ratio *because* it evicts the right postings.  The
ledger is the mechanism that makes the claim auditable: every eviction
decision records ``key → (cause, logical time, postings dropped)``, and
on a memory miss the query executor asks the ledger which decision made
the queried keys incomplete, bumping ``query.miss.cause.<cause>``.

Causes form a closed taxonomy spanning all three policies:

=====================  ==================================================
``phase1-regular``     kFlushing Phase 1 trimmed the entry to its top-k
                       (overflow postings dropped, head survives)
``phase2-aggressive``  kFlushing Phase 2 drained an under-k entry whole
``phase3-forced``      kFlushing Phase 3 force-drained any entry (LRQ)
``whole-key-fifo``     FIFO popped the segment holding the entry
``whole-key-lru``      LRU record eviction removed the entry entirely
``trimmed-topk``       LRU record eviction punched a hole in an entry
                       that otherwise survives
``never-resident``     no queried key has a ledger entry — the key was
                       never memory-complete (cold key, or evicted
                       beyond ledger capacity)
=====================  ==================================================

Memory is bounded: the ledger is an LRU-ordered dict capped at
``capacity`` keys; re-recording a key refreshes it.  Attribution is a
diagnosis aid, not an exact replay — a key evicted, re-digested, and
evicted again keeps only its *latest* cause, which is also the one that
explains the next miss.

:class:`KeyHeat` lives beside the ledger under the same gate: per-key
query and eviction counts behind the snapshot's ``hot_keys`` tables.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterable, NamedTuple, Optional

__all__ = [
    "ALL_CAUSES",
    "CAUSE_NEVER_RESIDENT",
    "CAUSE_PHASE1_REGULAR",
    "CAUSE_PHASE2_AGGRESSIVE",
    "CAUSE_PHASE3_FORCED",
    "CAUSE_TRIMMED_TOPK",
    "CAUSE_WHOLE_KEY_FIFO",
    "CAUSE_WHOLE_KEY_LRU",
    "EvictionLedger",
    "EvictionRecord",
    "KeyHeat",
    "stable_top",
]

CAUSE_PHASE1_REGULAR = "phase1-regular"
CAUSE_PHASE2_AGGRESSIVE = "phase2-aggressive"
CAUSE_PHASE3_FORCED = "phase3-forced"
CAUSE_WHOLE_KEY_FIFO = "whole-key-fifo"
CAUSE_WHOLE_KEY_LRU = "whole-key-lru"
CAUSE_TRIMMED_TOPK = "trimmed-topk"
CAUSE_NEVER_RESIDENT = "never-resident"

ALL_CAUSES = (
    CAUSE_PHASE1_REGULAR,
    CAUSE_PHASE2_AGGRESSIVE,
    CAUSE_PHASE3_FORCED,
    CAUSE_WHOLE_KEY_FIFO,
    CAUSE_WHOLE_KEY_LRU,
    CAUSE_TRIMMED_TOPK,
    CAUSE_NEVER_RESIDENT,
)


class EvictionRecord(NamedTuple):
    """One eviction decision: what rule fired, when, how much it dropped."""

    cause: str
    at: int
    postings: int


class EvictionLedger:
    """Bounded key → latest :class:`EvictionRecord` map (LRU eviction)."""

    #: Keys kept; every memory engine's ledger has this capacity.
    DEFAULT_CAPACITY = 65536

    __slots__ = ("capacity", "_records")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"ledger capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._records: OrderedDict = OrderedDict()

    def record(self, key, cause: str, at: int, postings: int) -> int:
        """Note that ``postings`` postings of ``key`` were evicted at
        logical time ``at`` because ``cause`` fired.  The latest record
        per key wins; recording refreshes the key's LRU position.

        Returns how many old records were dropped to stay within
        capacity.  A dropped record silently degrades attribution — the
        next miss on that key reads as ``never-resident`` — so callers
        surface the count (``eviction_ledger.dropped``) instead of
        letting the overflow stay invisible.
        """
        records = self._records
        records[key] = EvictionRecord(cause, at, postings)
        records.move_to_end(key)
        dropped = 0
        while len(records) > self.capacity:
            records.popitem(last=False)
            dropped += 1
        return dropped

    def get(self, key) -> Optional[EvictionRecord]:
        """Latest eviction record for ``key``, or None (read-only: does
        not refresh LRU position — queries must not pin ledger entries)."""
        return self._records.get(key)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key) -> bool:
        return key in self._records

    def clear(self) -> None:
        self._records.clear()


def stable_top(
    pairs: Iterable[tuple[Hashable, int]], n: int
) -> list[tuple[Hashable, int]]:
    """Top-``n`` (key, count) pairs, highest count first; ties break on
    the keys' ``repr`` so the result is process- and seed-stable."""
    return sorted(pairs, key=lambda kv: (-kv[1], repr(kv[0])))[:n]


class KeyHeat:
    """Per-key query and eviction counters (the ``hot_keys`` tables).

    ``queried`` is fed by the query executor, ``evicted`` straight from
    ``MemoryEngine.note_eviction``.
    """

    __slots__ = ("queried", "evicted")

    def __init__(self) -> None:
        self.queried: dict[Hashable, int] = {}
        self.evicted: dict[Hashable, int] = {}

    def note_query(self, keys) -> None:
        queried = self.queried
        for key in keys:
            queried[key] = queried.get(key, 0) + 1

    def note_eviction(self, key: Hashable, postings: int) -> None:
        self.evicted[key] = self.evicted.get(key, 0) + postings

    def top_queried(self, n: int) -> list[tuple[Hashable, int]]:
        return stable_top(self.queried.items(), n)

    def top_evicted(self, n: int) -> list[tuple[Hashable, int]]:
        return stable_top(self.evicted.items(), n)
