"""Byte-cost model for memory accounting.

The paper's experiments are parameterised by a memory budget in gigabytes.
Rather than relying on the Python interpreter's (noisy, version-dependent)
object sizes, the store charges every structure against an explicit,
configurable cost model, the way a C++/Java system would lay the data out:

* a raw record costs a fixed overhead plus its variable-length payload
  (text bytes and keyword bytes);
* an index entry costs a fixed overhead (hash slot, key, the per-entry
  arrival/query timestamps that kFlushing adds) plus one pointer per
  posting;
* each policy's private bookkeeping (LRU list nodes, FIFO segment headers,
  kFlushing's overflow list) is charged through the same model so the
  Figure 10(a) overhead experiment is apples-to-apples.

All constants are per-instance so experiments can sweep them; the defaults
approximate a compact Java layout like the paper's implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.model.microblog import Microblog

__all__ = ["MemoryModel"]


@dataclass(frozen=True)
class MemoryModel:
    """Explicit byte costs for every structure held in main memory."""

    #: Fixed bytes per raw record: object header, id, timestamp, user id,
    #: follower count, location, pcount, and store slot.
    record_overhead: int = 96
    #: Bytes charged per character of record text.
    text_byte_cost: int = 1
    #: Bytes charged per character of each stored keyword string.
    keyword_byte_cost: int = 1
    #: Bytes per posting (a microblog id held in an index entry list).
    posting_bytes: int = 8
    #: Fixed bytes per index entry: hash slot, key reference, list header,
    #: and the entry-level timestamps kFlushing maintains.
    entry_overhead: int = 64
    #: Bytes for one timestamp field (used to price policy bookkeeping).
    timestamp_bytes: int = 8
    #: Bytes per record of the global doubly-linked LRU list (H-Store
    #: anti-cache).  Two raw pointers would be 16 bytes; the paper's Java
    #: implementation measures ~4.9 GB for a ~30 GB / ~100M-tweet budget,
    #: i.e. ~48 bytes per tracked microblog (object header + prev + next
    #: + key), which this default mirrors.
    lru_node_bytes: int = 48
    #: Fixed bytes per FIFO time segment header.
    segment_overhead: int = 128
    #: Bytes per pointer (used for the kFlushing overflow list L, etc).
    pointer_bytes: int = 8

    def __post_init__(self) -> None:
        for field_name in (
            "record_overhead",
            "text_byte_cost",
            "keyword_byte_cost",
            "posting_bytes",
            "entry_overhead",
            "timestamp_bytes",
            "lru_node_bytes",
            "segment_overhead",
            "pointer_bytes",
        ):
            value = getattr(self, field_name)
            if value < 0:
                raise ConfigurationError(f"{field_name} must be non-negative, got {value}")
        if self.record_overhead == 0 and self.text_byte_cost == 0:
            raise ConfigurationError("records must have a non-zero cost")

    def record_bytes(self, record: Microblog) -> int:
        """Total bytes a raw record occupies in the raw data store."""
        # Hot path: called for every insert and every eviction.
        payload = self.text_byte_cost * len(record.text)
        if record.keywords:
            payload += self.keyword_byte_cost * sum(map(len, record.keywords))
        return self.record_overhead + payload

    def entry_bytes(self, posting_count: int) -> int:
        """Bytes one index entry with ``posting_count`` postings occupies."""
        if posting_count < 0:
            raise ValueError(f"posting_count must be non-negative, got {posting_count}")
        return self.entry_overhead + posting_count * self.posting_bytes

    def postings_bytes(self, posting_count: int) -> int:
        """Bytes of just the posting pointers (no entry overhead)."""
        return posting_count * self.posting_bytes
