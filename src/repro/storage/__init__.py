"""Storage substrate: memory cost model, raw store, indexes, disk tier."""

from repro.storage.disk import DiskArchive, DiskCostModel
from repro.storage.flush_buffer import FlushBuffer
from repro.storage.inverted_index import HashInvertedIndex
from repro.storage.memory_model import MemoryModel
from repro.storage.posting_list import MIN_SORT_KEY, Posting, PostingList, SortKey
from repro.storage.raw_store import RawDataStore
from repro.storage.segmented_index import Segment, SegmentedIndex

__all__ = [
    "DiskArchive",
    "DiskCostModel",
    "FlushBuffer",
    "HashInvertedIndex",
    "MIN_SORT_KEY",
    "MemoryModel",
    "Posting",
    "PostingList",
    "RawDataStore",
    "Segment",
    "SegmentedIndex",
    "SortKey",
]
