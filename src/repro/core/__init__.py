"""Flushing policies: kFlushing (+MK) and the FIFO / LRU baselines.

Every partition of the system creates its engine from the same policy
name through :func:`create_engine`; :data:`POLICY_NAMES` lists the names.
"""

from repro.core.fifo import FIFOEngine
from repro.core.kflushing import KFlushingEngine
from repro.core.lru import LRUEngine
from repro.core.policy import FlushReport, IndexedEngine, LookupResult, MemoryEngine
from repro.core.victim_selection import (
    select_victims_heap,
    select_victims_pruned,
    select_victims_sort,
)

__all__ = [
    "FIFOEngine",
    "FlushReport",
    "IndexedEngine",
    "KFlushingEngine",
    "LRUEngine",
    "LookupResult",
    "MemoryEngine",
    "POLICY_NAMES",
    "create_engine",
    "select_victims_heap",
    "select_victims_pruned",
    "select_victims_sort",
]

#: Policy name -> engine constructor, in the paper's plotting order.
_ENGINES = {
    "fifo": FIFOEngine,
    "kflushing": lambda **kwargs: KFlushingEngine(mk=False, **kwargs),
    "kflushing-mk": lambda **kwargs: KFlushingEngine(mk=True, **kwargs),
    "lru": LRUEngine,
}

#: The four policies evaluated in the paper, in its plotting order.
POLICY_NAMES = tuple(_ENGINES)


def create_engine(policy: str, **kwargs) -> MemoryEngine:
    """Instantiate a memory engine by policy name.

    ``kwargs`` are the :class:`MemoryEngine` constructor arguments
    (``model``, ``ranking``, ``attribute``, ``k``, ``capacity_bytes``,
    ``flush_fraction``, ``disk``, and optionally ``obs``).
    """
    factory = _ENGINES.get(policy)
    if factory is None:
        valid = ", ".join(POLICY_NAMES)
        raise ValueError(f"unknown policy {policy!r}; expected one of: {valid}")
    return factory(**kwargs)
