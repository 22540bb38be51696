"""Flushing policies: kFlushing (+MK) and the FIFO / LRU baselines.

Engines are instantiated through a **registry** rather than an
if-chain so that (a) every partition of the system can create its
engine from the same policy name, and (b) downstream extensions can
register additional policies without editing this package
(:func:`register_engine`).
"""

from typing import Callable

from repro.core.fifo import FIFOEngine
from repro.core.kflushing import KFlushingEngine
from repro.core.lru import LRUEngine
from repro.core.policy import FlushReport, LookupResult, MemoryEngine
from repro.core.victim_selection import (
    select_victims_heap,
    select_victims_pruned,
    select_victims_sort,
)

__all__ = [
    "FIFOEngine",
    "FlushReport",
    "KFlushingEngine",
    "LRUEngine",
    "LookupResult",
    "MemoryEngine",
    "POLICY_NAMES",
    "create_engine",
    "engine_registry",
    "policy_names",
    "register_engine",
    "select_victims_heap",
    "select_victims_pruned",
    "select_victims_sort",
]

#: Factory signature: the :class:`MemoryEngine` constructor arguments
#: (``model``, ``ranking``, ``attribute``, ``k``, ``capacity_bytes``,
#: ``flush_fraction``, ``disk``, and optionally ``obs``).
EngineFactory = Callable[..., MemoryEngine]


def _kflushing(**kwargs) -> MemoryEngine:
    return KFlushingEngine(mk=False, **kwargs)


def _kflushing_mk(**kwargs) -> MemoryEngine:
    return KFlushingEngine(mk=True, **kwargs)


#: Policy name -> engine factory, in the paper's plotting order.
_ENGINE_REGISTRY: dict[str, EngineFactory] = {
    "fifo": FIFOEngine,
    "kflushing": _kflushing,
    "kflushing-mk": _kflushing_mk,
    "lru": LRUEngine,
}

#: The four policies evaluated in the paper, in its plotting order.
#: (Static snapshot for backwards compatibility; prefer
#: :func:`policy_names`, which also reflects registered extensions.)
POLICY_NAMES = tuple(_ENGINE_REGISTRY)


def policy_names() -> tuple[str, ...]:
    """All currently registered policy names, registration order."""
    return tuple(_ENGINE_REGISTRY)


def engine_registry() -> dict[str, EngineFactory]:
    """A copy of the policy registry (introspection only)."""
    return dict(_ENGINE_REGISTRY)


def register_engine(name: str, factory: EngineFactory) -> None:
    """Register (or replace) a policy factory under ``name``.

    The factory must accept the :class:`MemoryEngine` constructor
    keyword arguments and return an engine instance.  Registered names
    become valid ``SystemConfig.policy`` values immediately.
    """
    if not name:
        raise ValueError("policy name must be non-empty")
    _ENGINE_REGISTRY[name] = factory


def create_engine(policy: str, **kwargs) -> MemoryEngine:
    """Instantiate a memory engine by policy name.

    ``kwargs`` are the :class:`MemoryEngine` constructor arguments
    (``model``, ``ranking``, ``attribute``, ``k``, ``capacity_bytes``,
    ``flush_fraction``, ``disk``, and optionally ``obs``).
    """
    factory = _ENGINE_REGISTRY.get(policy)
    if factory is None:
        valid = ", ".join(_ENGINE_REGISTRY)
        raise ValueError(f"unknown policy {policy!r}; expected one of: {valid}")
    return factory(**kwargs)
