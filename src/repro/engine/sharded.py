"""Hash partitioning: the router and the scatter-gather adapters.

The paper's system is a single partition: one memory engine, one flush
cycle, one disk archive.  Real-time microblog search deployments
partition their postings across independent index slices to bound
per-partition memory churn and parallelise digestion; with
``config.shards > 1`` :class:`~repro.engine.system.MicroblogSystem`
wires its partitions together with the pieces in this module:

* a :class:`ShardRouter` maps every index key to its owning shard via a
  **stable** hash (``zlib.crc32`` — deliberately not Python's salted
  ``hash()``, so routing survives process boundaries and reruns);
* each :class:`~repro.engine.system.Partition` is a full vertical slice
  (engine, budget — ``capacity/N`` unless overridden per shard — flush
  cycle, disk namespace) indexing only the keys it owns;
* records **fan out**: the facade extracts a record's keys once, groups
  them by owner (:meth:`ShardRouter.group_by_shard`) and hands every
  owning shard its group, so each shard holds the *complete* posting set
  for the keys it owns.  That per-key completeness is what makes
  scatter-gather answers equal to the one-partition system's for
  single-, OR-, and AND-mode queries alike;
* queries **scatter-gather**: the facade's executor routes every per-key
  memory/disk lookup to the owning shard (:class:`_RoutedEngine`,
  :class:`_RoutedDisk`) and merges with the shared
  :func:`~repro.storage.topk.merge_topk` — the identical hit semantics
  of the one-partition executor, proven by the routed-reference test
  (routing one partition is the identity) and the N-shard
  answer-equality property test in ``tests/test_sharding.py``.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Hashable, Iterable, Optional, Sequence

from repro.config import SystemConfig
from repro.core.policy import LookupResult
from repro.errors import ConfigurationError
from repro.model.microblog import Microblog
from repro.obs import Instrumentation

if TYPE_CHECKING:
    from repro.engine.system import Partition

__all__ = [
    "ShardRouter",
    "build_system",
    "stable_key_hash",
]


def stable_key_hash(key: Hashable) -> int:
    """A process-stable 32-bit hash of an index key.

    Python's builtin ``hash()`` is salted per process for str/bytes, so
    it cannot route keys consistently across the parallel trial runner's
    worker processes or across reruns.  CRC32 over a canonical byte
    encoding is stable everywhere: strings hash their UTF-8 bytes, and
    every other key type (user ids, ``(ix, iy)`` spatial tiles) hashes
    its ``repr`` — stable for the builtin scalar/tuple types keys are
    made of.
    """
    if isinstance(key, str):
        data = key.encode("utf-8")
    elif isinstance(key, bytes):
        data = key
    else:
        data = repr(key).encode("utf-8")
    return zlib.crc32(data)


class ShardRouter:
    """Key -> shard assignment via stable hashing.

    The router also understands *fan-out*: a multi-key record belongs to
    every shard owning one of its keys, and a multi-key query must be
    scattered the same way — :meth:`shards_for` and
    :meth:`group_by_shard` encode those rules in one place.
    """

    def __init__(self, shard_count: int) -> None:
        if shard_count < 1:
            raise ConfigurationError(
                f"shard_count must be >= 1, got {shard_count}"
            )
        self.shard_count = shard_count
        # Key universes are bounded (vocabulary / user population / tile
        # grid), so memoising the modulo is safe and keeps the per-record
        # routing cost to one dict hit per key at steady state.
        self._cache: dict[Hashable, int] = {}

    def shard_of(self, key: Hashable) -> int:
        """The shard owning ``key``."""
        shard = self._cache.get(key)
        if shard is None:
            shard = stable_key_hash(key) % self.shard_count
            self._cache[key] = shard
        return shard

    def shards_for(self, keys: Iterable[Hashable]) -> tuple[int, ...]:
        """Sorted distinct shards owning any of ``keys`` (record fan-out)."""
        return tuple(sorted({self.shard_of(key) for key in keys}))

    def group_by_shard(
        self, keys: Sequence[Hashable]
    ) -> dict[int, tuple[Hashable, ...]]:
        """Keys grouped by owning shard, preserving the given key order."""
        groups: dict[int, list[Hashable]] = {}
        for key in keys:
            groups.setdefault(self.shard_of(key), []).append(key)
        return {shard: tuple(group) for shard, group in groups.items()}


class _RoutedDisk:
    """Disk-archive adapter routing per-key lookups to the owning shard.

    Duck-types the slice of :class:`DiskArchive` the query executor
    uses: ``lookup`` (keyed — routed), ``fetch_record`` (by id — probed
    across shard archives, charging exactly one read), and
    ``simulated_io_seconds`` (summed over the shard archives).
    """

    def __init__(
        self, shards: "list[Partition]", router: ShardRouter, obs: Instrumentation
    ) -> None:
        self._shards = shards
        self._router = router
        self._obs = obs

    @property
    def simulated_io_seconds(self) -> float:
        return sum(shard.disk.simulated_io_seconds for shard in self._shards)

    def lookup(self, key: Hashable, limit: Optional[int] = None):
        shard_id = self._router.shard_of(key)
        obs = self._obs
        if obs.current_trace is None:
            return self._shards[shard_id].disk.lookup(key, limit=limit)
        with obs.trace_span("shard.disk.lookup", shard=shard_id, key=str(key)) as extra:
            result = self._shards[shard_id].disk.lookup(key, limit=limit)
            extra["postings"] = len(result)
            return result

    def fetch_record(self, blog_id: int) -> Optional[Microblog]:
        for shard in self._shards:
            if shard.disk.contains_record(blog_id):
                return shard.disk.fetch_record(blog_id)
        return None


class _RoutedEngine:
    """Memory-engine adapter routing per-key operations to shards.

    Duck-types the slice of :class:`MemoryEngine` the query executor
    uses.  Handing this to the *unsharded* :class:`QueryExecutor` is the
    scatter-gather design: the executor's hit semantics, completeness
    proofs, and :func:`~repro.storage.topk.merge_topk` merges run
    unchanged, with every per-key memory/disk access transparently served
    by the owning shard.
    """

    def __init__(
        self, shards: "list[Partition]", router: ShardRouter, obs: Instrumentation
    ) -> None:
        self._shards = shards
        self._router = router
        self._obs = obs

    def lookup(self, key: Hashable, depth: Optional[int] = None) -> LookupResult:
        shard_id = self._router.shard_of(key)
        obs = self._obs
        if obs.current_trace is None:
            return self._shards[shard_id].engine.lookup(key, depth=depth)
        with obs.trace_span(
            "shard.memory.lookup", shard=shard_id, key=str(key)
        ) as extra:
            result = self._shards[shard_id].engine.lookup(key, depth=depth)
            extra["candidates"] = len(result.candidates)
            return result

    def eviction_cause(self, key: Hashable):
        """Route the miss-attribution probe to the shard owning ``key``
        (each shard's engine keeps its own eviction ledger)."""
        return self._shards[self._router.shard_of(key)].engine.eviction_cause(key)

    def note_query(
        self,
        keys: Sequence[Hashable],
        accessed_ids: Iterable[int],
        now: float,
    ) -> None:
        # Scatter the policy feedback: each shard sees the keys it owns
        # plus the full accessed-id list (engines ignore non-resident
        # ids, and a fanned-out record may be resident in several shards
        # — each should observe the access).
        accessed = tuple(accessed_ids)
        for shard_id, shard_keys in self._router.group_by_shard(keys).items():
            self._shards[shard_id].engine.note_query(shard_keys, accessed, now)

    def get_record(self, blog_id: int) -> Optional[Microblog]:
        for shard in self._shards:
            record = shard.engine.get_record(blog_id)
            if record is not None:
                return record
        return None

    def note_heat(self, keys: Sequence[Hashable]) -> None:
        # Scatter like note_query: each shard's heat counts the keys it owns.
        for shard_id, shard_keys in self._router.group_by_shard(keys).items():
            self._shards[shard_id].engine.note_heat(shard_keys)

def build_system(
    config: SystemConfig,
    strict_and: bool = False,
    obs: Optional[Instrumentation] = None,
):
    """Build the system ``config`` describes (any ``shards`` value)."""
    # Imported here because the facade module imports this one for the
    # router and the adapters above.
    from repro.engine.system import MicroblogSystem

    return MicroblogSystem(config, strict_and=strict_and, obs=obs)
