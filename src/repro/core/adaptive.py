"""Adaptive memory allocation: a feedback controller over kFlushing.

The paper's kFlushing runs with one global ``k`` and static budgets.
This module closes the feedback loop the eviction-cause ledger (PR 5)
and the shard-skew snapshot (PR 3) made possible, with three levers —
all default-off behind ``SystemConfig.adaptive`` and all evaluated at
flush-cycle boundaries so the query and ingest hot paths stay untouched:

* **Per-key retention depth** (:class:`KAllocator`): hot,
  frequently-queried keys keep ``k_i > k`` postings through Phase 1
  trims, so AND-queries intersecting them still find their records in
  memory; cold keys decay back toward the global ``k``.  The invariant
  ``k_i >= k`` is enforced structurally — a deepened entry can only hold
  *more* than the answer-completeness criterion requires, so answers and
  the k-filled metric (both defined at the query ``k``) are unaffected.
* **Phase-escalation slack** (:class:`AdaptiveController`): when misses
  are dominated by ``phase2-aggressive``/``phase3-forced`` evictions,
  the controller raises ``KFlushingEngine.escalation_slack`` so a flush
  that nearly met its budget in Phase 1 stops instead of wholesale-
  evicting entries that were about to be queried; when phase-1 causes
  dominate again the slack decays back to zero (the paper's behaviour).
* **Shard budget rebalancing** (:class:`ShardBudgetBalancer`): the
  facade (with several partitions) periodically shifts a bounded slice
  of the byte budget from the coldest shard to the hottest one.
  Routing is untouched, so sharded==unsharded answer equality is
  preserved by construction; only flush cadence per shard changes.

Everything here is deterministic: decisions depend only on logical
counters (query/eviction counts, flush counts, miss causes), ties break
on a stable key order, and no wall-clock time is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

from repro.core.eviction_ledger import (
    CAUSE_PHASE2_AGGRESSIVE,
    CAUSE_PHASE3_FORCED,
)

__all__ = [
    "AdaptiveSettings",
    "AdaptiveController",
    "KAllocator",
    "KeyHeat",
    "ShardBudgetBalancer",
]

#: Miss causes that mean "a wholesale eviction removed data a query
#: wanted" — the signal that escalation is running too hot.
_WHOLESALE_CAUSES = frozenset({CAUSE_PHASE2_AGGRESSIVE, CAUSE_PHASE3_FORCED})


@dataclass(frozen=True)
class AdaptiveSettings:
    """Tuning knobs of the feedback controller (see ``SystemConfig``)."""

    #: Flush cycles between retune decisions.  Retuning is cheap (a few
    #: bounded sorts over the recently-active key set), and short eval
    #: windows at small scales see few flushes, so the default retunes
    #: at every flush boundary.
    interval: int = 1
    #: Hard cap on any per-key retention depth (None = ``16 * k``).  The
    #: ceiling is sized for AND queries: an operational AND hit needs
    #: ``k`` *intersecting* records in memory, and correlated pairs
    #: co-occur in a minority of their postings, so both sides need
    #: several multiples of ``k`` retained before intersections clear it.
    k_max: Optional[int] = None
    #: Size of the hot set promoted to deeper retention each retune.
    hot_keys: int = 32
    #: Max fraction of the total byte budget one shard rebalance may move.
    shard_step: float = 0.05
    #: Escalation-slack adjustment per retune and its ceiling.
    slack_step: float = 0.1
    slack_max: float = 0.5
    #: Minimum misses in a retune window before the slack is adjusted.
    min_window_misses: int = 8
    #: Wholesale-cause miss fractions that raise / lower the slack.
    escalate_high: float = 0.5
    escalate_low: float = 0.2

    def resolved_k_max(self, k: int) -> int:
        """The depth ceiling for a system running at global ``k``."""
        if self.k_max is None:
            return 16 * k
        return max(self.k_max, k)


def _stable_top(counts: dict, n: int) -> list[tuple[Hashable, int]]:
    """Top-``n`` (key, count) pairs, highest count first; ties break on
    the keys' ``repr`` so the result is process- and seed-stable."""
    return sorted(counts.items(), key=lambda kv: (-kv[1], repr(kv[0])))[:n]


class KeyHeat:
    """Per-key query/miss/eviction counters (the controller's input).

    ``queried``/``missed`` are fed by the executor's feedback hook,
    ``evicted`` straight from ``note_eviction``.
    """

    __slots__ = ("queried", "missed", "evicted")

    def __init__(self) -> None:
        self.queried: dict[Hashable, int] = {}
        self.missed: dict[Hashable, int] = {}
        self.evicted: dict[Hashable, int] = {}

    def note_query(self, keys, hit: bool) -> None:
        queried = self.queried
        for key in keys:
            queried[key] = queried.get(key, 0) + 1
        if not hit:
            missed = self.missed
            for key in keys:
                missed[key] = missed.get(key, 0) + 1

    def note_eviction(self, key: Hashable, postings: int) -> None:
        self.evicted[key] = self.evicted.get(key, 0) + postings

    def top_queried(self, n: int) -> list[tuple[Hashable, int]]:
        return _stable_top(self.queried, n)

    def top_missed(self, n: int) -> list[tuple[Hashable, int]]:
        return _stable_top(self.missed, n)

    def top_evicted(self, n: int) -> list[tuple[Hashable, int]]:
        return _stable_top(self.evicted, n)

    def decay(self) -> None:
        """Halve every counter and drop the zeros: recent activity
        dominates each retune window and memory stays bounded by the
        set of recently active keys."""
        for counts in (self.queried, self.missed, self.evicted):
            for key in list(counts):
                half = counts[key] // 2
                if half:
                    counts[key] = half
                else:
                    del counts[key]


class KAllocator:
    """Per-key retention depth with a structural ``k_i >= k`` floor.

    Sparse: only keys deepened beyond the global ``k`` are stored, so
    the neutral allocator costs one dict ``get`` per consulted key and
    ``depth_of`` degenerates to the global ``k`` everywhere.
    """

    __slots__ = ("base_k", "_depths")

    def __init__(self, base_k: int) -> None:
        if base_k <= 0:
            raise ValueError(f"base_k must be positive, got {base_k}")
        self.base_k = base_k
        self._depths: dict[Hashable, int] = {}

    def depth_of(self, key: Hashable) -> int:
        """Retention depth for ``key`` — never below the global ``k``."""
        return self._depths.get(key, self.base_k)

    def set_depth(self, key: Hashable, depth: int) -> int:
        """Set ``key``'s depth, clamped to ``>= base_k``; a depth at the
        base drops the key back to the sparse default.  Returns the
        effective depth."""
        depth = max(depth, self.base_k)
        if depth == self.base_k:
            self._depths.pop(key, None)
        else:
            self._depths[key] = depth
        return depth

    def rebase(self, base_k: int) -> None:
        """Follow a dynamic-k change (Section IV-C): the floor moves to
        the new ``k`` and any stored depth at or below it collapses back
        to the default."""
        if base_k <= 0:
            raise ValueError(f"base_k must be positive, got {base_k}")
        self.base_k = base_k
        self._depths = {
            key: depth for key, depth in self._depths.items() if depth > base_k
        }

    def deepened_keys(self) -> tuple[Hashable, ...]:
        return tuple(self._depths)

    def max_depth(self) -> int:
        if not self._depths:
            return self.base_k
        return max(self._depths.values())

    def __len__(self) -> int:
        return len(self._depths)


class AdaptiveController:
    """Deterministic retune loop of one memory engine.

    Observes query outcomes (via the executor feedback hook) and flush
    completions (via ``MemoryEngine.run_flush``); every ``interval``
    flush cycles it promotes the hottest queried and most-missed keys to
    deeper retention, decays keys that fell out of the hot set, and nudges the
    phase-escalation slack against the wholesale-eviction miss rate.
    """

    def __init__(self, settings: AdaptiveSettings, engine) -> None:
        self.settings = settings
        self.engine = engine
        self._flushes = 0
        #: Query-outcome window, reset every retune.
        self._window_queries = 0
        self._window_misses = 0
        self._window_wholesale = 0

    # -- inputs --------------------------------------------------------

    def observe(self, hit: bool, cause: Optional[str]) -> None:
        """One query outcome (cause is None on hits)."""
        self._window_queries += 1
        if not hit:
            self._window_misses += 1
            if cause in _WHOLESALE_CAUSES:
                self._window_wholesale += 1

    def on_flush(self, engine) -> None:
        """Flush-cycle boundary: retune every ``interval`` cycles."""
        self._flushes += 1
        if self._flushes % self.settings.interval:
            return
        self.retune(engine)

    # -- decisions -----------------------------------------------------

    def retune(self, engine) -> None:
        registry = engine.obs.registry
        registry.counter("adaptive.retune_cycles").inc()
        settings = self.settings
        heat = engine.key_heat
        allocator = getattr(engine, "allocator", None)
        if allocator is not None and heat is not None:
            k_max = settings.resolved_k_max(engine.k)
            promotions = demotions = 0
            hot: set[Hashable] = set()
            # The hot set is the union of the most-queried keys (demand)
            # and the most-missed keys (unmet demand — dominated by the
            # AND-pair participants whose intersections fell below k once
            # Phase 1 trimmed both sides to the global top-k).
            for key, _count in heat.top_queried(
                settings.hot_keys
            ) + heat.top_missed(settings.hot_keys):
                if key in hot:
                    continue
                hot.add(key)
                current = allocator.depth_of(key)
                target = min(k_max, max(current * 4, current + 1))
                if target != current:
                    allocator.set_depth(key, target)
                    engine.index.refresh_overflow(key)
                    promotions += 1
            for key in allocator.deepened_keys():
                if key in hot:
                    continue
                current = allocator.depth_of(key)
                allocator.set_depth(key, max(allocator.base_k, current // 2))
                engine.index.refresh_overflow(key)
                demotions += 1
            if promotions:
                registry.counter("adaptive.promotions").inc(promotions)
            if demotions:
                registry.counter("adaptive.demotions").inc(demotions)
            registry.gauge("adaptive.deepened_keys").set(len(allocator))
            registry.gauge("adaptive.max_depth").set(allocator.max_depth())
        if hasattr(engine, "escalation_slack"):
            self._retune_slack(engine, registry)
        self._window_queries = 0
        self._window_misses = 0
        self._window_wholesale = 0
        if heat is not None:
            heat.decay()

    def _retune_slack(self, engine, registry) -> None:
        settings = self.settings
        misses = self._window_misses
        if misses >= settings.min_window_misses:
            fraction = self._window_wholesale / misses
            slack = engine.escalation_slack
            if fraction >= settings.escalate_high:
                slack = min(settings.slack_max, slack + settings.slack_step)
            elif fraction <= settings.escalate_low:
                slack = max(0.0, slack - settings.slack_step)
            engine.escalation_slack = slack
        registry.gauge("adaptive.escalation_slack").set(engine.escalation_slack)


class ShardBudgetBalancer:
    """Bounded, sum-preserving shard-budget shifts toward hot shards.

    Every ``interval * shards`` completed shard flushes, the shard that
    flushed most in the window takes up to ``shard_step`` of the total
    byte budget from the shard that flushed least, floored at half of
    each shard's original budget so no shard can be starved.  Capacities
    are updated on both the :class:`~repro.engine.system.Partition` and its
    engine (``needs_flush`` reads the engine's own field).
    """

    def __init__(self, settings: AdaptiveSettings, shards) -> None:
        self.settings = settings
        self._flushes = 0
        self._period = max(1, settings.interval * len(shards))
        self._last_counts = [0] * len(shards)
        #: Budget floors: half of each shard's construction-time budget.
        self._floors = [max(1, shard.capacity_bytes // 2) for shard in shards]

    def on_shard_flush(self, system) -> None:
        self._flushes += 1
        if self._flushes % self._period:
            return
        self.rebalance(system)

    def rebalance(self, system) -> None:
        shards = system.partitions
        counts = [len(shard.engine.flush_reports) for shard in shards]
        window = [c - p for c, p in zip(counts, self._last_counts)]
        self._last_counts = counts
        hot = cold = 0
        for i in range(1, len(window)):
            if window[i] > window[hot]:
                hot = i
            if window[i] < window[cold]:
                cold = i
        if window[hot] <= window[cold]:
            return
        total = sum(shard.capacity_bytes for shard in shards)
        step = max(1, int(total * self.settings.shard_step))
        give = min(step, shards[cold].capacity_bytes - self._floors[cold])
        if give <= 0:
            return
        shards[cold].capacity_bytes -= give
        shards[cold].engine.capacity_bytes -= give
        shards[hot].capacity_bytes += give
        shards[hot].engine.capacity_bytes += give
        registry = system.obs.registry
        registry.counter("adaptive.shard_rebalances").inc()
        registry.counter("adaptive.shard_bytes_moved").inc(give)
        registry.gauge(f"shard.{shards[hot].shard_id}.memory.capacity_bytes").set(
            shards[hot].capacity_bytes
        )
        registry.gauge(f"shard.{shards[cold].shard_id}.memory.capacity_bytes").set(
            shards[cold].capacity_bytes
        )
