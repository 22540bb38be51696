"""Declarative SLO tracking with error budgets and burn rates.

An :class:`SLOSpec` is plain data — a list of objectives, each naming a
metric *selector*, a comparison against a threshold, and an error
budget.  An :class:`SLOTracker` binds a spec to a live
:class:`~repro.obs.metrics.MetricsRegistry` and is *ticked* at
flush-cycle boundaries (the system's natural heartbeat — deterministic,
off the per-record hot path).  Each tick evaluates every objective over
a rolling window of registry deltas, appends a compliant/violating
verdict to the objective's history, and recomputes its error budget:

* ``allowed = budget × slow_window`` — the number of violating ticks
  the objective may accumulate inside the slow window;
* ``budget_spent = violations / allowed`` — ≥ 1.0 means the budget is
  exhausted and the objective is **breached** (``budget: 0`` breaches
  on the first violation, the deterministic test hook);
* ``burn_fast`` / ``burn_slow`` — the violating fraction of the
  fast/slow window divided by the budget, the SRE pair telling apart
  "burning hot right now" from "slowly bleeding".

Breach and recovery transitions emit ``slo_breach`` / ``slo_recovered``
events through the normal event sink and fire registered callbacks
(the flight recorder dumps on breach).  Everything is deterministic
given the tick sequence: no wall clocks, no sampling.

Metric selectors are checked against :mod:`repro.obs.catalog` when the
spec is parsed (an undeclared selector is a spec error) and read from
the registry on every tick: ``hit_ratio`` / ``hit_ratio.<mode>`` (from
the per-mode hit/miss counter deltas), ``<histogram>.p50|p90|p95|p99|
mean|max|count|sum`` (over the window's bucketwise deltas; ``.max`` is
cumulative), a gauge's current value, or a counter's delta.  A window
without samples yields no data — never a violation — and probing never
creates a series.
"""

from __future__ import annotations

import json
import math
import threading
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Union

from repro.obs import catalog
from repro.obs.catalog import COUNTER, GAUGE, HISTOGRAM
from repro.obs.metrics import MetricsRegistry, percentile_from_buckets

__all__ = [
    "SLObjective",
    "SLOSpec",
    "SLOTracker",
    "evaluate_registry",
]

#: Histogram statistic suffixes a selector may end with.
_HIST_STATS = ("p50", "p90", "p95", "p99", "mean", "max", "count", "sum")

_PERCENTILES = {"p50": 50.0, "p90": 90.0, "p95": 95.0, "p99": 99.0}

_DEFAULTS = {"budget": 0.1, "window": 5, "fast_window": 5, "slow_window": 60}

#: The selector kind derived from the per-mode hit/miss counters.
_HIT_RATIO = "hit_ratio"


def _resolve(selector: str) -> tuple[str, str]:
    """``(kind, series)`` a selector reads: the metric kind and series
    name, or ``("hit_ratio", mode)`` with ``""`` for all modes.  Raises
    ValueError when the catalog declares no such series."""
    if selector == _HIT_RATIO:
        return _HIT_RATIO, ""
    if selector.startswith(_HIT_RATIO + "."):
        mode = selector[len(_HIT_RATIO) + 1:]
        if catalog.QUERY_HITS.matches(catalog.QUERY_HITS.key(mode=mode)):
            return _HIT_RATIO, mode
    else:
        base, _, stat = selector.rpartition(".")
        metric = catalog.lookup(base) if stat in _HIST_STATS else None
        if metric is not None and metric.kind == HISTOGRAM:
            return HISTOGRAM, base
        metric = catalog.lookup(selector)
        if metric is not None and metric.kind != HISTOGRAM:
            return metric.kind, selector
    raise ValueError(
        f"undeclared metric selector {selector!r}: not a hit_ratio, a "
        "histogram statistic, a gauge or a counter of repro.obs.catalog"
    )


@dataclass(frozen=True)
class SLObjective:
    """One objective: ``metric op threshold`` plus its error budget."""

    name: str
    metric: str
    op: str  # "<=" (from "max") or ">=" (from "min")
    threshold: float
    #: Fraction of slow-window ticks allowed to violate before breach.
    budget: float = 0.1
    #: Ticks of registry history the metric value is computed over.
    window: int = 5
    #: Ticks in the fast burn-rate window.
    fast_window: int = 5
    #: Ticks in the slow burn-rate window (the budget's denominator).
    slow_window: int = 60
    #: What ``metric`` reads, from the catalog: ``(kind, series)``.
    source: tuple[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError(f"objective {self.name!r}: budget must be >= 0")
        if min(self.window, self.fast_window, self.slow_window) < 1:
            raise ValueError(f"objective {self.name!r}: windows must be >= 1")
        object.__setattr__(self, "source", _resolve(self.metric))

    def complies(self, value: float) -> bool:
        if self.op == "<=":
            return value <= self.threshold
        return value >= self.threshold


@dataclass(frozen=True)
class SLOSpec:
    """A parsed set of objectives (the ``slo_spec`` config payload)."""

    objectives: tuple[SLObjective, ...]

    @classmethod
    def from_dict(cls, data: dict) -> "SLOSpec":
        if not isinstance(data, dict):
            raise ValueError(f"SLO spec must be a dict, got {type(data).__name__}")
        defaults = dict(_DEFAULTS)
        overrides = data.get("defaults", {})
        if not isinstance(overrides, dict):
            raise ValueError("SLO spec 'defaults' must be a dict")
        defaults.update(overrides)
        raw = data.get("objectives")
        if not isinstance(raw, list) or not raw:
            raise ValueError("SLO spec needs a non-empty 'objectives' list")
        objectives = []
        seen: set[str] = set()
        for i, entry in enumerate(raw):
            if not isinstance(entry, dict):
                raise ValueError(f"objective #{i} must be a dict")
            metric = entry.get("metric")
            if not metric or not isinstance(metric, str):
                raise ValueError(f"objective #{i} needs a 'metric' selector")
            if ("max" in entry) == ("min" in entry):
                raise ValueError(
                    f"objective #{i} ({metric}) needs exactly one of 'max'/'min'"
                )
            bound = "max" if "max" in entry else "min"
            name = entry.get("name") or metric
            if name in seen:
                raise ValueError(f"duplicate objective name {name!r}")
            seen.add(name)
            settings = {key: entry.get(key, value) for key, value in defaults.items()}
            objectives.append(
                SLObjective(
                    name=name,
                    metric=metric,
                    op="<=" if bound == "max" else ">=",
                    threshold=float(entry[bound]),
                    budget=float(settings["budget"]),
                    window=int(settings["window"]),
                    fast_window=int(settings["fast_window"]),
                    slow_window=int(settings["slow_window"]),
                )
            )
        return cls(objectives=tuple(objectives))

    @classmethod
    def parse(cls, spec: Union[str, dict, "SLOSpec"]) -> "SLOSpec":
        """Parse a spec given as a dict, a JSON string, a path to a JSON
        file, or an already-built SLOSpec."""
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, dict):
            return cls.from_dict(spec)
        if isinstance(spec, str):
            text = spec.strip()
            if text.startswith("{"):
                return cls.from_dict(json.loads(text))
            with open(spec, "r", encoding="utf-8") as handle:
                return cls.from_dict(json.load(handle))
        raise ValueError(f"cannot parse SLO spec from {type(spec).__name__}")


# ----------------------------------------------------------------------
# Probes: capture the raw registry state a selector needs, then compute
# the windowed value from (old capture, new capture).  Captures are
# plain tuples so deltas are exact and cheap.
# ----------------------------------------------------------------------


def _hit_counts(registry: MetricsRegistry, mode: str) -> tuple[float, float]:
    """Cumulative (hits, misses) of one mode, or of every mode when
    ``mode`` is empty."""
    hits = misses = 0.0
    scope = catalog.QUERY_HITS.prefix + (f"{mode}." if mode else "")
    for rest, value in registry.counter_values(scope).items():
        name = scope + rest
        if catalog.QUERY_HITS.matches(name):
            hits += value
        elif catalog.QUERY_MISSES.matches(name):
            misses += value
    return hits, misses


def _capture(registry: MetricsRegistry, objective: SLObjective):
    """A cheap, delta-able snapshot of the selector's current state, or
    None while its series has not been recorded."""
    kind, series = objective.source
    if kind == _HIT_RATIO:
        return _hit_counts(registry, series)
    metric = registry.peek(kind, series)
    if metric is None:
        return None
    if kind != HISTOGRAM:
        return metric.value
    return (
        metric.count, metric.total, metric.min, metric.max, tuple(metric._counts), metric.scale
    )


def _window_value(objective: SLObjective, old, new) -> Optional[float]:
    """The objective's metric value over (old capture → new capture), or
    None when the window holds no data."""
    kind = objective.source[0]
    if kind == GAUGE:
        return float(new)
    if kind == COUNTER:
        return float(new) - float(old or 0.0)
    if kind == _HIT_RATIO:
        hits, misses = new
        if old is not None:
            hits -= old[0]
            misses -= old[1]
        total = hits + misses
        if total <= 0:
            return None
        return hits / total
    # Histogram: bucketwise delta between the two cumulative states.
    count, total, lo, hi, buckets, scale = new
    if old is not None:
        o_count, o_total, _, _, o_buckets, _ = old
        count -= o_count
        total -= o_total
        buckets = tuple(b - ob for b, ob in zip(buckets, o_buckets))
    stat = objective.metric.rpartition(".")[2]
    if stat == "count":
        return float(count)
    if stat == "max":
        return float(hi) if count or hi else None
    if count <= 0:
        return None
    if stat == "sum":
        return float(total)
    if stat == "mean":
        return total / count
    lo = 0.0 if math.isinf(lo) else lo
    return percentile_from_buckets(buckets, count, _PERCENTILES[stat], scale, lo, hi)


#: The per-objective state gauges, in ``_export_gauges`` order.
_STATE_GAUGES = (
    catalog.SLO_VALUE,
    catalog.SLO_BUDGET_SPENT,
    catalog.SLO_BURN_FAST,
    catalog.SLO_BURN_SLOW,
)


@dataclass
class _ObjectiveState:
    """Mutable per-objective tracking state (tracker-internal)."""

    objective: SLObjective
    captures: deque  # recent raw captures, oldest ≤ window ticks back
    history: deque  # violating? bool per evaluated tick, slow window
    gauges: tuple  # bound slo.<name>.value|budget_spent|burn_fast|burn_slow
    value: Optional[float] = None
    ticks: int = 0  # evaluated (data-bearing) ticks
    no_data: int = 0
    violations: int = 0  # inside the slow window
    budget_spent: float = 0.0
    burn_fast: float = 0.0
    burn_slow: float = 0.0
    breached: bool = False

    def as_dict(self) -> dict:
        o = self.objective
        state = {f.name: getattr(o, f.name) for f in fields(o) if f.init}
        state.update(
            value=self.value, ticks=self.ticks, no_data=self.no_data,
            violations=self.violations, budget_spent=self.budget_spent,
            burn_fast=self.burn_fast, burn_slow=self.burn_slow,
            breached=self.breached, healthy=not self.breached,
        )
        return state


class SLOTracker:
    """Evaluates an :class:`SLOSpec` against a registry, tick by tick.

    Thread-safe: the ingest thread ticks it at flush boundaries while an
    :class:`~repro.obs.server.OpsServer` may read :meth:`state` from its
    handler threads.
    """

    def __init__(
        self,
        spec: SLOSpec,
        registry: MetricsRegistry,
        emit: Optional[Callable[..., None]] = None,
    ) -> None:
        self.spec = spec
        self.registry = registry
        self._emit = emit
        self._on_breach: list[Callable[[dict], None]] = []
        self._lock = threading.Lock()
        self._tick_count = 0
        self._breaches = catalog.SLO_BREACHES.bind(registry)
        self._states = [
            _ObjectiveState(
                objective=o,
                captures=deque(maxlen=o.window + 1),
                history=deque(maxlen=o.slow_window),
                gauges=tuple(
                    metric.bind(registry, objective=o.name) for metric in _STATE_GAUGES
                ),
            )
            for o in spec.objectives
        ]

    def add_breach_callback(self, callback: Callable[[dict], None]) -> None:
        self._on_breach.append(callback)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def tick(self) -> None:
        """Evaluate every objective against the registry's current
        state; called at flush-cycle boundaries."""
        with self._lock:
            self._tick_count += 1
            transitions = [self._tick_objective(state) for state in self._states]
        # Callbacks run outside the lock: a breach dump may serialise
        # the registry and must not deadlock against a concurrent tick.
        for state, transition in zip(self._states, transitions):
            if transition is None:
                continue
            payload = state.as_dict()
            if transition == "breach":
                self._breaches.inc()
                if self._emit is not None:
                    self._emit("slo_breach", **payload)
                for callback in list(self._on_breach):
                    callback(payload)
            elif self._emit is not None:
                self._emit("slo_recovered", **payload)

    def _tick_objective(self, state: _ObjectiveState) -> Optional[str]:
        objective = state.objective
        capture = _capture(self.registry, objective)
        if capture is None:
            state.no_data += 1
            return None
        old = state.captures[0] if state.captures else None
        state.captures.append(capture)
        value = _window_value(objective, old, capture)
        if value is None:
            state.no_data += 1
            return None
        state.value = value
        state.ticks += 1
        state.history.append(not objective.complies(value))
        history = state.history
        state.violations = sum(history)
        fast = list(history)[-objective.fast_window:]
        viol_fast = sum(fast)
        allowed = objective.budget * objective.slow_window
        if allowed > 0:
            state.budget_spent = state.violations / allowed
        else:
            state.budget_spent = float(state.violations)
        if objective.budget > 0:
            state.burn_fast = (viol_fast / objective.fast_window) / objective.budget
            state.burn_slow = (
                state.violations / objective.slow_window
            ) / objective.budget
        else:
            state.burn_fast = float(viol_fast)
            state.burn_slow = float(state.violations)
        breached = state.violations > allowed
        self._export_gauges(state)
        if breached and not state.breached:
            state.breached = True
            return "breach"
        if not breached and state.breached:
            state.breached = False
            return "recovered"
        state.breached = breached
        return None

    def _export_gauges(self, state: _ObjectiveState) -> None:
        values = (state.value, state.budget_spent, state.burn_fast, state.burn_slow)
        for gauge, value in zip(state.gauges, values):
            gauge.set(value)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def healthy(self) -> bool:
        with self._lock:
            return not any(s.breached for s in self._states)

    def state(self) -> dict:
        """JSON-serialisable view: overall health plus every objective's
        value, budget, and burn rates.  Does NOT tick — scrape rate must
        not skew tick-based budgets."""
        with self._lock:
            objectives = [s.as_dict() for s in self._states]
        return {
            "healthy": all(o["healthy"] for o in objectives),
            "ticks": self._tick_count,
            "objectives": objectives,
        }


def evaluate_registry(spec: SLOSpec, registry: MetricsRegistry) -> dict:
    """One-shot evaluation of a spec against a registry's cumulative
    state (the ``repro slo`` CLI shape: no history, the whole run is the
    window).  Objectives whose series holds no samples report
    ``no_data``; callers decide whether that fails the check."""
    objectives = []
    for objective in spec.objectives:
        capture = _capture(registry, objective)
        value = (
            _window_value(objective, None, capture) if capture is not None else None
        )
        entry = {
            "name": objective.name,
            "metric": objective.metric,
            "op": objective.op,
            "threshold": objective.threshold,
            "value": value,
            "no_data": value is None,
            "ok": value is not None and objective.complies(value),
        }
        objectives.append(entry)
    return {
        "healthy": all(o["ok"] or o["no_data"] for o in objectives),
        "objectives": objectives,
    }
