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

Metric selectors, resolved against the registry on every tick:

* ``hit_ratio`` / ``hit_ratio.<mode>`` — derived from the
  ``query.<mode>.hits``/``.misses`` counter deltas inside the window;
  ticks with no queries are skipped (no data is not a violation);
* ``<histogram>.p50|p90|p95|p99|mean|count|sum`` — the statistic of the
  named histogram over the window's bucketwise deltas (percentiles
  interpolated via
  :func:`~repro.obs.metrics.percentile_from_buckets`, clamped to the
  cumulative observed min/max); ``.max`` is the cumulative maximum
  (log₂ buckets cannot recover a windowed max);
* an exact gauge name — the gauge's current value (watermarks, queue
  depth);
* an exact counter name — the counter's delta across the window.

Unknown selectors yield no data and never create metrics (the tracker
probes with the registry's non-creating accessors).
"""

from __future__ import annotations

import json
import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

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

    def complies(self, value: float) -> bool:
        if self.op == "<=":
            return value <= self.threshold
        return value >= self.threshold

    def describe(self) -> str:
        return f"{self.metric} {self.op} {self.threshold:g}"


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
            has_max = "max" in entry
            has_min = "min" in entry
            if has_max == has_min:
                raise ValueError(
                    f"objective #{i} ({metric}) needs exactly one of 'max'/'min'"
                )
            threshold = float(entry["max"] if has_max else entry["min"])
            name = entry.get("name") or metric
            if name in seen:
                raise ValueError(f"duplicate objective name {name!r}")
            seen.add(name)
            budget = float(entry.get("budget", defaults["budget"]))
            if budget < 0:
                raise ValueError(f"objective {name!r}: budget must be >= 0")
            window = int(entry.get("window", defaults["window"]))
            fast = int(entry.get("fast_window", defaults["fast_window"]))
            slow = int(entry.get("slow_window", defaults["slow_window"]))
            if min(window, fast, slow) < 1:
                raise ValueError(f"objective {name!r}: windows must be >= 1")
            objectives.append(
                SLObjective(
                    name=name,
                    metric=metric,
                    op="<=" if has_max else ">=",
                    threshold=threshold,
                    budget=budget,
                    window=window,
                    fast_window=fast,
                    slow_window=slow,
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
            return cls.from_json_file(spec)
        raise ValueError(f"cannot parse SLO spec from {type(spec).__name__}")

    @classmethod
    def from_json_file(cls, path: str) -> "SLOSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


# ----------------------------------------------------------------------
# Probes: capture the raw registry state a selector needs, then compute
# the windowed value from (old capture, new capture).  Captures are
# plain tuples so deltas are exact and cheap.
# ----------------------------------------------------------------------


def _split_hit_ratio(metric: str) -> Optional[Optional[str]]:
    """``hit_ratio`` → "" (aggregate), ``hit_ratio.and`` → "and",
    anything else → None."""
    if metric == "hit_ratio":
        return ""
    if metric.startswith("hit_ratio."):
        return metric[len("hit_ratio."):]
    return None


def _hit_counts(registry: MetricsRegistry, mode: str) -> tuple[float, float]:
    """Cumulative (hits, misses) for one mode, or summed over all modes
    when ``mode`` is empty."""
    if mode:
        hits = registry.get_counter(f"query.{mode}.hits")
        misses = registry.get_counter(f"query.{mode}.misses")
        return (
            hits.value if hits is not None else 0.0,
            misses.value if misses is not None else 0.0,
        )
    hits = misses = 0.0
    for name, value in registry.counter_values("query.").items():
        parts = name.split(".")
        if len(parts) != 2:
            continue
        if parts[1] == "hits":
            hits += value
        elif parts[1] == "misses":
            misses += value
    return hits, misses


def _hist_selector(metric: str) -> Optional[tuple[str, str]]:
    """``query.simulated_latency_seconds.p99`` → (histogram name, stat)."""
    base, _, stat = metric.rpartition(".")
    if base and stat in _HIST_STATS:
        return base, stat
    return None


def _capture(registry: MetricsRegistry, objective: SLObjective):
    """A cheap, delta-able snapshot of the selector's current state, or
    None when the metric does not exist (yet)."""
    metric = objective.metric
    mode = _split_hit_ratio(metric)
    if mode is not None:
        return ("hit_ratio", _hit_counts(registry, mode))
    hist_sel = _hist_selector(metric)
    if hist_sel is not None:
        hist = registry.get_histogram(hist_sel[0])
        if hist is not None:
            return (
                "histogram",
                (
                    hist.count,
                    hist.total,
                    hist.min,
                    hist.max,
                    tuple(hist._counts),
                    hist.scale,
                ),
            )
        # Fall through: a gauge/counter may legitimately end in ".count".
    gauge = registry.get_gauge(metric)
    if gauge is not None:
        return ("gauge", gauge.value)
    counter = registry.get_counter(metric)
    if counter is not None:
        return ("counter", counter.value)
    return None


def _window_value(objective: SLObjective, old, new) -> Optional[float]:
    """The objective's metric value over (old capture → new capture), or
    None when the window holds no data."""
    kind, state = new
    if kind == "gauge":
        return float(state)
    if kind == "counter":
        base = old[1] if old is not None and old[0] == "counter" else 0.0
        return float(state) - float(base)
    if kind == "hit_ratio":
        hits, misses = state
        if old is not None and old[0] == "hit_ratio":
            hits -= old[1][0]
            misses -= old[1][1]
        total = hits + misses
        if total <= 0:
            return None
        return hits / total
    # Histogram: bucketwise delta between the two cumulative states.
    count, total, lo, hi, buckets, scale = state
    if old is not None and old[0] == "histogram":
        o_count, o_total, _, _, o_buckets, _ = old[1]
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


@dataclass
class _ObjectiveState:
    """Mutable per-objective tracking state (tracker-internal)."""

    objective: SLObjective
    captures: deque  # recent raw captures, oldest ≤ window ticks back
    history: deque  # violating? bool per evaluated tick, slow window
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
        return {
            "name": o.name,
            "metric": o.metric,
            "op": o.op,
            "threshold": o.threshold,
            "budget": o.budget,
            "window": o.window,
            "fast_window": o.fast_window,
            "slow_window": o.slow_window,
            "value": self.value,
            "ticks": self.ticks,
            "no_data": self.no_data,
            "violations": self.violations,
            "budget_spent": self.budget_spent,
            "burn_fast": self.burn_fast,
            "burn_slow": self.burn_slow,
            "breached": self.breached,
            "healthy": not self.breached,
        }


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
        on_breach: Sequence[Callable[[dict], None]] = (),
    ) -> None:
        self.spec = spec
        self.registry = registry
        self._emit = emit
        self._on_breach = list(on_breach)
        self._lock = threading.Lock()
        self._tick_count = 0
        self._states = [
            _ObjectiveState(
                objective=o,
                captures=deque(maxlen=o.window + 1),
                history=deque(maxlen=o.slow_window),
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
            self.registry.counter("slo.ticks").inc()
            transitions = [self._tick_objective(state) for state in self._states]
        # Callbacks run outside the lock: a breach dump may serialise
        # the registry and must not deadlock against a concurrent tick.
        for state, transition in zip(self._states, transitions):
            if transition is None:
                continue
            payload = state.as_dict()
            if transition == "breach":
                self.registry.counter("slo.breaches").inc()
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
        prefix = f"slo.{state.objective.name}."
        registry = self.registry
        registry.gauge(prefix + "value").set(state.value)
        registry.gauge(prefix + "budget_spent").set(state.budget_spent)
        registry.gauge(prefix + "burn_fast").set(state.burn_fast)
        registry.gauge(prefix + "burn_slow").set(state.burn_slow)

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
    window).  Objectives whose selector resolves to nothing report
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
