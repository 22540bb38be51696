"""Process-parallel trial execution for the figure grids.

Every figure of the paper's evaluation is a grid of independent trials;
nothing is shared between them (each trial builds its own system,
stream, and query load from the seeds carried in its
:class:`~repro.experiments.runner.TrialSpec`).  That makes the grid
embarrassingly parallel — :func:`run_trials` fans it out over a
``ProcessPoolExecutor`` while guaranteeing that the *results* are
indistinguishable from a serial run:

* **deterministic per-spec seeding** — all randomness in a trial derives
  from ``spec.seed`` (stream) and ``spec.seed + 1`` (query load), fixed
  at spec construction, so a trial computes the same result in any
  process, in any order;
* **ordered merge** — results come back in spec order regardless of
  completion order (``ProcessPoolExecutor.map`` semantics).

``jobs=1`` (the default everywhere) bypasses the pool entirely and runs
the trials inline.

Instrumentation under parallelism: serial trials inside an
``repro.obs.activated`` scope record straight into its registry and
sink.  A worker process cannot reach them, so each worker runs its trial
under a private Instrumentation with the scope's tracing and attribution
switches and hands back its registry snapshot, which :func:`run_trials`
merges into the scope's registry exactly once per trial.  When the
scope's sink is a :class:`~repro.obs.JsonlSink`, the worker also writes
its events to a private file beside it, which is appended to the sink in
spec order and deleted.  Each worker gets a deterministic trace prefix
from the scope (:meth:`~repro.obs.Instrumentation.worker_prefix`:
``w000.``, ``w001.``, ... numbered across every grid the scope runs), so
trace ids stay unique in the merged stream.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.experiments.runner import TrialResult, TrialSpec, run_trial
from repro.obs import Instrumentation, JsonlSink, activated
from repro.obs.runtime import get_active

__all__ = ["run_trials", "resolve_jobs"]


def resolve_jobs(jobs: int) -> int:
    """Worker count for a ``--jobs`` request; negative means all cores."""
    if jobs < 0:
        return os.cpu_count() or 1
    return max(1, jobs)


@dataclass(frozen=True)
class _WorkerTrial:
    """Picklable call running one trial in a worker process under a
    private Instrumentation; returns the result and its registry."""

    runner: Callable[[TrialSpec], TrialResult]
    tracing: bool
    attribution: bool
    trace_prefix: str
    events_path: Optional[Path]

    def __call__(self, spec: TrialSpec) -> tuple[TrialResult, dict]:
        obs = Instrumentation(
            sink=JsonlSink(self.events_path) if self.events_path else None,
            tracing=self.tracing,
            attribution=self.attribution,
            trace_prefix=self.trace_prefix,
        )
        with activated(obs):
            result = self.runner(spec)
        obs.close()
        return result, obs.registry.snapshot()


def _invoke(call: _WorkerTrial, spec: TrialSpec) -> tuple[TrialResult, dict]:
    """Module-level trampoline so ``pool.map`` can vary the callable."""
    return call(spec)


def _append_events(path: Path, sink: JsonlSink) -> None:
    """Move one worker's events file into the scope's sink."""
    if not path.exists():  # the trial emitted nothing
        return
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line:
                sink.write_raw(line)
    path.unlink()


def run_trials(
    specs: Sequence[TrialSpec],
    jobs: int = 1,
    runner: Callable[..., TrialResult] = run_trial,
) -> list[TrialResult]:
    """Run a grid of trials, optionally across processes.

    ``runner`` must be a picklable module-level callable taking a spec
    (``run_trial`` or ``run_digestion_stress``).  Results are returned in
    ``specs`` order; a failure in any trial propagates as the original
    exception after the pool shuts down.  Inside an ``activated`` scope
    every trial's metrics and events reach the scope, whatever ``jobs``.
    """
    specs = list(specs)
    workers = min(resolve_jobs(jobs), len(specs))
    if workers <= 1:
        return [runner(spec) for spec in specs]
    # Outside any scope the workers' registries are simply discarded.
    scope = get_active() or Instrumentation()
    sink = scope.sink if isinstance(scope.sink, JsonlSink) else None
    calls = [
        _WorkerTrial(
            runner,
            scope.tracing,
            scope.attribution,
            trace_prefix=prefix,
            events_path=Path(f"{sink.path}.{prefix}part") if sink else None,
        )
        for prefix in [scope.worker_prefix() for _ in specs]
    ]
    results = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for call, (result, snapshot) in zip(
            calls, pool.map(_invoke, calls, specs, chunksize=1)
        ):
            scope.registry.merge(snapshot)
            if sink is not None:
                _append_events(call.events_path, sink)
            results.append(result)
    return results
