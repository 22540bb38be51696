"""The traced pass: spans recorded from the benchmark's own files.

``Tracer.install`` wraps the public methods of the built system's layers
(one table, ``HOOKS``) so every call becomes a span ``{name, start, end,
parent, op}``; all spans of one ingest or query share its ``op`` id.  A
layer's *self time* is its span minus the part its child spans cover.
Self times, inclusive times and call counts are aggregated per
``(op kind, span name)`` as they close, so memory stays flat; the raw
spans of every ``SPAN_SAMPLE``-th op are kept and written out as JSONL
when the run ends.

A hook whose attribute no longer exists is reported once and its metrics
come out as ``None`` — a later change that deletes a layer must not break
the benchmark.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass
from typing import Callable, Optional

#: Raw spans are kept for one op in this many (aggregates cover every op).
SPAN_SAMPLE = 64

_clock = time.perf_counter_ns


def _of_system(*path: str):
    """The object at ``system.<path>`` (the system itself for no path)."""

    def locate(system):
        target = system
        for attr in path:
            target = getattr(target, attr)
        return [target]

    return locate


def _per_shard(attr: str):
    """``attr`` of every shard, or of the system itself when unsharded."""

    def locate(system):
        shards = getattr(system, "shards", None)
        return [getattr(owner, attr) for owner in (shards if shards is not None else [system])]

    return locate


engines = _per_shard("engine")
_disks = _per_shard("disk")


def _of_engines(attr: str):
    return lambda system: [getattr(engine, attr) for engine in engines(system)]


def _if_sharded(locate):
    """Hook points only the sharded facade has (nothing to hook, and
    nothing missing, on an unsharded system)."""
    return lambda system: locate(system) if getattr(system, "shards", None) is not None else []


_router = _if_sharded(_of_system("router"))
_routed_engine = _if_sharded(_of_system("executor", "_engine"))
_routed_disk = _if_sharded(_of_system("executor", "_disk"))


def _module(name: str):
    return lambda system: [importlib.import_module(name)]


def _candidates(lookup_result) -> int:
    return len(lookup_result.candidates)


@dataclass(frozen=True)
class Hook:
    span: str
    locate: Callable
    #: Method name; a trailing ``*`` wraps every method with that prefix.
    attr: str
    #: Optional count taken from each call's return value.
    count: Optional[Callable] = None


HOOKS = (
    Hook("system.ingest", _of_system(), "ingest"),
    Hook("system.search", _of_system(), "search"),
    Hook("system.fetch_records", _of_system(), "fetch_records"),
    Hook("parser.parse", _module("repro.engine.parser"), "parse_query"),
    Hook("executor.execute", _of_system("executor"), "execute"),
    Hook("executor.materialize", _of_system("executor"), "materialize"),
    Hook("sharded.route", _router, "shards_for"),
    Hook("sharded.route", _router, "group_by_shard"),
    Hook("sharded.route", _routed_engine, "lookup"),
    Hook("sharded.route", _routed_engine, "note_query"),
    Hook("sharded.route", _routed_engine, "get_record"),
    Hook("sharded.route", _routed_disk, "lookup"),
    Hook("sharded.route", _routed_disk, "fetch_record"),
    Hook("kflushing.insert", engines, "insert"),
    Hook("kflushing.lookup", engines, "lookup", _candidates),
    Hook("kflushing.note_query", engines, "note_query"),
    Hook("kflushing.run_flush", engines, "run_flush"),
    Hook("phases.phase1", _module("repro.core.kflushing"), "run_phase1"),
    Hook("phases.phase2", _module("repro.core.kflushing"), "run_phase2"),
    Hook("phases.phase3", _module("repro.core.kflushing"), "run_phase3"),
    Hook("model.keys", _of_system("attribute"), "keys"),
    Hook("model.score", _of_system("ranking"), "score"),
    Hook("raw_store.add", _of_engines("raw"), "add"),
    Hook("inverted_index.insert", _of_engines("index"), "insert*"),
    Hook("flush_buffer.commit", _of_engines("buffer"), "commit"),
    Hook("disk.commit_flush", _disks, "commit_flush"),
    Hook("disk.lookup", _disks, "lookup", len),
    Hook("disk.fetch_record", _disks, "fetch_record"),
    Hook("obs.registry", _of_system("obs", "registry"), "counter"),
    Hook("obs.registry", _of_system("obs", "registry"), "gauge"),
    Hook("obs.registry", _of_system("obs", "registry"), "histogram"),
    Hook("obs.emit", _of_system("obs"), "event"),
    Hook("obs.emit", _of_system("obs"), "span"),
    Hook("obs.emit", _of_system("obs"), "trace"),
)

# Columns of a slice cell (ns) and of a totals cell (s).
_SELF, _TOTAL, _CALLS, _COUNT = range(4)
_KEPT_CALLS, _ALL_CALLS, _ALL_COUNT = 2, 3, 4


class Tracer:
    def __init__(self, hooks=HOOKS) -> None:
        self._hooks = hooks
        #: Open spans, innermost last: ``[child_ns, span_id]`` frames.
        self._stack: list[list[int]] = []
        #: (kind, span) -> [self ns, inclusive ns, calls, count] of the
        #: slice being run; ``take_slice`` hands it to the harness.
        self._slice: dict[tuple[str, str], list[int]] = {}
        #: (kind, span) -> [self s, inclusive s, calls in timed slices,
        #: calls in all slices, count in all slices]; see ``add``.
        self.totals: dict[tuple[str, str], list[float]] = {}
        #: Span names whose hook found no attribute to wrap.
        self.missing: set[str] = set()
        self.spans: list[tuple] = []
        self.kind = "setup"
        self.op = 0
        self._keep = False
        self._next_span = 0
        self._undo: list[tuple] = []

    # -- installation ---------------------------------------------------

    def install(self, system) -> list[str]:
        """Wrap every hook point of ``system``; returns warning lines."""
        warnings = []
        wrapped: set[tuple[int, str]] = set()
        for hook in self._hooks:
            try:
                targets = hook.locate(system)
            except (AttributeError, ImportError) as exc:
                self.missing.add(hook.span)
                warnings.append(f"trace hook {hook.span} ({hook.attr}): {exc}")
                continue
            for target in targets:
                names = self._method_names(target, hook.attr)
                own = getattr(target, "__dict__", None)
                if own is None:
                    # A slotted object cannot take an instance-level wrapper.
                    names = []
                if not names:
                    self.missing.add(hook.span)
                    warnings.append(
                        f"trace hook {hook.span}: cannot wrap {hook.attr!r} "
                        f"on {type(target).__name__}"
                    )
                for name in names:
                    if (id(target), name) in wrapped:
                        continue
                    wrapped.add((id(target), name))
                    self._undo.append((target, name, own.get(name, _ABSENT)))
                    setattr(target, name, self.wrap(hook.span, getattr(target, name), hook.count))
        return warnings

    @staticmethod
    def _method_names(target, attr: str) -> list[str]:
        if attr.endswith("*"):
            prefix = attr[:-1]
            return [
                name
                for name in dir(target)
                if name.startswith(prefix) and callable(getattr(target, name))
            ]
        return [attr] if callable(getattr(target, attr, None)) else []

    def uninstall(self) -> None:
        for target, name, own in reversed(self._undo):
            if own is _ABSENT:
                delattr(target, name)
            else:
                setattr(target, name, own)
        self._undo.clear()

    # -- recording ------------------------------------------------------

    def begin_op(self, kind: str) -> None:
        """Called by the harness before each ingest or query."""
        self.kind = kind
        self.op += 1
        self._keep = self.op % SPAN_SAMPLE == 0

    def wrap(self, span: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        stack = self._stack
        cells = self._slice
        spans = self.spans

        def traced(*args, **kwargs):
            self._next_span += 1
            frame = [0, self._next_span]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                if parent is not None:
                    parent[0] += elapsed
                cell = cells.get((self.kind, span))
                if cell is None:
                    cell = cells[(self.kind, span)] = [0, 0, 0, 0]
                cell[_SELF] += elapsed - frame[0]
                cell[_TOTAL] += elapsed
                cell[_CALLS] += 1
                if self._keep:
                    spans.append(
                        (span, start, start + elapsed, parent[1] if parent else 0,
                         frame[1], self.op, self.kind)
                    )
            if count is not None:
                cell[_COUNT] += count(result)
            return result

        return traced

    def take_slice(self) -> dict:
        """The cells of the slice just run (and start a fresh one)."""
        cells = dict(self._slice)
        self._slice.clear()
        return cells

    def add(self, cells: dict, timed: bool) -> None:
        """Fold one slice into the totals.  Calls and counts always count
        (they must not depend on which slices the host disturbed); times
        only when the slice is one the timings are built from."""
        for key, cell in cells.items():
            total = self.totals.get(key)
            if total is None:
                total = self.totals[key] = [0.0, 0.0, 0, 0, 0]
            total[_ALL_CALLS] += cell[_CALLS]
            total[_ALL_COUNT] += cell[_COUNT]
            if timed:
                total[_SELF] += cell[_SELF] * 1e-9
                total[_TOTAL] += cell[_TOTAL] * 1e-9
                total[_KEPT_CALLS] += cell[_CALLS]

    # -- reading --------------------------------------------------------

    def _sum(self, span: str, column: int, kinds=None):
        if span in self.missing:
            return None
        return sum(
            cell[column]
            for (kind, name), cell in self.totals.items()
            if name == span and (kinds is None or kind in kinds)
        )

    def self_s(self, span: str, kinds=None):
        """Self seconds in the timed slices."""
        return self._sum(span, _SELF, kinds)

    def total_s(self, span: str, kinds=None):
        """Inclusive seconds in the timed slices."""
        return self._sum(span, _TOTAL, kinds)

    def timed_calls(self, span: str, kinds=None):
        """Calls in the timed slices (the divisor for per-call times)."""
        return self._sum(span, _KEPT_CALLS, kinds)

    def calls(self, span: str, kinds=None):
        """Calls in every slice (exact for a given workload and seed)."""
        return self._sum(span, _ALL_CALLS, kinds)

    def count(self, span: str, kinds=None):
        return self._sum(span, _ALL_COUNT, kinds)

    def budget(self, kinds) -> dict[str, float]:
        """Share of the ops of ``kinds`` spent in each span's self time,
        in percent, largest first."""
        by_span: dict[str, float] = {}
        for (kind, span), cell in self.totals.items():
            if kind in kinds:
                by_span[span] = by_span.get(span, 0.0) + cell[_SELF]
        whole = sum(by_span.values())
        if whole <= 0.0:
            return {}
        ranked = sorted(by_span.items(), key=lambda item: -item[1])
        return {span: 100.0 * seconds / whole for span, seconds in ranked}

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, span_id, op, kind in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent,
                         "span": span_id, "op": op, "kind": kind}
                    )
                )
                out.write("\n")


_ABSENT = object()
