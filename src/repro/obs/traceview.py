"""Offline trace analysis over events JSONL (the ``repro trace`` CLI).

Any event carrying ``trace`` and ``span`` fields is a node in some
trace's span tree — ``{"type": "trace"}`` events from
``Instrumentation.trace``/``trace_span`` and the
trace-stamped ``{"type": "span"}`` events alike.  Events are emitted at
span *close*, so children always precede their parent in the file; the
builder simply indexes every node by span id and links by
``parent_span`` at the end.

On top of the reconstructed trees this module derives the reports
``repro trace`` prints:

* :func:`query_summaries` — the top-N slowest query traces with their
  per-child (shard lookup / disk lookup) time breakdown;
* :func:`flush_attribution` — flush wall time attributed to each
  kFlushing phase across all flush traces;
* :func:`miss_cause_table` — the eviction-cause miss histogram, from
  per-query events when present, else from the ``query.miss.cause.*``
  counters inside snapshot events.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.obs.catalog import QUERY_MISS_CAUSE

__all__ = [
    "SpanNode",
    "Trace",
    "TraceBuildReport",
    "build_traces",
    "build_traces_report",
    "flush_attribution",
    "load_events",
    "miss_cause_table",
    "query_summaries",
]

#: Event types whose ``metrics`` payload is a registry snapshot.
SNAPSHOT_TYPES = ("trial_snapshot", "run_snapshot")


@dataclass
class SpanNode:
    """One span of a reconstructed trace tree."""

    span_id: int
    name: str
    seconds: float
    parent_span: Optional[int]
    fields: dict
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def child_seconds(self) -> float:
        return sum(child.seconds for child in self.children)

    def walk(self):
        """This node then every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class Trace:
    """One reconstructed trace: its id and the root span."""

    trace_id: str
    root: SpanNode

    @property
    def name(self) -> str:
        return self.root.name

    @property
    def seconds(self) -> float:
        return self.root.seconds

    @property
    def span_count(self) -> int:
        return sum(1 for _ in self.root.walk())


_NODE_KEYS = ("type", "trace", "span", "parent_span", "name", "seconds")


def load_events(path: str) -> list[dict]:
    """Every event in a JSONL file (malformed lines are skipped)."""
    events: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(event, dict):
                events.append(event)
    return events


@dataclass
class TraceBuildReport:
    """Reconstructed traces plus what could not be attached.

    ``dropped_orphans`` counts span nodes that are reachable from no
    returned root — spans of a rootless trace (a truncated file lost the
    root, which is emitted last) or spans whose parent chain is broken.
    ``duplicate_spans`` counts events whose (trace, span) pair an earlier
    event already had: two writers reused one trace id, and the later
    node replaced the earlier one.
    """

    traces: list[Trace]
    dropped_orphans: int
    duplicate_spans: int


def build_traces(events: Iterable[dict]) -> list[Trace]:
    """Reconstruct complete trace trees from an event stream.

    A trace is returned only when its root span (``parent_span`` null)
    was seen; orphan spans from truncated files are dropped (use
    :func:`build_traces_report` to count them).  Traces come back in
    file order of their roots.
    """
    return build_traces_report(events).traces


def build_traces_report(events: Iterable[dict]) -> TraceBuildReport:
    """Like :func:`build_traces`, also counting dropped orphan spans and
    duplicate (trace, span) pairs."""
    nodes_by_trace: dict[str, dict[int, SpanNode]] = {}
    duplicate_spans = 0
    root_order: list[tuple[str, int]] = []
    seen_roots: set[tuple[str, int]] = set()
    for event in events:
        trace_id = event.get("trace")
        span_id = event.get("span")
        if not isinstance(trace_id, str) or not isinstance(span_id, int):
            continue
        node = SpanNode(
            span_id=span_id,
            name=str(event.get("name", event.get("type", "?"))),
            seconds=float(event.get("seconds", 0.0)),
            parent_span=event.get("parent_span"),
            fields={k: v for k, v in event.items() if k not in _NODE_KEYS},
        )
        nodes = nodes_by_trace.setdefault(trace_id, {})
        if span_id in nodes:
            duplicate_spans += 1
        nodes[span_id] = node
        if node.parent_span is None and (trace_id, span_id) not in seen_roots:
            seen_roots.add((trace_id, span_id))
            root_order.append((trace_id, span_id))
    # Link children exactly once per trace even if the same trace id has
    # multiple roots (a file with duplicate ids must not double-append
    # children).
    linked: set[str] = set()
    traces: list[Trace] = []
    for trace_id, root_span in root_order:
        nodes = nodes_by_trace[trace_id]
        if trace_id not in linked:
            linked.add(trace_id)
            for node in nodes.values():
                if node.parent_span is not None:
                    parent = nodes.get(node.parent_span)
                    if parent is not None:
                        parent.children.append(node)
            for node in nodes.values():
                node.children.sort(key=lambda child: child.span_id)
        traces.append(Trace(trace_id, nodes[root_span]))
    total_nodes = sum(len(nodes) for nodes in nodes_by_trace.values())
    attached = sum(trace.span_count for trace in traces)
    return TraceBuildReport(
        traces=traces,
        dropped_orphans=total_nodes - attached,
        duplicate_spans=duplicate_spans,
    )


def query_summaries(traces: Iterable[Trace], top: int = 10) -> list[dict]:
    """The ``top`` slowest query traces with per-child breakdowns."""
    queries = [trace for trace in traces if trace.name == "query"]
    queries.sort(key=lambda trace: trace.seconds, reverse=True)
    summaries = []
    for trace in queries[:top]:
        root = trace.root
        children = [
            {
                "name": child.name,
                "seconds": child.seconds,
                "shard": child.fields.get("shard"),
                "key": child.fields.get("key"),
            }
            for child in root.walk()
            if child is not root
        ]
        summaries.append(
            {
                "trace": trace.trace_id,
                "seconds": trace.seconds,
                "mode": root.fields.get("mode"),
                "hit": root.fields.get("hit"),
                "miss_cause": root.fields.get("miss_cause"),
                "disk_lookups": root.fields.get("disk_lookups"),
                "spans": trace.span_count,
                "children": children,
            }
        )
    return summaries


def flush_attribution(traces: Iterable[Trace]) -> dict:
    """Flush wall time attributed per phase across all flush traces."""
    flushes = [trace for trace in traces if trace.name == "flush"]
    total = sum(trace.seconds for trace in flushes)
    per_phase: dict[str, float] = {}
    for trace in flushes:
        for node in trace.root.walk():
            if node.name.startswith("flush.phase"):
                phase = node.name[len("flush."):]
                per_phase[phase] = per_phase.get(phase, 0.0) + node.seconds
    return {
        "flush_traces": len(flushes),
        "total_seconds": total,
        "per_phase_seconds": dict(sorted(per_phase.items())),
    }


def miss_cause_table(events: Iterable[dict]) -> dict[str, int]:
    """Miss counts per eviction cause.

    Prefers per-query events (``type=query``, ``hit=false``, carrying
    ``miss_cause``); when a file has none — e.g. parallel runs whose
    workers only shipped snapshots — falls back to summing the
    ``query.miss.cause.*`` counters of every snapshot event.
    """
    from_queries: dict[str, int] = {}
    from_snapshots: dict[str, int] = {}
    prefix = QUERY_MISS_CAUSE.prefix
    for event in events:
        etype = event.get("type")
        if etype == "query" and not event.get("hit", True):
            cause = event.get("miss_cause")
            if cause:
                from_queries[cause] = from_queries.get(cause, 0) + 1
        elif etype in SNAPSHOT_TYPES:
            counters = event.get("metrics", {}).get("counters", {})
            for name, value in counters.items():
                if name.startswith(prefix) and value:
                    cause = name[len(prefix):]
                    from_snapshots[cause] = from_snapshots.get(cause, 0) + int(value)
    table = from_queries if from_queries else from_snapshots
    return dict(sorted(table.items(), key=lambda item: (-item[1], item[0])))

