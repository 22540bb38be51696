"""The metric catalog: every series declared once, bound once, read from
one place (``repro.obs.catalog``)."""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.config import SystemConfig
from repro.core import POLICY_NAMES
from repro.engine.sharded import build_system
from repro.obs import Instrumentation, MetricsRegistry, catalog
from repro.obs.catalog import CATALOG, COUNTER, GAUGE, HISTOGRAM
from repro.obs.export import _prom_name
from repro.obs.traceview import miss_cause_table
from repro.workload.queryload import QueryLoad, QueryLoadConfig
from repro.workload.stream import MicroblogStream, StreamConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

_SECTIONS = {"counters": COUNTER, "gauges": GAUGE, "histograms": HISTOGRAM}


def _drive(system, records=3_000, queries=300):
    """Ingest with interleaved single / AND / OR queries; flushes happen."""
    stream = MicroblogStream(
        StreamConfig(seed=5, vocabulary_size=400, user_count=400, with_locations=False)
    )
    load = QueryLoad(QueryLoadConfig(seed=6, k=5), stream)
    every = records // queries
    for i, record in enumerate(stream.take(records)):
        system.ingest(record)
        if i % every == 0:
            system.search(load.next_query())
    return system


def _system(policy="kflushing", shards=1, attribution=False):
    config = SystemConfig(
        policy=policy, k=5, memory_capacity_bytes=60_000, shards=shards
    )
    return build_system(config, obs=Instrumentation(attribution=attribution))


def _grid():
    for policy in POLICY_NAMES:
        for shards in (1, 4):
            for attribution in (False, True):
                yield _system(policy, shards, attribution)


@pytest.fixture(scope="module")
def snapshots():
    return [_drive(system).snapshot() for system in _grid()]


def _entries(name):
    return [metric for metric in CATALOG if metric.matches(name)]


class TestCoverage:
    def test_every_series_resolves_to_one_entry_of_its_kind(self, snapshots):
        for snap in snapshots:
            for section, kind in _SECTIONS.items():
                for name in snap[section]:
                    entries = _entries(name)
                    assert len(entries) == 1, (name, entries)
                    assert entries[0].kind == kind, name
                    assert catalog.lookup(name) is entries[0]

    def test_every_entry_is_emitted(self, snapshots):
        names = {name for snap in snapshots for s in _SECTIONS for name in snap[s]}
        silent = [m.name for m in CATALOG if not any(m.matches(n) for n in names)]
        assert not silent

    def test_no_other_module_spells_a_metric_name(self):
        """String literals (docstrings aside) that name a declared series,
        a family pattern or a multi-segment family prefix."""
        prefixes = {m.prefix for m in CATALOG if m.prefix != m.name}
        spelled = {m.name for m in CATALOG} | {p for p in prefixes if p.count(".") >= 2}
        found = []
        for path in SRC.rglob("*.py"):
            if path == SRC / "obs" / "catalog.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            docstrings = {
                id(node.body[0].value)
                for node in ast.walk(tree)
                if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                and node.body
                and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
            }
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in docstrings
                    and (node.value in spelled or catalog.lookup(node.value))
                ):
                    found.append((str(path.relative_to(SRC)), node.value))
        assert not found

    def test_shard_twins_only_for_sharded_entries(self):
        registry = MetricsRegistry()
        catalog.FLUSH_COUNT.bind(registry, shard=2).inc()
        assert registry.snapshot()["counters"] == {"shard.2.flush.count": 1}
        with pytest.raises(ValueError):
            catalog.QUERY_LATENCY.bind(registry, shard=2)


@pytest.mark.parametrize("attribution", [False, True])
@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_hot_paths_use_bound_handles(policy, shards, attribution):
    """After construction no ingest, flush or query asks the registry
    for a metric by name."""
    system = _system(policy, shards, attribution)
    registry = system.obs.registry
    calls = []
    for accessor in ("counter", "gauge", "histogram"):
        original = getattr(registry, accessor)

        def counted(name, *args, _original=original, **kwargs):
            calls.append(name)
            return _original(name, *args, **kwargs)

        setattr(registry, accessor, counted)
    _drive(system)
    assert system.flush_reports()
    assert calls == []


class TestMissAttribution:
    def test_tables_hold_no_zero_causes(self):
        system = _drive(_system(attribution=True))
        causes = system.miss_attribution()
        assert causes and all(count > 0 for count in causes.values())
        assert sum(causes.values()) == system.stats.queries.memory_misses
        snapshot_event = {"type": "run_snapshot", "metrics": system.snapshot()}
        assert miss_cause_table([snapshot_event]) == dict(
            sorted(causes.items(), key=lambda item: (-item[1], item[0]))
        )


@pytest.mark.parametrize("shards", [1, 4])
def test_prometheus_help_is_the_catalog_text(shards, capsys):
    args = ["stats", "--records", "6000", "--queries", "300",
            "--capacity-bytes", "300000", "--shards", str(shards)]
    assert main(args) == 0
    snap = json.loads(capsys.readouterr().out)
    assert main(args + ["--format", "prom"]) == 0
    text = capsys.readouterr().out
    expected = set()
    for section, kind in _SECTIONS.items():
        for name in snap[section]:
            prom = _prom_name(name) + ("_total" if kind == COUNTER else "")
            expected.add(f"# HELP {prom} {catalog.lookup(name).help}")
    helps = {line for line in text.splitlines() if line.startswith("# HELP ")}
    assert helps == expected


def test_observability_doc_table_is_the_catalog():
    doc = (ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    table = re.search(
        r"<!-- metric-table:begin -->\n(.*?)<!-- metric-table:end -->", doc, re.S
    )
    assert table is not None, "metric-table markers missing"
    assert table.group(1) == catalog.render_markdown(), (
        "docs/OBSERVABILITY.md is stale; paste repro.obs.catalog.render_markdown()"
    )

