"""Checks of the benchmark harness itself.

Not part of the tier-1 suite (``testpaths = ["tests"]``); run explicitly:

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import catalog  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from compare import verdict  # noqa: E402
from repro.engine.parser import parse_query  # noqa: E402
from repro.engine.sharded import build_system  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = [sys.executable, str(HERE / "run.py")]


def _run(*args, cwd=ROOT):
    return subprocess.run([*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def smoke_suites(tmp_path_factory):
    """Two complete smoke suites (untraced + traced pass each)."""
    documents = []
    outputs = []
    for number in (1, 2):
        out = tmp_path_factory.mktemp("suite") / f"smoke{number}.json"
        done = _run("--smoke", "--trace", "--out", str(out))
        assert done.returncode == 0, done.stdout + done.stderr
        documents.append(json.loads(out.read_text(encoding="utf-8")))
        outputs.append(done.stdout)
    return documents, outputs


def test_contract_file_is_the_catalog():
    assert CONTRACT == catalog.benchmark_json()


def test_contract_limits():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in CONTRACT["workloads"]]
    names += [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONTRACT["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in CONTRACT["end_to_end"])
    assert 2 <= len(CONTRACT["workloads"]) <= 8 and len(CONTRACT["per_layer"]) <= 128


def test_every_metric_is_printed_with_its_unit(smoke_suites):
    _, outputs = smoke_suites
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        pattern = re.compile(
            rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}$", re.MULTILINE
        )
        printed = pattern.findall(outputs[0])
        assert len(printed) == len(CONTRACT["workloads"]), metric["name"]


def test_smoke_runs_repeat_exactly(smoke_suites):
    (first, second), _ = smoke_suites
    exact = [metric.name for metric in catalog.PER_LAYER if metric.exact]
    for workload in (w["name"] for w in CONTRACT["workloads"]):
        a, b = first["passes"][0][workload], second["passes"][0][workload]
        assert a["failed"] == b["failed"] == 0
        assert a["end_to_end"]["hit_ratio_pct"] == b["end_to_end"]["hit_ratio_pct"]
        for name in ("records", "queries", "flushes", "verified_queries"):
            assert a["info"][name] == b["info"][name], (workload, name)
        assert a["info"]["flushes"] > 0, "smoke must still exercise flushing"
        for name in exact:
            left = first["traced"][workload]["per_layer"][name]
            right = second["traced"][workload]["per_layer"][name]
            assert left == right and left is not None, (workload, name)


def test_driver_mode_prints_the_contract_object():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = _run("--workload", "query-hot", "--seed", "7", "--seconds", "10",
                    "--trace", str(trace), "--smoke")
        assert done.returncode == 0, done.stderr
        document = json.loads(done.stdout.splitlines()[-1])
        assert set(document) == {"correct", "attempted", "failed", "metrics"}
        assert document["correct"] is True and document["failed"] == 0
        assert document["attempted"] >= 1
        assert set(document["metrics"]) == {m["name"] for m in CONTRACT[section]}
        units = {m["name"]: m["unit"] for m in CONTRACT[section]}
        for name, entry in document["metrics"].items():
            assert set(entry) == {"value", "unit"} and entry["unit"] == units[name]
            assert isinstance(entry["value"], (int, float))


def test_refuses_to_run_without_the_system_under_test(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "query-hot", "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_rendered_queries_parse_back():
    for workload in workloads.WORKLOADS:
        inputs = workloads.Inputs(workload, seed=3)
        for text, query in inputs.queries(300):
            assert parse_query(text) == query, text
    custom_k = dataclasses.replace(query, k=5)
    assert parse_query(workloads.render_query(custom_k)) == custom_k


def _small_system():
    workload = workloads.BY_NAME["query-hot"]
    inputs = workloads.Inputs(workload, seed=5)
    system = build_system(workload.config(smoke=True))
    records = inputs.records(4000)
    for record in records:
        system.ingest(record)
    return system, inputs, records


def test_missing_hook_yields_null_not_an_exception():
    system, inputs, _ = _small_system()
    hooks = spans.HOOKS + (
        spans.Hook("gone.layer", lambda s: [s.no_such_layer], "method"),
        spans.Hook("gone.method", lambda s: [s.executor], "no_such_method"),
    )
    tracer = spans.Tracer(hooks)
    warnings = tracer.install(system)
    try:
        assert len(warnings) == 2 and tracer.missing == {"gone.layer", "gone.method"}
        tracer.begin_op("single")
        text, _ = inputs.queries(1)[0]
        system.fetch_records(system.search(parse_query(text)))
        tracer.add(tracer.take_slice(), timed=True)
    finally:
        tracer.uninstall()
    assert tracer.self_s("gone.layer") is None and tracer.calls("gone.method") is None
    assert tracer.calls("executor.execute") == 1
    assert "execute" not in vars(system.executor), "uninstall restores the instance"


def test_oracle_accepts_right_answers_and_flags_a_corrupted_one():
    system, inputs, records = _small_system()
    checks = []
    for more in (0, 500):  # answers taken at two points of the ingest history
        for record in inputs.records(more):
            system.ingest(record)
            records.append(record)
        for text, query in inputs.queries(200):
            result = system.search(parse_query(text))
            fetched = tuple(record.blog_id for record in system.fetch_records(result))
            checks.append(
                oracle.Check(text, query, parse_query(text), result, fetched, len(records))
            )
    assert oracle.verify(system, records, checks) == []

    victim = next(c for c in checks if c.expected_query.mode.value == "single" and len(c.result.postings) > 1)
    corrupted = dataclasses.replace(victim.result, postings=victim.result.postings[1:])
    bad = dataclasses.replace(victim, result=corrupted, fetched_ids=tuple(corrupted.blog_ids))
    reasons = oracle.verify(system, records, [bad])
    assert len(reasons) == 1 and "oracle says" in reasons[0]


def test_compare_verdicts():
    assert verdict([100, 101, 99], [104, 105, 103], "lower", 0.07)[1] == "ok"
    assert verdict([100, 101, 99], [110, 111, 109], "lower", 0.07)[1] == "regressed"
    assert verdict([100, 101, 99], [90, 91, 89], "higher", 0.07)[1] == "regressed"
    assert verdict([100, 120, 80], [110, 111, 109], "lower", 0.07)[1] == "unresolved"
    assert verdict([100, 120, 80], [70, 71, 69], "lower", 0.07)[1] == "ok"
