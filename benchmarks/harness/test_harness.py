"""Self-test of the benchmark harness, on smoke sizes (one op, small shapes).

Run from the repository root with
``PYTHONPATH=src python -m pytest benchmarks/harness -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import verdict
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def harness(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "harness" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(workload, trace) -> (last output line, --out record) of a smoke run."""
    tmp = tmp_path_factory.mktemp("runs")
    out = {}
    for name in NAMES:
        for trace in (0, 1):
            path = tmp / f"{name}-{trace}.json"
            proc = harness("--workload", name, "--seed", "3", "--seconds", "1",
                           "--trace", str(trace), "--smoke", "--out", str(path))
            assert proc.returncode == 0, proc.stderr
            out[name, trace] = (result_line(proc), json.loads(path.read_text()))
    return out


def test_benchmark_json_follows_the_schema():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/harness"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = NAMES + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_match_the_harness():
    assert set(NAMES) == set(WORKLOADS)
    listed = harness("--list")
    assert listed.returncode == 0
    assert [line.split()[0] for line in listed.stdout.splitlines()] == NAMES


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_declared_metric_is_emitted_and_checked(runs, name, trace):
    line, _ = runs[name, trace]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        metric = line["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(metric["value"] > 0 for metric in line["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_ops_compute_the_same_rows(runs, name):
    untraced, traced = runs[name, 0][1], runs[name, 1][1]
    assert untraced["digests"] == traced["digests"]
    assert "error" not in untraced["digests"]


@pytest.mark.parametrize("name", NAMES)
def test_layers_cover_the_op(runs, name):
    assert runs[name, 1][0]["metrics"]["obs.coverage"]["value"] >= 0.9


def test_verdicts():
    assert verdict([1.0, 1.0, 1.0], [1.05, 1.05, 1.05], "lower", 0.1) == "ok"
    assert verdict([1.0, 1.0, 1.0], [1.2, 1.2, 1.2], "lower", 0.1) == "regressed"
    assert verdict([10.0, 10.0, 10.0], [8.0, 8.0, 8.0], "higher", 0.1) == "regressed"
    wide = [1.0, 1.5, 1.0, 2.0]
    assert verdict(wide, [1.2, 1.2, 1.2], "lower", 0.1) == "unresolved"
    assert verdict(wide, [0.5, 0.5, 0.5], "lower", 0.1) == "ok"


def _record(tmp_path, tag, workload, scale, failed=0):
    metrics = {m["name"]: {"value": scale, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    path = tmp_path / f"{tag}.json"
    record = {"workload": workload, "trace": 0, "metrics": metrics,
              "failed": failed, "attempted": 10}
    path.write_text(json.dumps(record))
    return str(path)


def test_compare_exits_nonzero_only_on_a_regression(tmp_path):
    a = [_record(tmp_path, f"a{i}", "campaign", 1.0) for i in range(3)]
    same = [_record(tmp_path, f"b{i}", "campaign", 1.0) for i in range(3)]
    slower = [_record(tmp_path, f"c{i}", "campaign", 1.3) for i in range(3)]
    failing = [_record(tmp_path, f"d{i}", "campaign", 1.0, failed=1) for i in range(3)]
    ok = harness("compare", *a, "--", *same)
    assert ok.returncode == 0 and "regressed" not in ok.stdout
    assert harness("compare", *a, "--", *slower).returncode == 1
    assert harness("compare", *a, "--", *failing).returncode == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "harness",
                    ignore=shutil.ignore_patterns("__pycache__", ".scratch"))
    proc = harness("--workload", NAMES[0], "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
