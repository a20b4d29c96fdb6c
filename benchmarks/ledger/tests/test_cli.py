"""End-to-end self-tests: tiny ``--quick`` runs through the real command."""

import json
import shutil
import subprocess
import sys

import pytest

from ledger import spec, trace

from .conftest import ROOT

LEDGER = ROOT / "benchmarks" / "ledger"


def _run(*args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, str(LEDGER), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def _result_line(proc):
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    return line


def _check_metrics(metrics, expected):
    assert list(metrics) == list(expected)
    for name, unit in expected.items():
        assert set(metrics[name]) == {"value", "unit"}
        assert metrics[name]["unit"] == unit
        assert isinstance(metrics[name]["value"], float)


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_quick_run_prints_every_end_to_end_metric(workload):
    line = _result_line(_run(
        "run", "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", "0", "--quick",
    ))
    _check_metrics(line["metrics"], {m.name: m.unit for m in spec.END_TO_END})
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_quick_traced_run_prints_every_per_layer_metric(tmp_path):
    out = tmp_path / "set.json"
    proc = _run("run", "--seed", "3", "--seconds", "1", "--trace", "1", "--quick",
                "--json", str(out))
    line = _result_line(proc)
    expected = {
        f"{workload}.{m.name}": m.unit for workload in spec.WORKLOADS for m in trace.PER_LAYER
    }
    _check_metrics(line["metrics"], expected)
    runs = json.loads(out.read_text())["runs"]
    assert [run["workload"] for run in runs] == list(spec.WORKLOADS)
    for run in runs:
        assert run["checks"]["traced_untraced_mismatched_ops"] == 0
        assert run["metrics"]["layer_coverage"]["value"] > 0.5


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(LEDGER, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__", "runs"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger", "run", "--workload", "e5_scalar",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_mirrors_the_tables():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest["paths"] == ["benchmarks/ledger"]
    assert manifest["command"] == ["python3", "benchmarks/ledger", "run"]
    assert [w["name"] for w in manifest["workloads"]] == list(spec.WORKLOADS)
    assert [w["why"] for w in manifest["workloads"]] == list(spec.WORKLOADS.values())
    assert manifest["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END
    ]
    assert manifest["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in trace.PER_LAYER
    ]
