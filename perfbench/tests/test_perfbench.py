"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def printed(stdout: str, workload: str, name: str, unit: str) -> bool:
    prefix = f"[{workload}] {name} = "
    return any(l.startswith(prefix) and l.endswith(f" {unit}") for l in stdout.splitlines())


def test_smoke_prints_every_end_to_end_metric(tmp_path):
    done = run_bench("--smoke", "--workload", "all", "--seed", "5", "--out", str(tmp_path / "r.jsonl"))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        for metric in SPEC["end_to_end"]:
            got = result["workloads"][workload][metric["name"]]
            assert got["unit"] == metric["unit"] and got["value"] > 0
            assert printed(done.stdout, workload, metric["name"], metric["unit"])


def test_traced_smoke_prints_every_per_layer_metric(tmp_path):
    done = run_bench("--smoke", "--workload", "search", "--trace", "1", "--out", str(tmp_path / "r.jsonl"))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert printed(done.stdout, "search", metric["name"], metric["unit"])


def smoke_run(expected: dict) -> harness.Run:
    run = harness.Run(harness.Tracer("test", False), expected)
    ctx = workloads.Context(ROOT, ROOT, smoke=True, env={})
    workloads.search(run, random.Random(0), ctx)
    return run


def test_wrong_output_is_counted():
    expected = json.loads((BENCH / "expected.json").read_text())
    assert smoke_run(expected).failures == []
    expected["max_code_size/4,2"] += 1  # a deliberately wrong reference value
    run = smoke_run(expected)
    assert len(run.failures) == 1 and "max_code_size/4,2" in run.failures[0]
    assert 0 < len(run.failures) / run.attempted < 1


def test_raising_operation_is_counted():
    run = harness.Run(harness.Tracer("test", True), {})
    assert run.call("graph.boom", lambda: 1 / 0) is None
    assert run.call("graph.fine", lambda: 2, lambda v: harness.ensure(v == 2, "bad")) == 2
    assert run.attempted == 2 and len(run.failures) == 1 and "ZeroDivisionError" in run.failures[0]


def test_self_time_subtracts_children():
    spans = [["bench.pass", 0.0, 10.0, None], ["graph.a", 1.0, 4.0, 0], ["codes.b", 5.0, 6.0, 0]]
    assert harness.self_times(spans) == pytest.approx({"bench": 6.0, "graph": 3.0, "codes": 1.0})


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_reference_speed_cancels_a_slow_machine():
    ref = harness.SPEED_REF
    steady = {"samples": [1.0, 2.0], "brackets": [0, 1], "speed": [ref, ref, ref]}
    slow = {"samples": [2.0, 3.0], "brackets": [0, 1], "speed": [2 * ref, 2 * ref, ref]}
    assert harness.at_reference_speed(steady) == [1.0, 2.0]
    assert harness.at_reference_speed(slow) == pytest.approx([1.0, 2.0])
    assert harness.median_of_calls([[1.0, 2.0], [1.0, 9.0], [3.0, 2.0]]) == 3.0
