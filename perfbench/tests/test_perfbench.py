"""Self-tests of the benchmark harness (smoke-size runs, about a minute).

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
REPEATED_COUNTS = ("numeric.rk4_steps", "numeric.point_steps", "fields.term_products",
                   "maningroup.compose.calls")


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def smoke(workload, trace, *extra, seed=3):
    return bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke", *extra)


@pytest.fixture(scope="module")
def traced():
    """Two traced smoke runs per workload with the same seed."""
    out = {}
    for w in WORKLOADS:
        runs = []
        for _ in range(2):
            proc, result = smoke(w, 1)
            assert proc.returncode == 0, proc.stderr
            spans = np.load(ROOT / ".bench_out" / f"spans-{w}-seed3.npz")
            runs.append((result, {k: spans[k] for k in spans.files}))
        out[w] = runs
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_present(workload):
    proc, result = smoke(workload, 0)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "fail_frac: 0 " in proc.stdout


def test_per_layer_metrics_present(traced):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for w, runs in traced.items():
        got = {k: v["unit"] for k, v in runs[0][0]["metrics"].items()}
        assert got == want, w


def test_self_times_sum_to_root_span(traced):
    for w, runs in traced.items():
        spans = runs[0][1]
        dur = spans["end_ns"] - spans["start_ns"]
        child = np.zeros_like(dur)
        has_parent = spans["parent"] >= 0
        np.add.at(child, spans["parent"][has_parent], dur[has_parent])
        self_ns = dur - child
        assert (self_ns >= 0).all(), w
        by_task = defaultdict(int)
        for t, s in zip(spans["task"], self_ns):
            by_task[int(t)] += int(s)
        roots = np.flatnonzero(~has_parent)
        assert len(roots) == len(by_task), w
        for r in roots:
            root = int(dur[r])
            assert abs(by_task[int(spans["task"][r])] - root) <= 0.01 * root, (w, int(r))


def test_counts_repeat_exactly(traced):
    for w, (first, second) in traced.items():
        counts = {k for k, v in first[0]["metrics"].items() if v["unit"] in ("count", "MB")}
        assert set(REPEATED_COUNTS) <= counts
        for k in counts:
            assert first[0]["metrics"][k]["value"] == second[0]["metrics"][k]["value"], (w, k)


def test_each_workload_loads_its_layers(traced):
    def metric(w, name):
        return traced[w][0][0]["metrics"][name]["value"]

    assert metric("realize", "numeric.point_steps") > 0
    assert metric("realize", "fields.term_products") < metric("exact", "fields.term_products")
    assert metric("exact", "numeric.rk4_steps") == 0
    assert metric("gauge-group", "maningroup.compose.calls") > 0
    assert metric("gauge-group", "numeric.flow_td.rk4_steps") > 0


def test_wrong_expectation_counts_as_failure():
    proc, result = smoke("exact", 0, "--wrong-expectation")
    assert proc.returncode != 0
    assert result is not None and not result["correct"]
    assert result["failed"] == 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert f"fail_frac: {1 / result['attempted']:.6g} " in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and result is None
