"""The benchmark's tasks replayed in tier-1.

For two seeds every task of the `exact` workload runs once, and its check and
output digest are compared with `perfbench/expected_digests.json` by the
harness's own `worker.check_pass`, so a change of any exact output fails here
and not only at the benchmark's correctness gate.  One task of each kind of
the numeric workloads (`realize`, `gauge-group`; the harness's smoke list)
runs through the same checks, which bound their residuals.  The harness is
only read: the digests are recorded by `perfbench/record_digests.py`, never
by a test.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(BENCH))
    try:
        import worker
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return worker, workloads


@pytest.mark.parametrize("seed", [1, 2])
def test_exact_tasks_match_the_recorded_digests(harness, seed, tmp_path):
    worker, workloads = harness
    expected = json.loads((BENCH / "expected_digests.json").read_text())["exact"][str(seed)]
    tasks = workloads.make_tasks("exact", seed, str(tmp_path))
    assert len(tasks) == len(expected)
    results = [(task.run(), None) for task in tasks]
    assert worker.check_pass(tasks, results, expected) == []


@pytest.mark.parametrize("workload", ["realize", "gauge-group"])
def test_numeric_smoke_tasks_pass_their_checks(harness, workload, tmp_path):
    worker, workloads = harness
    tasks = workloads.make_tasks(workload, 1, str(tmp_path), smoke=True)
    assert tasks
    results = [(task.run(), None) for task in tasks]
    assert worker.check_pass(tasks, results, None) == []
