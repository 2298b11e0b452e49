"""One benchmark process: set up, signal ready, run passes, report.

Started by run.py with PYTHONPATH pointing at the checkout's `src/`.  It
writes protocol lines to stdout: `@@ready` when set-up is done, then (unless
--setup-only) `@@result <json>` with the raw measurements.  Everything else
the library prints is captured per task, so stdout carries nothing else.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import calibration

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def _emit(tag: str, payload=None) -> None:
    line = tag if payload is None else f"{tag} {json.dumps(payload)}"
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(tasks, tracer=None):
    """Run every task once, closed loop; returns the pass record and results.

    Untraced passes time the calibration kernel between tasks (calibration.py)
    at most every INTERVAL_S; its time is left out of the pass's wall and CPU.
    """
    latencies, results, cal = [], [], []
    cal_wall = cal_cpu = 0.0
    cpu0, t0 = _cpu_s(), time.perf_counter()
    last_cal = -calibration.INTERVAL_S
    for i, task in enumerate(tasks):
        if tracer is None and time.perf_counter() - last_cal >= calibration.INTERVAL_S:
            c0, w0 = _cpu_s(), time.perf_counter()
            cal.append(calibration.sample())
            last_cal = time.perf_counter()
            cal_wall += last_cal - w0
            cal_cpu += _cpu_s() - c0
        if tracer is not None:
            tracer.begin_task(i + 1, task.kind)
        start = time.perf_counter()
        try:
            results.append((task.run(), None))
        except Exception as exc:  # a raised task is a failed certificate, not a crash
            results.append((None, f"{type(exc).__name__}: {exc}"))
        latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.end_task()
    wall = time.perf_counter() - t0 - cal_wall
    cpu = _cpu_s() - cpu0 - cal_cpu
    return {"wall_s": wall, "cpu_s": cpu, "latencies": latencies, "cal_s": cal,
            "kinds": [t.kind for t in tasks]}, results


def check_pass(tasks, results, expected_digests):
    """Untimed correctness checks; returns the failures."""
    failures = []
    for i, (task, (result, error)) in enumerate(zip(tasks, results)):
        if error is None:
            try:
                ok, dig, detail = task.check(result)
            except Exception as exc:
                ok, dig, detail = False, None, f"check raised {type(exc).__name__}: {exc}"
        else:
            ok, dig, detail = False, None, error
        if ok and dig is not None and expected_digests is not None:
            want = expected_digests[i] if i < len(expected_digests) else None
            if dig != want:
                ok, detail = False, f"output digest {dig}, expected {want}"
        if not ok:
            failures.append({"index": i, "kind": task.kind, "detail": detail})
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--wrong-expectation", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import diraclab
    import_s = time.perf_counter() - t0
    scipy_loaded = "scipy.linalg" in sys.modules
    if not Path(diraclab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"diraclab imported from {diraclab.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workloads, str(workdir), import_s, scipy_loaded)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _expected_digests(workload: str, seed: int):
    path = Path(__file__).resolve().parent / "expected_digests.json"
    with open(path) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def _run(args, workloads, workdir, import_s, scipy_loaded) -> int:
    def build():
        tasks = workloads.make_tasks(args.workload, args.seed, workdir, smoke=args.smoke)
        if args.wrong_expectation:
            _invert_first_expectation(tasks)
        return tasks

    workloads.warm_up(args.workload)
    tasks = build()
    _emit("@@ready")
    if args.setup_only:
        return 0

    expected = None if args.smoke else _expected_digests(args.workload, args.seed)
    record = {
        "import_s": import_s,
        "scipy_loaded": scipy_loaded,
        "task_counts": workloads.kind_counts(tasks),
        "digests_checked": expected is not None,
        "versions": _versions(),
    }
    passes, failures = [], []
    start = time.perf_counter()
    budget = args.seconds / 2 if args.trace else args.seconds
    while True:
        rec, results = run_pass(tasks)
        fails = check_pass(tasks, results, expected)
        passes.append(rec)
        failures += fails
        # stop unless another pass of the same length still fits the budget
        if args.smoke or time.perf_counter() - start + rec["wall_s"] > budget:
            break
        tasks = build()   # fresh objects: nothing cached from the previous pass
    record["passes"] = passes

    if args.trace:
        record.update(_traced(args, workloads, build, passes, expected, failures))
    record["attempted"] = sum(len(p["latencies"]) for p in passes) + record.get("traced_tasks", 0)
    record["failed"] = len(failures)
    record["failures"] = failures[:20]
    record["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _emit("@@result", record)
    return 0


def _traced(args, workloads, build, untraced_passes, expected, failures) -> dict:
    """Rebuild the inputs and run one pass with every boundary wrapped."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(extra_modules=[workloads])
    try:
        tracer.begin_task(0, "setup")
        tasks = build()
        tracer.end_task()
        rec, results = run_pass(tasks, tracer)
    finally:
        tracer.uninstall()
    fails = check_pass(tasks, results, expected)
    failures += fails

    metrics, absent = tracer.metrics()
    untraced = statistics.median(p["wall_s"] for p in untraced_passes)
    metrics["trace.overhead_frac"] = ((rec["wall_s"] - untraced) / untraced, "ratio")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.save(str(spans_path))
    return {
        "traced_tasks": len(tasks),
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "absent": sorted(set(absent) | set(tracer.absent)),
        "hook_errors": dict(tracer.hook_errors),
        "spans": len(tracer.start),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def _invert_first_expectation(tasks) -> None:
    """Self-test hook: make the first task's expected outcome wrong."""
    task = tasks[0]
    check = task.check

    def wrong(result):
        ok, dig, _ = check(result)
        return (not ok, dig, "expected outcome inverted by --wrong-expectation")
    task.check = wrong


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


if __name__ == "__main__":
    sys.exit(main())
