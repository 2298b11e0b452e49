"""diraclab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload realize|exact|gauge-group \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports `diraclab` from `src/` there.
Load model: one client in a closed loop, one busy process.  A pass is the
seeded task list of the workload, run task after task; passes repeat while
another one fits in --seconds (at least one pass).

--trace 0 prints the end-to-end metrics: set-up time (median of SETUPS fresh
processes, spawn to ready), median pass wall and CPU time, per-task p50/p90
latency over every task of every pass, and peak RSS.  Each timing is
divided by the host speed factor measured around it (calibration.py); the
raw timings are printed before the result line.
--trace 1 prints the per-layer metrics of one traced pass (tracer.py), after
untraced passes for half of --seconds that give the tracing overhead.

The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it give the
sample counts, failure share, percentile ranks and run metadata, which are
also written to .bench_out/result-<workload>-seed<seed>-trace<0|1>.json.
The exit code is 0 only if every task's outcome was correct; a failed run
still prints its metrics first.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibration

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_out"
WORKLOADS = ("realize", "exact", "gauge-group")
SETUPS = 5            # set-up samples per run; the last process also solves
CAL_SAMPLES = 25      # calibration kernel runs before each set-up sample
DEADLINE_S = 170      # a run that takes longer is killed and fails
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BASELINE_SEED = 1     # seed 2 is held out to confirm claims (README.md)


class RunError(Exception):
    pass


def _spawn(args, extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # One busy thread: on a box with few, shared cores a BLAS pool that spins
    # on small matrices measures the scheduler, not the library.
    env.update({k: "1" for k in BLAS_ENV})
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    return subprocess.Popen(cmd, cwd=str(ROOT), env=env, stdout=subprocess.PIPE, text=True)


def _read_until(proc, tag: str) -> str:
    for line in proc.stdout:
        if line.startswith(tag):
            return line[len(tag):].strip()
        sys.stderr.write(line)
    raise RunError(f"worker exited before {tag.strip()} (exit {proc.wait()})")


def run_worker(args, extra, deadline) -> tuple[float, dict | None]:
    """Spawn one worker; returns (spawn-to-ready seconds, result or None)."""
    t0 = time.perf_counter()
    proc = _spawn(args, extra)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        _read_until(proc, "@@ready")
        ready_s = time.perf_counter() - t0
        result = None
        if "--setup-only" not in extra:
            result = json.loads(_read_until(proc, "@@result"))
        rest = proc.stdout.read()
        if rest:
            sys.stderr.write(rest)
        code = proc.wait()
        if code != 0:
            raise RunError(f"worker exited with {code}")
        return ready_s, result
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (the 'inclusive' method)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def rank_kinds(latencies, kinds, q: float, width: int = 2) -> dict:
    """Task kind at the q-rank of the pooled latencies and its neighbours."""
    order = sorted(range(len(latencies)), key=latencies.__getitem__)
    r = round(q * (len(order) - 1))
    near = [kinds[order[i]] for i in range(max(0, r - width), min(len(order), r + width + 1))]
    kind = kinds[order[r]]
    return {"kind": kind, "same_kind_neighbours": f"{near.count(kind)}/{len(near)}"}


def end_to_end(setups, setup_factors, result, calibrated=True) -> dict:
    """The end-to-end metrics; `calibrated` divides every timing by the host
    speed factor measured around it (calibration.py)."""
    passes = result["passes"]
    pf = [calibration.speed_factor(p["cal_s"]) if calibrated else 1.0 for p in passes]
    sf = setup_factors if calibrated else [1.0] * len(setups)
    lat = [x / f for p, f in zip(passes, pf) for x in p["latencies"]]
    return {
        "setup_s": (statistics.median(x / f for x, f in zip(setups, sf)), "s"),
        "solve_s": (statistics.median(p["wall_s"] / f for p, f in zip(passes, pf)), "s"),
        "task_p50_s": (quantile(lat, 0.5), "s"),
        "task_p90_s": (quantile(lat, 0.9), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] / f for p, f in zip(passes, pf)), "s"),
        "peak_rss_mib": (result["peak_rss_mib"], "MiB"),
    }


def setup_sample(args, extra, deadline) -> tuple[float, float, dict | None]:
    """One spawn-to-ready time, the host speed factor just before it, and the
    worker's result unless it only set up."""
    factor = calibration.speed_factor([calibration.sample() for _ in range(CAL_SAMPLES)])
    ready_s, result = run_worker(args, extra, deadline)
    return ready_s, factor, result


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "blas_env_inherited": {k: os.environ.get(k) for k in BLAS_ENV},
        "blas_threads": 1,
        "DIRACLAB_THREADS": os.environ.get("DIRACLAB_THREADS"),
    }


def _git_sha():
    """HEAD of the checkout if it is a git work tree (read without running git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "diraclab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=BASELINE_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one task of each kind, one pass, one set-up (self-tests)")
    ap.add_argument("--wrong-expectation", action="store_true",
                    help="invert the first task's expected outcome (self-tests)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "diraclab" / "__init__.py").is_file():
        print(f"no diraclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if "DIRACLAB_THREADS" in os.environ:
        print("DIRACLAB_THREADS must be unset: the benchmark measures the default",
              file=sys.stderr)
        return 2

    meta = metadata(args)
    deadline = time.monotonic() + DEADLINE_S
    extra = [f for f, on in (("--smoke", args.smoke),
                             ("--wrong-expectation", args.wrong_expectation)) if on]
    setups = 1 if (args.smoke or args.trace) else SETUPS
    try:
        samples = [setup_sample(args, ["--setup-only", *extra], deadline)
                   for _ in range(setups - 1)]
        samples.append(setup_sample(args, extra, deadline))
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 3
    ready = [r for r, _, _ in samples]
    ready_factors = [f for _, f, _ in samples]
    result = samples[-1][2]

    attempted, failed = result["attempted"], result["failed"]
    meta.update({k: result[k] for k in ("task_counts", "versions", "digests_checked",
                                        "import_s", "scipy_loaded")})
    if args.trace:
        metrics = {k: (v["value"], v["unit"]) for k, v in result["per_layer"].items()}
        metrics["import.diraclab_s"] = (result["import_s"], "s")
        metrics["import.scipy_loaded"] = (int(result["scipy_loaded"]), "flag")
        print(f"trace: {result['spans']} spans in {result['spans_file']}; "
              f"absent: {result['absent'] or 'none'}")
    else:
        metrics = end_to_end(ready, ready_factors, result)
        raw = end_to_end(ready, ready_factors, result, calibrated=False)
        lat = [x for p in result["passes"] for x in p["latencies"]]
        kinds = [k for p in result["passes"] for k in p["kinds"]]
        n = len(lat)
        print(f"passes: {len(result['passes'])}, tasks per pass: {n // len(result['passes'])}, "
              f"latency samples: {n}, beyond raw p90: {sum(x > raw['task_p90_s'][0] for x in lat)}")
        print(f"p50 rank: {rank_kinds(lat, kinds, 0.5)}; p90 rank: {rank_kinds(lat, kinds, 0.9)}")
        print("host speed factor: set-ups "
              f"{[round(f, 3) for f in ready_factors]}, passes "
              f"{[round(calibration.speed_factor(p['cal_s']), 3) for p in result['passes']]}")
        print("raw (uncalibrated): " + ", ".join(
            f"{k} {v:.6g} {u}" for k, (v, u) in raw.items() if k != "peak_rss_mib"))
        print(f"setup samples (s): {[round(x, 4) for x in ready]}")
    for f in result["failures"]:
        print(f"FAILED task {f['index']} ({f['kind']}): {f['detail']}")
    print(f"fail_frac: {failed / attempted:.6g} (ratio; {failed} failed of {attempted} "
          f"tasks attempted)")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name}: {value:.6g} {unit}")
    print("meta: " + json.dumps(meta, sort_keys=True))
    correct = failed == 0
    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(summary, meta=meta, setup_samples_s=ready, setup_factors=ready_factors,
                  failures=result["failures"],
                  pass_wall_s=[p["wall_s"] for p in result["passes"]],
                  pass_factors=[calibration.speed_factor(p["cal_s"]) for p in result["passes"]],
                  absent=result.get("absent"))
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
