"""Benchmark of the run -> verify pipeline of randpoly.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; randpoly is imported from its ``src/``.
Every job is a fresh interpreter with BLAS and OpenMP threads capped at 1,
started one at a time (a closed loop).

``--trace 0`` repeats untraced jobs (set-up, repeated ``experiment.run``
and ``experiment.verify``) for ``--seconds`` of wall time, at least
``MIN_JOBS`` of them, and reports the medians of the end-to-end metrics.
Times are reported at the reference speed of ``probe.py``, which every job
measures next to each step; the times as measured are printed beside them.
``--trace 1`` makes one traced single-process job and reports the
per-layer metrics.  Outputs are checked on every job; the last line of
standard output is one JSON object with the result.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_JOBS, MAX_JOBS = 5, 30
BUDGET_S = 170.0

END_TO_END = {"setup_s": "s", "run_s": "s", "verify_s": "s",
              "peak_rss_mb": "MB", "check_pass_frac": "ratio"}
PER_LAYER_UNITS = {"calls": "count", "points": "count", "points_in": "count",
                   "outer_steps": "count", "reps": "count", "bytes": "bytes",
                   "output_bytes": "bytes", "pNN": "%", "overhead_ratio":
                   "ratio", "hulls_per_outer_step": "count"}


class BenchError(RuntimeError):
    pass


def _unit(metric: str) -> str:
    last = metric.rsplit(".", 1)[-1]
    if last.endswith("_ms"):
        return "ms"
    if last.endswith("_s"):
        return "s"
    return PER_LAYER_UNITS[last]


def _job_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill what is left of a job's process group and wait until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_job(mode: str, workload: str, seed: int, outdir: Path,
            deadline: float, workers: int | None = None) -> dict:
    extra = [] if workers is None else ["--workers", str(workers)]
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), mode, workload, str(seed),
         str(outdir), repr(launched)] + extra,
        stdout=subprocess.PIPE, text=True, env=_job_env(), cwd=ROOT,
        start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} job ran past the time budget") from None
    finally:
        _stop_group(proc)
    if proc.returncode != 0:
        raise BenchError(f"{mode} job exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _median(jobs: list, key: str) -> float:
    return statistics.median(j[key] for j in jobs)


def untraced(workload: str, seed: int, seconds: float, outdir: Path,
             deadline: float) -> tuple[dict, list, dict]:
    jobs, begun = [], time.monotonic()
    while len(jobs) < MAX_JOBS:
        typical = statistics.median(j["elapsed"] for j in jobs) if jobs else 0
        longest = max((j["elapsed"] for j in jobs), default=0.0)
        if len(jobs) >= MIN_JOBS and (
                time.monotonic() + typical > begun + seconds
                or time.monotonic() + 3 * longest > deadline):
            break
        started = time.monotonic()
        job = run_job("measure", workload, seed, outdir / f"job{len(jobs)}",
                      deadline)
        job["elapsed"] = time.monotonic() - started
        jobs.append(job)
        scaled = job["scaled"]
        print(f"job {len(jobs)}: setup {job['setup_s']:.3f} s, run "
              f"{job['run_s']:.3f} s (median of {len(job['run_times'])}), "
              f"verify {job['verify_s']:.3f} s (median of "
              f"{len(job['verify_times'])}) as measured; at "
              f"reference speed {scaled['setup_s']:.3f}, "
              f"{scaled['run_s']:.3f}, {scaled['verify_s']:.3f} s; peak rss "
              f"{job['peak_rss_mb']:.1f} MB", flush=True)

    checks = [c for j in jobs for c in j["checks"]]
    tables = jobs[0]["tables"]
    checks.append(("tables identical across jobs",
                   all(j["tables"] == tables for j in jobs), ""))
    workers = config(workload, seed)["workers"]
    if workers > 1:
        single = run_job("measure", workload, seed, outdir / "workers1",
                         deadline, workers=1)
        checks.append((f"tables at workers={workers} equal workers=1",
                       single["tables"] == tables, ""))
    passed = sum(1 for c in checks if c[1])
    timings = ("setup_s", "run_s", "verify_s")
    print("as measured, medians over jobs: " + ", ".join(
        f"{k} {_median(jobs, k):.4f} s" for k in timings))
    metrics = {k: statistics.median(j["scaled"][k] for j in jobs)
               for k in timings}
    metrics["peak_rss_mb"] = _median(jobs, "peak_rss_mb")
    metrics["check_pass_frac"] = passed / len(checks)
    print(f"check_fail_frac {1.0 - metrics['check_pass_frac']:.6g} ratio "
          f"({len(checks) - passed} of {len(checks)} checks failed)")
    return metrics, checks, jobs[0]["env"]


def traced(workload: str, seed: int, outdir: Path,
           deadline: float) -> tuple[dict, list, dict]:
    job = run_job("trace", workload, seed, outdir / "trace", deadline)
    m = job["metrics"]
    print(f"tracing overhead: traced run {m['trace.run_s']:.3f} s, untraced "
          f"{m['trace.untraced_run_s']:.3f} s (x{m['trace.overhead_ratio']:.3f})"
          + (" -- the untraced run also has a second worker"
             if config(workload, seed)["workers"] > 1 else ""))
    for row in job["baseline"]:
        print(f"baseline cross-check: {row['what']:<19} harness "
              f"{row['harness_ms']:8.3f} ms   ROADMAP Baseline "
              f"{row['roadmap_ms']:6.2f} ms")
    return m, job["checks"], job["env"]


def _terminate(signum, frame):
    # unwinds through the finally blocks that stop the job and remove its
    # outputs; jobs run in their own session, so they miss our signals
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "randpoly" / "__init__.py").is_file():
        print(f"perfbench: no randpoly sources under {SRC}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    outdir = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            metrics, checks, env = traced(args.workload, args.seed, outdir,
                                          deadline)
        else:
            metrics, checks, env = untraced(args.workload, args.seed,
                                            args.seconds, outdir, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:
            pass

    units = END_TO_END if not args.trace else {m: _unit(m) for m in metrics}
    for name, passed, detail in checks:
        if not passed:
            print(f"FAILED CHECK {name}: {detail}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:<40} {value:.6g} {units[name]}")
    failed = sum(1 for c in checks if not c[1])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
