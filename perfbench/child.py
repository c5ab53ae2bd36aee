"""One benchmark job in a fresh interpreter; run.py starts it.

    child.py MODE WORKLOAD SEED OUTDIR LAUNCHED [--workers N]

MODE is ``measure`` (untraced run, then repeated verify) or ``trace``
(a traced single-process run and verify between two untraced runs).
``measure`` times each step next to passes of the reference probe
(``probe.py``) and reports each time both as measured and scaled to the
probe's reference speed.
LAUNCHED is the ``time.monotonic()`` reading taken by the parent just
before it started this interpreter, so set-up time includes interpreter
start.  The job prints one JSON object as its last line of output.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# short steps are repeated until this much time has been measured, so
# that a job spends more of its time measuring than setting up
RUN_SECONDS, RUN_MAX = 3.0, 4
VERIFY_SECONDS = 0.5
VERIFY_MIN, VERIFY_MAX = 3, 30


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the children are reaped pool workers
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _verify_checks(verdict: dict) -> list:
    return [(c["name"], c["passed"], c["detail"]) for c in verdict["checks"]]


def _reference_checks(manifest, workload: str, seed: int) -> list:
    import checks
    ref = checks.load_reference(workload, seed)
    if ref is None:
        return []
    return checks.compare(checks.capture(manifest), ref)


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def measure(config, out: Path, workload: str, seed: int,
            setup_s: float) -> dict:
    from randpoly import experiment

    from probe import REFERENCE_S, Probe

    probe = Probe()
    # the probe right after set-up also stands before the first run
    before = probe.median()
    setup_scaled = setup_s * REFERENCE_S / before
    run_times, run_scaled, found = [], [], []
    while not run_times or (sum(run_times) < RUN_SECONDS
                            and len(run_times) < RUN_MAX):
        t0 = time.perf_counter()
        manifest = experiment.run(config, outdir=out / f"run{len(run_times)}")
        run_times.append(time.perf_counter() - t0)
        after = probe.median()
        run_scaled.append(run_times[-1] * REFERENCE_S / ((before + after) / 2))
        before = after
        tables = [e["sha256"] for e in manifest.tables]
        if len(run_times) == 1:
            first_tables = tables
        else:
            found.append(("tables identical across runs of a job",
                          tables == first_tables, ""))
        found += _reference_checks(manifest, workload, seed)
    manifest_path = (out / f"run{len(run_times) - 1}" / config.name
                     / "manifest.json")
    times, scaled = [], []
    while len(times) < VERIFY_MIN or (sum(times) < VERIFY_SECONDS
                                      and len(times) < VERIFY_MAX):
        t0 = time.perf_counter()
        verdict = experiment.verify(manifest_path, quiet=True)
        times.append(time.perf_counter() - t0)
        scaled.append(times[-1] * REFERENCE_S / probe.once())
        found += _verify_checks(verdict)
    return {
        "run_s": statistics.median(run_times),
        "run_times": run_times,
        "verify_s": statistics.median(times),
        "verify_times": times,
        "scaled": {
            "setup_s": setup_scaled,
            "run_s": statistics.median(run_scaled),
            "verify_s": statistics.median(scaled),
        },
        "peak_rss_mb": _peak_rss_mb(),
        "tables": first_tables,
        "checks": found,
    }


def trace(config, out: Path, workload: str, seed: int) -> dict:
    from randpoly import experiment

    import instrument
    import selftest
    from tracer import Tracer

    found = list(selftest.run())

    def untraced_run(name):
        t0 = time.perf_counter()
        manifest = experiment.run(config, outdir=out / name)
        return manifest, time.perf_counter() - t0

    # one untraced run before and one after the traced run, so that the
    # first run's lazy initialisation is on neither side of the comparison
    untraced, before_s = untraced_run("before")

    tracer = Tracer()
    instrument.install(tracer)
    single = dataclasses.replace(config, workers=1)
    try:
        with tracer.span("experiment.run") as run_span:
            manifest = experiment.run(single, outdir=out / "traced")
        with tracer.span("experiment.verify") as verify_span:
            verdict = experiment.verify(
                out / "traced" / config.name / "manifest.json", quiet=True)
    finally:
        tracer.restore()
    left = tracer.unrestored()
    found.append(("every wrapped function restored", not left,
                  ", ".join(left)))
    found += _verify_checks(verdict)
    found += _reference_checks(manifest, workload, seed)
    found.append((f"tables equal at workers={config.workers} and traced "
                  "workers=1",
                  [e["sha256"] for e in untraced.tables]
                  == [e["sha256"] for e in manifest.tables], ""))
    _, after_s = untraced_run("after")

    metrics = instrument.layer_metrics(
        tracer, run_span.duration, verify_span.duration,
        (before_s + after_s) / 2.0,
        _tree_bytes(out / "traced" / config.name))
    return {
        "metrics": metrics,
        "baseline": instrument.baseline_rows(tracer),
        "checks": found,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("measure", "trace"))
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("outdir", type=Path)
    ap.add_argument("launched", type=float)
    ap.add_argument("--workers", type=int)
    args = ap.parse_args(argv)

    import randpoly
    if Path(randpoly.__file__).resolve().parent != SRC / "randpoly":
        print(f"child: imported randpoly from {randpoly.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 3
    from randpoly.config import ExperimentConfig
    from randpoly.stats import run_replications

    import workloads

    config = ExperimentConfig.from_dict(
        workloads.config(args.workload, args.seed, args.workers))
    # one warm-up replication at the first intensity, outside the timed run
    run_replications(dataclasses.replace(
        config, t_grid=config.t_grid[:1], n_reps=(1,), workers=1,
        malliavin=None))
    setup_s = time.monotonic() - args.launched

    if args.mode == "measure":
        result = measure(config, args.outdir, args.workload, args.seed,
                         setup_s)
    else:
        result = trace(config, args.outdir, args.workload, args.seed)
    result["setup_s"] = setup_s
    result["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
