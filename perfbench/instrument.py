"""Per-layer tracing of randpoly, from outside the package.

``install`` wraps each layer's public functions at the place where the
calling module looks them up (``stats.convex_hull``,
``malliavin.convex_hull``, ``hull.convex_hull`` inside
``intrinsic_volume_mc``, ``functionals.intrinsic_volumes``, ...), so the
program itself is unchanged.  ``layer_metrics`` turns the recorded spans
and counts into the benchmark's per-layer metrics.
"""
from __future__ import annotations

import functools
import math
import os
import statistics
import time

import numpy as np
from scipy.spatial import ConvexHull

from randpoly import experiment, functionals, hull, malliavin, stats
from randpoly.bodies import PointCloud

HULL = "hull.convex_hull"
SUMMARY = "stats.summary"


def install(tracer) -> None:
    for owner in (stats, malliavin):
        tracer.wrap(owner, "sample_poisson_process", "bodies.sample",
                    after=_count_points)
    for owner in (stats, malliavin, hull):
        tracer.wrap(owner, "convex_hull", HULL,
                    after=functools.partial(_qhull_floor, tracer))
    for owner in (stats, functionals, hull):
        # hull.f_vector is what experiment's malliavin report imports
        tracer.wrap(owner, "f_vector", "hull.f_vector")
    tracer.wrap(functionals, "exact_intrinsic_volumes",
                "hull.exact_intrinsic_volumes")
    tracer.wrap(functionals, "intrinsic_volume_mc", "hull.intrinsic_volume_mc")
    # looked up by the column evaluators and by experiment's malliavin report
    tracer.wrap(functionals, "intrinsic_volumes",
                "functionals.intrinsic_volumes")
    for name in ("covariance_matrix", "w1_bootstrap_se", "rate_fit",
                 "variance_identity_check"):
        tracer.wrap(experiment, name, SUMMARY)
    for owner in (stats, experiment):
        tracer.count_calls(owner, "stream", "rng.stream")
    for owner in (stats, malliavin):
        tracer.count_calls(owner, "substream", "rng.substream")
    _wrap_evaluators(tracer)
    _wrap_replications(tracer)
    _wrap_estimate_taus(tracer)
    _wrap_table_io(tracer)


def _count_points(span, args, cloud) -> None:
    span.attrs = {"points": len(cloud)}


def _qhull_floor(tracer, span, args, poly) -> None:
    """Re-time the raw qhull call on the hull's input, off the clock."""
    cloud = args[0]
    pts = cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud)
    span.attrs = {"points": len(pts), "floor_s": 0.0}
    # qhull runs only on full-dimensional inputs of dimension >= 2; the
    # other cases never call it, so their floor is zero.
    if poly.is_full_dimensional() and poly.dim_ambient >= 2:
        with tracer.excluded():
            t0 = time.perf_counter()
            ConvexHull(pts)
            span.attrs["floor_s"] = time.perf_counter() - t0


def _wrap_evaluators(tracer) -> None:
    original = stats.build_evaluators

    def traced_fn(fn):
        def evaluate(poly, ctx):
            s = tracer.begin("functionals.eval", "randpoly.stats")
            try:
                return fn(poly, ctx)
            finally:
                tracer.end(s)
        return evaluate

    def build_evaluators(specs, d):
        return [(name, traced_fn(fn)) for name, fn in original(specs, d)]

    tracer.patch(stats, "build_evaluators", build_evaluators)


def _wrap_replications(tracer) -> None:
    original = experiment.run_replications

    def run_replications(config, t_index=0, workers=None):
        tracer.tag = config.t_grid[t_index]
        try:
            with tracer.span("stats.run_replications", "randpoly.experiment"):
                table = original(config, t_index, workers)
        finally:
            tracer.tag = None
        tracer.count("stats.reps", table.n_reps)
        return table

    tracer.patch(experiment, "run_replications", run_replications)


def _wrap_estimate_taus(tracer) -> None:
    original = experiment.estimate_taus

    def estimate_taus(body, t, functional, *args, **kwargs):
        def traced_functional(poly):
            s = tracer.begin("malliavin.functional", "randpoly.experiment")
            try:
                return functional(poly)
            finally:
                tracer.end(s)

        with tracer.span("malliavin.estimate_taus", "randpoly.experiment"):
            return original(body, t, traced_functional, *args, **kwargs)

    tracer.patch(experiment, "estimate_taus", estimate_taus)


def _table_bytes(tracer, path) -> None:
    with tracer.excluded():
        csv = os.fspath(path)
        meta = os.path.splitext(csv)[0] + ".meta.json"
        tracer.count("stats.table_io.bytes",
                     os.path.getsize(csv) + os.path.getsize(meta))


def _wrap_table_io(tracer) -> None:
    table_cls = stats.ReplicationTable
    write, read = table_cls.write_csv, table_cls.read_csv

    def write_csv(self, path):
        with tracer.span("stats.table_io", "randpoly.stats"):
            out = write(self, path)
        _table_bytes(tracer, path)
        return out

    def read_csv(path):
        _table_bytes(tracer, path)
        with tracer.span("stats.table_io", "randpoly.stats"):
            return read(path)

    tracer.patch(table_cls, "write_csv", write_csv)
    tracer.patch(table_cls, "read_csv", read_csv)


# ---------------------------------------------------------------------------
# metrics


TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0)


def tail_percentile(n: int) -> float:
    """Highest percentile with at least 10 of ``n`` samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return 50.0


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    k = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def layer_metrics(tracer, run_s: float, verify_s: float,
                  untraced_run_s: float, output_bytes: int) -> dict:
    """Every per-layer metric of one traced run plus verify, by name."""
    t = tracer
    hulls = t.named(HULL)
    hull_ms = sorted(1e3 * s.duration for s in hulls)
    tail = tail_percentile(len(hull_ms))
    floor_s = sum(s.attrs["floor_s"] for s in hulls)
    m_hulls = [s for s in hulls if s.site == "randpoly.malliavin"]
    taus = t.named("malliavin.estimate_taus")
    outer = t.counts.get("rng.substream@randpoly.malliavin", 0)
    hull_busy = t.busy(HULL)
    return {
        "bodies.sample.calls": len(t.named("bodies.sample")),
        "bodies.sample.busy_s": t.busy("bodies.sample"),
        "bodies.sample.points": sum(s.attrs["points"]
                                    for s in t.named("bodies.sample")),
        "hull.convex_hull.calls": len(hulls),
        "hull.convex_hull.busy_s": hull_busy,
        "hull.convex_hull.points_in": sum(s.attrs["points"] for s in hulls),
        "hull.convex_hull.p50_ms": percentile(hull_ms, 50.0),
        "hull.convex_hull.pNN_ms": percentile(hull_ms, tail),
        "hull.convex_hull.pNN": tail,
        "hull.qhull_floor_s": floor_s,
        "hull.overhead_ratio": hull_busy / floor_s if floor_s else 0.0,
        "hull.exact_intrinsic_volumes.calls":
            len(t.named("hull.exact_intrinsic_volumes")),
        "hull.exact_intrinsic_volumes.busy_s":
            t.busy("hull.exact_intrinsic_volumes"),
        "hull.f_vector.calls": len(t.named("hull.f_vector")),
        "hull.f_vector.busy_s": t.busy("hull.f_vector"),
        "hull.intrinsic_volume_mc.calls":
            len(t.named("hull.intrinsic_volume_mc")),
        "hull.intrinsic_volume_mc.busy_s": t.busy("hull.intrinsic_volume_mc"),
        "functionals.intrinsic_volumes.calls":
            len(t.named("functionals.intrinsic_volumes")),
        "functionals.intrinsic_volumes.busy_s":
            t.busy("functionals.intrinsic_volumes"),
        "functionals.eval.busy_s": t.busy("functionals.eval"),
        "malliavin.estimate_taus.busy_s": t.busy("malliavin.estimate_taus"),
        "malliavin.outer_steps": outer,
        "malliavin.outer_step_ms":
            1e3 * sum(s.duration for s in taus) / outer if outer else 0.0,
        "malliavin.hulls.calls": len(m_hulls),
        "malliavin.hulls_per_outer_step":
            len(m_hulls) / outer if outer else 0.0,
        "malliavin.functional.calls": len(t.named("malliavin.functional")),
        "stats.run_replications.busy_s": t.busy("stats.run_replications"),
        "stats.reps": t.counts.get("stats.reps", 0),
        "stats.summary.busy_s": t.busy(SUMMARY),
        "stats.table_io.busy_s": t.busy("stats.table_io"),
        "stats.table_io.bytes": t.counts.get("stats.table_io.bytes", 0),
        "experiment.run.self_s": t.busy("experiment.run"),
        "experiment.verify.self_s": t.busy("experiment.verify"),
        "experiment.output_bytes": output_bytes,
        "rng.stream.calls": t.counts.get("rng.stream", 0),
        "rng.substream.calls": t.counts.get("rng.substream", 0),
        "trace.run_s": run_s,
        "trace.verify_s": verify_s,
        "trace.untraced_run_s": untraced_run_s,
        "trace.overhead_ratio": run_s / untraced_run_s,
    }


# ROADMAP Baseline, d=3 and t=1000 per replication, and d=2 per outer step.
BASELINE_MS = {"sample": 0.60, "raw qhull": 3.3, "convex_hull": 19.8,
               "functional columns": 29.1, "tau outer step": 15.4}


def baseline_rows(tracer, t: float = 1000.0) -> list[dict]:
    """Per-replication medians at intensity ``t`` beside the ROADMAP's
    Baseline figures, plus the tau estimator's time per outer step."""
    rows = []
    samples, hulls, columns = [], [], []
    for s in tracer.spans:
        if s.tag != t or s.site != "randpoly.stats":
            continue
        if s.name == "bodies.sample":
            samples.append(s)
            columns.append(0.0)
        elif s.name == HULL:
            hulls.append(s)
        elif s.name == "functionals.eval" and columns:
            columns[-1] += s.duration
    if samples:
        med = lambda xs: 1e3 * statistics.median(xs)
        rows += [
            ("sample", med([s.duration for s in samples])),
            ("raw qhull", med([s.attrs["floor_s"] for s in hulls])),
            ("convex_hull", med([s.duration for s in hulls])),
            ("functional columns", med(columns)),
        ]
    taus = tracer.named("malliavin.estimate_taus")
    outer = tracer.counts.get("rng.substream@randpoly.malliavin", 0)
    if taus and outer:
        rows.append(("tau outer step",
                     1e3 * sum(s.duration for s in taus) / outer))
    return [{"what": what, "harness_ms": ms, "roadmap_ms": BASELINE_MS[what]}
            for what, ms in rows]
