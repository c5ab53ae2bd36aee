"""Experiment orchestration: seeded runs, manifests, verification, presets.

``run`` turns a declarative config into replication tables (CSV plus JSON
sidecar), per-intensity summaries, variance rate fits, plot-data files,
and an optional difference-operator bound report, all tied together by a
manifest.  ``verify`` re-derives every summary from the persisted tables,
compares against the stored reports (catching post-hoc edits via
checksums), and evaluates the acceptance assertions bundled with presets.
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bodies import body_from_spec
from .config import ConfigError, ExperimentConfig
from .functionals import column_values
from .malliavin import (
    GammaEstimate,
    TauEstimate,
    VectorFunctional,
    estimate_gammas,
    estimate_taus,
)
from .rng import shared_pool, stream
from .stats import (
    CSV_FLOAT_FORMAT,
    ReplicationTable,
    covariance_matrix,
    is_constant,
    rate_fit,
    run_replications,
    variance_identity_check,
    w1_bootstrap_se,
)

__all__ = ["RunManifest", "run", "verify", "PRESETS", "preset_config"]

OUTDIR_ENV = "RANDPOLY_OUTDIR"

# stage key separating the bound-estimation stream from replication streams
MALLIAVIN_STAGE = 1_000_003
BOOTSTRAP_STAGE = 1_000_019


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _config_hash(config: ExperimentConfig) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass
class RunManifest:
    config: dict
    config_hash: str
    version: str
    status: str
    wall_seconds: float
    seeds: dict
    tables: list[dict]
    reports: dict
    preset: str | None = None
    error: str | None = None

    def _with_paths(self, fn) -> "RunManifest":
        """A copy whose table, report and plot paths are ``fn`` of these."""
        reports = {k: fn(v) if isinstance(v, str) else [fn(p) for p in v]
                   for k, v in self.reports.items()}
        return replace(self, reports=reports, tables=[
            {**e, "csv": fn(e["csv"])} for e in self.tables])

    @staticmethod
    def from_file(path: str | Path) -> "RunManifest":
        """The manifest stored at ``path``, its paths (stored relative to
        the file's directory) made absolute; ValueError naming the file
        unless it holds a JSON object with exactly the manifest's fields,
        and each ``tables`` entry an object with the keys run writes."""
        try:
            d = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from exc
        want = {f.name for f in fields(RunManifest)}
        table_keys = {"csv", "sha256"}
        tables = d.get("tables") if isinstance(d, dict) else None
        if not isinstance(tables, list) or set(d) != want or not all(
                isinstance(t, dict) and set(t) == table_keys for t in tables):
            raise ValueError(
                f"{path}: not a run manifest (a JSON object with the keys "
                f"{', '.join(sorted(want))}, and tables entries with the "
                f"keys {', '.join(sorted(table_keys))})")
        base = os.path.dirname(os.path.realpath(path))
        return RunManifest(**d)._with_paths(lambda p: os.path.join(base, p))

    def write(self, path: str | Path) -> None:
        """Store the manifest at ``path``, its paths relative to the file's
        directory: the run directory reads from anywhere, moved or not."""
        base = os.path.dirname(os.path.realpath(path))
        d = asdict(self._with_paths(lambda p: os.path.relpath(p, base)))
        Path(path).write_text(json.dumps(d, indent=2, sort_keys=True) + "\n")


def _resolve_outdir(config: ExperimentConfig, outdir) -> Path:
    if outdir is None:
        outdir = config.outputs or os.environ.get(OUTDIR_ENV, "runs")
    out = (Path(outdir) / config.name).resolve()
    out.mkdir(parents=True, exist_ok=True)
    (out / "plots").mkdir(exist_ok=True)
    return out


def _variance_se(x: np.ndarray):
    # standard error of the sample variance from the fourth central moment,
    # of one column or of each row of an (m, n) array
    n = x.shape[-1]
    c = x - x.mean(axis=-1, keepdims=True)
    m2 = (c**2).mean(axis=-1)
    m4 = (c**4).mean(axis=-1)
    inner = m4 - m2 * m2 * (n - 3.0) / (n - 1.0)
    return np.sqrt(np.maximum(inner, 0.0) / n)


def _summarize_table(table: ReplicationTable, seed: int) -> dict:
    """Per-intensity report: moments, W1 distances, correlation structure.
    Each statistic comes from one row-wise call on the (columns ×
    replications) array, and rounds as the 1-D call on each column would."""
    names = [n for n in table.names if n != "n_points"]
    rows = table.matrix(names).T.copy()
    vary = ~is_constant(rows)
    var = np.where(vary, rows.var(axis=1, ddof=1), 0.0)
    varying = [n for n, v in zip(names, vary) if v]
    out = {
        "t": table.t,
        "n_reps": table.n_reps,
        "means": dict(zip(names, rows.mean(axis=1).tolist())),
        "variances": dict(zip(names, var.tolist())),
        "variance_se": dict(zip(varying, _variance_se(rows[vary]).tolist())),
        "constant_columns": [n for n, v in zip(names, vary) if not v],
    }
    if varying:
        ss = covariance_matrix(table, varying)
        rng = stream(seed, BOOTSTRAP_STAGE, table.t_index)
        z = np.array([ss.standardized[n] for n in varying])
        out["w1_to_normal"] = ss.w1_to_normal
        out["w1_se"] = dict(zip(varying, w1_bootstrap_se(z, rng).tolist()))
        out["correlation_columns"] = list(ss.columns)
        out["correlation"] = ss.covariance.tolist()
        out["correlation_ci"] = _correlation_bootstrap_ci(
            table.matrix(varying), ss.columns, rng
        )
        out["rank_estimate"] = ss.rank_estimate
        out["eigenvalues"] = ss.eigenvalues.tolist()
    return out


# a bootstrap gathers at most this many resampled values at a time
_BOOT_BLOCK = 1 << 20


def _resample_correlations(res: np.ndarray, rows, cols) -> np.ndarray:
    """Entries (rows, cols) of ``np.corrcoef(r, rowvar=False)`` for each
    resample r of the stack ``res`` (b, n, m), overwriting ``res``; NaN
    where a column is constant in r.  The steps are ``np.corrcoef``'s
    (centre, one gemm per resample, scale, divide by the deviations,
    clip), so each value rounds as ``np.corrcoef`` rounds it."""
    const = is_constant(res, axis=1)
    res -= res.mean(axis=1, keepdims=True)
    cov = res.transpose(0, 2, 1) @ res
    cov *= np.true_divide(1, res.shape[1] - 1)
    sd = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
    with np.errstate(invalid="ignore"):
        cov /= sd[:, :, None]
        cov /= sd[:, None, :]
    corr = np.clip(cov, -1, 1, out=cov)[:, rows, cols]
    corr[const[:, rows] | const[:, cols]] = math.nan
    return corr


def _percentiles(x: np.ndarray, q) -> np.ndarray:
    """``np.percentile`` of each column's non-NaN values of a 2-D array,
    bit for bit, from one sort (NaN where a column has none): numpy's
    'linear' rule on a column's k values, virtual index (k - 1) q between
    neighbours a <= b, value a + (b - a) g, or b - (b - a)(1 - g) when the
    fraction g is at least 1/2."""
    # one row per column, NaNs last: numpy sorts and reduces contiguous
    # rows faster than the columns of an (n, m) array
    x = np.sort(x.T, axis=1)
    k = x.shape[1] - np.isnan(x).sum(axis=1)
    v = (k - 1) * (np.asarray(q) / 100)[:, None]
    lo = np.floor(v)
    # numpy takes the last value where v >= k - 1, with g = v + 1
    g = v - np.where(v >= k - 1, -1.0, lo)
    lo = np.minimum(lo, k - 1).astype(np.intp)
    rows = np.arange(len(x))
    a, b = x[rows, lo], x[rows, np.minimum(lo + 1, k - 1)]
    return np.where(g >= 0.5, b - (b - a) * (1 - g), a + (b - a) * g)


def _correlation_bootstrap_ci(mat: np.ndarray, names, rng,
                              n_boot: int = 200) -> dict:
    """Central 95% bootstrap intervals for each correlation entry.

    The limiting correlations are unknown, so reports carry trajectories
    with uncertainty bands instead of asserting limits.  A column constant
    in a resample has no correlation there and is dropped like NaN.
    """
    n, m = mat.shape
    rows, cols = np.triu_indices(m, 1)
    draws = rng.integers(0, n, size=(n_boot, n))
    samples = np.empty((n_boot, len(rows)))
    step = max(1, _BOOT_BLOCK // (n * m))
    for b in range(0, n_boot, step):  # a block's gather dies with the call
        samples[b:b + step] = _resample_correlations(
            mat[draws[b:b + step]], rows, cols)
    ci = _percentiles(samples, (2.5, 97.5))
    return {f"{names[i]}.{names[j]}": [float(lo), float(hi)]
            for i, j, lo, hi in zip(rows, cols, *ci)}


def _write_plot_data(outdir: Path, summaries: list[dict]) -> list[str]:
    """Plot-ready CSVs (x, y, yerr columns); no rendering dependency.

    Each file is one {column: value} dict per intensity; its header lists
    the columns in order of first appearance, and NaN fills in where an
    intensity lacks one (the varying columns may differ by intensity).
    """
    cols = sorted({c for s in summaries for c in s["variances"]})

    def with_se(s: dict, name: str, key: str, se_key: str) -> dict:
        return {"t": s["t"]} | {
            f"{c}.{end}": s.get(part, {}).get(c, math.nan)
            for c in cols for end, part in ((name, key), ("se", se_key))}

    def correlations(s: dict) -> dict:
        names, corr = s["correlation_columns"], s["correlation"]
        ci = s.get("correlation_ci", {})
        return {"t": s["t"]} | {
            f"corr.{a}.{b}{end}": x
            for i, a in enumerate(names) for j, b in enumerate(names) if i < j
            for end, x in zip(("", ".lo", ".hi"), [
                corr[i][j], *ci.get(f"{a}.{b}", [math.nan, math.nan])])}

    with_corr = [s for s in summaries if "correlation" in s]
    files = {
        "variance_vs_t.csv": [with_se(s, "var", "variances", "variance_se")
                              for s in summaries],
        "w1_vs_t.csv": [with_se(s, "w1", "w1_to_normal", "w1_se")
                        for s in summaries],
    }
    if with_corr:
        files["correlation_vs_t.csv"] = [correlations(s) for s in with_corr]
        files["eigenvalues_vs_t.csv"] = [
            {"t": s["t"]} | {f"eig_{i + 1}": e
                             for i, e in enumerate(s["eigenvalues"])}
            for s in with_corr]
    written = []
    for name, rows in files.items():
        header = list(dict.fromkeys(c for row in rows for c in row))
        p = outdir / "plots" / name
        np.savetxt(p, [[row.get(c, math.nan) for c in header] for row in rows],
                   fmt=CSV_FLOAT_FORMAT, delimiter=",",
                   header=",".join(header), comments="")
        written.append(str(p))
    return written


def _malliavin_report(config: ExperimentConfig, table: ReplicationTable,
                      workers: int | None = None) -> dict:
    """Estimate the error terms at the configured intensity using plug-in
    moments from the replication table.  The outer loop runs on
    ``workers`` processes (default: the config's); the report does not
    depend on that count."""
    ms = config.malliavin
    body = body_from_spec(config.body)
    rng = stream(config.seed, MALLIAVIN_STAGE, table.t_index)
    labels, columns = config.malliavin_functional()
    values = functools.partial(column_values, columns, ms.t)
    workers = config.worker_count(workers)
    if ms.multivariate:
        scales = np.array([table.column(l).std(ddof=1) for l in labels])
        vf = VectorFunctional(fn=values, labels=labels, scales=scales)
        est = estimate_gammas(body, ms.t, vf, ms.n_outer, ms.n_inner, rng,
                              sampling=ms.sampling, shell_c=ms.c,
                              workers=workers)
    else:
        est = estimate_taus(body, ms.t, values,
                            float(table.column(labels[0]).var(ddof=1)),
                            ms.n_outer, ms.n_inner, rng,
                            sampling=ms.sampling, shell_c=ms.c,
                            workers=workers)
    return _error_term_block(config, table, est)


def _error_term_block(config: ExperimentConfig, table: ReplicationTable,
                      est) -> dict:
    """The report's ``malliavin_stein`` block for an estimate of the error
    terms (a GammaEstimate when the config's ``malliavin`` block is
    multivariate, else a TauEstimate) of the functional on ``table``."""
    ms = config.malliavin
    name = "gamma" if ms.multivariate else "tau"
    block = {"n_outer": ms.n_outer, "n_inner": ms.n_inner, "t": ms.t,
             "sampling": ms.sampling, "bound": est.bound(),
             **{f"{name}{i}": getattr(est, f"{name}{i}") for i in (1, 2, 3)},
             "se": {f"{name}{i}": getattr(est, f"se{i}") for i in (1, 2, 3)}}
    if ms.multivariate:
        return block | {"kind": "multivariate", "labels": list(est.labels)}
    label, = config.malliavin_functional()[0]
    return block | {
        "kind": "univariate",
        "functional": label,
        "bound_se": est.bound_standard_error(),
        "variance_estimate": float(table.column(label).var(ddof=1)),
    }


def _derive_report(config: ExperimentConfig,
                   tables: list[ReplicationTable]) -> dict:
    """Everything in the report that follows from the tables alone:
    per-intensity summaries, variance rate fits over grids of three or
    more intensities, and the oracle variance ratio when the tables carry
    the oracle and top intrinsic volume columns."""
    summaries = [_summarize_table(tb, config.seed) for tb in tables]
    report: dict = {"summaries": summaries}
    if len(config.t_grid) >= 3:
        rates = {}
        cols = sorted({c for s in summaries for c in s["variances"]})
        for c in cols:
            pairs = [(s["t"], s["variances"][c]) for s in summaries
                     if s["variances"].get(c, 0.0) > 0.0]
            if len(pairs) >= 3:
                fit = rate_fit(pairs)
                rates[c] = {
                    "slope": fit.slope, "intercept": fit.intercept,
                    "r_squared": fit.r_squared, "t_grid": list(fit.t_grid),
                }
        report["rate_fits"] = rates
    d = body_from_spec(config.body).dim
    if "oracle" in tables[0].names and f"V_{d}" in tables[0].names:
        report["oracle_variance_ratio"] = {
            str(tb.t): variance_identity_check(tb) for tb in tables
        }
    return report


def _load_config(config) -> tuple[ExperimentConfig, str | None]:
    """The config that ``config`` names, and its preset name (None if it is
    no preset): ``config`` may be an ExperimentConfig, a dict, a path to a
    JSON file, or a preset name."""
    if isinstance(config, (str, Path)) and str(config) in PRESETS:
        return preset_config(str(config)), str(config)
    if isinstance(config, (str, Path)):
        return ExperimentConfig.from_file(config), None
    if isinstance(config, dict):
        return ExperimentConfig.from_dict(config), None
    return config, None


def run(config, outdir=None, workers: int | None = None) -> RunManifest:
    """Execute a config end to end; returns the manifest (also persisted).

    ``config`` is anything :func:`_load_config` takes.  With ``workers``
    (default: the config's) above 1, one process pool serves the whole
    run, every intensity's replications and the error-term estimate, and
    it is shut down before ``run`` returns or raises.
    """
    config, preset = _load_config(config)
    workers = config.worker_count(workers)
    out = _resolve_outdir(config, outdir)
    started = time.perf_counter()
    seeds = {
        "base": config.seed,
        "replication_stage_key": "(seed, t_index, rep_index)",
        "malliavin_stage_key": f"(seed, {MALLIAVIN_STAGE}, t_index)",
        "bootstrap_stage_key": f"(seed, {BOOTSTRAP_STAGE}, t_index)",
    }
    manifest = RunManifest(
        config=config.to_dict(), config_hash=_config_hash(config),
        version=__version__, status="running", wall_seconds=0.0,
        seeds=seeds, tables=[], reports={}, preset=preset,
    )
    manifest_path = out / "manifest.json"
    try:
        with shared_pool(workers):
            tables = []
            for ti in range(len(config.t_grid)):
                table = run_replications(config, ti, workers=workers)
                csv_path = out / f"table_t{ti}.csv"
                table.write_csv(csv_path)
                manifest.tables.append(
                    {"csv": str(csv_path), "sha256": _sha256(csv_path)})
                tables.append(table)

            report = _derive_report(config, tables)
            if config.malliavin is not None:
                ti = list(config.t_grid).index(config.malliavin.t)
                report["malliavin_stein"] = _malliavin_report(
                    config, tables[ti], workers)

        report_path = out / "report.json"
        report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        plot_files = _write_plot_data(out, report["summaries"])
        manifest.reports = {"report": str(report_path), "plots": plot_files}
        manifest.status = "completed"
    except Exception as exc:
        manifest.status = "failed"
        manifest.error = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        manifest.wall_seconds = time.perf_counter() - started
        manifest.write(manifest_path)
    return manifest


# ---------------------------------------------------------------------------
# verification


def _deep_compare(a, b, path="") -> list[str]:
    diffs = []
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                diffs.append(f"{path}.{k}: missing on one side")
            else:
                diffs += _deep_compare(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs.append(f"{path}: length {len(a)} != {len(b)}")
        else:
            for i, (x, y) in enumerate(zip(a, b)):
                diffs += _deep_compare(x, y, f"{path}[{i}]")
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if not (math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-300)
                or math.isnan(a) and math.isnan(b)):
            diffs.append(f"{path}: {a} != {b}")
    elif a != b:
        diffs.append(f"{path}: {a!r} != {b!r}")
    return diffs


def _error_term_diffs(config: ExperimentConfig,
                      tables: list[ReplicationTable], block) -> list[str]:
    """Differences between the stored error-term block and the block that
    its own terms give (settings from the config, the bound, and a tau
    report's variance estimate from the table).  The terms and standard
    errors must be finite and >= 0; re-deriving them would cost a new
    estimate, so they are not checked further."""
    ms = config.malliavin
    table = tables[list(config.t_grid).index(ms.t)]
    labels, _ = config.malliavin_functional()
    name = "gamma" if ms.multivariate else "tau"
    keys = [f"{name}{i}" for i in (1, 2, 3)]
    try:
        terms = [block[k] for k in keys] + [block["se"][k] for k in keys]
        est = (GammaEstimate(*terms, labels=tuple(labels))
               if ms.multivariate else TauEstimate(*terms))
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malliavin_stein: no valid {name} terms "
                f"({type(exc).__name__}: {exc})"]
    return _deep_compare(block, _error_term_block(config, table, est),
                         "malliavin_stein")


def verify(manifest_path, quiet: bool = False) -> dict:
    """Re-derive all summaries from the stored tables and evaluate preset
    assertions; returns a report with per-check pass/fail entries."""
    manifest_path = Path(manifest_path)
    manifest = RunManifest.from_file(manifest_path)
    config = ExperimentConfig.from_dict(manifest.config)
    checks: list[dict] = []

    def check(name, passed, detail=""):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})
        if not quiet:
            print(f"[{'PASS' if passed else 'FAIL'}] {name}"
                  + (f"  ({detail})" if detail else ""))

    tables, matched = [], 0
    for ti, entry in enumerate(manifest.tables):
        p = Path(entry["csv"])
        if not p.exists():
            check(f"table {p.name} exists", False)
            continue
        digest = _sha256(p)
        check(f"checksum {p.name}", digest == entry["sha256"],
              f"{digest[:12]} vs {entry['sha256'][:12]}")
        try:
            table = ReplicationTable.read_csv(p)
        except (OSError, ValueError, KeyError) as exc:
            check(f"table {p.name} readable", False, str(exc))
            continue
        tables.append(table)
        # entry i is t_index i: its sidecar (beside the CSV) must hold the
        # t, t_index, body, n_reps and seed that run_replications gives it
        want = ((config.t_grid[ti], ti, config.body, config.n_reps[ti],
                 config.seed) if ti < len(config.t_grid) else None)
        got = (table.t, table.t_index, table.body, table.n_reps, table.seed)
        matched += got == want
        check(f"table {p.name} sidecar matches the config", got == want,
              "" if got == want else f"sidecar {got}, config {want}")

    n = len(config.t_grid)
    check("one table per intensity", len(manifest.tables) == n,
          f"{len(manifest.tables)} tables, {n} intensities")
    report_path = manifest.reports.get("report")
    stored = {}
    if not report_path or not Path(report_path).exists():
        check("report exists", False, report_path or "not in the manifest")
    elif len(manifest.tables) == n == matched:
        stored = json.loads(Path(report_path).read_text())
        diffs = []
        for key, value in _derive_report(config, tables).items():
            # JSON floats round-trip exactly, so only a key that differs
            # (or holds a NaN) needs the tolerant walk
            if key not in stored:
                diffs.append(f"{key}: missing from the stored report")
            elif stored[key] != value:
                diffs += _deep_compare(stored[key], value, key)
        check("report reproducible from tables", not diffs,
              "; ".join(diffs[:3]))
        if config.malliavin is not None:
            diffs = _error_term_diffs(config, tables,
                                      stored.get("malliavin_stein"))
            check("error-term report consistent", not diffs,
                  "; ".join(diffs[:3]))

    if manifest.preset and manifest.preset in PRESETS:
        assertions = PRESETS[manifest.preset].get("assertions", [])
        for a in assertions:
            name, passed, detail = _evaluate_assertion(a, stored)
            check(name, passed, detail)

    ok = all(c["passed"] for c in checks)
    result = {"ok": ok, "checks": checks, "manifest": str(manifest_path)}
    if not quiet:
        print(f"verify: {'all checks passed' if ok else 'FAILURES present'}")
    return result


def _evaluate_assertion(a: dict, report: dict):
    """(name, passed, detail) of one preset assertion on a stored report;
    data the assertion needs and the report lacks fails it."""
    kind = a["kind"]
    summaries = report.get("summaries", [])

    def summary_at(t):
        for s in summaries:
            if s["t"] == t:
                return s
        raise KeyError(f"no summary at t={t}")

    try:
        if kind == "slope_range":
            fit = report["rate_fits"][a["column"]]
            ok = a["lo"] <= fit["slope"] <= a["hi"]
            return (f"slope[{a['column']}] in [{a['lo']:.3g}, {a['hi']:.3g}]",
                    ok, f"slope={fit['slope']:.4f}")
        if kind == "mean_close":
            s = summary_at(a["t"])
            mean = s["means"][a["column"]]
            se = math.sqrt(s["variances"][a["column"]] / s["n_reps"])
            tol = a.get("se_mult", 4) * se
            ok = abs(mean - a["target"]) <= tol
            return (f"mean[{a['column']}] at t={a['t']} near {a['target']:.6g}",
                    ok, f"|{mean:.6g} - {a['target']:.6g}| vs {tol:.2g}")
        if kind == "w1_max":
            s = summary_at(a["t"])
            w1 = s["w1_to_normal"][a["column"]]
            return (f"w1[{a['column']}] at t={a['t']} <= {a['max']}",
                    w1 <= a["max"], f"w1={w1:.4f}")
        if kind == "w1_decreasing":
            first = summaries[0]["w1_to_normal"][a["column"]]
            last = summaries[-1]["w1_to_normal"][a["column"]]
            return (f"w1[{a['column']}] decreases over the grid",
                    last < first, f"{first:.4f} -> {last:.4f}")
        if kind == "ratio_range":
            val = report["oracle_variance_ratio"][str(float(a["t"]))]
            ok = a["lo"] <= val <= a["hi"]
            return ("oracle variance ratio in "
                    f"[{a['lo']}, {a['hi']}]", ok, f"ratio={val:.4f}")
        if kind == "rank_max":
            s = summary_at(a["t"])
            ok = s["rank_estimate"] <= a["max"]
            return (f"correlation rank at t={a['t']} <= {a['max']}",
                    ok, f"rank={s['rank_estimate']}")
        if kind == "corr_min":
            s = summary_at(a["t"])
            names = s["correlation_columns"]
            corr = np.asarray(s["correlation"])
            sel = [names.index(c) for c in a["columns"]]
            worst = min(corr[i][j] for i in sel for j in sel if i < j)
            ok = worst >= a["min"]
            return (f"pairwise correlations of {a['columns']} >= {a['min']}",
                    ok, f"min={worst:.4f}")
        if kind == "bound_dominates_w1":
            ms = report["malliavin_stein"]
            s = summary_at(ms["t"])
            w1 = s["w1_to_normal"][a["column"]]
            se = math.sqrt(ms.get("bound_se", 0.0) ** 2
                           + s["w1_se"][a["column"]] ** 2)
            ok = ms["bound"] - w1 >= -4.0 * se
            return ("difference-operator bound dominates empirical w1",
                    ok, f"bound={ms['bound']:.3g}, w1={w1:.4f}")
    # (ValueError: a corr_min column that is not a correlation column)
    except (KeyError, IndexError, ValueError) as exc:
        return (f"assertion {kind}", False, f"missing data: {exc}")
    return (f"assertion {kind}", False, "unknown assertion kind")


# ---------------------------------------------------------------------------
# presets


def _ball(d):
    return {"kind": "ball", "dim": d, "radius": 1.0}


PRESETS: dict[str, dict] = {
    "smoke": {
        "description": "tiny end-to-end run (seconds)",
        "config": {
            "name": "smoke",
            "body": _ball(2),
            "t_grid": [50.0, 100.0, 200.0],
            "n_reps": 200,
            "functionals": [{"type": "multivariate"}, {"type": "oracle"},
                            {"type": "wills"}],
            "seed": 1,
        },
        "assertions": [
            {"kind": "mean_close", "column": "oracle", "t": 200.0,
             "target": math.pi, "se_mult": 4},
        ],
    },
    "theorem1": {
        "description": "variance scaling of V_1, V_2, f_0 in the plane",
        "config": {
            "name": "theorem1",
            "body": _ball(2),
            "t_grid": [250.0, 500.0, 1000.0, 2000.0, 4000.0],
            "n_reps": 2000,
            "functionals": [{"type": "multivariate"}],
            "seed": 20,
        },
        "assertions": [
            {"kind": "slope_range", "column": "V_2",
             "lo": -5.0 / 3 - 0.15, "hi": -5.0 / 3 + 0.15},
            {"kind": "slope_range", "column": "V_1",
             "lo": -5.0 / 3 - 0.15, "hi": -5.0 / 3 + 0.15},
            {"kind": "slope_range", "column": "f_0",
             "lo": 1.0 / 3 - 0.15, "hi": 1.0 / 3 + 0.15},
        ],
    },
    "theorem1_d3": {
        "description": "variance scaling of V_3 and f_0 in space",
        "config": {
            "name": "theorem1_d3",
            "body": _ball(3),
            "t_grid": [250.0, 500.0, 1000.0, 2000.0],
            "n_reps": 500,
            "functionals": [{"type": "multivariate"}],
            "seed": 21,
        },
        "assertions": [
            {"kind": "slope_range", "column": "V_3",
             "lo": -1.5 - 0.2, "hi": -1.5 + 0.2},
            {"kind": "slope_range", "column": "f_0",
             "lo": 0.5 - 0.2, "hi": 0.5 + 0.2},
        ],
    },
    "oracle": {
        "description": "unbiasedness and the exact variance identity",
        "config": {
            "name": "oracle",
            "body": _ball(2),
            "t_grid": [1000.0],
            "n_reps": 5000,
            "functionals": [{"type": "multivariate"}, {"type": "oracle"}],
            "seed": 22,
        },
        "assertions": [
            {"kind": "mean_close", "column": "oracle", "t": 1000.0,
             "target": math.pi, "se_mult": 4},
            {"kind": "ratio_range", "t": 1000.0, "lo": 0.9, "hi": 1.1},
            {"kind": "corr_min", "t": 1000.0, "columns": ["V_1", "V_2"],
             "min": -0.05},
            {"kind": "rank_max", "t": 1000.0, "max": 3},
        ],
    },
    "clt_trend": {
        "description": "Wasserstein distance of the standardized area",
        "config": {
            "name": "clt_trend",
            "body": _ball(2),
            "t_grid": [250.0, 4000.0],
            "n_reps": 5000,
            "functionals": [{"type": "intrinsic", "j": 2}],
            "seed": 23,
        },
        "assertions": [
            {"kind": "w1_decreasing", "column": "V_2"},
            {"kind": "w1_max", "column": "V_2", "t": 4000.0, "max": 0.05},
        ],
    },
    "bound": {
        "description": "difference-operator bound against the empirical w1",
        "config": {
            "name": "bound",
            "body": _ball(2),
            "t_grid": [500.0],
            "n_reps": 5000,
            "functionals": [{"type": "multivariate"}],
            "seed": 24,
            "malliavin": {"t": 500.0, "functional": "V_2", "n_outer": 2000,
                          "n_inner": 8, "sampling": "boundary_shell",
                          "c": 2.0},
        },
        "assertions": [
            {"kind": "bound_dominates_w1", "column": "V_2"},
        ],
    },
}


def preset_config(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError("preset", f"unknown preset {name!r}; "
                                    f"known: {', '.join(sorted(PRESETS))}")
    return ExperimentConfig.from_dict(PRESETS[name]["config"])
