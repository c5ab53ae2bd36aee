"""Replication tables and the statistics that verify the limit theorems.

A replication table holds one column per functional and one row per
independent draw of the point process at a fixed intensity.  Each row's
generator stream is keyed by (seed, t-index, rep-index), never by
scheduling order, so tables are bit-identical for any worker count.
Each row counts its hull's faces once with :func:`~randpoly.hull.f_vector`,
which checks the counts itself; the row adds only that the hull has no
more vertices than the sample has points.

On top of the tables: moments, correlation matrices with numeric rank,
the quantile-coupling estimate of the Wasserstein-1 distance to the
standard normal, log-log rate fits for variance scaling, the exact
variance identity of the vertex-corrected volume estimator, floating-body
containment frequencies, and Mardia's multivariate normality proxy.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import special

from .bodies import (
    Ball,
    body_from_spec,
    floating_radius,
    sample_poisson_process,
)
from .config import ExperimentConfig
from .functionals import build_evaluators
from .hull import (
    convex_hull,
    f_vector,
    floating_core,
    outer_hull,
    prefiltered_hull,
)
from .rng import map_blocks, stream, substream

__all__ = [
    "ReplicationTable",
    "SummaryStats",
    "RateFit",
    "MardiaResult",
    "run_replications",
    "standardize",
    "w1_to_normal",
    "w1_bootstrap_se",
    "covariance_matrix",
    "numeric_rank",
    "rate_fit",
    "variance_identity_check",
    "sandwich_probability",
    "mardia_normality",
]

CSV_FLOAT_FORMAT = "%.17g"
RANK_TOL = 1e-8  # numeric_rank's cut, as a fraction of the largest eigenvalue


@dataclass
class ReplicationTable:
    t: float
    t_index: int
    body: dict
    n_reps: int
    seed: int
    columns: dict[str, np.ndarray]

    def __post_init__(self):
        lengths = {len(v) for v in self.columns.values()}
        if lengths and lengths != {self.n_reps}:
            raise ValueError("all columns must have length n_reps")
        for name, v in self.columns.items():
            if not np.all(np.isfinite(v)):
                raise ValueError(f"column {name!r} has non-finite entries")

    @property
    def names(self) -> list[str]:
        return list(self.columns)

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise KeyError(
                f"no column {name!r}; available: {', '.join(self.columns)}"
            )
        return self.columns[name]

    def matrix(self, names: list[str]) -> np.ndarray:
        return np.column_stack([self.column(n) for n in names])

    # -- persistence ----------------------------------------------------

    def write_csv(self, path: str | Path) -> Path:
        """CSV with header row; floats printed with 17 significant digits
        so values round-trip exactly and reruns are byte-identical."""
        path = Path(path)
        names = self.names
        np.savetxt(path, self.matrix(names), fmt=CSV_FLOAT_FORMAT,
                   delimiter=",", header=",".join(names), comments="")
        meta = {
            "t": self.t,
            "t_index": self.t_index,
            "body": self.body,
            "n_reps": self.n_reps,
            "seed": self.seed,
            "columns": names,
        }
        sidecar = path.with_suffix(".meta.json")
        sidecar.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        return path

    @staticmethod
    def read_csv(path: str | Path) -> "ReplicationTable":
        """The table of :meth:`write_csv`; ValueError where the CSV has no
        data rows or their width is not the header's."""
        path = Path(path)
        meta = json.loads(path.with_suffix(".meta.json").read_text())
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            lines = fh.readlines()
        if not lines:
            raise ValueError(f"{path.name} has no data rows")
        data = np.loadtxt(lines, delimiter=",", ndmin=2)
        if data.shape[1] != len(header):
            raise ValueError(f"{path.name} has {data.shape[1]} data columns "
                             f"under {len(header)} header names")
        cols = {name: data[:, i].copy() for i, name in enumerate(header)}
        return ReplicationTable(
            t=meta["t"], t_index=meta["t_index"], body=meta["body"],
            n_reps=meta["n_reps"], seed=meta["seed"], columns=cols,
        )


# ---------------------------------------------------------------------------
# replication engine


def _block_rows(body, evaluators, core, t, t_index, seed, mode, n_dirs,
                rep_start, rep_stop) -> np.ndarray:
    out = np.empty((rep_stop - rep_start, 1 + len(evaluators)))
    for r in range(rep_start, rep_stop):
        rng = stream(seed, t_index, r)
        cloud = sample_poisson_process(body, t, rng, core)
        poly = prefiltered_hull(cloud, core, convex_hull)
        fv = f_vector(poly)
        if fv[0] > len(cloud):
            raise RuntimeError("hull has more vertices than sample points")
        ctx = {"t": t, "rng": rng, "cache": {"fvec": fv}, "mode": mode,
               "n_dirs": n_dirs}
        row = out[r - rep_start]
        row[0] = len(cloud)
        for i, (_, fn) in enumerate(evaluators):
            row[1 + i] = fn(poly, ctx)
    return out


def run_replications(config: ExperimentConfig, t_index: int = 0,
                     workers: int | None = None) -> ReplicationTable:
    """All functional values over n_reps independent processes at one
    intensity of the config's grid; deterministic per (seed, rep index).
    The body, the evaluators and the prefilter core are built here once,
    and every replication block receives them."""
    if not 0 <= t_index < len(config.t_grid):
        raise ValueError(f"t_index {t_index} outside the grid")
    t = config.t_grid[t_index]
    n_reps = config.n_reps[t_index]
    workers = config.worker_count(workers)

    body = body_from_spec(config.body)
    evaluators = build_evaluators(list(config.functionals), body.dim)
    names = ["n_points"] + [name for name, _ in evaluators]

    mat = np.vstack(map_blocks(
        _block_rows, n_reps, workers,
        (body, evaluators, floating_core(body, t), t, t_index, config.seed,
         config.mode, config.n_dirs),
    ))

    cols = {name: mat[:, i].copy() for i, name in enumerate(names)}
    return ReplicationTable(
        t=t, t_index=t_index, body=dict(config.body),
        n_reps=n_reps, seed=config.seed, columns=cols,
    )


# ---------------------------------------------------------------------------
# one-dimensional statistics


def standardize(column: np.ndarray) -> np.ndarray:
    """Center and scale to sample mean 0, sample variance 1 (ddof=1)."""
    x = np.asarray(column, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least 2 observations")
    sd = x.std(ddof=1)
    if sd == 0.0:
        raise ValueError("zero sample variance; cannot standardize")
    return (x - x.mean()) / sd


def _normal_grid_quantiles(n: int) -> np.ndarray:
    """N(0,1) quantiles at the midpoint grid (i - 1/2)/n, i = 1..n."""
    return special.ndtri((np.arange(1, n + 1) - 0.5) / n)


def _w1_rows(rows: np.ndarray) -> np.ndarray:
    """:func:`w1_to_normal` of each row of a (k, n) array."""
    return np.abs(np.sort(rows, axis=1)
                  - _normal_grid_quantiles(rows.shape[1])).mean(axis=1)


def w1_to_normal(standardized_column: np.ndarray) -> float:
    """Quantile-coupling estimate of the Wasserstein-1 distance to N(0,1):
    mean absolute gap between order statistics and normal quantiles at
    the midpoint grid (i - 1/2)/n."""
    x = np.asarray(standardized_column, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least 2 observations")
    return float(_w1_rows(x[None])[0])


def w1_bootstrap_se(standardized: np.ndarray, rng: np.random.Generator,
                    n_boot: int = 200):
    """Bootstrap standard error of the empirical W1 distance of one
    standardized column (a float), or of each row of an (m, n) stack of
    them (an array of m).

    All resamples come from one ``rng.integers`` call of shape
    (m, n_boot, n), which draws the same values and leaves the generator
    in the same state as m·n_boot calls of size n, row after row.
    """
    x = np.asarray(standardized, dtype=float)
    rows = np.atleast_2d(x)
    m, n = rows.shape
    if n < 2:
        raise ValueError("need at least 2 observations")
    draws = rng.integers(0, n, size=(m, n_boot, n))
    se = np.array([_w1_rows(row[d]).std(ddof=1)
                   for row, d in zip(rows, draws)])
    return float(se[0]) if x.ndim == 1 else se


# ---------------------------------------------------------------------------
# covariance structure


@dataclass
class SummaryStats:
    columns: tuple[str, ...]
    covariance: np.ndarray  # correlation matrix of the standardized columns
    standardized: dict[str, np.ndarray]
    w1_to_normal: dict[str, float]
    rank_estimate: int
    eigenvalues: np.ndarray


def covariance_matrix(table: ReplicationTable,
                      columns: list[str] | None = None) -> SummaryStats:
    """Sample correlation matrix of the selected columns (unit diagonal),
    with the standardized columns, their W1 distances, and the numeric
    rank (:func:`numeric_rank`)."""
    if columns is None:
        columns = [n for n in table.names if n != "n_points"]
    if table.n_reps < 2:
        raise ValueError("need at least 2 replications")
    # one (m, n) array of the columns: each row reduces along its
    # contiguous axis, so it rounds as the 1-D calls on that column do
    mat = table.matrix(columns)
    rows = mat.T.copy()
    var = rows.var(axis=1, ddof=1)
    for c, v in zip(columns, var):
        if v == 0.0:
            raise ValueError(f"column {c!r} has zero variance")
    z = (rows - rows.mean(axis=1, keepdims=True)) / np.sqrt(var)[:, None]
    corr = np.atleast_2d(np.corrcoef(mat, rowvar=False))
    rank, eig = numeric_rank(corr)
    return SummaryStats(
        columns=tuple(columns), covariance=corr,
        standardized=dict(zip(columns, z)),
        w1_to_normal=dict(zip(columns, _w1_rows(z).tolist())),
        rank_estimate=rank, eigenvalues=eig,
    )


def numeric_rank(matrix: np.ndarray):
    """Count of eigenvalues above RANK_TOL times the largest (symmetric
    input)."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(m, m.T, atol=1e-10 * max(1.0, np.abs(m).max())):
        raise ValueError("matrix must be symmetric")
    eig = np.linalg.eigvalsh(m)[::-1]
    top = eig[0]
    if top <= 0:
        return 0, eig
    return int((eig > RANK_TOL * top).sum()), eig


# ---------------------------------------------------------------------------
# scaling rates


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    t_grid: tuple[float, ...]


def rate_fit(pairs) -> RateFit:
    """Least-squares slope of log(variance) against log(t)."""
    pairs = list(pairs)
    if len(pairs) < 3:
        raise ValueError("need at least 3 grid points")
    t = np.array([p[0] for p in pairs], dtype=float)
    v = np.array([p[1] for p in pairs], dtype=float)
    if np.any(t <= 0):
        raise ValueError("intensities must be positive")
    if np.any(v <= 0):
        raise ValueError("variances must be positive for a log-log fit")
    lt, lv = np.log(t), np.log(v)
    slope, intercept = np.polyfit(lt, lv, 1)
    fitted = slope * lt + intercept
    ss_res = float(((lv - fitted) ** 2).sum())
    ss_tot = float(((lv - lv.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept),
                   r_squared=float(min(max(r2, 0.0), 1.0)),
                   t_grid=tuple(t.tolist()))


# ---------------------------------------------------------------------------
# estimator identities and containment


def variance_identity_check(table: ReplicationTable) -> float:
    """Ratio Var[estimator] / ((1/t) E[missed volume]) over the table's
    ``oracle`` and top intrinsic volume columns; near 1 when the exact
    variance identity of the vertex-corrected estimator holds."""
    est = table.column("oracle")
    body = body_from_spec(table.body)
    missed = body.volume - table.column(f"V_{body.dim}")
    denom = float(missed.mean()) / table.t
    if denom == 0.0:
        raise ValueError("mean missed volume is zero")
    return float(est.var(ddof=1)) / denom


def sandwich_probability(body: Ball, t: float, c: float, n_reps: int,
                         rng: np.random.Generator) -> float:
    """Frequency with which the floating body (cap parameter c log t / t)
    lies inside the hull: every facet plane at distance >= the floating
    radius from the center.  The hull of the points outside the floating
    body decides this alone (:func:`~randpoly.hull.outer_hull`).
    ``n_reps`` is an integer >= 1."""
    if not isinstance(n_reps, (int, np.integer)) or n_reps < 1:
        raise ValueError(f"n_reps must be an integer >= 1, not {n_reps!r}")
    rho = floating_radius(body, t, c)
    core = body.center, rho
    hits = 0
    for i in range(n_reps):
        cloud = sample_poisson_process(body, t, substream(rng, i), core)
        got = outer_hull(cloud, *core, convex_hull)
        if got is not None and got[1] >= rho:
            hits += 1
    return hits / n_reps


# ---------------------------------------------------------------------------
# multivariate normality proxy


@dataclass(frozen=True)
class MardiaResult:
    skewness_stat: float
    skewness_pvalue: float
    kurtosis_stat: float
    kurtosis_pvalue: float
    passed: bool
    n: int
    p: int
    dropped: tuple[str, ...]


def mardia_normality(table: ReplicationTable,
                     columns: list[str]) -> MardiaResult:
    """Mardia's multivariate skewness and kurtosis statistics.

    Skewness: n b1 / 6 against chi-square with p(p+1)(p+2)/6 degrees of
    freedom; kurtosis: (b2 - p(p+2)) / sqrt(8 p (p+2) / n) against N(0,1).
    ``passed`` requires both p-values above 0.01.  Columns that make the
    covariance singular (exact linear dependencies, e.g. duplicated face
    counts in the plane) are dropped from the end until full rank.
    """
    x = table.matrix(columns)
    names = list(columns)
    n = x.shape[0]

    dropped: list[str] = []
    while True:
        xc = x - x.mean(axis=0)
        cov = xc.T @ xc / n
        evals, evecs = np.linalg.eigh(cov)
        if evals.min() > 1e-12 * max(evals.max(), 1e-300):
            break
        if x.shape[1] == 1:
            raise ValueError("covariance is singular even for one column")
        dropped.append(names.pop())
        x = x[:, :-1]
    p = x.shape[1]
    if n < 20 * p:
        raise ValueError(f"need at least {20 * p} replications for p={p}")

    whitener = evecs / np.sqrt(evals) @ evecs.T
    y = xc @ whitener
    third = np.einsum("ia,ib,ic->abc", y, y, y) / n
    b1 = float((third**2).sum())
    b2 = float(((y**2).sum(axis=1) ** 2).mean())

    skew_stat = n * b1 / 6.0
    df = p * (p + 1) * (p + 2) / 6.0
    skew_p = float(special.chdtrc(df, skew_stat))
    kurt_stat = (b2 - p * (p + 2)) / math.sqrt(8.0 * p * (p + 2) / n)
    kurt_p = float(2.0 * special.ndtr(-abs(kurt_stat)))
    return MardiaResult(
        skewness_stat=skew_stat, skewness_pvalue=skew_p,
        kurtosis_stat=kurt_stat, kurtosis_pvalue=kurt_p,
        passed=(skew_p > 0.01 and kurt_p > 0.01),
        n=n, p=p, dropped=tuple(dropped),
    )
