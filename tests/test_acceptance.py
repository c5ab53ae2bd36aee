"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Heavy replication
tables are shared across criteria through session fixtures; every stream
is seeded, so the whole suite is deterministic.
"""
import math

import numpy as np
import pytest

from randpoly.bodies import Ball, sample_poisson_process
from randpoly.config import ExperimentConfig
from randpoly.experiment import preset_config
from randpoly.functionals import intrinsic_volumes, wills
from randpoly.hull import (
    brute_force_facets,
    convex_hull,
    f_vector,
    hull_facets_as_source_sets,
    intrinsic_volume_mc,
    volume,
)
from randpoly.malliavin import (
    estimate_taus,
    make_disjoint_visibility_config,
    second_difference,
)
from randpoly.rng import stream
from randpoly.stats import (
    covariance_matrix,
    rate_fit,
    run_replications,
    sandwich_probability,
    standardize,
    variance_identity_check,
    w1_bootstrap_se,
    w1_to_normal,
)

WORKERS = 8


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\n[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared replication tables


@pytest.fixture(scope="session")
def tables_d2_grid():
    cfg = preset_config("theorem1")  # t in {250,...,4000}, 2000 reps each
    return [run_replications(cfg, i, workers=WORKERS)
            for i in range(len(cfg.t_grid))]


@pytest.fixture(scope="session")
def tables_d3_grid():
    cfg = preset_config("theorem1_d3")  # t in {250,...,2000}, 500 reps each
    return [run_replications(cfg, i, workers=WORKERS)
            for i in range(len(cfg.t_grid))]


@pytest.fixture(scope="session")
def table_d2_t1000():
    cfg = preset_config("oracle")  # d=2, t=1000, 5000 reps
    return run_replications(cfg, 0, workers=WORKERS)


@pytest.fixture(scope="session")
def table_d3_t1000():
    cfg = ExperimentConfig.from_dict({
        "name": "fkg3",
        "body": {"kind": "ball", "dim": 3, "radius": 1.0},
        "t_grid": [1000.0],
        "n_reps": 5000,
        "functionals": [{"type": "multivariate"}],
        "seed": 26,
    })
    return run_replications(cfg, 0, workers=WORKERS)


@pytest.fixture(scope="session")
def tables_clt_trend():
    cfg = preset_config("clt_trend")  # d=2, t in {250, 4000}, 5000 reps
    return [run_replications(cfg, i, workers=WORKERS) for i in range(2)]


@pytest.fixture(scope="session")
def table_d2_t500():
    cfg = preset_config("bound")  # d=2, t=500, 5000 reps
    return run_replications(cfg, 0, workers=WORKERS)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_hull_brute_force_equivalence():
    rng = stream(900)
    checked = 0
    for d, n_cases in ((2, 34), (3, 33), (4, 33)):
        body = Ball(d)
        for _ in range(n_cases):
            n = int(rng.integers(d + 1, 13))
            pts = body.sample_uniform(rng, n)
            poly = convex_hull(pts)
            assert hull_facets_as_source_sets(poly) == brute_force_facets(pts)
            checked += 1
    report("criterion 01 hull oracle equivalence", checked == 100,
           f"facet sets equal on {checked} instances, d in {{2,3,4}}")


def test_criterion_02_exact_combinatorial_identities():
    total = 0
    rng2, rng3 = stream(901), stream(902)
    ball2, ball3 = Ball(2), Ball(3)
    for _ in range(60_000):
        cloud = sample_poisson_process(ball2, 8.0, rng2)
        poly = convex_hull(cloud)
        if poly.is_full_dimensional():
            assert f_vector(poly).euler_characteristic() == 0  # 1 - (-1)^2
        total += 1
    for _ in range(40_000):
        cloud = sample_poisson_process(ball3, 8.0, rng3)
        poly = convex_hull(cloud)
        fv = f_vector(poly)
        if poly.is_full_dimensional():
            assert fv.euler_characteristic() == 2
            assert 2 * fv[1] == 3 * fv[2]
        total += 1
    report("criterion 02 combinatorial identities", total >= 100_000,
           f"Euler and simplicial identities exact on {total} hulls")


def test_criterion_03_projection_average_consistency():
    import itertools

    cube = convex_hull(np.array(
        list(itertools.product([0.0, 1.0], repeat=3))
    ))
    rng = stream(903)
    ok = True
    details = []
    for j in (1, 2):
        est, se = intrinsic_volume_mc(cube, j, 100_000, rng)
        dev = abs(est - 3.0)
        ok &= dev <= 4 * se and dev / 3.0 <= 0.01
        details.append(f"V_{j}: {est:.4f} (4se={4 * se:.4f})")
    report("criterion 03 projection-average consistency", ok,
           "; ".join(details))


def test_criterion_04_euler_indicator_law():
    body = Ball(2)
    t = 3.0 / body.volume
    rng = stream(904)
    n = 10_000
    vals = np.empty(n)
    for i in range(n):
        vals[i] = 0.0 if len(sample_poisson_process(body, t, rng)) == 0 else 1.0
    p = 1.0 - math.exp(-3.0)
    mean_se = math.sqrt(p * (1 - p) / n)
    var_target = p * (1 - p)
    # standard error of the sample variance of a Bernoulli sample
    m4 = p * (1 - p) * (1 - 3 * p * (1 - p))  # fourth central moment part
    var_se = math.sqrt(abs(m4 + 2 * var_target**2 / (n - 1)) / n)
    mean_ok = abs(vals.mean() - p) <= 4 * mean_se
    var_ok = abs(vals.var(ddof=1) - var_target) <= 4 * var_se
    report("criterion 04 indicator law", mean_ok and var_ok,
           f"mean {vals.mean():.4f} vs {p:.4f}; "
           f"var {vals.var(ddof=1):.4f} vs {var_target:.4f}")


def test_criterion_05_oracle_unbiased(table_d2_t1000):
    est = table_d2_t1000.column("oracle")
    se = est.std(ddof=1) / math.sqrt(len(est))
    dev = abs(est.mean() - math.pi)
    report("criterion 05 estimator unbiasedness", dev <= 4 * se,
           f"|mean - pi| = {dev:.2e} vs 4se = {4 * se:.2e} (5000 reps)")


def test_criterion_06_oracle_variance_identity(table_d2_t1000):
    ratio = variance_identity_check(table_d2_t1000)
    report("criterion 06 variance identity", 0.9 <= ratio <= 1.1,
           f"Var/((1/t) E missed) = {ratio:.4f}")


def test_criterion_07_variance_scaling_intrinsic(tables_d2_grid,
                                                 tables_d3_grid):
    ok = True
    details = []
    for col in ("V_2", "V_1"):
        fit = rate_fit([(tb.t, tb.column(col).var(ddof=1))
                        for tb in tables_d2_grid])
        ok &= abs(fit.slope - (-5.0 / 3.0)) <= 0.15
        details.append(f"d2 {col}: {fit.slope:.3f}")
    fit3 = rate_fit([(tb.t, tb.column("V_3").var(ddof=1))
                     for tb in tables_d3_grid])
    ok &= abs(fit3.slope - (-1.5)) <= 0.2
    details.append(f"d3 V_3: {fit3.slope:.3f}")
    report("criterion 07 intrinsic-volume variance rates", ok,
           "; ".join(details) + " (targets -5/3, -5/3, -3/2)")


def test_criterion_08_variance_scaling_fvector(tables_d2_grid,
                                               tables_d3_grid):
    fit2 = rate_fit([(tb.t, tb.column("f_0").var(ddof=1))
                     for tb in tables_d2_grid])
    fit3 = rate_fit([(tb.t, tb.column("f_0").var(ddof=1))
                     for tb in tables_d3_grid])
    ok = (abs(fit2.slope - 1.0 / 3.0) <= 0.15
          and abs(fit3.slope - 0.5) <= 0.2)
    report("criterion 08 face-count variance rates", ok,
           f"d2 f_0: {fit2.slope:.3f} (target 1/3); "
           f"d3 f_0: {fit3.slope:.3f} (target 1/2)")


def test_criterion_09_clt_trend(tables_clt_trend):
    w_first = w1_to_normal(standardize(tables_clt_trend[0].column("V_2")))
    w_last = w1_to_normal(standardize(tables_clt_trend[1].column("V_2")))
    ok = w_last < w_first and w_last <= 0.05
    report("criterion 09 normal-approximation trend", ok,
           f"w1: {w_first:.4f} (t=250) -> {w_last:.4f} (t=4000), cap 0.05")


def area(poly):
    return intrinsic_volumes(poly, mode="exact")[2]


def test_criterion_10_bound_domination(table_d2_t500):
    col = table_d2_t500.column("V_2")
    variance = float(col.var(ddof=1))
    z = standardize(col)
    w1 = w1_to_normal(z)
    w1_se = w1_bootstrap_se(z, rng=stream(905))

    tau = estimate_taus(Ball(2), 500.0, area, variance, n_outer=10_000,
                        n_inner=8, rng=stream(101),
                        sampling="boundary_shell", workers=WORKERS)
    bound = tau.bound()
    combined_se = math.hypot(tau.bound_standard_error(), w1_se)
    ok = bound - w1 >= -4.0 * combined_se
    report("criterion 10 error-bound domination", ok,
           f"bound {bound:.3g} vs w1 {w1:.4f} (4se {4 * combined_se:.3g})")


def test_criterion_11_second_difference_vanishing():
    rng = stream(906)
    checked = 0
    for d, cases in ((2, 50), (3, 50)):
        for _ in range(cases):
            pts, x, y = make_disjoint_visibility_config(d, rng)
            fns = [volume, wills] + [
                (lambda p, j=j: float(f_vector(p)[j])) for j in range(d)
            ]
            for fn in fns:
                assert abs(second_difference(pts, x, y, fn)) <= 1e-12
            checked += 1
    report("criterion 11 second-difference vanishing", checked == 100,
           f"exact zero for volume, total valuation, and face counts "
           f"on {checked} constructions")


def test_criterion_12_nonnegative_correlations(table_d2_t1000,
                                               table_d3_t1000):
    ok = True
    details = []
    for table, cols in ((table_d2_t1000, ["V_1", "V_2"]),
                        (table_d3_t1000, ["V_1", "V_2", "V_3"])):
        ss = covariance_matrix(table, cols)
        n = table.n_reps
        worst = min(ss.covariance[i, j]
                    for i in range(len(cols)) for j in range(len(cols))
                    if i < j)
        se = 1.0 / math.sqrt(n)
        ok &= worst >= -3 * se
        details.append(f"d={len(cols)}: min corr {worst:.3f}")
    report("criterion 12 nonnegative correlation", ok,
           "; ".join(details) + f" (floor -3/sqrt(n))")


def test_criterion_13_rank_deficiency(table_d2_t1000):
    ss = covariance_matrix(table_d2_t1000, ["V_1", "V_2", "f_0", "f_1"])
    report("criterion 13 correlation rank deficiency",
           ss.rank_estimate <= 3,
           f"numeric rank {ss.rank_estimate} of 4 (tol 1e-8); "
           f"smallest eigenvalue {ss.eigenvalues[-1]:.2e}")


def test_criterion_14_floating_body_containment():
    ball = Ball(2)
    freqs = [sandwich_probability(ball, t, 2.0, 10_000, stream(907, i))
             for i, t in enumerate((500.0, 1000.0, 2000.0))]
    ok = freqs[1] >= 0.99 and freqs[0] <= freqs[1] <= freqs[2]
    report("criterion 14 floating-body containment", ok,
           f"frequencies {freqs} over t in (500, 1000, 2000)")


def test_criterion_15_reproducibility(tmp_path):
    from randpoly.experiment import run

    m1 = run("smoke", outdir=tmp_path / "w1")
    import randpoly.experiment as exp
    cfg = preset_config("smoke")
    m8 = exp.run(cfg, outdir=tmp_path / "w8", workers=8)
    from pathlib import Path

    same = all(
        Path(e1["csv"]).read_bytes() == Path(e8["csv"]).read_bytes()
        for e1, e8 in zip(m1.tables, m8.tables)
    )
    report("criterion 15 reproducibility", same,
           "tables byte-identical at worker counts 1 and 8")
