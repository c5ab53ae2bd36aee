"""Known answers at finite t: the mean face counts of Poisson polytopes in
the unit ball, d = 2, 3 and 4.

By the Mecke formula, d process points span a facet when one side of
their hyperplane holds no other point, and the affine Blaschke-Petkantschin
formula (Schneider & Weil, *Stochastic and Integral Geometry*, 2008,
Thm. 7.2.7) turns the d-fold integral into one over hyperplanes at
distance p from the centre:

    E f_{d-1} = (t^d / d) omega_d int_0^1 (kappa_{d-1} rho^{d-1})^d
                m_{d-1} rho^{d-1} (e^{-t c(p)} + e^{-t (kappa_d - c(p))}
                - e^{-t kappa_d}) dp,

with rho = sqrt(1 - p^2), c(p) the volume of the cap beyond the
hyperplane, omega_d = d kappa_d the sphere's area, kappa_j the volume of
the unit j-ball, and m_{d-1} the mean (d-1)-volume of the simplex on d
uniform points in the unit (d-1)-ball (Kingman, J. Appl. Probab. 1969;
Miles, Illinois J. Math. 1971).

Every sampled hull is simplicial, so Euler's relation and the ridge
identity give the other columns exact means too: f_0 = f_1 in d = 2;
f_1 = 3 f_2 / 2 and f_0 = f_2 / 2 + 2 in d = 3; f_2 = 2 f_3 and
f_1 - f_0 = f_3 in d = 4.

A vertex of the hull is a process point outside the hull of the others,
so the Mecke formula gives E f_0 = t (kappa_d - E V_d) at every t (Efron
1965): the oracle column V_d + f_0 / t has mean kappa_d exactly.

The tables come from ``run_replications``, which hulls sampled balls
through the core prefilter in d = 2 and 3 and hulls every point in d = 4.
"""
import math

import pytest
from scipy.integrate import quad

from randpoly.bodies import Ball, floating_core
from randpoly.config import ExperimentConfig
from randpoly.stats import run_replications

# (d, t, replications), each row with its own seed; fixed before the
# first run
ROWS = [(2, 50.0, 2000), (2, 1000.0, 3000), (3, 250.0, 1000),
        (4, 50.0, 300), (4, 200.0, 100),
        # appended, so the rows above keep their seeds: at t = 1000 the
        # oracle column's spread is small enough that 100 replications
        # move a 0.5% volume error about 7 SE off kappa_4
        (4, 1000.0, 100)]
SEED = 2100

# m_{d-1}: mean (d-1)-volume of the simplex on d uniform points in the
# unit (d-1)-ball
MEAN_SIMPLEX = {2: 2.0 / 3.0, 3: 35.0 / (48.0 * math.pi),
                4: 9.0 / 715.0 * 4.0 * math.pi / 3.0}


def kappa(j: int) -> float:
    return math.pi ** (j / 2) / math.gamma(j / 2 + 1)


def cap_volume(d: int, p: float) -> float:
    """Volume of the cap of the unit d-ball beyond distance p."""
    r = math.sqrt(1.0 - p * p)
    if d == 2:
        return math.acos(p) - p * r
    if d == 3:
        return math.pi * (1.0 - p) ** 2 * (2.0 + p) / 3.0
    # kappa_3 int_p^1 (1 - s^2)^{3/2} ds
    return kappa(3) * (1.5 * math.pi - p * (5.0 - 2.0 * p * p) * r
                       - 3.0 * math.asin(p)) / 8.0


def mean_facets(d: int, t: float) -> float:
    kd = kappa(d)

    def integrand(p):
        rho = math.sqrt(1.0 - p * p)
        c = cap_volume(d, p)
        one_side_empty = (math.exp(-t * c) + math.exp(-t * (kd - c))
                          - math.exp(-t * kd))
        return ((kappa(d - 1) * rho ** (d - 1)) ** d * MEAN_SIMPLEX[d]
                * rho ** (d - 1) * one_side_empty)

    val, _ = quad(integrand, 0.0, 1.0, limit=200, epsabs=0.0, epsrel=1e-11)
    return t ** d * kd * val  # (t^d / d) omega_d, omega_d = d kappa_d


def exact_means(d: int, t: float) -> dict[str, float]:
    """Exact means of the table columns (and of f_1 - f_0 in d = 4)."""
    f = mean_facets(d, t)
    if d == 2:
        means = {"f_0": f, "f_1": f}
    elif d == 3:
        means = {"f_0": f / 2.0 + 2.0, "f_1": 1.5 * f, "f_2": f}
    else:
        means = {"f_1 - f_0": f, "f_2": 2.0 * f, "f_3": f}
    return means | {"oracle": kappa(d)}


def test_quadrature_matches_the_asymptotic_planar_count():
    # Renyi-Sulanke: E f_0 ~ 2 pi (2/3)^{1/3} Gamma(5/3) t^{1/3}, about
    # 4.955 t^{1/3}, on the unit disc; the finite-t value converges to it
    c = 2.0 * math.pi * (2.0 / 3.0) ** (1.0 / 3.0) * math.gamma(5.0 / 3.0)
    ratio = [mean_facets(2, t) / (c * t ** (1.0 / 3.0)) for t in (1e3, 1e5)]
    assert 0.99 < ratio[0] < ratio[1] < 1.0


def row_columns(row: int) -> dict:
    """The row's table columns, with f_1 - f_0 in d = 4."""
    d, t, n_reps = ROWS[row]
    config = ExperimentConfig.from_dict({
        "name": f"fvector_d{d}", "body": {"kind": "ball", "dim": d},
        "t_grid": [t], "n_reps": n_reps, "seed": SEED + row,
        "functionals": ([{"type": "f", "j": j} for j in range(d)]
                        + [{"type": "oracle"}]),
        "mode": "exact",
    })
    table = run_replications(config)
    cols = {name: table.column(name) for name in table.names}
    if d == 4:
        cols["f_1 - f_0"] = cols["f_1"] - cols["f_0"]
    return cols


@pytest.mark.parametrize("row", range(len(ROWS)),
                         ids=[f"d{d}_t{t:g}" for d, t, _ in ROWS])
def test_mean_face_counts(row):
    d, t, n_reps = ROWS[row]
    # d = 2 and 3 go through the prefilter, d = 4 hulls every point
    assert (floating_core(Ball(d), t) is None) == (d == 4)
    cols = row_columns(row)
    for name, exact in exact_means(d, t).items():
        x = cols[name]
        se = x.std(ddof=1) / math.sqrt(len(x))
        assert abs(x.mean() - exact) <= 4.0 * se, (name, x.mean(), exact, se)
