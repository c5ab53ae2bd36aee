"""Known answers at finite t: the mean of V_1 of Poisson polytopes in the
unit ball, d = 2, 3 and 4, and the mean of every planar column.

For a unit vector u, the support value h(u) = max of <u, x> over the
process points has P(h <= s) = exp(-t c(s)) for s in [-1, 1], with c(s)
the volume of the cap beyond s (kappa_d - c(-s) for s < 0).  With
V_1(empty set) = 0, integration by parts gives

    E[h; eta nonempty] = (1 - e^{-t kappa_d})
                         - int_{-1}^{1} (e^{-t c(s)} - e^{-t kappa_d}) ds.

V_1 is d kappa_d / (2 kappa_{d-1}) times the mean width, whose mean is
2 E[h; eta nonempty] by symmetry, so

    E V_1 = (d kappa_d / kappa_{d-1}) E[h; eta nonempty].

In the plane that completes the known means: E V_0 = 1 - e^{-t kappa_2},
E f_0 = E f_1 (``test_known_answer_fvector``), E V_2 = kappa_2 - E f_0 / t
(Efron 1965), the oracle column's mean is kappa_2, and the Wills column's
is E V_0 + E V_1 + E V_2.

d = 2 and 3 run in ``exact`` mode.  d = 4 runs the projection Monte Carlo
of ``mc`` mode at ``n_dirs`` 8, whose width average is unbiased for any
number of directions.
"""
import math

import pytest
from scipy.integrate import quad

from randpoly.config import ExperimentConfig
from randpoly.stats import run_replications

from test_known_answer_fvector import cap_volume, kappa, mean_facets

# (d, t, replications, mode), each row with its own seed; fixed before
# the first run
ROWS = [(2, 50.0, 2000, "exact"), (2, 1000.0, 2000, "exact"),
        (3, 250.0, 600, "exact"), (3, 1000.0, 300, "exact"),
        (4, 50.0, 400, "mc"), (4, 200.0, 200, "mc")]
SEED = 1600
N_DIRS = 8


def mean_support(d: int, t: float) -> float:
    """E[h; eta nonempty] in the unit d-ball at intensity t."""
    kd = kappa(d)
    empty = math.exp(-t * kd)

    def c(s):
        return cap_volume(d, s) if s >= 0.0 else kd - cap_volume(d, -s)

    def integrand(s):
        return math.exp(-t * c(s)) - empty

    total = sum(quad(integrand, a, b, limit=200, epsabs=0.0,
                     epsrel=1e-11)[0] for a, b in ((-1.0, 0.0), (0.0, 1.0)))
    return (1.0 - empty) - total


def mean_v1(d: int, t: float) -> float:
    return d * kappa(d) / kappa(d - 1) * mean_support(d, t)


def exact_means(d: int, t: float) -> dict[str, float]:
    """Exact means of the row's columns: V_1 in every d, and every column
    of the table in the plane."""
    v1 = mean_v1(d, t)
    if d != 2:
        return {"V_1": v1}
    f = mean_facets(2, t)
    v0 = 1.0 - math.exp(-t * kappa(2))
    v2 = kappa(2) - f / t
    return {"V_0": v0, "V_1": v1, "V_2": v2, "f_0": f, "f_1": f,
            "oracle": kappa(2), "wills": v0 + v1 + v2}


def row_config(row: int) -> ExperimentConfig:
    d, t, n_reps, mode = ROWS[row]
    functionals = ([{"type": "intrinsic", "j": 0}, {"type": "multivariate"},
                    {"type": "oracle"}, {"type": "wills"}] if d == 2
                   else [{"type": "intrinsic", "j": 1}])
    return ExperimentConfig.from_dict({
        "name": f"v1_d{d}", "body": {"kind": "ball", "dim": d},
        "t_grid": [t], "n_reps": n_reps, "seed": SEED + row,
        "functionals": functionals, "mode": mode, "n_dirs": N_DIRS,
        "workers": 1,
    })


def z_scores(row: int) -> dict[str, float]:
    """(sample mean - exact mean) / standard error of each checked column
    of the row's table; 0 for a constant column at its exact mean."""
    d, t, _, _ = ROWS[row]
    table = run_replications(row_config(row))
    out = {}
    for name, exact in exact_means(d, t).items():
        x = table.column(name)
        se = x.std(ddof=1) / math.sqrt(len(x))
        diff = x.mean() - exact
        out[name] = diff / se if se > 0.0 else (0.0 if diff == 0.0
                                                 else math.inf)
    return out


@pytest.mark.parametrize("d", [2, 3, 4])
def test_quadrature_tends_to_the_ball(d):
    # E V_1 increases in t towards V_1(B^d) = d kappa_d / kappa_{d-1}, with
    # the defect of order t^{-2/(d+1)} of a smooth body (Schneider and
    # Wieacker 1980), so the defect times t^{2/(d+1)} settles
    limit = d * kappa(d) / kappa(d - 1)
    ts = (1e2, 1e4, 1e5)
    means = [mean_v1(d, t) for t in ts]
    assert means[0] < means[1] < means[2] < limit
    scaled = [(limit - m) * t ** (2.0 / (d + 1)) for m, t in zip(means, ts)]
    assert scaled[2] == pytest.approx(scaled[1], rel=0.01)


@pytest.mark.parametrize("row", range(len(ROWS)),
                         ids=[f"d{d}_t{t:g}_{m}" for d, t, _, m in ROWS])
def test_mean_v1(row):
    z = z_scores(row)
    assert all(abs(v) <= 4.0 for v in z.values()), z
