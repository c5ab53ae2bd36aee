"""Known answers in dimension 1, where the random polytope is [m, M].

On the unit ball [-1, 1], V_1 = M - m, and up to terms of order e^{-t}
1 - M and 1 + m are independent exponentials with rate t.  So
Var V_1 = 2/t^2, and every moment that the error-term estimator needs
has a closed form: for x > 0, D1_x V_1 = (x - M)_+, and for x, y on the
same side D2_{x,y} = -(min(x, y) - M)_+ (0 on opposite sides).  With the
estimator's own definitions on the unit-variance scale, tau3 = 3 sqrt 2
on the whole ball at every t, and 4.2409 on the boundary_shell region at
c = 2 and t = 50.  tau1 and tau2 are biased low at a finite n_inner, so
only tau3 is checked here.
"""
import math

import pytest

from randpoly.bodies import Ball
from randpoly.config import ExperimentConfig
from randpoly.experiment import _variance_se
from randpoly.functionals import intrinsic_volumes
from randpoly.malliavin import estimate_taus
from randpoly.rng import stream
from randpoly.stats import run_replications

T = 50.0
SEED = 101


def length(poly):
    return intrinsic_volumes(poly, mode="exact")[1]


@pytest.mark.parametrize("sampling, key, tau3", [
    ("plain", 0, 3.0 * math.sqrt(2.0)),
    ("boundary_shell", 1, 4.2409),
], ids=["plain", "boundary_shell"])
def test_tau3_of_the_length(sampling, key, tau3):
    est = estimate_taus(Ball(1), T, length, 2.0 / T**2, n_outer=1000,
                        n_inner=8, rng=stream(SEED, key), sampling=sampling,
                        shell_c=2.0)
    assert abs(est.tau3 - tau3) <= 4.0 * est.se3, (est.tau3, est.se3)


def variance_ratio() -> tuple[float, float]:
    """Sample variance of V_1 over 2 / T^2, and its standard error, from
    2,000 replications in one process."""
    config = ExperimentConfig.from_dict({
        "name": "d1", "body": {"kind": "ball", "dim": 1, "radius": 1.0},
        "t_grid": [T], "n_reps": 2000,
        "functionals": [{"type": "intrinsic", "j": 1}], "seed": SEED,
        "workers": 1,
    })
    col = run_replications(config).column("V_1")
    return col.var(ddof=1) * T**2 / 2.0, _variance_se(col) * T**2 / 2.0


def test_variance_of_the_length():
    ratio, ratio_se = variance_ratio()
    assert abs(ratio - 1.0) <= 4.0 * ratio_se, (ratio, ratio_se)
