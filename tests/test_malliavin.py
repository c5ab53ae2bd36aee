"""Tests for difference operators and the error-term estimators."""
import functools
import math

import numpy as np
import pytest

from randpoly.bodies import Ball, sample_poisson_process
from randpoly.functionals import (
    build_evaluators,
    column_values,
    intrinsic_volumes,
    wills,
)
from randpoly.hull import convex_hull, f_vector, volume
from randpoly.malliavin import (
    GammaEstimate,
    TauEstimate,
    VectorFunctional,
    estimate_gammas,
    estimate_taus,
    first_difference,
    make_disjoint_visibility_config,
    second_difference,
)
from randpoly.rng import stream


def f0(poly):
    return float(f_vector(poly)[0])


def area(poly):
    return intrinsic_volumes(poly, mode="exact")[2]


def area_and_f0(poly):
    return np.array([area(poly), f0(poly)])


def area_vector(poly):
    return np.array([area(poly)])


class TestFirstDifference:
    def test_interior_point_is_exactly_zero(self):
        cloud = Ball(2).sample_uniform(stream(50), 40)
        x = np.zeros(2)
        for fn in (volume, f0, wills):
            assert first_difference(cloud, x, fn) == 0.0

    def test_triangle_to_quadrilateral(self):
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        x = np.array([0.9, 0.9])
        assert first_difference(tri, x, f0) == 1.0

    def test_point_swallowing_vertices(self):
        tri = np.array([[0.0, 0.0], [0.2, 0.1], [0.1, 0.2]])
        x = np.array([2.0, 2.0])
        # the two inner vertices stay on the hull; x joins it
        d = first_difference(tri, x, f0)
        assert d in (0.0, 1.0, -1.0)

    def test_volume_difference_nonnegative(self):
        # monotone functionals never lose value when a point is added
        rng = stream(51)
        body = Ball(2)
        for _ in range(300):
            cloud = sample_poisson_process(body, 30.0, rng)
            x = body.sample_uniform(rng, 1)[0]
            for fn in (volume, area):
                assert first_difference(cloud, x, fn) >= -1e-9

    def test_intrinsic_volume_differences_nonnegative(self):
        rng = stream(52)
        body = Ball(3)
        for _ in range(200):
            cloud = sample_poisson_process(body, 20.0, rng)
            x = body.sample_uniform(rng, 1)[0]
            vols_before = intrinsic_volumes(convex_hull(cloud), mode="exact")
            pts = np.vstack([cloud.points, x[None, :]])
            vols_after = intrinsic_volumes(convex_hull(pts), mode="exact")
            for j in (1, 2, 3):
                assert vols_after[j] - vols_before[j] >= -1e-9

    def test_outside_body_rejected(self):
        cloud = Ball(2).sample_uniform(stream(53), 10)
        with pytest.raises(ValueError):
            first_difference(cloud, np.array([2.0, 0.0]), volume,
                             body=Ball(2))

    def test_wills_difference_is_sum_of_parts(self):
        rng = stream(54)
        cloud = Ball(2).sample_uniform(rng, 30)
        x = np.array([0.95, 0.0])
        dw = first_difference(cloud, x, wills)
        parts = [
            first_difference(cloud, x,
                             lambda p, j=j: intrinsic_volumes(p, "exact")[j])
            for j in (0, 1, 2)
        ]
        assert dw == pytest.approx(sum(parts), abs=1e-9)


class TestSecondDifference:
    def test_interior_is_zero(self):
        cloud = Ball(2).sample_uniform(stream(55), 40)
        x = np.zeros(2)
        y = np.array([0.9, 0.0])
        assert second_difference(cloud, x, y, volume) == 0.0
        assert second_difference(cloud, y, x, volume) == 0.0

    def test_symmetry_exact(self):
        rng = stream(56)
        body = Ball(2)
        for _ in range(50):
            cloud = sample_poisson_process(body, 25.0, rng)
            x, y = body.sample_uniform(rng, 2)
            for fn in (volume, f0):
                assert (second_difference(cloud, x, y, fn)
                        == second_difference(cloud, y, x, fn))

    def test_equal_points_reduce_to_negated_first(self):
        rng = stream(57)
        body = Ball(2)
        for _ in range(30):
            cloud = sample_poisson_process(body, 25.0, rng)
            x = body.sample_uniform(rng, 1)[0]
            lhs = second_difference(cloud, x, x, volume)
            rhs = -first_difference(cloud, x, volume)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_disjoint_visibility_vanishes(self, d):
        rng = stream(58 + d)
        for _ in range(20):
            pts, x, y = make_disjoint_visibility_config(d, rng)
            fns = [volume, wills] + [
                (lambda p, j=j: float(f_vector(p)[j])) for j in range(d)
            ]
            for fn in fns:
                assert abs(second_difference(pts, x, y, fn)) <= 1e-12


class TestBounds:
    def _tau(self, t1, t2, t3):
        return TauEstimate(tau1=t1, tau2=t2, tau3=t3, se1=0, se2=0, se3=0)

    def test_zero(self):
        assert self._tau(0, 0, 0).bound() == 0.0

    def test_ones(self):
        assert self._tau(1, 1, 1).bound() == pytest.approx(4.0)

    def test_monotone_in_each_argument(self):
        base = self._tau(1, 1, 1).bound()
        assert self._tau(2, 1, 1).bound() > base
        assert self._tau(1, 2, 1).bound() > base
        assert self._tau(1, 1, 2).bound() > base

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            self._tau(-1, 0, 0)

    @pytest.mark.parametrize("se", [-1e-3, math.inf, math.nan])
    def test_bad_standard_error_rejected(self, se):
        with pytest.raises(ValueError, match="standard errors"):
            TauEstimate(1.0, 1.0, 1.0, 0.1, se, 0.1)
        with pytest.raises(ValueError, match="standard errors"):
            GammaEstimate(1.0, 1.0, 1.0, se, 0.1, 0.1, labels=("a",))


class TestTauEstimation:
    def test_zero_functional_gives_zero(self):
        tau = estimate_taus(Ball(2), 50.0, lambda p: 0.0, 1.0,
                            n_outer=20, n_inner=4, rng=stream(61))
        assert tau.tau1 == tau.tau2 == tau.tau3 == 0.0

    def test_positive_and_finite(self):
        tau = estimate_taus(Ball(2), 100.0, area, 1e-3, n_outer=50,
                            n_inner=4, rng=stream(62),
                            sampling="boundary_shell")
        assert tau.tau3 > 0 and math.isfinite(tau.bound())

    def test_seed_stability(self):
        kw = dict(n_outer=400, n_inner=8, sampling="boundary_shell")
        a = estimate_taus(Ball(2), 200.0, area, 2e-4, rng=stream(63), **kw)
        b = estimate_taus(Ball(2), 200.0, area, 2e-4, rng=stream(64), **kw)
        for x, y, sx, sy in [(a.tau1, b.tau1, a.se1, b.se1),
                             (a.tau2, b.tau2, a.se2, b.se2),
                             (a.tau3, b.tau3, a.se3, b.se3)]:
            assert abs(x - y) <= 4 * math.hypot(sx, sy) + 1e-12

    def test_determinism(self):
        kw = dict(n_outer=30, n_inner=4)
        a = estimate_taus(Ball(2), 80.0, area, 1e-3, rng=stream(65), **kw)
        b = estimate_taus(Ball(2), 80.0, area, 1e-3, rng=stream(65), **kw)
        assert (a.tau1, a.tau2, a.tau3) == (b.tau1, b.tau2, b.tau3)

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_taus(Ball(2), 50.0, area, 0.0, 10, 4, stream(0))
        with pytest.raises(ValueError):
            estimate_taus(Ball(2), 50.0, area, 1.0, 10, 1, stream(0))
        with pytest.raises(ValueError):
            estimate_taus(Ball(2), 50.0, area, 1.0, 10, 3, stream(0))
        # no generator: a variance that is not finite and positive is
        # rejected before any sampling
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="variance_estimate"):
                estimate_taus(Ball(2), 50.0, area, bad, 10, 4, None)

    def test_shell_needs_ball(self):
        from randpoly.bodies import Ellipsoid

        with pytest.raises(ValueError, match="balls only.*sampling='plain'"):
            estimate_taus(Ellipsoid(2, semi_axes=[1.0, 2.0]), 50.0, area,
                          1.0, 10, 4, stream(0), sampling="boundary_shell")

    def test_worker_count_invariance(self):
        kw = dict(n_outer=30, n_inner=4, sampling="boundary_shell")
        one = estimate_taus(Ball(2), 200.0, area, 2e-4, rng=stream(65),
                            workers=1, **kw)
        two = estimate_taus(Ball(2), 200.0, area, 2e-4, rng=stream(65),
                            workers=2, **kw)
        assert one == two

    def test_column_values_with_workers(self):
        # the bound report's functional: a one-column column_values partial
        (_, v2), = build_evaluators([{"type": "intrinsic", "j": 2}], 2)
        column = functools.partial(column_values, (v2,), 200.0)
        kw = dict(n_outer=12, n_inner=4, sampling="boundary_shell")
        scalar = estimate_taus(Ball(2), 200.0, area, 2e-4, rng=stream(65),
                               **kw)
        for workers in (1, 2):
            assert estimate_taus(Ball(2), 200.0, column, 2e-4,
                                 rng=stream(65), workers=workers,
                                 **kw) == scalar

    def test_unpicklable_functional_with_workers(self):
        with pytest.raises(ValueError, match="picklable"):
            estimate_taus(Ball(2), 80.0, lambda p: area(p), 1e-3, 10, 4,
                          stream(65), workers=2)

    def test_regression_pin_area_t500(self):
        # frozen from this module's own converged estimate (n_outer = 1e4,
        # n_inner = 8, three seeds agreeing within 3 se: tau3 = 0.66 +- 0.03);
        # the pinned value below is the deterministic output at these knobs
        tau = estimate_taus(Ball(2), 500.0, area,
                            variance_estimate=8.974441573466594e-05,
                            n_outer=600, n_inner=8, rng=stream(101),
                            sampling="boundary_shell")
        assert tau.tau3 == pytest.approx(0.49959213099527905, rel=1e-9)
        assert abs(tau.tau3 - 0.66) <= 4 * tau.se3

    def test_plain_and_shell_agree(self):
        # at small t both samplers target the same integrals
        t = 60.0
        var = 2e-3
        kw = dict(n_outer=1500, n_inner=4)
        plain = estimate_taus(Ball(2), t, area, var, rng=stream(66),
                              sampling="plain", **kw)
        shell = estimate_taus(Ball(2), t, area, var, rng=stream(67),
                              sampling="boundary_shell", **kw)
        tol = 4 * math.hypot(plain.se3, shell.se3)
        assert abs(plain.tau3 - shell.tau3) <= tol


class TestGammaEstimation:
    @staticmethod
    def _vf(scales=(1.0, 1.0)):
        def fn(poly):
            vols = intrinsic_volumes(poly, mode="exact")
            return np.array([vols[2], float(f_vector(poly)[0])])

        return VectorFunctional(fn=fn, labels=("V_2", "f_0"),
                                scales=np.asarray(scales))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("sampling", ["plain", "boundary_shell"])
    def test_single_component_reduces_to_taus(self, sampling, workers):
        vf = VectorFunctional(fn=area_vector, labels=("V_2",),
                              scales=np.array([0.05]))
        kw = dict(sampling=sampling, workers=workers)
        g = estimate_gammas(Ball(2), 80.0, vf, 40, 4, stream(68), **kw)
        tau = estimate_taus(Ball(2), 80.0, area, 0.05**2, 40, 4, stream(68),
                            **kw)
        assert (g.gamma1, g.gamma2, g.gamma3, g.se1, g.se2, g.se3) == (
            tau.tau1, tau.tau2, tau.tau3, tau.se1, tau.se2, tau.se3)

    def test_worker_count_invariance(self):
        vf = VectorFunctional(fn=area_and_f0, labels=("V_2", "f_0"),
                              scales=np.array([1e-2, 2.0]))
        one, two = (estimate_gammas(Ball(2), 100.0, vf, 30, 4,
                                    stream(70), sampling="boundary_shell",
                                    workers=w) for w in (1, 2))
        assert one == two

    def test_unpicklable_functional_with_workers(self):
        vf = VectorFunctional(fn=lambda p: np.zeros(2), labels=("a", "b"))
        with pytest.raises(ValueError, match="picklable"):
            estimate_gammas(Ball(2), 50.0, vf, 10, 4, stream(69),
                            workers=2)

    def test_zero_vector_gives_zero(self):
        vf = VectorFunctional(fn=lambda p: np.zeros(2),
                              labels=("a", "b"))
        g = estimate_gammas(Ball(2), 50.0, vf, 20, 4, stream(69))
        assert g.gamma1 == g.gamma2 == g.gamma3 == 0.0

    def test_finite_on_vector(self):
        g = estimate_gammas(Ball(2), 100.0, self._vf((1e-2, 2.0)),
                            50, 4, stream(70), sampling="boundary_shell")
        assert g.gamma3 > 0 and math.isfinite(g.bound())

    def test_scales_validation(self):
        with pytest.raises(ValueError):
            VectorFunctional(fn=lambda p: np.zeros(2), labels=("a", "b"),
                             scales=np.array([1.0, 0.0]))
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="scales"):
                VectorFunctional(fn=lambda p: np.zeros(2), labels=("a", "b"),
                                 scales=np.array([bad, 1.0]))

    def test_regression_pin_full_vector_t500(self):
        # pinned from this module's converged self-estimate at t=500 in the
        # plane (three seeds within 3 se: gamma3 = 4.0-4.4 +- 0.5..0.8);
        # scales are the plug-in deviations from a 5000-rep table
        sds = np.array([0.003997933530351955, 0.009473352929911666,
                        3.1227119793572387, 3.1227119793572387])

        def raw(poly):
            vols = intrinsic_volumes(poly, mode="exact")
            return np.array(vols[1:] + [float(c) for c in f_vector(poly)])

        vf = VectorFunctional(fn=raw, labels=("V_1", "V_2", "f_0", "f_1"),
                              scales=sds)
        g = estimate_gammas(Ball(2), 500.0, vf, 400, 8,
                            stream(111), sampling="boundary_shell")
        assert g.gamma3 == pytest.approx(4.0273678781063635, rel=1e-9)
        assert abs(g.gamma3 - 4.2) <= 4 * g.se3
        assert math.isfinite(g.bound())


class TestSecondDifferencePins:
    """Pins on every term at small t, where plain sampling puts the points
    where second differences are large, so tau1/tau2 and gamma1/gamma2
    (the fourth moments of D2) are far from round-off."""

    def test_tau_pin_plain_t2(self):
        tau = estimate_taus(Ball(2), 2.0, volume, 0.05, 40, 8, stream(7),
                            sampling="plain")
        assert (tau.tau1, tau.tau2, tau.tau3) == pytest.approx(
            (3.3814716023519624, 0.016504253410181694, 13.331694001500733),
            rel=1e-9)

    def test_gamma_pin_plain_t3(self):
        def fn(poly):
            vols = intrinsic_volumes(poly, mode="exact")
            return np.array([vols[1], vols[2], f0(poly)])

        vf = VectorFunctional(fn=fn, labels=("V_1", "V_2", "f_0"),
                              scales=np.array([0.3, 0.3, 1.0]))
        g = estimate_gammas(Ball(2), 3.0, vf, 40, 8, stream(8),
                            sampling="plain")
        assert (g.gamma1, g.gamma2, g.gamma3) == pytest.approx(
            (53.01966139274035, 42.05433181463077, 16.635731090474543),
            rel=1e-9)


class TestPlanarCertificatePins:
    """Exact pins, from the code before the planar inside certificate, of
    every term and standard error in d = 2: most inner draws there are
    settled by the certificate without a base hull, which must leave
    every value as it was."""

    @pytest.mark.parametrize("sampling, t, expected", [
        ("plain", 3.0,
         (0.35469017752219567, 0.02155453566806958, 7.6867251657778155,
          0.20553974291582622, 0.0163508605858483, 2.8761031140064595)),
        ("boundary_shell", 12.0,
         (0.008858549434645995, 0.0011011206965125476, 0.6114773965660733,
          0.008858549434645991, 0.0011011206965125476, 0.18065107463158586)),
    ])
    def test_tau_pins(self, sampling, t, expected):
        tau = estimate_taus(Ball(2), t, area, 0.05, 40, 8, stream(171),
                            sampling=sampling)
        assert (tau.tau1, tau.tau2, tau.tau3,
                tau.se1, tau.se2, tau.se3) == expected

    @pytest.mark.parametrize("sampling, t, expected", [
        ("plain", 6.0,
         (6.643844704612535, 0.02244280159930923, 4.634767038983094,
          6.643844704612451, 0.022442801599309226, 1.1342343161606363)),
        ("boundary_shell", 12.0,
         (0.18858349052245058, 0.027248859748799443, 2.968841098949034,
          0.18858349052245058, 0.027248859748799443, 0.6024819839912333)),
    ])
    def test_gamma_pins(self, sampling, t, expected):
        vf = VectorFunctional(fn=area_and_f0, labels=("V_2", "f_0"),
                              scales=np.array([0.2, 2.0]))
        g = estimate_gammas(Ball(2), t, vf, 40, 8, stream(172),
                            sampling=sampling)
        assert (g.gamma1, g.gamma2, g.gamma3, g.se1, g.se2, g.se3) == expected
