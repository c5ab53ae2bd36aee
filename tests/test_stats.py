"""Tests for the replication engine and the statistics layer."""
import math

import numpy as np
import pytest
from scipy import stats as spstats

from randpoly.bodies import Ball
from randpoly.config import ExperimentConfig
from randpoly.rng import stream
from randpoly.stats import (
    ReplicationTable,
    _normal_grid_quantiles,
    covariance_matrix,
    mardia_normality,
    numeric_rank,
    rate_fit,
    run_replications,
    sandwich_probability,
    standardize,
    variance_identity_check,
    w1_bootstrap_se,
    w1_to_normal,
)


def small_config(**overrides):
    raw = {
        "name": "unit",
        "body": {"kind": "ball", "dim": 2, "radius": 1.0},
        "t_grid": [30.0],
        "n_reps": 50,
        "functionals": [{"type": "multivariate"}, {"type": "oracle"},
                        {"type": "intrinsic", "j": 0}],
        "seed": 7,
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


def synthetic_table(columns, t=10.0, seed=0):
    n = len(next(iter(columns.values())))
    return ReplicationTable(
        t=t, t_index=0, body={"kind": "ball", "dim": 2, "radius": 1.0},
        n_reps=n, seed=seed,
        columns={k: np.asarray(v, dtype=float) for k, v in columns.items()},
    )


class TestRunReplications:
    def test_determinism_single_row(self):
        cfg = small_config(n_reps=2)
        a = run_replications(cfg)
        b = run_replications(cfg)
        for name in a.names:
            assert np.array_equal(a.column(name), b.column(name))

    def test_worker_count_invariance(self):
        cfg = small_config(n_reps=24)
        a = run_replications(cfg, workers=1)
        b = run_replications(cfg, workers=4)
        for name in a.names:
            assert np.array_equal(a.column(name), b.column(name))

    def test_plane_face_count_identity(self):
        table = run_replications(small_config(n_reps=100))
        assert np.array_equal(table.column("f_0"), table.column("f_1"))

    def test_euler_indicator_mean_at_small_intensity(self):
        body_volume = math.pi
        t = 3.0 / body_volume
        cfg = small_config(t_grid=[t], n_reps=10_000,
                           functionals=[{"type": "intrinsic", "j": 0}])
        table = run_replications(cfg, workers=4)
        target = 1.0 - math.exp(-3.0)
        se = math.sqrt(target * (1 - target) / table.n_reps)
        assert abs(table.column("V_0").mean() - target) <= 3 * se

    def test_vertex_count_bounded_by_points(self):
        table = run_replications(small_config(n_reps=200))
        assert np.all(table.column("f_0") <= table.column("n_points"))

    def test_csv_round_trip(self, tmp_path):
        table = run_replications(small_config(n_reps=20))
        p = table.write_csv(tmp_path / "table.csv")
        back = ReplicationTable.read_csv(p)
        assert back.t == table.t and back.names == table.names
        for name in table.names:
            assert np.array_equal(back.column(name), table.column(name))

    @pytest.mark.parametrize("body, message", [
        ("", "no data rows"),
        ("1,2\n3,4\n", "2 data columns under 3 header names"),
        ("1,2,3,4\n", "4 data columns under 3 header names"),
    ])
    def test_csv_rows_must_match_the_header(self, tmp_path, body, message):
        table = run_replications(small_config(n_reps=2))
        p = table.write_csv(tmp_path / "table.csv")
        p.write_text("a,b,c\n" + body)
        with pytest.raises(ValueError, match=message):
            ReplicationTable.read_csv(p)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = small_config(n_reps=30)
        p1 = run_replications(cfg, workers=1).write_csv(tmp_path / "a.csv")
        p2 = run_replications(cfg, workers=3).write_csv(tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()


class TestStandardize:
    def test_moments(self):
        rng = stream(80)
        x = rng.normal(5.0, 3.0, size=4000)
        z = standardize(x)
        assert abs(z.mean()) < 1e-12
        assert abs(z.var(ddof=1) - 1.0) < 1e-12

    def test_affine_invariance(self):
        rng = stream(81)
        x = rng.normal(size=500)
        assert np.allclose(standardize(3.0 * x + 7.0), standardize(x),
                           atol=1e-12)

    def test_idempotent(self):
        rng = stream(82)
        z = standardize(rng.normal(size=300))
        assert np.allclose(standardize(z), z, atol=1e-12)

    def test_constant_column_rejected(self):
        with pytest.raises(ValueError):
            standardize(np.ones(10))


class TestW1:
    def test_large_normal_sample_is_small(self):
        z = stream(83).standard_normal(1_000_000)
        assert w1_to_normal(standardize(z)) <= 0.01

    def test_point_mass_matches_mean_absolute_normal(self):
        # W1 between a point mass at zero and N(0,1) is E|Z| = sqrt(2/pi)
        val = w1_to_normal(np.zeros(1_000_000))
        assert val == pytest.approx(math.sqrt(2 / math.pi), abs=2e-3)

    def test_permutation_invariant(self):
        rng = stream(84)
        z = rng.standard_normal(5000)
        shuffled = z[rng.permutation(len(z))]
        assert w1_to_normal(z) == w1_to_normal(shuffled)

    def test_bootstrap_se_positive(self):
        z = stream(85).standard_normal(2000)
        assert w1_bootstrap_se(z, n_boot=50, rng=stream(86)) > 0

    @staticmethod
    def per_draw_bootstrap_se(x, n_boot, rng):
        # reference: one rng.integers call per resample
        n = len(x)
        draws = np.array([rng.integers(0, n, size=n) for _ in range(n_boot)],
                         dtype=np.intp).reshape(n_boot, n)
        vals = np.abs(np.sort(x[draws], axis=1)
                      - _normal_grid_quantiles(n)).mean(axis=1)
        return float(vals.std(ddof=1))

    @pytest.mark.parametrize("n_boot", [2, 200])
    @pytest.mark.parametrize("n", [2, 3, 20, 150])
    def test_bootstrap_se_matches_per_draw_loop(self, n, n_boot):
        x = standardize(stream(87, n).standard_normal(n))
        rng, ref = stream(88, n), stream(88, n)
        se = w1_bootstrap_se(x, n_boot=n_boot, rng=rng)
        assert se == self.per_draw_bootstrap_se(x, n_boot, ref)
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("m", [1, 2, 9])
    @pytest.mark.parametrize("n", [2, 3, 150])
    def test_one_draw_equals_successive_draws(self, n, m):
        # w1_bootstrap_se draws a stack's resamples in one call
        rng, ref = stream(89, n, m), stream(89, n, m)
        got = rng.integers(0, n, size=(m, 200, n))
        want = np.stack([ref.integers(0, n, size=(200, n))
                         for _ in range(m)])
        assert got.tobytes() == want.tobytes()
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("n", [2, 3, 20, 150])
    def test_bootstrap_se_of_a_stack_is_row_after_row(self, n):
        z = np.stack([standardize(x)
                      for x in stream(90, n).standard_normal((4, n))])
        rng, ref = stream(91, n), stream(91, n)
        got = w1_bootstrap_se(z, rng=rng)
        assert got.shape == (4,)
        assert got.tolist() == [w1_bootstrap_se(x, rng=ref) for x in z]
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 5000])
    def test_grid_quantiles_match_scipy_stats(self, n):
        grid = (np.arange(1, n + 1) - 0.5) / n
        expected = spstats.norm.ppf(grid)
        assert _normal_grid_quantiles(n).tobytes() == expected.tobytes()


class TestCovariance:
    def test_independent_columns_nearly_uncorrelated(self):
        rng = stream(87)
        n = 20_000
        table = synthetic_table({"a": rng.normal(size=n),
                                 "b": rng.normal(size=n)})
        ss = covariance_matrix(table)
        se = 1.0 / math.sqrt(n)
        assert abs(ss.covariance[0, 1]) <= 4 * se

    def test_duplicated_column_gives_exact_one(self):
        x = stream(88).normal(size=500)
        table = synthetic_table({"a": x, "b": x.copy()})
        ss = covariance_matrix(table)
        assert ss.covariance[0, 1] == 1.0

    def test_unit_diagonal_and_symmetry(self):
        rng = stream(89)
        table = synthetic_table({k: rng.normal(size=300) for k in "abc"})
        ss = covariance_matrix(table)
        assert np.allclose(np.diag(ss.covariance), 1.0)
        assert np.allclose(ss.covariance, ss.covariance.T)

    def test_psd_up_to_tolerance(self):
        rng = stream(90)
        table = synthetic_table({k: rng.normal(size=200) for k in "abcd"})
        ss = covariance_matrix(table)
        assert np.linalg.eigvalsh(ss.covariance).min() >= -1e-10

    def test_standardized_moments(self):
        rng = stream(91)
        table = synthetic_table({"a": rng.normal(3.0, 2.0, size=400)})
        ss = covariance_matrix(table)
        z = ss.standardized["a"]
        assert abs(z.mean()) < 1e-12 and abs(z.var(ddof=1) - 1) < 1e-12

    def test_zero_variance_rejected(self):
        table = synthetic_table({"a": np.ones(50)})
        with pytest.raises(ValueError):
            covariance_matrix(table)


class TestNumericRank:
    def test_identity(self):
        rank, _ = numeric_rank(np.eye(4))
        assert rank == 4

    def test_duplicated_pair_drops_rank(self):
        x = stream(92).normal(size=(300, 3))
        data = np.column_stack([x, x[:, 2]])
        corr = np.corrcoef(data, rowvar=False)
        rank, eig = numeric_rank(corr)
        assert rank <= 3
        assert eig[-1] == pytest.approx(0.0, abs=1e-12)

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            numeric_rank(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestRateFit:
    def test_exact_power_law(self):
        t = np.array([250.0, 500.0, 1000.0, 2000.0, 4000.0])
        fit = rate_fit(list(zip(t, 3.2 * t ** (-5.0 / 3.0))))
        assert fit.slope == pytest.approx(-5.0 / 3.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_intercept_recovunderstood(self):
        t = np.array([10.0, 100.0, 1000.0])
        fit = rate_fit(list(zip(t, 7.0 * t**0.5)))
        assert math.exp(fit.intercept) == pytest.approx(7.0)
        assert fit.slope == pytest.approx(0.5, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            rate_fit([(1.0, 1.0), (2.0, 0.5)])
        with pytest.raises(ValueError):
            rate_fit([(1.0, 1.0), (2.0, -0.5), (3.0, 0.1)])


class TestVarianceIdentity:
    def test_matches_at_moderate_scale(self):
        cfg = small_config(t_grid=[300.0], n_reps=3000,
                           functionals=[{"type": "multivariate"},
                                        {"type": "oracle"}])
        table = run_replications(cfg, workers=4)
        ratio = variance_identity_check(table)
        assert 0.85 <= ratio <= 1.15

    def test_constant_estimator_gives_zero(self):
        n = 100
        a = synthetic_table({"oracle": np.full(n, 2.0),
                             "V_2": stream(93).uniform(0.5, 1.0, size=n)})
        assert variance_identity_check(a) == 0.0

    def test_ratio_invariant_under_dilation(self):
        # scaling the body while matching the expected point count must
        # leave the identity ratio unchanged up to sampling noise
        def ratio(radius, t, seed):
            cfg = small_config(
                body={"kind": "ball", "dim": 2, "radius": radius},
                t_grid=[t], n_reps=3000, seed=seed,
                functionals=[{"type": "multivariate"}, {"type": "oracle"}],
            )
            table = run_replications(cfg, 0, workers=4)
            return variance_identity_check(table)

        r_unit = ratio(1.0, 400.0, seed=11)
        r_dilated = ratio(2.0, 100.0, seed=12)  # same t * volume
        assert 0.85 <= r_unit <= 1.15
        assert 0.85 <= r_dilated <= 1.15
        assert abs(r_unit - r_dilated) <= 0.12


class TestSandwich:
    def test_probability_high_at_moderate_t(self):
        p = sandwich_probability(Ball(2), 500.0, 2.0, 400, stream(94))
        assert p >= 0.95

    def test_out_of_range_eps_rejected(self):
        # c log t / t above half the volume is not a valid cap parameter
        with pytest.raises(ValueError):
            sandwich_probability(Ball(2), 1.5, 20.0, 10, stream(95))

    def test_non_ball_rejected(self):
        from randpoly.bodies import Ellipsoid

        with pytest.raises(ValueError):
            sandwich_probability(Ellipsoid(2, semi_axes=[1, 2]), 100.0, 2.0,
                                 10, stream(96))

    @pytest.mark.parametrize("n_reps", [0, -1, 2.5, 3.0])
    def test_bad_replication_count_rejected(self, n_reps):
        # 0 divided by zero, and 2.5 ran two replications but divided by 2.5
        with pytest.raises(ValueError, match="n_reps"):
            sandwich_probability(Ball(2), 100.0, 2.0, n_reps, stream(98))

    def test_deterministic(self):
        a = sandwich_probability(Ball(2), 200.0, 2.0, 100, stream(97))
        b = sandwich_probability(Ball(2), 200.0, 2.0, 100, stream(97))
        assert a == b


class TestMardia:
    def test_calibration_under_normality(self):
        rng = stream(98)
        passes = 0
        trials = 100
        for trial in range(trials):
            x = rng.multivariate_normal(np.zeros(3), np.eye(3), size=10_000)
            table = synthetic_table({"a": x[:, 0], "b": x[:, 1],
                                     "c": x[:, 2]})
            res = mardia_normality(table, ["a", "b", "c"])
            passes += res.passed
        assert passes >= 95

    def test_power_against_exponential(self):
        rng = stream(99)
        rejects = 0
        trials = 20
        for trial in range(trials):
            x = rng.exponential(size=(10_000, 2))
            table = synthetic_table({"a": x[:, 0], "b": x[:, 1]})
            res = mardia_normality(table, ["a", "b"])
            rejects += not res.passed
        assert rejects == trials

    def test_singular_covariance_drops_duplicate(self):
        rng = stream(100)
        x = rng.normal(size=(2000, 3))
        f0 = x[:, 0] + 0.5 * x[:, 2]
        table = synthetic_table({"V_1": x[:, 0], "V_2": x[:, 1],
                                 "f_0": f0, "f_1": f0.copy()})
        res = mardia_normality(table, ["V_1", "V_2", "f_0", "f_1"])
        assert res.dropped == ("f_1",)
        assert res.p == 3

    @pytest.mark.parametrize("case", ["normal", "exponential", "singular"])
    def test_pvalues_match_scipy_stats(self, case):
        if case == "normal":
            x = stream(98).multivariate_normal(np.zeros(3), np.eye(3),
                                               size=10_000)
        elif case == "exponential":
            x = stream(99).exponential(size=(10_000, 2))
        else:
            x = stream(100).normal(size=(2000, 3))
            f0 = x[:, 0] + 0.5 * x[:, 2]
            x = np.column_stack([x[:, 0], x[:, 1], f0, f0])
        names = [f"c{k}" for k in range(x.shape[1])]
        table = synthetic_table(dict(zip(names, x.T)))
        res = mardia_normality(table, names)
        df = res.p * (res.p + 1) * (res.p + 2) / 6.0
        assert res.skewness_pvalue == float(
            spstats.chi2.sf(res.skewness_stat, df))
        assert res.kurtosis_pvalue == float(
            2.0 * spstats.norm.sf(abs(res.kurtosis_stat)))

    def test_needs_enough_replications(self):
        rng = stream(101)
        table = synthetic_table({"a": rng.normal(size=30),
                                 "b": rng.normal(size=30)})
        with pytest.raises(ValueError):
            mardia_normality(table, ["a", "b"])

    def test_multivariate_functional_passes_at_large_intensity(self):
        # proxy check of the multivariate normal limit at desk scale; the
        # rep count keeps the test's detection floor above the residual
        # finite-intensity skewness (about t^(-1/6))
        cfg = ExperimentConfig.from_dict({
            "name": "mardia",
            "body": {"kind": "ball", "dim": 2, "radius": 1.0},
            "t_grid": [4000.0],
            "n_reps": 200,
            "functionals": [{"type": "multivariate"}],
            "seed": 30,
        })
        table = run_replications(cfg, 0, workers=4)
        res = mardia_normality(table, ["V_1", "V_2", "f_0", "f_1"])
        assert res.dropped == ("f_1",)
        assert res.passed


class TestFarFromOrigin:
    def test_replications_of_a_disc_at_1e8(self):
        """A d = 2 table on a unit disc at (1e8, 1e8) runs, through the
        prefilter, and matches the table of the disc at the origin."""
        far = run_replications(small_config(
            body={"kind": "ball", "dim": 2, "radius": 1.0,
                  "center": [1e8, 1e8]},
            t_grid=[1000.0], n_reps=4))
        near = run_replications(small_config(t_grid=[1000.0], n_reps=4))
        for name in near.names:
            assert far.column(name) == pytest.approx(near.column(name),
                                                     rel=1e-6), name
