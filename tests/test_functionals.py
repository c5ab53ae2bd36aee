"""Tests for valuations, the total intrinsic volume, and the estimator."""
import functools
import itertools
import math
import pickle

import numpy as np
import pytest

from randpoly import hull
from randpoly.bodies import Ball, sample_poisson_process
from randpoly.functionals import (
    ValuationSpec,
    build_evaluators,
    column_values,
    euler_indicator,
    intrinsic_volumes,
    multivariate_labels,
    oracle_estimate,
    valuation,
    wills,
)
from randpoly.hull import convex_hull, intrinsic_volume_mc, volume
from randpoly.records import ConfigError
from randpoly.rng import stream


def unit_cube_vertices(d):
    return np.array(list(itertools.product([0.0, 1.0], repeat=d)))


def box_vertices(lo, hi):
    dims = len(lo)
    corners = []
    for mask in itertools.product([0, 1], repeat=dims):
        corners.append([hi[i] if m else lo[i] for i, m in enumerate(mask)])
    return np.array(corners, dtype=float)


class TestEulerIndicator:
    def test_empty(self):
        assert euler_indicator(convex_hull(np.empty((0, 2)))) == 0.0

    def test_point(self):
        assert euler_indicator(convex_hull(np.array([[0.0, 0.0]]))) == 1.0

    def test_mean_matches_void_probability(self):
        body = Ball(2)
        t = 3.0 / body.volume  # expected count 3
        rng = stream(40)
        n = 10_000
        vals = np.empty(n)
        for i in range(n):
            cloud = sample_poisson_process(body, t, rng)
            vals[i] = euler_indicator(convex_hull(cloud))
        target = 1.0 - math.exp(-3.0)
        se = math.sqrt(target * (1 - target) / n)
        assert abs(vals.mean() - target) <= 3 * se


class TestValuationSpec:
    def test_gate_accepts_wills(self):
        assert ValuationSpec((1.0,) * 4, label="wills").clt_compatible()

    def test_gate_rejects_mixed_signs(self):
        assert not ValuationSpec((1.0, -1.0, 0.0)).clt_compatible()

    def test_gate_rejects_euler_only(self):
        assert not ValuationSpec((1.0, 0.0, 0.0)).clt_compatible()

    def test_gate_accepts_negative_ray(self):
        assert ValuationSpec((0.0, -1.0, -2.0)).clt_compatible()

    def test_non_clt_warns_but_evaluates(self):
        poly = convex_hull(unit_cube_vertices(2))
        spec = ValuationSpec((0.0, 0.0, 0.0), label="zero")
        with pytest.warns(UserWarning):
            assert valuation(poly, spec) == 0.0


class TestValuation:
    def test_volume_spec(self):
        poly = convex_hull(unit_cube_vertices(3))
        spec = ValuationSpec((0.0, 0.0, 0.0, 1.0), label="vol")
        assert valuation(poly, spec) == pytest.approx(volume(poly))

    def test_wills_on_cube(self):
        poly = convex_hull(unit_cube_vertices(3))
        assert wills(poly) == pytest.approx(8.0)

    def test_wills_on_square(self):
        poly = convex_hull(unit_cube_vertices(2))
        assert wills(poly) == pytest.approx(4.0)

    def test_wills_empty(self):
        assert wills(convex_hull(np.empty((0, 2)))) == 0.0

    def test_linearity(self):
        poly = convex_hull(Ball(2).sample_uniform(stream(41), 25))
        s1 = ValuationSpec((1.0, 2.0, 0.5), label="a")
        s2 = ValuationSpec((0.0, 1.0, 3.0), label="b")
        combo = ValuationSpec(
            tuple(2 * a + 3 * b for a, b in zip(s1.coeffs, s2.coeffs)),
            label="combo",
        )
        lhs = valuation(poly, combo)
        rhs = 2 * valuation(poly, s1) + 3 * valuation(poly, s2)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_wills_monotone_under_inclusion(self):
        pts = Ball(2).sample_uniform(stream(42), 40)
        small = wills(convex_hull(pts[:15]))
        big = wills(convex_hull(pts))
        assert small <= big + 1e-12

    def test_wrong_length_spec(self):
        poly = convex_hull(unit_cube_vertices(2))
        with pytest.raises(ValueError):
            valuation(poly, ValuationSpec((1.0, 1.0), label="short"))

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_wills_is_the_all_ones_valuation(self, mode):
        poly = convex_hull(Ball(3).sample_uniform(stream(45), 30))
        ones = ValuationSpec((1.0,) * 4, label="ones")
        assert wills(poly, mode, 16, stream(46)) == valuation(
            poly, ones, mode, 16, stream(46))

    def test_zero_valuation_draws_nothing_in_mc_mode(self):
        poly = convex_hull(Ball(3).sample_uniform(stream(48), 30))
        rng, untouched = stream(49), stream(49)
        with pytest.warns(UserWarning, match="coefficient gate"):
            assert valuation(poly, ValuationSpec((0.0,) * 4), "mc", 16,
                             rng) == 0.0
        assert rng.random() == untouched.random()

    def test_mc_mode_agrees(self):
        poly = convex_hull(Ball(3).sample_uniform(stream(43), 30))
        exact = wills(poly)
        est = wills(poly, mode="mc", n_dirs=4000, rng=stream(44))
        assert est == pytest.approx(exact, rel=0.05)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_mc_mode_top_volume_is_exact(self, d):
        # V_d is the volume itself; V_1..V_{d-1} are the projection
        # estimates drawn from the generator in order of j
        poly = convex_hull(Ball(d).sample_uniform(stream(46), 40))
        vols = intrinsic_volumes(poly, mode="mc", n_dirs=16, rng=stream(47))
        rng = stream(47)
        expected = [intrinsic_volume_mc(poly, j, 16, rng)[0]
                    for j in range(1, d)]
        assert vols[1:d] == expected
        assert vols[d] == volume(poly)

    def test_mc_mode_needs_dirs(self):
        poly = convex_hull(unit_cube_vertices(2))
        with pytest.raises(ValueError):
            valuation(poly, ValuationSpec((1.0,) * 3), mode="mc", n_dirs=1,
                      rng=stream(0))


class TestValuationAdditivity:
    def test_boxes_sharing_a_facet(self):
        # two boxes whose union is convex: phi(P) + phi(Q) must equal
        # phi(P union Q) + phi(P intersect Q) for every valuation
        rng = stream(45)
        for _ in range(10):
            split = float(rng.uniform(0.3, 0.7))
            p = box_vertices([0.0, 0.0], [split, 1.0])
            q = box_vertices([split, 0.0], [1.0, 1.0])
            u = box_vertices([0.0, 0.0], [1.0, 1.0])
            i = box_vertices([split, 0.0], [split, 1.0])  # shared facet
            spec = ValuationSpec((1.0, 0.7, 2.0), label="probe")
            lhs = (valuation(convex_hull(p), spec)
                   + valuation(convex_hull(q), spec))
            rhs = (valuation(convex_hull(u), spec)
                   + valuation(convex_hull(i), spec))
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestOracleEstimate:
    def test_direct_formula(self):
        poly = convex_hull(unit_cube_vertices(2))
        # V_2 = 1, f_0 = 4
        assert oracle_estimate(poly, 100.0) == pytest.approx(1.04)

    def test_empty(self):
        assert oracle_estimate(convex_hull(np.empty((0, 2))), 10.0) == 0.0

    def test_invalid_t(self):
        poly = convex_hull(unit_cube_vertices(2))
        with pytest.raises(ValueError):
            oracle_estimate(poly, 0.0)

    def test_dominates_volume(self):
        rng = stream(46)
        body = Ball(2)
        for _ in range(50):
            cloud = sample_poisson_process(body, 50.0, rng)
            poly = convex_hull(cloud)
            assert oracle_estimate(poly, 50.0) >= volume(poly)

    def test_unbiased_small_scale(self):
        body = Ball(2)
        t = 200.0
        rng = stream(47)
        n = 2000
        vals = np.empty(n)
        for i in range(n):
            vals[i] = oracle_estimate(
                convex_hull(sample_poisson_process(body, t, rng)), t
            )
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - math.pi) <= 4 * se


class TestMultivariate:
    @staticmethod
    def components(poly):
        ctx = {"t": 1.0, "rng": None, "cache": {}, "mode": "exact",
               "n_dirs": 64}
        evals = build_evaluators([{"type": "multivariate"}],
                                 poly.dim_ambient)
        return np.array([fn(poly, ctx) for _, fn in evals])

    def test_labels(self):
        assert multivariate_labels(2) == ["V_1", "V_2", "f_0", "f_1"]

    def test_simplex_components(self):
        poly = convex_hull(np.vstack([np.zeros(3), np.eye(3)]))
        assert tuple(self.components(poly)[3:]) == (4.0, 6.0, 4.0)

    def test_plane_face_counts_match(self):
        poly = convex_hull(Ball(2).sample_uniform(stream(48), 50))
        comp = self.components(poly)
        assert comp[2] == comp[3]  # f_0 = f_1

    def test_empty_is_zero(self):
        comp = self.components(convex_hull(np.empty((0, 2))))
        assert np.all(comp == 0.0)


class TestEvaluators:
    def test_column_names_and_values(self):
        evals = build_evaluators(
            [{"type": "multivariate"}, {"type": "oracle"}, {"type": "wills"},
             {"type": "intrinsic", "j": 0}],
            d=2,
        )
        names = [n for n, _ in evals]
        assert names == ["V_1", "V_2", "f_0", "f_1", "oracle", "wills", "V_0"]
        poly = convex_hull(unit_cube_vertices(2))
        ctx = {"t": 10.0, "rng": stream(0), "cache": {}, "mode": "exact",
               "n_dirs": 64}
        vals = {n: fn(poly, ctx) for n, fn in evals}
        assert vals["V_2"] == pytest.approx(1.0)
        assert vals["f_0"] == 4.0
        assert vals["oracle"] == pytest.approx(1.4)
        assert vals["wills"] == pytest.approx(4.0)
        assert vals["V_0"] == 1.0

    RECORDS = [{"type": "intrinsic", "j": 0}, {"type": "intrinsic", "j": 2},
               {"type": "f", "j": 1}, {"type": "wills"}, {"type": "oracle"},
               {"type": "valuation", "label": "half_area",
                "coeffs": [0.0, 0.0, 0.0, 0.5]},
               {"type": "multivariate"}]

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    @pytest.mark.parametrize("record", RECORDS,
                             ids=lambda r: r.get("label", r["type"]))
    def test_evaluators_pickle(self, record, mode):
        poly = convex_hull(sample_poisson_process(Ball(3), 200.0, stream(9)))
        for name, fn in build_evaluators([record], d=3):
            copy = pickle.loads(pickle.dumps(fn))
            a, b = (f(poly, {"t": 200.0, "rng": stream(1), "cache": {},
                             "mode": mode, "n_dirs": 16}) for f in (fn, copy))
            assert a == b, name

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_oracle_column_reads_the_cached_volume(self, mode, monkeypatch):
        poly = convex_hull(sample_poisson_process(Ball(3), 200.0, stream(9)))
        expected = oracle_estimate(poly, 200.0)
        calls, chart_volume = [], hull._chart_volume
        monkeypatch.setattr(hull, "_chart_volume",
                            lambda p: calls.append(p) or chart_volume(p))
        evals = build_evaluators([{"type": "multivariate"},
                                  {"type": "oracle"}], d=3)
        ctx = {"t": 200.0, "rng": stream(1), "cache": {}, "mode": mode,
               "n_dirs": 16}
        vals = [fn(poly, ctx) for _, fn in evals]
        # one volume of the hull itself (mc mode also hulls projections)
        assert vals[-1] == expected
        assert sum(p is poly for p in calls) == 1
        # alone, the column takes the volume and draws no projection
        [(_, oracle)] = build_evaluators([{"type": "oracle"}], d=3)
        rng, untouched = stream(1), stream(1)
        ctx = {"t": 200.0, "rng": rng, "cache": {}, "mode": mode,
               "n_dirs": 16}
        assert oracle(poly, ctx) == expected
        assert rng.random() == untouched.random()

    def test_column_values(self):
        evals = build_evaluators([{"type": "multivariate"},
                                  {"type": "oracle"}], d=2)
        values = functools.partial(column_values,
                                   tuple(fn for _, fn in evals), 50.0)
        poly = convex_hull(sample_poisson_process(Ball(2), 50.0, stream(9)))
        ctx = {"t": 50.0, "rng": None, "cache": {}, "mode": "exact",
               "n_dirs": 64}
        assert values(poly) == [fn(poly, ctx) for _, fn in evals]
        assert pickle.loads(pickle.dumps(values))(poly) == values(poly)

    def test_duplicates_collapse(self):
        evals = build_evaluators(
            [{"type": "intrinsic", "j": 2}, {"type": "multivariate"}], d=2
        )
        names = [n for n, _ in evals]
        assert names.count("V_2") == 1

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            build_evaluators([{"type": "perimeter"}], d=2)

    @pytest.mark.parametrize("spec, known", [
        ({"type": "f", "j": 1, "jj": 0}, "type, j"),
        ({"type": "oracle", "j": 1}, "type"),
        ({"type": "valuation", "label": "a", "coeffs": [0, 1, 1],
          "coef": [1]}, "type, label, coeffs"),
    ], ids=["f", "oracle", "valuation"])
    def test_unknown_key(self, spec, known):
        with pytest.raises(ValueError, match=r"functionals\[1\]: unknown "
                                             f"key .*known: {known}"):
            build_evaluators([{"type": "wills"}, spec], d=2)

    @pytest.mark.parametrize("spec, path", [
        ({"type": "intrinsic", "j": 1.5}, r"functionals\[1\]\.j"),
        ({"type": "f", "j": True}, r"functionals\[1\]\.j"),
        ({"type": "f", "j": "1"}, r"functionals\[1\]\.j"),
        ({"type": "valuation", "label": 5, "coeffs": [0, 1, 1]},
         r"functionals\[1\]\.label"),
        ({"type": "valuation", "label": "a", "coeffs": [0, True, 1]},
         r"functionals\[1\]\.coeffs\[1\]"),
    ], ids=["j", "j_bool", "j_string", "label", "coeffs_bool"])
    def test_bad_value(self, spec, path):
        # int(spec["j"]) used to build V_1 from 1.5 and f_1 from true
        with pytest.raises(ValueError, match=path + ": expected"):
            build_evaluators([{"type": "wills"}, spec], d=2)

    @pytest.mark.parametrize("kind", ["intrinsic", "f"])
    def test_missing_index(self, kind):
        with pytest.raises(ValueError, match=r"functionals\[1\].*needs 'j'"):
            build_evaluators([{"type": "oracle"}, {"type": kind}], d=2)

    def test_wills_column_is_wills(self):
        (_, column), = build_evaluators([{"type": "wills"}], d=3)
        poly = convex_hull(Ball(3).sample_uniform(stream(50), 30))
        ctx = {"t": 1.0, "rng": None, "cache": {}, "mode": "exact",
               "n_dirs": 16}
        assert column(poly, ctx) == wills(poly)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            build_evaluators([{"type": "f", "j": 2}], d=2)

    @pytest.mark.parametrize(
        "label", ["V_0", "V_2", "f_1", "wills", "oracle", "n_points"]
    )
    def test_valuation_label_may_not_shadow_a_column(self, label):
        spec = {"type": "valuation", "label": label, "coeffs": [0, 1, 0]}
        with pytest.raises(ValueError, match="built-in column"):
            build_evaluators([spec, {"type": "multivariate"}], d=2)

    @pytest.mark.parametrize("label", [
        "half,perimeter", "half\nperimeter", "half\rperimeter",
        "half_perimeter ", "half_perimeter\t"])
    def test_valuation_label_must_fit_a_table_header(self, label):
        # each passed before and broke the table it headed: read_csv
        # split or cut the header line, and verify failed on the run
        spec = {"type": "valuation", "label": label, "coeffs": [0, 0.5, 0]}
        with pytest.raises(ConfigError, match="cannot head a table column"):
            build_evaluators([spec], d=2)
        ok = dict(spec, label=" half perimeter")  # inner spaces are fine
        assert [n for n, _ in build_evaluators([ok], d=2)] == [ok["label"]]

    def test_repeated_valuation_label(self):
        first = {"type": "valuation", "label": "a", "coeffs": [0, 1, 0]}
        other = {"type": "valuation", "label": "a", "coeffs": [0, 0, 1]}
        with pytest.raises(ValueError, match="repeats with other"):
            build_evaluators([first, other], d=2)
        same = dict(first, coeffs=[0.0, 1.0, 0.0])
        assert [n for n, _ in build_evaluators([first, same], d=2)] == ["a"]

    def test_valuation_label_free_in_other_dimension(self):
        spec = {"type": "valuation", "label": "V_3", "coeffs": [0, 1, 0]}
        assert [n for n, _ in build_evaluators([spec], d=2)] == ["V_3"]
