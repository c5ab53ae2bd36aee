"""Tests for convex bodies, samplers, and the Poisson point process."""
import ast
import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import randpoly
from randpoly.bodies import (
    Ball,
    Cube,
    Ellipsoid,
    PointCloud,
    ball_cap_volume,
    ball_floating_body_radius,
    body_from_spec,
    floating_radius,
    sample_poisson_process,
    unit_ball_volume,
)
from randpoly.hull import convex_hull, f_vector, volume
from randpoly.malliavin import _region_sampler
from randpoly.rng import stream


class TestMembership:
    def test_ball_center(self):
        assert Ball(2).contains(np.array([0.0, 0.0]))

    def test_ball_boundary_point_is_inside(self):
        assert Ball(2).contains(np.array([1.0, 0.0]))

    def test_ball_outside(self):
        assert not Ball(2).contains(np.array([1.1, 0.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Ball(2).contains(np.array([1.0, 0.0, 0.0]))

    def test_ellipsoid(self):
        e = Ellipsoid(2, semi_axes=[2.0, 0.5])
        assert e.contains(np.array([1.9, 0.0]))
        assert not e.contains(np.array([0.0, 0.6]))

    def test_cube(self):
        c = Cube(3, side=2.0)
        assert c.contains(np.array([1.0, -1.0, 0.3]))
        assert not c.contains(np.array([1.01, 0.0, 0.0]))


class TestVolumesAndBoxes:
    def test_ball_volume(self):
        assert Ball(2).volume == pytest.approx(math.pi)
        assert Ball(3, radius=2.0).volume == pytest.approx(4 / 3 * math.pi * 8)

    def test_ellipsoid_volume(self):
        e = Ellipsoid(3, semi_axes=[1.0, 2.0, 3.0])
        assert e.volume == pytest.approx(4 / 3 * math.pi * 6)

    def test_cube_volume(self):
        assert Cube(4, side=0.5).volume == pytest.approx(0.5**4)

    def test_kappa(self):
        assert unit_ball_volume(0) == pytest.approx(1.0)
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)


class TestUniformSampling:
    @pytest.mark.parametrize("body", [
        Ball(2), Ball(3, radius=2.0, center=[1.0, 0.0, -1.0]),
        Ellipsoid(2, semi_axes=[2.0, 0.5]), Cube(3),
    ])
    def test_support(self, body):
        pts = body.sample_uniform(stream(1), 2000)
        assert all(body.contains(x) for x in pts)

    def test_symmetry_of_mean(self):
        n = 100_000
        pts = Ball(2).sample_uniform(stream(2), n)
        # per-coordinate sd of a uniform disk point is 1/2
        se = 0.5 / math.sqrt(n)
        assert np.all(np.abs(pts.mean(axis=0)) < 3 * se)

    def test_radial_distribution(self):
        # P(|X| <= 2^(-1/2)) is the area ratio r^2 = 1/2
        n = 100_000
        pts = Ball(2).sample_uniform(stream(3), n)
        frac = float((np.linalg.norm(pts, axis=1) <= 2 ** -0.5).mean())
        se = math.sqrt(0.25 / n)
        assert abs(frac - 0.5) <= 3 * se


class TestSamplerBits:
    """The samplers' unit rows are bit-equal to dividing by
    ``np.linalg.norm(g, axis=1)``, and they draw the same numbers."""

    DIMS = [1, 2, 3, 4, 5, 8]

    @staticmethod
    def unit(g):
        return g / np.linalg.norm(g, axis=1, keepdims=True)

    @staticmethod
    def state(rng):
        return json.dumps(rng.bit_generator.state, sort_keys=True,
                          default=np.ndarray.tolist)

    def check(self, draw, reference, seed):
        got_rng, ref_rng = stream(seed), stream(seed)
        for m in (1, 7, 1000):
            assert np.array_equal(draw(got_rng, m), reference(ref_rng, m))
            assert self.state(got_rng) == self.state(ref_rng)

    @pytest.mark.parametrize("d", DIMS)
    def test_ball(self, d):
        body = Ball(d, radius=1.7, center=np.linspace(-1.0, 2.0, d))

        def reference(rng, m):
            g = self.unit(rng.standard_normal((m, d)))
            r = body.radius * rng.random(m) ** (1.0 / d)
            return body.center + g * r[:, None]

        self.check(body.sample_uniform, reference, 40 + d)

    @pytest.mark.parametrize("d", DIMS)
    def test_ellipsoid(self, d):
        body = Ellipsoid(d, semi_axes=np.linspace(0.3, 2.0, d),
                         center=np.linspace(1.0, -1.0, d))

        def reference(rng, m):
            g = self.unit(rng.standard_normal((m, d)))
            r = rng.random(m) ** (1.0 / d)
            return body.center + g * r[:, None] * body.semi_axes

        self.check(body.sample_uniform, reference, 50 + d)

    @pytest.mark.parametrize("d", DIMS)
    def test_boundary_shell(self, d):
        body, t = Ball(d, radius=1.3, center=np.full(d, 0.5)), 400.0
        draw, _ = _region_sampler(body, t, "boundary_shell", 2.0)
        rho = ball_floating_body_radius(d, body.radius, 2.0 * math.log(t) / t)
        frac = (rho / body.radius) ** d

        def reference(rng, m):
            g = self.unit(rng.standard_normal((m, d)))
            u = rng.random(m)
            r = body.radius * (frac + u * (1.0 - frac)) ** (1.0 / d)
            return body.center + g * r[:, None]

        self.check(draw, reference, 60 + d)
        self.check(functools.partial(body.sample_uniform, inner=frac),
                   reference, 60 + d)


class TestPoissonProcess:
    def test_mean_count(self):
        body = Ball(2)
        t = 100.0
        rng = stream(6)
        counts = [len(sample_poisson_process(body, t, rng))
                  for _ in range(10_000)]
        mean = np.mean(counts)
        target = t * body.volume
        se = math.sqrt(target / len(counts))
        assert abs(mean - target) <= 4 * se

    def test_void_probability(self):
        body = Ball(2)
        t = 0.01
        rng = stream(7)
        n = 10_000
        empty = sum(len(sample_poisson_process(body, t, rng)) == 0
                    for _ in range(n)) / n
        target = math.exp(-t * body.volume)
        se = math.sqrt(target * (1 - target) / n)
        assert abs(empty - target) <= 3 * se

    def test_determinism(self):
        body = Ellipsoid(3, semi_axes=[1.0, 2.0, 0.5])
        a = sample_poisson_process(body, 50.0, stream(8))
        b = sample_poisson_process(body, 50.0, stream(8))
        assert np.array_equal(a.points, b.points)

    def test_points_inside(self):
        body = Ball(3)
        cloud = sample_poisson_process(body, 200.0, stream(9))
        assert all(body.contains(x) for x in cloud.points)

    def test_nonpositive_intensity(self):
        with pytest.raises(ValueError):
            sample_poisson_process(Ball(2), 0.0, stream(0))

    @pytest.mark.parametrize("a, t", [((1.0, 0.4), 500.0),
                                      ((1.0, 0.7, 0.4), 1000.0)])
    def test_ellipsoid_is_the_unit_balls_affine_image(self, a, t):
        """Ellipsoid(d, a) at intensity t is the unit ball at t prod(a)
        mapped by x -> a x: on one stream per draw the point counts, the
        points (bit for bit) and the f-vectors agree, and the volumes
        differ by the factor prod(a)."""
        d, scale = len(a), math.prod(a)
        for r in range(200):
            e = sample_poisson_process(Ellipsoid(d, semi_axes=a), t,
                                       stream(7, r))
            b = sample_poisson_process(Ball(d), t * scale, stream(7, r))
            assert len(e) == len(b)
            assert e.points.tobytes() == (b.points * a).tobytes()
            he, hb = convex_hull(e), convex_hull(b)
            assert f_vector(he) == f_vector(hb)
            assert math.isclose(volume(he), scale * volume(hb),
                                rel_tol=1e-14)

    def test_empty_cloud(self):
        cloud = PointCloud(2, np.empty((0, 2)))
        assert len(cloud) == 0


class TestFloatingBodyRadius:
    def test_halfspace_through_center(self):
        assert ball_floating_body_radius(2, 1.0, math.pi / 2) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_monotone_decreasing_in_eps(self):
        eps_grid = np.linspace(1e-4, math.pi / 2, 10)
        rhos = [ball_floating_body_radius(2, 1.0, e) for e in eps_grid]
        assert all(a > b for a, b in zip(rhos, rhos[1:]))

    def test_small_eps_approaches_radius(self):
        assert ball_floating_body_radius(3, 2.0, 1e-9) > 2.0 - 1e-2

    def test_matches_2d_cap_area_root(self):
        # closed-form 2-d cap area A(rho) = arccos(rho) - rho sqrt(1-rho^2)
        eps = 0.1
        rho = ball_floating_body_radius(2, 1.0, eps)
        area = math.acos(rho) - rho * math.sqrt(1 - rho * rho)
        assert area == pytest.approx(eps, rel=1e-10)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ball_floating_body_radius(2, 1.0, 0.0)
        with pytest.raises(ValueError):
            ball_floating_body_radius(2, 1.0, math.pi / 2 + 1e-6)

    def test_floating_radius_of_a_ball(self):
        body, t, c = Ball(3, radius=1.5, center=[1.0, 0.0, -2.0]), 800.0, 2.5
        assert floating_radius(body, t, c) == ball_floating_body_radius(
            3, 1.5, c * math.log(t) / t)

    @pytest.mark.parametrize("body, t, message", [
        (Ellipsoid(2, semi_axes=[1.0, 2.0]), 100.0, "balls only"),
        (Cube(2), 100.0, "balls only"),
        (Ball(2), 1.0, "t > 1"),
    ])
    def test_floating_radius_out_of_range(self, body, t, message):
        with pytest.raises(ValueError, match=message):
            floating_radius(body, t, 2.0)

    def test_cap_volume_full_half(self):
        assert ball_cap_volume(3, 1.0, 0.0) == pytest.approx(
            unit_ball_volume(3) / 2
        )
        assert ball_cap_volume(3, 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)


class TestBodySpecs:
    def test_round_trip(self):
        # every field of the record comes back as the body's attribute
        for record, volume in [
            ({"kind": "ball", "dim": 2, "radius": 1.5, "center": [0.5, -1]},
             2.25 * math.pi),
            ({"kind": "ellipsoid", "dim": 3, "semi_axes": [1.0, 2.0, 3.0]},
             8.0 * math.pi),
            ({"kind": "cube", "dim": 2, "side": 1.5}, 2.25),
        ]:
            body = body_from_spec(record)
            for key, value in record.items():
                assert np.array_equal(getattr(body, key), value), key
            assert body.volume == pytest.approx(volume)

    def test_from_config_record(self):
        b = body_from_spec({"kind": "ball", "dim": 2, "radius": 1.0})
        assert isinstance(b, Ball) and b.dim == 2

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            body_from_spec({"kind": "torus", "dim": 3})

    @pytest.mark.parametrize("spec, known", [
        ({"kind": "ball", "dim": 2, "raduis": 3.0},
         "kind, dim, radius, center"),
        ({"kind": "cube", "dim": 2, "radius": 1.0}, "kind, dim, side"),
    ], ids=["ball", "cube"])
    def test_unknown_key(self, spec, known):
        with pytest.raises(ValueError, match=f"unknown key .*known: {known}"):
            body_from_spec(spec)

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "ball", "dim": 2.5}, r"body\.dim: expected int"),
        ({"kind": "ball", "dim": True}, r"body\.dim: expected int"),
        ({"kind": "ball", "dim": 2, "radius": "2"},
         r"body\.radius: expected float"),
        ({"kind": "cube", "dim": 2, "side": math.nan},
         r"body\.side: expected float"),
        ({"kind": "ball", "dim": 2, "center": [0.0, math.nan]},
         r"body\.center\[1\]: expected float"),
    ], ids=["dim", "dim_bool", "radius_string", "side_nan", "center_nan"])
    def test_bad_value(self, spec, message):
        # int() and float() used to truncate or convert these
        with pytest.raises(ValueError, match=message):
            body_from_spec(spec)

    @pytest.mark.parametrize("cls, kwargs, message", [
        (Ball, {"radius": math.nan}, "radius must be finite"),
        (Ball, {"radius": math.inf}, "radius must be finite"),
        (Ball, {"center": [math.nan, 0.0]}, "center must be finite"),
        (Ellipsoid, {"semi_axes": [1.0, math.nan]},
         "semi_axes must be finite"),
        (Cube, {"side": math.nan}, "side must be finite"),
        (Ball, {"radius": 0.0}, "radius must be positive"),
        (Ellipsoid, {"semi_axes": [1.0, -2.0]},
         "semi_axes must be dim positive reals"),
        (Cube, {"side": -1.0}, "side must be positive"),
    ], ids=["radius_nan", "radius_inf", "center_nan", "semi_axes_nan",
            "side_nan", "radius_zero", "semi_axes_negative", "side_negative"])
    def test_parameter_out_of_range(self, cls, kwargs, message):
        # the non-finite ones used to construct and fail only later, in
        # rng.poisson or in convex_hull
        with pytest.raises(ValueError, match=f"^{message}$"):
            cls(2, **kwargs)

    def test_smoothness_flags(self):
        assert Ball(2).is_smooth and Ellipsoid(2, semi_axes=[1, 2]).is_smooth
        assert not Cube(2).is_smooth


def test_each_radius_solver_has_one_caller():
    """Inside the package only ``bodies.floating_radius`` reads
    ``ball_floating_body_radius`` and only ``hull.floating_core`` reads
    ``ball_core_radius``, so a change of solver touches one function
    each."""
    solvers = {"ball_floating_body_radius", "ball_core_radius"}
    readers = set()

    class Reads(ast.NodeVisitor):
        def __init__(self, module):
            self.where = [module]

        def visit_FunctionDef(self, node):
            self.where.append(node.name)
            self.generic_visit(node)
            self.where.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Name(self, node):
            if node.id in solvers:
                readers.add((node.id, ".".join(self.where)))

        def visit_Attribute(self, node):
            if node.attr in solvers:
                readers.add((node.attr, ".".join(self.where)))
            self.generic_visit(node)

    for path in Path(randpoly.__file__).parent.glob("*.py"):
        Reads(path.stem).visit(ast.parse(path.read_text()))
    assert readers == {("ball_floating_body_radius", "bodies.floating_radius"),
                       ("ball_core_radius", "hull.floating_core")}


def test_every_private_helper_has_a_caller():
    """Each private module-level function or class, and each private
    method, in ``randpoly`` is read somewhere in the package outside its
    own definition, so no helper is left that only tests call."""
    root = Path(randpoly.__file__).parent
    defined, reads = [], []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node, *members]:
                if (isinstance(d, (ast.FunctionDef, ast.ClassDef))
                        and d.name.startswith("_")
                        and not d.name.endswith("__")):
                    defined.append((path.stem, d))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads.append((path.stem, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads.append((path.stem, node.attr, node.lineno))

    def read_outside(module, d):
        return any(name == d.name and not (
            where == module and d.lineno <= line <= d.end_lineno)
            for where, name, line in reads)

    assert len(defined) > 50  # the scan sees the package's helpers
    assert [f"{m}.{d.name}" for m, d in defined
            if not read_outside(m, d)] == []
