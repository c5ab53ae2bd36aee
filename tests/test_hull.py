"""Tests for hull construction, face lattices, and intrinsic volumes."""
import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as spstats

import randpoly
from randpoly import hull
from randpoly.bodies import Ball, sample_poisson_process
from randpoly.hull import (
    Polytope,
    _haar_bases,
    _hyperplane_shadows,
    _lattice_general,
    _unit_normals,
    brute_force_facets,
    convex_hull,
    exact_intrinsic_volumes,
    f_vector,
    hull_facets_as_source_sets,
    intrinsic_volume_mc,
    projection_mean_coefficient,
    surface_measure,
    volume,
)
from randpoly.rng import stream


def unit_cube_vertices(d):
    return np.array(list(itertools.product([0.0, 1.0], repeat=d)))


def simplex_vertices(d):
    return np.vstack([np.zeros(d), np.eye(d)])


def random_ball_points(n, d, seed):
    return Ball(d).sample_uniform(stream(seed), n)


class TestConstruction:
    def test_tetrahedron(self):
        p = convex_hull(simplex_vertices(3))
        assert f_vector(p).counts == (4, 6, 4)
        assert p.is_full_dimensional()

    def test_square_with_interior_point(self):
        pts = np.vstack([unit_cube_vertices(2), [[0.5, 0.5]]])
        p = convex_hull(pts)
        assert f_vector(p)[0] == 4
        assert 4 not in p.source_indices  # the center is not a vertex

    def test_empty(self):
        p = convex_hull(np.empty((0, 3)))
        assert p.is_empty()
        assert f_vector(p).counts == (0, 0, 0)

    def test_single_point(self):
        p = convex_hull(np.array([[1.0, 2.0]]))
        assert p.degeneracy == "point"
        assert f_vector(p).counts == (1, 0)

    def test_coincident_points(self):
        p = convex_hull(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert p.degeneracy == "point"

    def test_segment_in_3d(self):
        pts = np.array([[0.0, 0, 0], [2.0, 2, 2], [1.0, 1, 1]])
        p = convex_hull(pts)
        assert p.degeneracy == "lower_dimensional" and p.affine_dim == 1
        assert f_vector(p).counts == (2, 0, 0)
        assert volume(p) == 0.0

    def test_planar_polygon_in_3d(self):
        sq = unit_cube_vertices(2)
        pts = np.column_stack([sq, np.ones(4)])
        p = convex_hull(pts)
        assert p.affine_dim == 2
        assert f_vector(p).counts == (4, 4, 0)
        v = exact_intrinsic_volumes(p)
        assert v == pytest.approx([1.0, 2.0, 1.0, 0.0])

    def test_cube_lattice(self):
        p = convex_hull(unit_cube_vertices(3))
        assert f_vector(p).counts == (8, 12, 6)
        assert not p.is_simplicial
        assert volume(p) == pytest.approx(1.0, abs=1e-12)
        assert surface_measure(p) == pytest.approx(6.0, abs=1e-12)

    def test_tesseract_lattice(self):
        # two 3-cube facets share a square ridge of 4 = d vertices
        p = convex_hull(unit_cube_vertices(4))
        assert f_vector(p).counts == (16, 32, 24, 8)
        assert not p.is_simplicial
        assert volume(p) == pytest.approx(1.0, abs=1e-12)
        assert surface_measure(p) == pytest.approx(8.0, abs=1e-12)

    def test_non_extreme_vertex_is_a_lattice_error(self):
        # vertex 4 lies inside the edge (0, 1) of the square 0-1-2-3
        facets = [(0, 1, 4), (1, 2), (2, 3), (0, 3)]
        with pytest.raises(RuntimeError, match="not a 0-face"):
            _lattice_general(facets, 2, 5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = random_ball_points(10, 3, seed=9)
        pts[4, 1] = bad
        with pytest.raises(ValueError, match="points must be finite"):
            convex_hull(pts)

    def test_vertices_satisfy_facets(self):
        p = convex_hull(random_ball_points(200, 3, seed=10))
        excess = p.local_vertices @ p.facet_normals.T - p.facet_offsets
        assert excess.max() <= 1e-9 * p.diameter

    def test_every_vertex_on_enough_facets(self):
        p = convex_hull(random_ball_points(60, 3, seed=11))
        counts = {v: 0 for v in range(p.n_vertices)}
        for fs in p.facet_vertex_sets:
            for v in fs:
                counts[v] += 1
        assert min(counts.values()) >= 3

    def test_ridges_in_exactly_two_facets(self):
        p = convex_hull(random_ball_points(60, 3, seed=12))
        for e in p.faces[1]:
            n = sum(1 for fs in p.facet_vertex_sets if set(e) <= set(fs))
            assert n == 2


class TestFVector:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_simplex_counts(self, d):
        p = convex_hull(simplex_vertices(d))
        expected = tuple(math.comb(d + 1, i + 1) for i in range(d))
        assert f_vector(p).counts == expected

    def test_euler_poincare_random(self):
        for seed in range(20):
            d = 2 + seed % 3
            p = convex_hull(random_ball_points(30, d, seed=100 + seed))
            assert f_vector(p).euler_characteristic() == 1 - (-1) ** d

    def test_simplicial_3d_identities(self):
        for seed in range(10):
            p = convex_hull(random_ball_points(50, 3, seed=200 + seed))
            fv = f_vector(p)
            assert 2 * fv[1] == 3 * fv[2]
            assert fv[0] - fv[1] + fv[2] == 2

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_sampled_hull_missing_a_simplex_raises(self, d):
        """Removing one facet row breaks Euler's relation: every lower
        face still lies in another facet, so only f_{d-1} drops."""
        poly = convex_hull(sample_poisson_process(Ball(d), 100.0,
                                                  stream(70 + d)))
        f_vector(poly)  # the untouched hull passes
        poly.facet_vertex_sets = poly.facet_vertex_sets[1:]
        with pytest.raises(RuntimeError, match="Euler"):
            f_vector(poly)

    def test_ridge_identity_catches_what_euler_misses(self):
        """The boundary of a 4-simplex with one tetrahedron glued onto a
        triangle has f = (6, 13, 13, 6): Euler's relation holds, but
        2 f_2 = 26 is not 4 f_3 = 24."""
        poly = Polytope(4)
        poly.affine_dim, poly.degeneracy = 4, "full_dimensional"
        poly.vertices = np.zeros((6, 4))
        poly.facet_vertex_sets = np.array(
            list(itertools.combinations(range(5), 4)) + [(0, 1, 2, 5)])
        poly._faces = None
        with pytest.raises(RuntimeError, match="ridge identity"):
            f_vector(poly)


class TestVolume:
    def test_unit_cube(self):
        assert volume(convex_hull(unit_cube_vertices(3))) == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_simplex_volume(self, d):
        p = convex_hull(simplex_vertices(d))
        assert volume(p) == pytest.approx(1.0 / math.factorial(d))

    def test_monotone_under_inclusion(self):
        pts = random_ball_points(40, 3, seed=13)
        sub = pts[:20]
        assert volume(convex_hull(sub)) <= volume(convex_hull(pts)) + 1e-12

    def test_intrinsic_volumes_monotone_under_inclusion(self):
        pts = random_ball_points(40, 3, seed=14)
        small, big = convex_hull(pts[:20]), convex_hull(pts)
        for j in (1, 2):
            est_s, se_s = intrinsic_volume_mc(small, j, 3000, stream(15))
            est_b, se_b = intrinsic_volume_mc(big, j, 3000, stream(16))
            assert est_s <= est_b + 4 * math.hypot(se_s, se_b)


class TestSurface:
    def test_square_perimeter(self):
        p = convex_hull(unit_cube_vertices(2))
        assert surface_measure(p) == pytest.approx(4.0)
        assert exact_intrinsic_volumes(p)[1] == pytest.approx(2.0)

    def test_tetrahedron_by_hand(self):
        # origin + unit basis: three right triangles and one equilateral
        p = convex_hull(simplex_vertices(3))
        assert surface_measure(p) == pytest.approx(1.5 + math.sqrt(3) / 2)

    def test_degenerate_raises(self):
        p = convex_hull(np.array([[0.0, 0, 0], [1.0, 1, 1]]))
        with pytest.raises(ValueError):
            surface_measure(p)


class TestHullIdempotence:
    @pytest.mark.parametrize("seed", range(5))
    def test_lattice_identical(self, seed):
        p = convex_hull(random_ball_points(40, 3, seed=300 + seed))
        q = convex_hull(p.vertices)

        def canonical(poly):
            vs = poly.vertices
            return {
                i: {frozenset(map(tuple, vs[list(f)])) for f in fs}
                for i, fs in poly.faces.items()
            }

        assert canonical(p) == canonical(q)


class TestBruteForceOracle:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_facet_sets_match(self, d):
        rng = stream(400 + d)
        for _ in range(25):
            n = int(rng.integers(d + 1, 13))
            pts = Ball(d).sample_uniform(rng, n)
            poly = convex_hull(pts)
            assert hull_facets_as_source_sets(poly) == brute_force_facets(pts)


class TestHaarSubspaces:
    def test_orthonormal(self):
        basis, = _haar_bases(5, 3, 1, stream(20))
        gram = basis.T @ basis
        assert np.allclose(gram, np.eye(3), atol=1e-12)

    def test_angle_uniform_on_grassmannian_2_1(self):
        # lines in the plane have uniform angle in [0, pi)
        rng = stream(21)
        angles = np.empty(10_000)
        for i in range(len(angles)):
            b = _haar_bases(2, 1, 1, rng)[0][:, 0]
            angles[i] = math.atan2(b[1], b[0]) % math.pi
        stat = spstats.kstest(angles / math.pi, "uniform")
        assert stat.pvalue > 0.01

    def test_rotation_invariance_of_projection_lengths(self):
        # statistics of projected lengths of a segment match under rotation
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        seg = np.array([[0.0, 0.0], [1.0, 0.0]])
        seg_rot = seg @ rot.T
        rng = stream(22)

        def lengths(points, n):
            out = np.empty(n)
            poly = convex_hull(points)
            for i in range(n):
                basis, = _haar_bases(2, 1, 1, rng)
                out[i] = volume(convex_hull(poly.vertices @ basis))
            return out

        a = lengths(seg, 10_000)
        b = lengths(seg_rot, 10_000)
        assert spstats.ks_2samp(a, b).pvalue > 0.01


class TestProjection:
    def test_full_dimensional_projection_preserves_volume(self):
        p = convex_hull(random_ball_points(30, 3, seed=23))
        basis, = _haar_bases(3, 3, 1, stream(24))
        assert volume(convex_hull(p.vertices @ basis)) == pytest.approx(
            volume(p), rel=1e-10
        )


class TestIntrinsicVolumeMC:
    def test_cube_all_orders(self):
        p = convex_hull(unit_cube_vertices(3))
        rng = stream(27)
        for j in (1, 2):
            est, se = intrinsic_volume_mc(p, j, 5000, rng)
            assert abs(est - 3.0) <= 4 * se
            assert se > 0

    def test_segment(self):
        seg = convex_hull(np.array([[0.0, 0.0], [0.0, 2.5]]))
        est, se = intrinsic_volume_mc(seg, 1, 3000, stream(28))
        assert abs(est - 2.5) <= 4 * se
        est2, se2 = intrinsic_volume_mc(seg, 2, 100, stream(29))
        assert est2 == 0.0 and se2 == 0.0

    def test_top_order_is_exact(self):
        p = convex_hull(random_ball_points(25, 3, seed=30))
        est, se = intrinsic_volume_mc(p, 3, 50, stream(31))
        assert est == pytest.approx(volume(p), rel=1e-9)
        assert se <= 1e-12 * max(1.0, est)

    def test_agreement_with_exact(self):
        rng = stream(32)
        for seed in range(10):
            p = convex_hull(random_ball_points(30, 3, seed=500 + seed))
            exact = exact_intrinsic_volumes(p)
            for j in (1, 2):
                est, se = intrinsic_volume_mc(p, j, 4000, rng)
                assert abs(est - exact[j]) <= 4 * max(se, 1e-12)

    def test_validation(self):
        p = convex_hull(random_ball_points(10, 2, seed=33))
        with pytest.raises(ValueError):
            intrinsic_volume_mc(p, 0, 100, stream(0))
        with pytest.raises(ValueError):
            intrinsic_volume_mc(p, 1, 1, stream(0))


class TestExactIntrinsicVolumes:
    def test_empty_has_zero_euler(self):
        assert exact_intrinsic_volumes(convex_hull(np.empty((0, 2)))) == [
            0.0, 0.0, 0.0
        ]

    def test_point(self):
        p = convex_hull(np.array([[0.3, 0.4, 0.5]]))
        assert exact_intrinsic_volumes(p) == [1.0, 0.0, 0.0, 0.0]

    def test_cube_binomials(self):
        p = convex_hull(unit_cube_vertices(3))
        assert exact_intrinsic_volumes(p) == pytest.approx([1.0, 3.0, 3.0, 1.0])

    def test_ball_hull_close_to_ball_values(self):
        # the unit disk has V_1 = pi (half perimeter) and V_2 = pi
        pts = random_ball_points(4000, 2, seed=34)
        v = exact_intrinsic_volumes(convex_hull(pts))
        assert v[1] < math.pi and v[1] == pytest.approx(math.pi, rel=2e-2)
        assert v[2] < math.pi and v[2] == pytest.approx(math.pi, rel=2e-2)

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            exact_intrinsic_volumes(convex_hull(simplex_vertices(4)))


class TestMotionInvariance:
    def test_rigid_motion_preserves_volumes_and_fvector(self):
        rng = stream(35)
        pts = random_ball_points(50, 3, seed=36)
        p = convex_hull(pts)
        q_mat, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        moved = pts @ q_mat.T + np.array([3.0, -1.0, 2.0])
        pm = convex_hull(moved)
        assert f_vector(pm).counts == f_vector(p).counts
        assert exact_intrinsic_volumes(pm) == pytest.approx(
            exact_intrinsic_volumes(p), rel=1e-9
        )


class TestWidthAverage:
    """V_1 by Monte Carlo takes widths; it must equal the projection-hull
    average it replaces, on the same subspace draws, bit for bit."""

    @staticmethod
    def hull_path(poly, n_dirs, rng):
        d = poly.dim_ambient
        vals = np.array([volume(convex_hull(
            poly.vertices @ _haar_bases(d, 1, 1, rng)[0]))
            for _ in range(n_dirs)])
        c = projection_mean_coefficient(d, 1)
        return (c * float(vals.mean()),
                c * float(vals.std(ddof=1)) / math.sqrt(n_dirs))

    @pytest.mark.parametrize("poly", [
        convex_hull(random_ball_points(40, 2, seed=60)),
        convex_hull(random_ball_points(60, 3, seed=61)),
        convex_hull(random_ball_points(80, 4, seed=62)),
        convex_hull(unit_cube_vertices(3)),
        convex_hull(np.array([[0.0, 0.0, 1.0], [1.0, 2.0, 3.0]])),
    ], ids=["d2", "d3", "d4", "cube", "segment"])
    def test_equals_projection_hulls(self, poly):
        got = intrinsic_volume_mc(poly, 1, 300, stream(63))
        assert got == self.hull_path(poly, 300, stream(63))

    def test_batched_draws_equal_single_draws(self):
        """One batched QR gives the bases of successive single draws and
        leaves the stream where they leave it."""
        single, batched = stream(69), stream(69)
        expected = [np.linalg.qr(single.standard_normal((3, 2)))[0]
                    for _ in range(4)]
        assert np.array_equal(_haar_bases(3, 2, 4, batched), expected)
        assert single.random() == batched.random()

    def test_rng_left_where_the_hull_path_leaves_it(self):
        poly = convex_hull(random_ball_points(30, 3, seed=64))
        a, b = stream(65), stream(65)
        intrinsic_volume_mc(poly, 1, 20, a)
        self.hull_path(poly, 20, b)
        assert a.random() == b.random()


class TestHyperplaneShadows:
    """V_{d-1} by Monte Carlo takes each hyperplane projection's volume
    from the facets (Cauchy's formula); on the same draws it must equal
    the projection-hull value up to round-off."""

    @staticmethod
    def hull_path(poly, j, n_dirs, rng):
        """Projection volumes hulled one by one, and the estimate and
        standard error intrinsic_volume_mc makes of them."""
        d = poly.dim_ambient
        vals = np.array([volume(convex_hull(poly.vertices @ basis))
                         for basis in _haar_bases(d, j, n_dirs, rng)])
        c = projection_mean_coefficient(d, j)
        return vals, (c * float(vals.mean()),
                      c * float(vals.std(ddof=1)) / math.sqrt(n_dirs))

    POLYS = {
        "d3": convex_hull(random_ball_points(60, 3, seed=80)),
        "d4": convex_hull(random_ball_points(80, 4, seed=81)),
        "d5": convex_hull(random_ball_points(100, 5, seed=82)),
        "cube3": convex_hull(unit_cube_vertices(3)),
        "cube4": convex_hull(unit_cube_vertices(4)),
    }

    @pytest.mark.parametrize("name", POLYS)
    def test_each_direction_equals_its_projection_hull(self, name):
        poly = self.POLYS[name]
        d = poly.dim_ambient
        assert poly.is_simplicial == name.startswith("d")
        bases = _haar_bases(d, d - 1, 200, stream(83))
        got = _hyperplane_shadows(poly, _unit_normals(bases))
        want, (est, se) = self.hull_path(poly, d - 1, 200, stream(83))
        assert np.allclose(got, want, rtol=1e-12, atol=0)
        got_est, got_se = intrinsic_volume_mc(poly, d - 1, 200, stream(83))
        assert got_est == pytest.approx(est, rel=1e-12)
        assert got_se == pytest.approx(se, rel=1e-9)

    def test_far_off_hull(self):
        pts = random_ball_points(80, 4, seed=84)
        near = convex_hull(pts)
        far = convex_hull(pts + 1e6)
        assert np.any(far.origin != 0)  # the shifted branch
        for a, b in zip(intrinsic_volume_mc(far, 3, 100, stream(85)),
                        intrinsic_volume_mc(near, 3, 100, stream(85))):
            assert a == pytest.approx(b, rel=1e-9)

    def test_lower_dimensional_input_keeps_projection_hulls(self):
        # a 3-simplex in R^4 has affine dimension d - 1 and no facets in R^4
        poly = convex_hull(np.hstack([simplex_vertices(3), np.ones((4, 1))]))
        assert poly.affine_dim == 3
        got = intrinsic_volume_mc(poly, 3, 50, stream(86))
        assert got == self.hull_path(poly, 3, 50, stream(86))[1]

    @pytest.mark.parametrize("name", ["d4", "cube3"])
    def test_rng_left_where_the_draws_leave_it(self, name):
        poly = self.POLYS[name]
        d = poly.dim_ambient
        a, b = stream(87), stream(87)
        intrinsic_volume_mc(poly, d - 1, 30, a)
        _haar_bases(d, d - 1, 30, b)
        assert np.array_equal(a.random(4), b.random(4))

    @pytest.mark.parametrize("dirs_per_block", [1, 3])
    def test_small_blocks(self, monkeypatch, dirs_per_block):
        poly = self.POLYS["d4"]
        want = intrinsic_volume_mc(poly, 3, 10, stream(88))
        bases = _haar_bases(4, 3, 10, stream(88))
        shadows = _hyperplane_shadows(poly, _unit_normals(bases))
        monkeypatch.setattr(hull, "_SHADOW_BLOCK",
                            dirs_per_block * len(poly.facet_simplices))
        assert np.array_equal(
            _hyperplane_shadows(poly, _unit_normals(bases)), shadows)
        assert intrinsic_volume_mc(poly, 3, 10, stream(88)) == want


class TestFarFromOrigin:
    """Inputs far from the origin relative to their size reach qhull
    centred; on raw coordinates a unit disc at 1e8 failed the facet check
    on every draw."""

    CENTER = np.array([1e8, 1e8])

    @pytest.mark.parametrize("rep", range(3))
    def test_disc_at_1e8(self, rep):
        body = Ball(2, center=self.CENTER)
        cloud = sample_poisson_process(body, 1000.0, stream(66, rep))
        poly = convex_hull(cloud)
        near = convex_hull(cloud.points - self.CENTER)
        assert hull_facets_as_source_sets(poly) == \
            hull_facets_as_source_sets(near)
        assert volume(poly) == pytest.approx(volume(near), rel=1e-12)
        assert np.array_equal(poly.vertices, cloud.points[poly.source_indices])
        # membership and facet planes stay ambient
        assert poly.max_facet_excess(self.CENTER) < -0.9
        assert poly.max_facet_excess(self.CENTER + [2.0, 0.0]) > 0.9
        normals, offsets = poly.facet_planes()
        assert np.array_equal(normals, near.facet_normals)
        assert np.allclose(offsets - normals @ self.CENTER, near.facet_offsets,
                           rtol=0, atol=1e-7)

    def test_ball_at_1e8_in_3d(self):
        cloud = sample_poisson_process(Ball(3, center=[1e8, 0.0, -1e8]),
                                       500.0, stream(67))
        poly = convex_hull(cloud)
        near = convex_hull(cloud.points - [1e8, 0.0, -1e8])
        assert f_vector(poly).counts == f_vector(near).counts
        assert exact_intrinsic_volumes(poly) == pytest.approx(
            exact_intrinsic_volumes(near), rel=1e-9)

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("shift", [600.0, 1e8])
    def test_rotated_cube_keeps_its_facets(self, d, shift):
        # shifted to its box midpoint, a small cube kept the rounding of
        # its far-off coordinates, and qhull split its squares
        cube = 0.25 * unit_cube_vertices(d)
        for seed in range(10):
            rng = stream(69, seed)
            rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
            poly = convex_hull(cube @ rotation.T + shift)
            assert f_vector(poly).counts == tuple(
                math.comb(d, i) * 2 ** (d - i) for i in range(d))

    @pytest.mark.parametrize("thickness", [40, 130])
    def test_thin_slab_at_1e8(self, thickness):
        # a 4-d slab this many sqrt(n) round-offs thick: given the
        # round-off as its bound, qhull merged facets that left vertices
        # off their planes or a face lattice that did not grade
        d, n = 4, 100
        round_off = (d - 1) * np.spacing(1e8) / 2
        for seed in range(10):
            rng = stream(71, seed)
            rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
            slab = rng.uniform(-0.2, 0.2, (n, d))
            slab[:, -1] = thickness * round_off * rng.standard_normal(n)
            poly = convex_hull(slab @ rotation.T + 1e8)
            f0, f1, f2, f3 = f_vector(poly).counts
            assert poly.affine_dim == d and f0 - f1 + f2 - f3 == 0  # Euler

    def test_near_inputs_keep_raw_coordinates(self):
        poly = convex_hull(random_ball_points(50, 2, seed=68) + 100.0)
        assert not poly.origin.any()
        assert poly.local_vertices is poly.vertices


def test_every_polytope_slot_is_read():
    """No write-only hull state: each slot of ``Polytope`` is loaded as an
    attribute somewhere in the package, not only stored."""
    loaded = {node.attr
              for path in Path(randpoly.__file__).parent.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)}
    assert [s for s in Polytope.__slots__ if s not in loaded] == []
