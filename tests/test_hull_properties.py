"""Property tests for the array path of hull construction and metrics.

Random point sets in d = 2, 3, 4, their permutations and their translates
by up to 1e3 are checked against the face lattice built on demand, the
brute-force facet oracle, and per-simplex reference loops kept here.
Rotated, scaled and translated boxes check the non-simplicial path
against the combinatorics of a box, at translates up to 10 and up to
1e8, and its intrinsic volumes, at the translates up to 10.  Rotated and
scaled copies of samples, with duplicated rows, check that f-vectors are
invariant and V_j is homogeneous of degree j.  Nearly flat clouds check
that the Gram certificate, which lets full-rank inputs skip the SVD, never
decides otherwise than the SVD.
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randpoly.bodies import Ball
from randpoly.hull import (
    REL_TOL,
    Polytope,
    _certified_full_rank,
    _lattice_simplicial,
    _subfaces,
    brute_force_facets,
    convex_hull,
    exact_intrinsic_volumes,
    f_vector,
    hull_facets_as_source_sets,
    surface_measure,
    volume,
)

REL = 1e-12
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)


@st.composite
def point_set_variants(draw, d, n_max):
    """A uniform sample in the unit d-ball, a permutation and a translate."""
    n = draw(st.integers(d + 1, n_max))
    seed = draw(st.integers(0, 2**32 - 1))
    pts = Ball(d).sample_uniform(np.random.default_rng(seed), n)
    perm = draw(st.permutations(range(n)))
    shift = draw(st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d))
    return [pts, pts[list(perm)], pts + np.array(shift)]


# -- per-simplex reference loops -------------------------------------------


def reference_volume(poly):
    centroid = poly.local_vertices.mean(axis=0)
    fact = math.factorial(poly.affine_dim)
    total = 0.0
    for s in poly.facet_simplices:
        total += abs(np.linalg.det(poly.local_vertices[list(s)] - centroid)) / fact
    return total


def reference_surface(poly):
    fact = math.factorial(poly.affine_dim - 1)
    total = 0.0
    for s in poly.facet_simplices:
        vs = poly.local_vertices[list(s)]
        e = vs[1:] - vs[0]
        det = np.linalg.det(e @ e.T)
        if det > 0:
            total += math.sqrt(det) / fact
    return total


def reference_mean_width_3d(poly):
    """Sum over lattice edges of length times exterior angle, / 2 pi."""
    total = 0.0
    for edge in sorted(poly.faces[1]):
        fids = [fi for fi, fs in enumerate(poly.facet_vertex_sets)
                if set(edge) <= set(fs)]
        assert len(fids) == 2
        n1, n2 = poly.facet_normals[fids[0]], poly.facet_normals[fids[1]]
        ext = math.acos(float(np.clip(n1 @ n2, -1.0, 1.0)))
        length = float(np.linalg.norm(poly.local_vertices[edge[0]]
                                      - poly.local_vertices[edge[1]]))
        total += length * ext
    return total / (2.0 * math.pi)


# -- properties --------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_counts_match_lattice(d):
    """f_vector counts sorted integer keys; the lattice holds the distinct
    subsets themselves, found by np.unique without keys.  Vertex ids
    scaled by 2**40 overflow the int64 keys of every f_i with
    0 < i < d - 1, which np.unique then counts."""
    @PROPERTY
    @given(point_set_variants(d, 60))
    def check(variants):
        counts = set()
        for pts in variants:
            poly = convex_hull(pts)
            assert poly.is_simplicial
            fv = f_vector(poly).counts  # counted before the lattice exists
            lattice = _lattice_simplicial(poly.facet_vertex_sets)
            assert fv == tuple(len(lattice[i]) for i in range(d))
            counts.add(fv)
            relabelled = Polytope(d)
            relabelled.affine_dim = d
            relabelled.vertices = poly.vertices
            relabelled.facet_vertex_sets = poly.facet_vertex_sets * 2**40
            relabelled._faces = None
            assert f_vector(relabelled).counts == fv
        assert len(counts) == 1

    check()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_facets_match_brute_force(d):
    @PROPERTY
    @given(point_set_variants(d, 12))
    def check(variants):
        for pts in variants:
            poly = convex_hull(pts)
            assert hull_facets_as_source_sets(poly) == brute_force_facets(pts)

    check()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_metrics_match_reference_loops(d):
    @PROPERTY
    @given(point_set_variants(d, 60))
    def check(variants):
        for pts in variants:
            poly = convex_hull(pts)
            assert volume(poly) == pytest.approx(reference_volume(poly),
                                                 rel=REL)
            assert surface_measure(poly) == pytest.approx(
                reference_surface(poly), rel=REL)
            if d == 3:
                assert exact_intrinsic_volumes(poly)[1] == pytest.approx(
                    reference_mean_width_3d(poly), rel=REL)

    check()


@st.composite
def boxes(draw, d):
    """The corners of a box, then points on its facets and lower faces,
    under one rotation, translated by up to 10 and by 1e2 to 1e8; returns
    the two translates and the box's side lengths."""
    sides = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=d,
                                   max_size=d)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    corners = np.array(list(itertools.product([0.0, 1.0], repeat=d)))
    extra = rng.uniform(0.0, 1.0, (draw(st.integers(0, 6)), d))
    for row in extra:  # pin 1 to d - 1 coordinates to a side
        pinned = rng.choice(d, rng.integers(1, d), replace=False)
        row[pinned] = rng.integers(0, 2, len(pinned))
    rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
    shift = draw(st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d))
    exponents = draw(st.lists(st.floats(2.0, 8.0), min_size=d, max_size=d))
    far = rng.choice([-1.0, 1.0], d) * 10.0 ** np.array(exponents)
    box = np.vstack([corners, extra]) * sides @ rotation.T
    return box + np.array(shift), box + far, sides


@pytest.mark.parametrize("d", [2, 3, 4])
def test_boxes(d):
    @PROPERTY
    @given(boxes(d))
    def check(drawn):
        pts, far_pts, sides = drawn
        near, far = convex_hull(pts), convex_hull(far_pts)
        for poly in (near, far):
            assert poly._faces is None  # the lattice waits for a caller
            assert poly.is_simplicial == (d == 2)
            assert sorted(poly.source_indices.tolist()) == list(range(2**d))
            fv = f_vector(poly).counts
            assert fv == tuple(math.comb(d, i) * 2 ** (d - i)
                               for i in range(d))
            assert fv == tuple(len(poly.faces[i]) for i in range(d))
        if d <= 3:
            # V_j of a box is the j-th elementary symmetric polynomial of
            # its sides; the translation by up to 10 costs digits
            elementary = [sum(math.prod(c) for c in
                              itertools.combinations(sides, j))
                          for j in range(d + 1)]
            assert exact_intrinsic_volumes(near) == pytest.approx(
                elementary, rel=1e-9)

    check()


@st.composite
def similar_copies(draw, d, n_max):
    """A uniform sample in the unit d-ball and its image under a random
    rotation and a scaling by s in [1e-3, 1e3], with some rows repeated
    and all rows shuffled; returns the sample, the image and s."""
    n = draw(st.integers(d + 1, n_max))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = Ball(d).sample_uniform(rng, n)
    rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
    rotation[:, 0] *= np.linalg.det(rotation)  # a rotation, not a reflection
    s = 10.0 ** draw(st.floats(-3.0, 3.0))
    repeats = rng.integers(0, n, draw(st.integers(1, n)))
    image = np.vstack([pts, pts[repeats]]) @ rotation.T * s
    return pts, image[rng.permutation(len(image))], s


@pytest.mark.parametrize("d", [2, 3, 4])
def test_similarity_invariance(d):
    @PROPERTY
    @given(similar_copies(d, 60))
    def check(drawn):
        pts, image, s = drawn
        base, moved = convex_hull(pts), convex_hull(image)
        assert f_vector(moved).counts == f_vector(base).counts
        if d <= 3:
            expected = [v * s**j for j, v
                        in enumerate(exact_intrinsic_volumes(base))]
            assert exact_intrinsic_volumes(moved) == pytest.approx(
                expected, rel=1e-9)
        else:  # V_d and V_{d-1} are the volume and half the surface
            assert volume(moved) == pytest.approx(volume(base) * s**d,
                                                  rel=1e-9)
            assert surface_measure(moved) == pytest.approx(
                surface_measure(base) * s ** (d - 1), rel=1e-9)

    check()


def test_subfaces_without_integer_keys():
    """Indices too large for int64 keys give the same distinct subsets."""
    rng = np.random.default_rng(5)
    facets = np.sort([rng.choice(9, 4, replace=False) for _ in range(20)], 1)
    for m in (1, 2, 3):
        expected = np.unique(
            [c for row in facets for c in itertools.combinations(row, m)],
            axis=0)
        assert np.array_equal(_subfaces(facets, m), expected)
        big = _subfaces(facets * 2**40, m)
        assert np.array_equal(big // 2**40, expected)


@st.composite
def near_flat_clouds(draw, d):
    """Points on a random k-flat, 1 <= k < d, plus noise of 1e-12 to 1e-1
    times their spread, with n = d + 1 to 40 distinct rows, some rows
    repeated and a shift of 0 to 1e8."""
    k = draw(st.integers(1, d - 1))
    n = draw(st.sampled_from([d + 1, d + 2, 12, 40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis, _ = np.linalg.qr(rng.standard_normal((d, k)))
    pts = rng.uniform(-1.0, 1.0, (n, k)) @ basis.T
    pts += 10.0 ** draw(st.floats(-12.0, -1.0)) * rng.standard_normal((n, d))
    repeats = rng.integers(0, n, draw(st.integers(0, n)))
    shift = draw(st.sampled_from([0.0, 1.0, 1e3, 1e6, 1e8]))
    direction = rng.standard_normal(d)
    return np.vstack([pts, pts[repeats]]) + shift * direction / np.linalg.norm(
        direction)


def svd_affine_dim(pts):
    """The affine dimension by the SVD rule, as convex_hull takes it."""
    svals = np.linalg.svd(pts - pts.mean(axis=0), full_matrices=False)[1]
    return int((svals > REL_TOL * svals[0]).sum())


@pytest.mark.parametrize("d", [2, 3, 4])
def test_rank_certificate_agrees_with_svd(d):
    fired = []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(near_flat_clouds(d))
    def check(pts):
        k = svd_affine_dim(pts)
        certified = _certified_full_rank(np.ascontiguousarray(pts.T))
        fired.append(certified)
        if certified:
            assert k == d
        poly = convex_hull(pts)
        assert poly.affine_dim == k
        assert poly.degeneracy == ("full_dimensional" if k == d
                                   else "lower_dimensional")

    check()
    assert any(fired) and not all(fired)  # both branches were taken


def test_default_polytope_arrays_are_read_only():
    """Every polytope shares its empty defaults, so none may be written."""
    fresh, empty = Polytope(3), convex_hull(np.empty((0, 3)))
    point = convex_hull(np.ones((2, 3)))
    for name in ("vertices", "origin", "source_indices", "local_vertices",
                 "facet_normals", "facet_offsets", "facet_simplices",
                 "facet_neighbors", "simplex_facet"):
        default = getattr(fresh, name)
        assert getattr(empty, name) is default
        with pytest.raises(ValueError, match="read-only"):
            default[...] = 0
    assert point.origin is fresh.origin
    with pytest.raises(ValueError, match="read-only"):
        point.origin += 1.0
