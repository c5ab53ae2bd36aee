"""The measures of 3- and 4-polytopes from one normal per boundary simplex.

V_3, the surface measure and V_1 of a 3-polytope read the outward cross
products of its boundary triangles (``hull._triangles``), built once per
hull.  Random clouds, clouds far from the origin, scaled clouds, a cube
and a regular tetrahedron are checked against qhull's own volume and
area.  A 4-polytope's boundary tetrahedra carry normals of four signed
3 x 3 minors in the same cache: its volume and facet areas, which Cauchy's
V_3 reads, and the ridge path of Monte Carlo V_2 are checked against the
determinant path and against projection hulls.  Exact pins, computed by
the determinant path that 3-D volumes and areas took before, show that
V_1, the face counts and the 2-D measures did not move; the 4-D volume
pin moved by one ulp, and Cauchy's V_3 kept its bits.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from randpoly import hull
from randpoly.bodies import Ball, sample_poisson_process
from randpoly.hull import (
    _canonical_order,
    _haar_bases,
    _ridge_shadows,
    _running_sum,
    _simplex_areas,
    convex_hull,
    exact_intrinsic_volumes,
    f_vector,
    floating_core,
    intrinsic_volume_mc,
    prefiltered_hull,
    surface_measure,
    volume,
)
from randpoly.rng import stream

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
REL = 1e-12


@st.composite
def clouds(draw):
    """A uniform sample of a 3-ball scaled by 1e-6 to 1e6, perhaps moved
    10 to 1e8 diameters off the origin, and the points qhull measures as
    the reference.

    qhull's volume of raw coordinates 1e8 diameters out is off by about
    1e-9, so a moved cloud's reference is its translate by its first
    point.  That translate is exact (each coordinate lies within a factor
    2 of the one subtracted), so both hulls measure the same point set.
    """
    n = draw(st.integers(4, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    pts = Ball(3).sample_uniform(rng, n) * scale
    far = draw(st.sampled_from([None, 1, 3, 8]))
    if far is None:
        return pts, pts
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                   min_size=3, max_size=3)))
    pts = pts + 10.0 ** far * scale * signs
    return pts, pts - pts[0]


@PROPERTY
@given(clouds())
def test_volume_and_surface_match_qhull(cloud):
    pts, ref = cloud
    poly, qh = convex_hull(pts), ConvexHull(ref)
    assert volume(poly) == pytest.approx(qh.volume, rel=REL)
    assert surface_measure(poly) == pytest.approx(qh.area, rel=REL)


@PROPERTY
@given(clouds())
def test_every_reader_gets_the_same_bits(cloud):
    poly = convex_hull(cloud[0])
    vols = exact_intrinsic_volumes(poly)
    assert volume(poly) == vols[3]
    assert _running_sum(_simplex_areas(poly)) == surface_measure(poly)
    assert surface_measure(poly) / 2.0 == vols[2]


REGULAR_TETRAHEDRON = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                                [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
UNIT_CUBE = np.array(list(itertools.product([0.0, 1.0], repeat=3)))


@pytest.mark.parametrize("pts, vol, area", [
    (UNIT_CUBE, 1.0, 6.0),
    (REGULAR_TETRAHEDRON, 8.0 / 3.0, 8.0 * np.sqrt(3.0)),
])
def test_cube_and_regular_tetrahedron(pts, vol, area):
    poly, qh = convex_hull(pts), ConvexHull(pts)
    assert volume(poly) == pytest.approx(qh.volume, rel=REL)
    assert surface_measure(poly) == pytest.approx(qh.area, rel=REL)
    assert volume(poly) == pytest.approx(vol, rel=REL)
    assert surface_measure(poly) == pytest.approx(area, rel=REL)


def _measures(poly):
    return volume(poly), surface_measure(poly), exact_intrinsic_volumes(poly)


def test_reordering_drops_the_cached_triangles():
    pts = Ball(3).sample_uniform(stream(36), 200)
    fresh = _measures(prefiltered_hull(pts, None))
    poly = convex_hull(pts)
    # qhull's order sums the same terms to other bits
    assert _measures(poly) != fresh
    _canonical_order(poly)
    assert _measures(poly) == fresh


def test_triangles_are_built_once_per_hull(monkeypatch):
    poly = convex_hull(Ball(3).sample_uniform(stream(37), 200))
    n_triangles = len(poly.facet_simplices)
    builds, cross = [], hull._cross
    monkeypatch.setattr(hull, "_cross", lambda u, v: builds.append(
        u.shape[1] == n_triangles) or cross(u, v))
    for _ in range(2):
        exact_intrinsic_volumes(poly)
        volume(poly)
        surface_measure(poly)
    # one cross product of all triangles; V_1 also crosses the normals
    # of the facet pairs at each edge, once per call
    assert builds.count(True) == 1
    assert builds.count(False) == 2


def test_no_determinant_on_the_3d_path(monkeypatch):
    poly = convex_hull(Ball(3).sample_uniform(stream(38), 200))

    def det(*args):
        raise AssertionError("np.linalg.det called")

    monkeypatch.setattr(np.linalg, "det", det)
    exact_intrinsic_volumes(poly)
    volume(poly)
    surface_measure(poly)


# -- exact pins: the measures that keep their old path ----------------------


def test_pins_3d_mean_width_and_face_counts():
    a = convex_hull(Ball(3).sample_uniform(stream(31), 40))
    b = prefiltered_hull(sample_poisson_process(Ball(3), 500.0, stream(32)),
                         floating_core(Ball(3), 500.0))
    assert exact_intrinsic_volumes(a)[1] == 3.34166293359442
    assert f_vector(a).counts == (25, 69, 46)
    assert exact_intrinsic_volumes(b)[1] == 3.9085207263827084
    assert f_vector(b).counts == (197, 585, 390)


def test_pins_2d_area_and_perimeter():
    poly = convex_hull(Ball(2).sample_uniform(stream(33), 50))
    assert volume(poly) == 2.4543082679202772
    assert surface_measure(poly) == 5.7022229089012635


def test_pins_4d_volume_and_cauchy_v3():
    # the volume now sums tetrahedron normals, one ulp below the
    # determinants' 1.6652343152818438; Cauchy's V_3 kept its bits
    poly = convex_hull(Ball(4).sample_uniform(stream(34), 80))
    assert volume(poly) == 1.6652343152818436
    assert intrinsic_volume_mc(poly, 3, 8, stream(35))[0] == 4.760756770424363


# -- 4-polytopes: boundary tetrahedra and ridges -----------------------------


TESSERACT = np.array(list(itertools.product([0.0, 1.0], repeat=4)))
HULLS_4D = {f"t{t:g}_{rep}": convex_hull(sample_poisson_process(
    Ball(4), t, stream(40, rep))) for t in (50.0, 100.0, 200.0)
    for rep in range(2)}
HULLS_4D["tesseract"] = convex_hull(TESSERACT)


def _determinant_measures(poly):
    """Volume, boundary simplex areas and their sum as the determinant
    path computed them: cones from the vertex centroid, Gram matrices."""
    vs = poly.local_vertices[poly.facet_simplices]
    cones = vs - poly.local_vertices.mean(axis=0)
    vol = _running_sum(np.abs(np.linalg.det(cones)) / 24.0)
    e = vs[:, 1:] - vs[:, :1]
    gram = np.linalg.det(e @ e.transpose(0, 2, 1))
    areas = np.sqrt(np.where(gram > 0, gram, 0.0)) / 6.0
    return vol, areas, _running_sum(areas)


@pytest.mark.parametrize("name", HULLS_4D)
def test_4d_volume_and_areas_match_the_determinant_path(name):
    poly = HULLS_4D[name]
    vol, areas, surface = _determinant_measures(poly)
    assert volume(poly) == pytest.approx(vol, rel=REL)
    assert surface_measure(poly) == pytest.approx(surface, rel=REL)
    # one by one against the singular values of the edge matrix: the
    # Gram determinant squares the condition of a sliver and is itself
    # off by up to 4e-12 relative on these hulls.  qhull's triangulation
    # of the tesseract's cubes has flat tetrahedra, whose singular values
    # multiply to round-off.
    vs = poly.local_vertices[poly.facet_simplices]
    svd = np.linalg.svd(vs[:, 1:] - vs[:, :1], compute_uv=False)
    ref = svd.prod(axis=1) / 6.0
    atol = 1e-15 * ref.max()
    assert np.allclose(_simplex_areas(poly), ref, rtol=REL, atol=atol)
    assert np.allclose(_simplex_areas(poly), areas, rtol=1e-10, atol=atol)


def test_tesseract_volume_and_half_surface():
    poly = HULLS_4D["tesseract"]
    assert not poly.is_simplicial
    assert volume(poly) == pytest.approx(1.0, rel=REL)
    assert surface_measure(poly) / 2.0 == pytest.approx(4.0, rel=REL)


@pytest.mark.parametrize("name", HULLS_4D)
def test_each_ridge_shadow_equals_its_projection_hull(name):
    # the tesseract's facet normals are axes, so a cone test at c = the
    # projection of e_1 would sit on a normal; c in the widest gap does not
    poly = HULLS_4D[name]
    bases = _haar_bases(4, 2, 100, stream(41))
    want = [volume(convex_hull(poly.vertices @ b)) for b in bases]
    assert np.allclose(_ridge_shadows(poly, bases), want, rtol=REL, atol=0)


def test_ridge_shadows_of_a_hull_far_off():
    pts = Ball(4).sample_uniform(stream(42), 80)
    far = convex_hull(pts + 1e6)
    assert np.any(far.origin != 0)  # the shifted branch
    for a, b in zip(intrinsic_volume_mc(far, 2, 100, stream(43)),
                    intrinsic_volume_mc(convex_hull(pts), 2, 100, stream(43))):
        assert a == pytest.approx(b, rel=1e-9)


def test_lower_dimensional_4d_input_keeps_projection_hulls():
    # a 3-simplex in R^4 has no ridges in R^4; its planes are hulled
    poly = convex_hull(np.hstack([np.vstack([np.zeros(3), np.eye(3)]),
                                  np.ones((4, 1))]))
    assert poly.affine_dim == 3
    vals = np.array([volume(convex_hull(poly.vertices @ b))
                     for b in _haar_bases(4, 2, 50, stream(44))])
    c = hull.projection_mean_coefficient(4, 2)
    est, se = intrinsic_volume_mc(poly, 2, 50, stream(44))
    assert est == c * float(vals.mean())
    assert se == c * float(vals.std(ddof=1)) / np.sqrt(50)


@pytest.mark.parametrize("name", ["t200_0", "tesseract"])
def test_ridge_path_leaves_the_rng_where_the_draws_do(name):
    a, b = stream(45), stream(45)
    intrinsic_volume_mc(HULLS_4D[name], 2, 30, a)
    _haar_bases(4, 2, 30, b)
    assert np.array_equal(a.random(4), b.random(4))


def test_tetrahedra_are_built_once_and_no_determinant_is_taken(monkeypatch):
    poly = convex_hull(Ball(4).sample_uniform(stream(46), 200))
    builds, cross4 = [], hull._cross4
    monkeypatch.setattr(hull, "_cross4", lambda *e: builds.append(1)
                        or cross4(*e))

    def det(*args):
        raise AssertionError("np.linalg.det called")

    monkeypatch.setattr(np.linalg, "det", det)
    bases = _haar_bases(4, 2, 8, stream(47))
    for _ in range(2):
        volume(poly)
        surface_measure(poly)
        _ridge_shadows(poly, bases)
        intrinsic_volume_mc(poly, 2, 8, stream(47))
    assert builds == [1]
