"""The measures of a 3-polytope from one cross product per triangle.

V_3, the surface measure and V_1 of a 3-polytope read the outward cross
products of its boundary triangles (``hull._triangles``), built once per
hull.  Random clouds, clouds far from the origin, scaled clouds, a cube
and a regular tetrahedron are checked against qhull's own volume and
area.  Exact pins, computed by the determinant path that 3-D volumes and
areas took before, show that V_1, the face counts, and the 2-D and 4-D
measures, which keep that path, did not move.
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
    poly = convex_hull(Ball(4).sample_uniform(stream(34), 80))
    assert volume(poly) == 1.6652343152818438
    assert intrinsic_volume_mc(poly, 3, 8, stream(35))[0] == 4.760756770424363
