"""The planar inside certificate of the add-one differences.

In the plane, ``_Rehuller.strictly_inside`` first asks a certificate that
proves a point deep inside the cloud's hull from the directions to the
cloud's points, without building the hull.  Whenever it answers "inside",
the facet test of the hull it spared must say so too; the property test
checks this on random, collinear and duplicated clouds, shifted up to 1e8
and scaled from 1e-6 to 1e6, with and without a prefilter core, at hull
vertices, on edges and within a few tolerances of them.  The short-circuit
tests count the hulls that a difference builds.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randpoly import malliavin
from randpoly.bodies import (
    Ball,
    PointCloud,
    floating_core,
    sample_poisson_process,
)
from randpoly.hull import convex_hull, prefiltered_hull, volume
from randpoly.malliavin import (
    _INSIDE_TOL,
    _Rehuller,
    first_difference,
    second_difference,
)
from randpoly.rng import stream

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True)


@st.composite
def planar_clouds(draw):
    """(points, core): a disc sample, a segment or a sample with repeated
    rows, scaled and shifted, and a core ball that leaves all, some, or
    fewer than three of the points outside it (or None)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 50))
    kind = draw(st.sampled_from(["random", "collinear", "duplicated"]))
    if kind == "collinear":
        u = rng.standard_normal(2)
        pts = rng.uniform(-1.0, 1.0, (n, 1)) * (u / np.linalg.norm(u))
    else:
        pts = Ball(2).sample_uniform(rng, n)
        if kind == "duplicated":
            pts = pts[rng.integers(0, n, n + draw(st.integers(1, n)))]
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    shift = np.array([draw(st.sampled_from([0.0, 1.0, -1.0]))
                      * 10.0 ** draw(st.floats(0.0, 8.0)) for _ in range(2)])
    pts = pts * scale + shift
    outside = draw(st.sampled_from([None, 0, 1, 2, len(pts) // 2]))
    if outside is None:
        return pts, None
    center = pts.mean(axis=0)
    r = np.sort(np.linalg.norm(pts - center, axis=1))[::-1]
    # keeps outside + 1 points, more on ties
    return pts, (center, float(r[outside]))


def probe_points(pts):
    """Hull vertices, edge midpoints, points 1, 10 and 1000 tolerances to
    either side of each edge, and the centroid."""
    probes = [pts.mean(axis=0)]
    poly = convex_hull(pts)
    probes.extend(poly.vertices)
    if not poly.is_full_dimensional():
        return probes
    tol = _INSIDE_TOL * max(1.0, poly.diameter)
    normals, _ = poly.facet_planes()
    for (a, b), n in zip(poly.facet_vertex_sets, normals):
        mid = 0.5 * (poly.vertices[a] + poly.vertices[b])
        probes.append(mid)
        for k in (1.0, 10.0, 1e3, -1.0, -10.0, -1e3):
            probes.append(mid + k * tol * n)
    return probes


@PROPERTY
@given(planar_clouds())
def test_certified_points_pass_the_facet_test(cloud):
    pts, core = cloud
    with_core = PointCloud(2, pts, core)
    certified = [x for x in probe_points(pts)
                 if _Rehuller(with_core)._certified_inside(x)]
    if not certified:
        return
    poly = prefiltered_hull(with_core)
    assert poly.is_full_dimensional()
    tol = _INSIDE_TOL * max(1.0, poly.diameter)
    for x in certified:
        assert poly.max_facet_excess(x) < -tol


def disc_cloud(n=200):
    return Ball(2).sample_uniform(stream(171), n)


@pytest.mark.parametrize("scale, shift, certified", [
    (1.0, 0.0, True),
    (1e6, 0.0, True),
    (1.0, 1e6, True),
    (1e-6, 0.0, True),
    # the rounding of coordinates near 1e8, or a tolerance of 1e-12
    # against a disc of radius 1e-7, outweighs any proven depth
    (1.0, 1e8, False),
    (1e-7, 0.0, False),
])
def test_certificate_declines_where_rounding_outweighs_depth(scale, shift,
                                                             certified):
    pts = disc_cloud() * scale + shift
    x = np.full(2, shift)  # the disc's center
    assert _Rehuller(pts)._certified_inside(x) is certified
    poly = convex_hull(pts)
    assert poly.max_facet_excess(x) < -_INSIDE_TOL * max(1.0, poly.diameter)


def test_certificate_needs_three_directions():
    pts = disc_cloud()
    far = pts[np.argsort(np.linalg.norm(pts, axis=1))[-2:]]
    assert not _Rehuller(far)._certified_inside(np.zeros(2))
    # two points outside the core leave too few directions
    core = (np.zeros(2), float(np.sort(np.linalg.norm(pts, axis=1))[-3]))
    assert not _Rehuller(PointCloud(2, pts, core))._certified_inside(
        np.zeros(2))
    assert _Rehuller(pts)._certified_inside(np.zeros(2))


@pytest.fixture
def hull_calls(monkeypatch):
    """Counts the hulls that malliavin builds."""
    calls = []

    def counting(cloud):
        calls.append(len(cloud.points if hasattr(cloud, "points")
                         else cloud))
        return convex_hull(cloud)

    monkeypatch.setattr(malliavin, "convex_hull", counting)
    return calls


def test_certified_draw_builds_no_hull(hull_calls):
    body, t = Ball(2), 500.0
    rng = stream(172)
    x, y = np.array([0.5, 0.0]), np.array([0.0, 0.5])
    for _ in range(5):
        re = _Rehuller(sample_poisson_process(body, t, rng,
                                              floating_core(body, t)))
        assert malliavin._differences(re, volume, x, y, True) == (0.0, 0.0)
    assert hull_calls == []


def test_no_y_test_when_x_stays_inside(hull_calls, monkeypatch):
    tested = []
    inside = _Rehuller.strictly_inside

    def recording(self, p):
        tested.append(tuple(p))
        return inside(self, p)

    monkeypatch.setattr(_Rehuller, "strictly_inside", recording)
    cloud = disc_cloud(40)
    x, y = np.zeros(2), np.array([0.999, 0.0])
    assert second_difference(cloud, x, y, volume) == 0.0
    assert tested == [(0.0, 0.0)]
    assert hull_calls == []
    # y outside the hull needs a hull to tell, but only once x moves
    tested.clear()
    assert second_difference(cloud, y, x, volume) == 0.0
    assert tested == [(0.999, 0.0), (0.0, 0.0)]
    assert len(hull_calls) == 1


def test_moving_points_and_space_still_build_the_base_hull(hull_calls):
    cloud = disc_cloud(40)
    assert first_difference(cloud, np.array([0.999, 0.0]), volume) > 0.0
    assert len(hull_calls) == 2 and hull_calls[0] == 40
    hull_calls.clear()
    cloud3 = Ball(3).sample_uniform(stream(173), 60)
    assert first_difference(cloud3, np.zeros(3), volume) == 0.0
    assert hull_calls == [60]
