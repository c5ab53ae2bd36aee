"""The floating-body prefilter: hull only the points outside a core ball.

Balls with random centres (translates up to 1e3), random radii and a range
of intensities down to a few points, where the core is often not inside
the hull of the outer points.  Whenever the prefilter accepts the outer
hull, it has the facets of the hull of all the points; in d = 2 it is the
same polytope down to the last bit, and in d = 3 its canonical order gives
bit-equal metrics, also under any permutation of the input rows.
``sandwich_probability`` is checked against a reference loop over full
hulls kept here.
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randpoly.bodies import (
    Ball,
    Cube,
    PointCloud,
    ball_core_radius,
    ball_floating_body_radius,
    floating_core,
    sample_poisson_process,
)
from randpoly.hull import (
    REL_TOL,
    convex_hull,
    exact_intrinsic_volumes,
    f_vector,
    hull_facets_as_source_sets,
    outer_hull,
    prefiltered_hull,
    surface_measure,
    volume,
)
from randpoly.rng import stream, substream
from randpoly.stats import sandwich_probability

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def sampled_balls(draw, d):
    """A ball, a Poisson sample of it and the sample's expected size."""
    center = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=d,
                                    max_size=d)))
    radius = draw(st.floats(0.1, 10.0))
    ball = Ball(d, radius=radius, center=center)
    expected = draw(st.sampled_from([4, 10, 30, 100, 300, 1000]))
    t = expected / ball.volume
    seed = draw(st.integers(0, 2**32 - 1))
    return ball, t, sample_poisson_process(ball, t, stream(seed))


def core_of(ball, t):
    """The c = 2 floating body, as floating_core takes it in d = 2 and 3."""
    rho = ball_core_radius(ball.dim, ball.radius, 2.0 * math.log(t) / t)
    return None if rho is None else (ball.center, rho)


def assert_same_metrics(a, b):
    assert exact_intrinsic_volumes(a) == exact_intrinsic_volumes(b)
    assert surface_measure(a) == surface_measure(b)
    assert f_vector(a) == f_vector(b)


def assert_same_polytope(a, b):
    for name in ("vertices", "local_vertices", "source_indices", "origin",
                 "facet_vertex_sets", "facet_normals", "facet_offsets",
                 "facet_simplices", "facet_neighbors", "simplex_facet"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.diameter == b.diameter
    assert volume(a) == volume(b)
    assert surface_measure(a) == surface_measure(b)


@pytest.mark.parametrize("d", [2, 3])
def test_accepted_outer_hull_has_the_facets_of_the_full_hull(d):
    seen = {"accepted": 0, "fallback": 0}

    @PROPERTY
    @given(sampled_balls(d))
    def check(drawn):
        ball, t, cloud = drawn
        core = core_of(ball, t)
        with_core = PointCloud(d, cloud.points, core)
        got = None if core is None else outer_hull(with_core)
        full = convex_hull(cloud)
        if got is None or not got[1] > core[1] * (1.0 + REL_TOL):
            seen["fallback"] += 1
            poly = prefiltered_hull(with_core)
            assert hull_facets_as_source_sets(poly) == \
                hull_facets_as_source_sets(full)
            return
        seen["accepted"] += 1
        assert hull_facets_as_source_sets(got[0]) == \
            hull_facets_as_source_sets(full)
        assert floating_core(ball, t)[1] == core[1]
        if d == 2:
            assert_same_polytope(prefiltered_hull(with_core), full)
        else:  # the accepted hull against the hull of every point
            assert_same_metrics(prefiltered_hull(with_core),
                                prefiltered_hull(cloud))

    check()
    # the strategy reaches both branches
    assert seen["accepted"] > 0 and seen["fallback"] > 0, seen


def test_fallback_hulls_the_whole_cloud():
    # the outer triangle's base runs through the center, so the core ball
    # is not inside it, and the inner point (0, -0.4) is a vertex
    pts = np.array([[1.0, 0.0], [0.05, 0.1], [-1.0, 0.0], [0.0, -0.4],
                    [0.0, 1.0]])
    cloud = PointCloud(2, pts, (np.zeros(2), 0.5))
    poly, dist = outer_hull(cloud)
    assert sorted(poly.source_indices) == [0, 2, 4]
    assert dist < 0.5
    full = prefiltered_hull(cloud)
    assert sorted(full.source_indices) == [0, 2, 3, 4]
    assert_same_polytope(full, convex_hull(pts))


def test_too_few_outer_points_hull_the_whole_cloud():
    pts = np.array([[0.1, 0.0], [0.0, 0.1], [-0.1, -0.1], [2.0, 0.0]])
    cloud = PointCloud(2, pts, (np.zeros(2), 0.5))
    assert outer_hull(cloud) is None
    assert_same_polytope(prefiltered_hull(cloud), convex_hull(pts))


def test_flat_outer_points_hull_the_whole_cloud():
    # three outer points on the x-axis: more than d, but their hull is a
    # segment, so the inner points (0, +-0.2) are vertices
    pts = np.array([[-1.0, 0.0], [0.0, 0.2], [1.0, 0.0], [0.0, -0.2],
                    [2.0, 0.0]])
    cloud = PointCloud(2, pts, (np.zeros(2), 0.5))
    assert len(cloud.outer[1]) == 3
    assert outer_hull(cloud) is None
    full = prefiltered_hull(cloud)
    assert sorted(full.source_indices) == [0, 1, 3, 4]
    assert_same_polytope(full, convex_hull(pts))


@PROPERTY
@given(sampled_balls(3), st.integers(0, 2**32 - 1))
def test_canonical_hull_metrics_do_not_depend_on_the_row_order(drawn, seed):
    ball, t, cloud = drawn
    pts = cloud.points
    if len(pts) <= 3:
        return
    perm = np.random.default_rng(seed).permutation(len(pts))
    a, b = prefiltered_hull(pts), prefiltered_hull(pts[perm])
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(perm[b.source_indices], a.source_indices)
    assert_same_metrics(a, b)


def test_canonical_order_keeps_the_facets_of_a_cube():
    cube = np.array(list(itertools.product([0.0, 1.0], repeat=3)))
    pts = np.vstack([cube, stream(5).uniform(0.1, 0.9, (20, 3))])
    for seed in range(5):
        perm = stream(6, seed).permutation(len(pts))
        poly = prefiltered_hull(pts[perm])
        assert not poly.is_simplicial
        assert hull_facets_as_source_sets(poly) == \
            hull_facets_as_source_sets(convex_hull(pts[perm]))
        assert f_vector(poly).counts == (8, 12, 6)
        assert exact_intrinsic_volumes(poly) == pytest.approx(
            [1.0, 3.0, 3.0, 1.0], rel=1e-12)


def test_floating_core_only_for_sampled_balls_in_the_plane_and_space():
    assert floating_core(Ball(4), 1000.0) is None
    assert floating_core(Cube(2), 1000.0) is None
    assert floating_core(Ball(2), 1.0) is None  # log t / t is not positive
    # a cap of area 2 log 3 / 3 = 0.73 is more than half of this disc
    assert floating_core(Ball(2, radius=0.5), 3.0) is None
    center, rho = floating_core(Ball(2, radius=2.0, center=[1.0, 2.0]), 500.0)
    assert np.array_equal(center, [1.0, 2.0])
    exact = ball_floating_body_radius(2, 2.0, 2.0 * math.log(500.0) / 500.0)
    assert rho == pytest.approx(exact, rel=1e-11)
    center, rho = floating_core(Ball(3, center=[0.0, 1.0, 2.0]), 1000.0)
    assert np.array_equal(center, [0.0, 1.0, 2.0])
    exact = ball_floating_body_radius(3, 1.0, 2.0 * math.log(1000.0) / 1000.0)
    assert rho == pytest.approx(exact, rel=1e-11)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("eps", [1e-4, 0.01, 0.3])
def test_core_radius_matches_the_root_finder(d, eps):
    assert ball_core_radius(d, 1.5, eps) == pytest.approx(
        ball_floating_body_radius(d, 1.5, eps), rel=1e-11)


def test_core_radius_undefined():
    assert ball_core_radius(2, 1.0, 0.0) is None
    assert ball_core_radius(2, 1.0, math.pi / 2 + 1e-9) is None


# -- sandwich_probability -----------------------------------------------------


def reference_sandwich(body, t, c, n_reps, rng):
    """Containment frequency over hulls of all the points."""
    rho = ball_floating_body_radius(body.dim, body.radius, c * math.log(t) / t)
    hits = 0
    for i in range(n_reps):
        poly = convex_hull(sample_poisson_process(body, t, substream(rng, i)))
        if not poly.is_full_dimensional():
            continue
        normals, offsets = poly.facet_planes()
        hits += (offsets - normals @ body.center).min() >= rho
    return hits / n_reps


@pytest.mark.parametrize("body,t,c", [
    (Ball(2), 100.0, 2.0),
    (Ball(2), 30.0, 0.5),  # a tight core: containment often fails
    (Ball(2, radius=3.0, center=[400.0, -50.0]), 20.0, 1.0),
    (Ball(3), 200.0, 2.0),
    (Ball(3, radius=0.5, center=[0.0, 7.0, 1.0]), 300.0, 1.0),
])
def test_sandwich_matches_full_hulls(body, t, c):
    got = sandwich_probability(body, t, c, 60, stream(11))
    assert got == reference_sandwich(body, t, c, 60, stream(11))
    if c < 2.0:  # the tight cores see both outcomes
        assert 0.0 < got < 1.0
