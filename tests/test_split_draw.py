"""A ball's Poisson sample drawn with a core ball computes only the points
outside it.

``sample_poisson_process(body, t, rng, core)`` takes the same numbers from
the generator as the draw without a core.  Balls with random centres (up
to 1e3), radii 0.1-10 and expected sizes 4-5000 check, bit for bit, that
its rows outside the core are the eager draw's rows at distance >= rho
from the centre, that reading ``points`` gives the eager rows, that the
prefilter builds the inner rows only when it falls back, and that the
hulls and ``sandwich_probability`` equal those of eager draws.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from randpoly.bodies import (
    Ball,
    _CoreSplitSample,
    Cube,
    Ellipsoid,
    floating_radius,
    sample_poisson_process,
)
from randpoly.hull import REL_TOL, convex_hull, outer_hull, prefiltered_hull
from randpoly.rng import stream, substream
from randpoly.stats import sandwich_probability

from test_prefilter import assert_same_polytope, core_of


def outside_core(columns, center, rho):
    """The prefilter's distance test, as a reference: squared coordinate
    differences summed in axis order, against rho^2."""
    return ((columns.T - center) ** 2).sum(axis=1) >= rho * rho


def assert_same_hull(a, b):
    """``assert_same_polytope``, on degenerate hulls too."""
    if a.is_full_dimensional():
        assert_same_polytope(a, b)
    assert (a.affine_dim, a.diameter) == (b.affine_dim, b.diameter)
    assert a.vertices.tobytes() == b.vertices.tobytes()
    assert np.array_equal(a.source_indices, b.source_indices)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def split_draws(draw):
    """(ball, t, core, seed): a ball in d = 2 or 3, an intensity with
    4-5000 expected points, and a core that is the c = 2 floating body
    or a concentric ball of random radius."""
    d = draw(st.sampled_from([2, 3]))
    center = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=d,
                                    max_size=d)))
    radius = draw(st.floats(0.1, 10.0))
    ball = Ball(d, radius=radius, center=center)
    t = draw(st.integers(4, 5000)) / ball.volume
    frac = draw(st.one_of(st.none(), st.floats(0.0, 0.999)))
    core = core_of(ball, t) if frac is None else None
    if core is None:
        core = (ball.center, radius * (0.5 if frac is None else frac))
    return ball, t, core, draw(st.integers(0, 2**32 - 1))


def test_split_draw_matches_the_eager_draw():
    branches = set()

    @PROPERTY
    @given(split_draws())
    def check(case):
        ball, t, core, seed = case
        eager_rng, split_rng = stream(seed), stream(seed)
        eager = sample_poisson_process(ball, t, eager_rng)
        split = sample_poisson_process(ball, t, split_rng, core)
        assert len(split) == len(eager)
        assert split_rng.random() == eager_rng.random()
        if len(eager) == 0:
            return

        # the prefilter builds the inner rows only when it falls back
        got = outer_hull(eager.points, *core)
        accepted = got is not None and got[1] > core[1] * (1.0 + REL_TOL)
        branches.add(accepted)
        poly = prefiltered_hull(split, core)
        assert ("points" in vars(split)) is not accepted
        assert_same_hull(poly, prefiltered_hull(eager, core))

        keep = outside_core(eager.points.T, *core)
        for cloud in (split, sample_poisson_process(ball, t, stream(seed),
                                                    core)):
            rows, index = cloud.outside(*core)
            assert np.array_equal(index, np.flatnonzero(keep))
            assert rows.tobytes() == eager.points[keep].tobytes()
            assert cloud.points.tobytes() == eager.points.tobytes()

    check()
    assert branches == {True, False}


def test_rows_read_first_give_the_same_outer_rows():
    ball, t = Ball(3, radius=2.0, center=[5.0, -1.0, 0.5]), 300.0
    core = core_of(ball, t)
    eager = sample_poisson_process(ball, t, stream(40))
    split = sample_poisson_process(ball, t, stream(40), core)
    assert split.points.tobytes() == eager.points.tobytes()
    rows, index = split.outside(*core)
    keep = outside_core(eager.points.T, *core)
    assert np.array_equal(index, np.flatnonzero(keep))
    assert rows.tobytes() == eager.points[keep].tobytes()
    # another core is tested row by row
    other = (core[0], 0.5 * core[1])
    rows, index = split.outside(*other)
    keep = outside_core(eager.points.T, *other)
    assert np.array_equal(index, np.flatnonzero(keep))


def test_rows_at_the_core_radius_take_the_exact_test():
    """Uniforms within a relative 1e-9 of the core's: some rows are
    dropped by the bound on u, and the others are built and tested."""
    ball, rho, n = Ball(3, radius=2.0, center=[1e3, -5.0, 0.25]), 1.7, 2000
    rng = stream(42)
    g = rng.standard_normal((n, 3))
    u = (rho / ball.radius) ** 3 * (1.0 + rng.uniform(-1e-9, 1e-9, n))
    split = _CoreSplitSample(ball, g.copy(), u, ball.center, rho)
    eager = ball._rows(g.copy(), u)
    rows, index = split.outside(ball.center, rho)
    keep = outside_core(eager.T, ball.center, rho)
    assert 0 < keep.sum() < n
    assert np.array_equal(index, np.flatnonzero(keep))
    assert rows.tobytes() == eager[keep].tobytes()


def test_bodies_without_a_split_keep_the_eager_draw():
    for body in (Ellipsoid(2, semi_axes=[1.0, 0.5]), Cube(3)):
        a = sample_poisson_process(body, 200.0, stream(41))
        b = sample_poisson_process(body, 200.0, stream(41),
                                   (np.zeros(body.dim), 0.1))
        assert type(b) is type(a)
        assert b.points.tobytes() == a.points.tobytes()


def reference_sandwich(body, t, c, n_reps, rng):
    """Containment frequency from the outer hulls of eager draws."""
    rho = floating_radius(body, t, c)
    hits = 0
    for i in range(n_reps):
        cloud = sample_poisson_process(body, t, substream(rng, i))
        got = outer_hull(cloud.points, body.center, rho, convex_hull)
        hits += got is not None and got[1] >= rho
    return hits / n_reps


@settings(max_examples=12, deadline=None, derandomize=True)
@given(split_draws(), st.sampled_from([0.5, 1.0, 2.0]))
def test_sandwich_matches_eager_draws(case, c):
    ball, t, _, seed = case
    t = max(t, 3.0)
    if c * math.log(t) / t > ball.volume / 2:
        return
    assert sandwich_probability(ball, t, c, 20, stream(seed)) == \
        reference_sandwich(ball, t, c, 20, stream(seed))
