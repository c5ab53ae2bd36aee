"""Add-one-cost difference operators and normal-approximation error terms.

The first-order difference of a functional F at a point x is the change in
F when x is added to the point configuration; iterating gives the second
order operator.  Monte Carlo moments of these differences yield the three
error terms whose combination 2*sqrt(tau1) + sqrt(tau2) + tau3 dominates
the Wasserstein distance between the standardized functional and a
standard Gaussian.  They are the one-component case of the multivariate
gamma terms, so one estimator (:func:`estimate_gammas`) computes both.

The triple integrals carry a t^3 prefactor, so plain uniform sampling of
the integration points is hopeless at large intensity: differences vanish
unless the point falls in the thin region between the floating body and
the boundary.  The ``boundary_shell`` sampler draws integration points in
that annulus (balls only) with exact Lebesgue reweighting; ``plain``
remains the ground truth at small t.
"""
from __future__ import annotations

import functools
import math
import pickle
from dataclasses import dataclass, field

import numpy as np

from .bodies import (
    ConvexBody,
    PointCloud,
    _unit_rows,
    floating_core,
    floating_radius,
    sample_poisson_process,
)
from .hull import REL_TOL, Polytope, convex_hull, prefiltered_hull
from .rng import map_items, substream

__all__ = [
    "TauEstimate",
    "GammaEstimate",
    "VectorFunctional",
    "first_difference",
    "second_difference",
    "estimate_taus",
    "estimate_gammas",
    "make_disjoint_visibility_config",
]

_INSIDE_TOL = 1e-12
_EPS = float(np.finfo(float).eps)

# The planar inside certificate (_Rehuller._certified_inside): points
# nearer to x than _NEAR times the cloud's extent are left out, the
# directions to the others may leave no gap of pi - _ETA or more, and the
# facet test's round-off is allowed _ROUNDING eps times the coordinates.
_NEAR = 1e-3
_ETA = 1e-2
_ROUNDING = 1e3


# ---------------------------------------------------------------------------
# difference operators


class _Rehuller:
    """Base hull of a configuration plus cheap re-hulls with added points.

    The hull of (cloud + extras) equals the hull of (hull vertices +
    extras), so after one full hull the add-one re-hulls touch only a
    handful of points.  The base hull skips the points inside the cloud's
    core ball, if it carries one (:func:`~randpoly.bodies.floating_core`).
    It is built on first use; in the plane, :meth:`strictly_inside` often
    answers without it.
    """

    def __init__(self, cloud: PointCloud | np.ndarray):
        if not isinstance(cloud, PointCloud) and np.ndim(cloud) == 2:
            cloud = PointCloud(np.shape(cloud)[1], cloud)
        self._cloud = cloud

    @functools.cached_property
    def base(self) -> Polytope:
        return prefiltered_hull(self._cloud, convex_hull)

    @functools.cached_property
    def _tol(self) -> float:
        return _INSIDE_TOL * max(1.0, self.base.diameter)

    def strictly_inside(self, x: np.ndarray) -> bool:
        return self._certified_inside(x) or (
            self.base.is_full_dimensional()
            and self.base.max_facet_excess(x) < -self._tol)

    def with_points(self, *xs: np.ndarray) -> Polytope:
        return convex_hull(np.vstack([self.base.vertices, *xs]))

    @functools.cached_property
    def _ring(self) -> tuple[np.ndarray, float] | None:
        """Coordinate rows of the planar points outside the core, and the
        certificate's m0; None where the certificate can prove nothing."""
        cloud = self._cloud
        if not isinstance(cloud, PointCloud) or cloud.dim != 2:
            return None
        core = cloud.core
        pts = cloud.points if core is None else cloud.outer[0]
        if len(pts) < 3:
            return None
        rows = np.ascontiguousarray(pts.T)
        # with a core, the points inside it lie in center +- rho
        box = rows if core is None else np.column_stack(
            [rows, core[0] - core[1], core[0] + core[1]])
        (lo0, lo1), (hi0, hi1) = box.min(axis=1), box.max(axis=1)
        diam = math.hypot(hi0 - lo0, hi1 - lo1)
        near = _NEAR * diam
        need = (2.0 * _INSIDE_TOL * max(1.0, diam)
                + math.sqrt(len(cloud)) * (
                    2.0 * REL_TOL * diam
                    + _ROUNDING * _EPS * max(-lo0, -lo1, hi0, hi1)))
        # not (a > b): a NaN from non-finite points declines too
        if not 0.5 * near * math.sin(0.5 * _ETA) > need:
            return None
        return rows, near

    def _certified_inside(self, x: np.ndarray) -> bool:
        """Whether the directions from x to the planar points prove x
        strictly inside the hull, without building it.  False means
        "not proven", and the facet test decides.

        Let P be the points outside the core (all points without one) at
        distance >= m0 = _NEAR D from x, D the diagonal of the cloud's
        bounding box, or with a core of the outer points' box joined with
        center +- rho.  If the directions of p - x, p in P, leave no
        circular gap of pi - eta (eta = _ETA) or more, every closed arc of
        directions of width pi - eta holds one of them.  So for each unit
        u some p in P has u . (p - x) >= m0 cos((pi - eta) / 2) =
        m0 sin(eta / 2): the disc of that radius about x lies in the hull
        of P.  The differences p - x are correctly rounded and arctan2 is
        good to a few ulps, so the computed gaps are off by far less than
        what the proven depth r = m0 sin(eta / 2) / 2 gives up.

        Then the facet test says "inside" too, for :attr:`_ring` declines
        unless r > 2 tol + sqrt(n) (2 REL_TOL D + _ROUNDING eps |z|max),
        with tol = _INSIDE_TOL max(1, D), at least the test's own (up to
        the few eps |z|max by which rounding can put an inner point outside
        center +- rho, which the _ROUNDING term covers), n the number of
        points and |z|max the box's largest coordinate.  The base
        hull's input Q (the points outside the core, or all of them)
        contains P, so it is at least 2r wide in every direction: the least
        singular value of the centred Q is at least r and the largest at
        most sqrt(n) D.  Centring rounds each coordinate by a few
        eps |z|max, which moves them by at most sqrt(n) times that, so the
        SVD rule of :func:`convex_hull` keeps full rank.  Each facet plane
        n . z <= b of the base hull leaves every point of Q, and so the
        disc, below it up to qhull's round-off, a few eps |z|max;
        evaluating the excess adds a few more.  So n . x - b <= -r + that
        round-off < -tol.  Far-off, huge and tiny clouds, and non-finite
        ones without a core, fail the bound, and the facet test decides.
        """
        ring = self._ring
        if ring is None or x.shape != (2,):
            return False
        rows, near = ring
        dx = rows[0] - x[0]
        dy = rows[1] - x[1]
        far = dx * dx + dy * dy >= near * near
        angles = np.arctan2(dy[far], dx[far])
        if len(angles) < 3:
            return False
        angles.sort()
        # np.diff costs twice the slices
        gap = max(float((angles[1:] - angles[:-1]).max()),
                  2.0 * math.pi + angles[0] - angles[-1])
        return gap < math.pi - _ETA


def _differences(re: _Rehuller, fn, x, y, first: bool):
    """(D2_{x,y}, D1_x) of ``fn`` on the configuration of ``re``.

    D2 = F(+x+y) - F(+x) - F(+y) + F() is None when ``y`` is None, and
    D1 = F(+x) - F() is None unless ``first`` is set.  A point strictly
    inside the base hull changes no hull, so every difference it enters
    is exactly 0.0 and takes no re-hull; ``y`` is not tested when ``x``
    is inside.  ``fn`` is evaluated once per hull it needs, as a float
    array.
    """
    def F(hull):
        return np.asarray(fn(hull), dtype=float)

    x_moves = not re.strictly_inside(x)
    y_moves = x_moves and y is not None and not re.strictly_inside(y)
    d2 = None if y is None else 0.0
    d1 = 0.0 if first else None
    if x_moves and (first or y_moves):
        fx, f0 = F(re.with_points(x)), F(re.base)
        if first:
            d1 = fx - f0
        if y_moves:
            d2 = F(re.with_points(x, y)) - fx - F(re.with_points(y)) + f0
    return d2, d1


def _check_in_body(body: ConvexBody | None, *xs) -> None:
    if body is None:
        return
    for x in xs:
        if not body.contains(np.asarray(x, dtype=float)):
            raise ValueError(f"point {np.asarray(x)} lies outside the body")


def first_difference(cloud, x, functional, body: ConvexBody | None = None) -> float:
    """F(hull(cloud + x)) - F(hull(cloud)).

    Exactly zero whenever x lies inside the hull (the hull is unchanged).
    If ``body`` is given, x is validated to lie in it.
    """
    _check_in_body(body, x)
    _, d1 = _differences(_Rehuller(cloud), functional,
                         np.asarray(x, dtype=float), None, True)
    return float(d1)


def second_difference(cloud, x, y, functional,
                      body: ConvexBody | None = None) -> float:
    """Four-term alternating sum F(+x+y) - F(+x) - F(+y) + F()."""
    _check_in_body(body, x, y)
    d2, _ = _differences(_Rehuller(cloud), functional,
                         np.asarray(x, dtype=float),
                         np.asarray(y, dtype=float), False)
    return float(d2)


# ---------------------------------------------------------------------------
# estimates of the error terms


def _check_terms(kind: str, *terms: float) -> None:
    if not all(0.0 <= v < math.inf for v in terms):
        raise ValueError(f"{kind} estimates and their standard errors must "
                         "be finite and nonnegative")


@dataclass(frozen=True)
class TauEstimate:
    tau1: float
    tau2: float
    tau3: float
    se1: float
    se2: float
    se3: float

    def __post_init__(self):
        _check_terms("tau", self.tau1, self.tau2, self.tau3,
                     self.se1, self.se2, self.se3)

    def bound(self) -> float:
        """2 sqrt(tau1) + sqrt(tau2) + tau3."""
        return 2.0 * math.sqrt(self.tau1) + math.sqrt(self.tau2) + self.tau3

    def bound_standard_error(self) -> float:
        # delta method on 2 sqrt(t1) + sqrt(t2) + t3
        acc = self.se3**2
        if self.tau1 > 0:
            acc += (self.se1 / math.sqrt(self.tau1)) ** 2
        if self.tau2 > 0:
            acc += (self.se2 / (2.0 * math.sqrt(self.tau2))) ** 2
        return math.sqrt(acc)


@dataclass(frozen=True)
class GammaEstimate:
    gamma1: float
    gamma2: float
    gamma3: float
    se1: float
    se2: float
    se3: float
    labels: tuple[str, ...]

    def __post_init__(self):
        _check_terms("gamma", self.gamma1, self.gamma2, self.gamma3,
                     self.se1, self.se2, self.se3)

    def bound(self) -> float:
        """m sqrt(gamma1) + (m/2) sqrt(gamma2) + (m^2/4) gamma3, with m
        the number of components."""
        m = len(self.labels)
        return (m * math.sqrt(self.gamma1) + 0.5 * m * math.sqrt(self.gamma2)
                + 0.25 * m * m * self.gamma3)


@dataclass(frozen=True)
class VectorFunctional:
    """Vector functional with per-component standardization scales.

    ``fn`` maps a polytope to raw component values; differences are divided
    by ``scales`` (plug-in standard deviations), which is all that
    standardization contributes to difference operators since means cancel.
    """

    fn: object  # Callable[[Polytope], np.ndarray]
    labels: tuple[str, ...]
    scales: np.ndarray = field(default=None)

    def __post_init__(self):
        s = (np.ones(len(self.labels)) if self.scales is None
             else np.asarray(self.scales, dtype=float))
        if (s.shape != (len(self.labels),)
                or not np.all(np.isfinite(s) & (s > 0))):
            raise ValueError("scales must be finite and positive, one per "
                             "component")
        object.__setattr__(self, "scales", s)
        object.__setattr__(self, "labels", tuple(self.labels))


def _region_sampler(body: ConvexBody, t: float, sampling: str, shell_c: float):
    """Integration-point sampler ``draw(rng, n)`` and its region volume.

    ``plain``: uniform on the body.  ``boundary_shell``: uniform on the
    annulus between the floating body (cap-volume parameter c log t / t)
    and the boundary; balls only.  Differences vanish off the shell except
    on the rare event that the floating body is not contained in the hull,
    so the shell estimate is the restricted integral.  The sampler
    pickles, and a pool worker that receives it finds no radius itself.
    """
    if sampling == "plain":
        return body.sample_uniform, body.volume
    if sampling == "boundary_shell":
        frac = (floating_radius(body, t, shell_c) / body.radius) ** body.dim
        return (functools.partial(body.sample_uniform, inner=frac),
                body.volume * (1.0 - frac))
    raise ValueError(f"unknown sampling {sampling!r}")


def _outer_step(body, t, vf, n_inner, rng, draw_points, core, k):
    """Terms (term1, term2, term3) of outer step k.  ``draw_points`` draws
    the integration points (:func:`_region_sampler`), and ``core`` is the
    base hulls' prefilter ball (:func:`~randpoly.bodies.floating_core`).

    The step draws only from ``substream(rng, k)``, so its terms do not
    depend on which process runs it or on the other steps.  Per
    integration triple, the n_inner independent process draws are split
    round-robin into four disjoint groups so that every factor of a moment
    product is estimated from its own draws (a product of independent
    unbiased estimates is unbiased for the product of moments).
    """
    groups = [range(g, n_inner, 4) for g in range(4)]
    sizes = np.array([len(g) for g in groups])
    rk = substream(rng, k)
    xs = draw_points(rk, 3)
    # Group g estimates E (D2_{x_{g mod 2}, x_3})^4, so x_1 and x_2 get
    # two independent copies each; groups 2 and 3 also estimate
    # E (D1)^4 and E |D1|^3 at their point, rows 0 and 1 of d1[g - 2].
    d2 = np.zeros((4, len(vf.labels)))
    d1 = np.zeros((2, 2, len(vf.labels)))
    for g, idxs in enumerate(groups):
        for _ in idxs:
            # one process draw: the standardized (D2_{x,y}, D1_x)
            re = _Rehuller(sample_poisson_process(body, t, rk, core))
            second, first = _differences(re, vf.fn, xs[g % 2], xs[2], g >= 2)
            d2[g] += (second / vf.scales) ** 4
            if g >= 2:
                first = first / vf.scales
                d1[g - 2] += first ** 4, np.abs(first) ** 3
    d2 /= sizes[:, None]
    d1 /= sizes[2:, None, None]

    s_ab = float(((d2[0] * d2[1]) ** 0.25).sum())
    s_ce = float(((d1[0, 0] * d1[1, 0]) ** 0.25).sum())
    s_a2b2 = float(((d2[2] * d2[3]) ** 0.25).sum())
    return (s_ab * s_ce, s_ab * s_a2b2,
            0.5 * float(d1[0, 1].sum() + d1[1, 1].sum()))


def estimate_taus(
    body: ConvexBody,
    t: float,
    functional,
    variance_estimate: float,
    n_outer: int,
    n_inner: int,
    rng: np.random.Generator,
    sampling: str = "plain",
    shell_c: float = 2.0,
    workers: int = 1,
) -> TauEstimate:
    """Monte Carlo estimates of the three univariate error terms.

    ``functional`` maps a polytope to a raw scalar or a one-element
    sequence; ``variance_estimate`` is the plug-in variance used to put
    the functional on unit-variance scale (means cancel inside
    differences, so only the scale matters).  The tau terms are the gamma
    terms of the one-component functional scaled by
    sqrt(variance_estimate), so this is that :func:`estimate_gammas` call,
    with its options and the same numbers.
    """
    if not 0.0 < variance_estimate < math.inf:
        raise ValueError("variance_estimate must be finite and positive")
    vf = VectorFunctional(fn=functional, labels=("F",),
                          scales=[math.sqrt(variance_estimate)])
    g = estimate_gammas(body, t, vf, n_outer, n_inner, rng, sampling,
                        shell_c, workers)
    return TauEstimate(g.gamma1, g.gamma2, g.gamma3, g.se1, g.se2, g.se3)


def estimate_gammas(
    body: ConvexBody,
    t: float,
    vector_functional: VectorFunctional,
    n_outer: int,
    n_inner: int,
    rng: np.random.Generator,
    sampling: str = "plain",
    shell_c: float = 2.0,
    workers: int = 1,
) -> GammaEstimate:
    """Monte Carlo estimates of the three multivariate error terms.

    The bound m sqrt(gamma1) + (m/2) sqrt(gamma2) + (m^2/4) gamma3 is the
    d_3 bound for the covariance of the standardized vector itself, so
    no covariance matrix enters the estimate.

    The outer steps (:func:`_outer_step`) run in a process pool when
    ``workers > 1``, which needs a picklable functional; each step
    receives the sampler and the prefilter core built here.  Their terms
    are stacked in step order into one contiguous row per term, reduced
    the same way for any worker count, so the estimates are bit-identical.
    """
    if n_inner < 4:
        raise ValueError("n_inner must be >= 4: the moment products combine "
                         "four expectations, each needing disjoint draws")
    if n_outer < 2:
        raise ValueError("n_outer must be >= 2 to report standard errors")
    draw_points, region_volume = _region_sampler(body, t, sampling, shell_c)
    if workers > 1:
        try:
            pickle.dumps(vector_functional)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise ValueError(
                "workers > 1 needs a picklable functional (a module-level "
                f"function or class instance): {exc}"
            ) from exc

    rows = map_items(
        _outer_step, n_outer, workers,
        (body, t, vector_functional, n_inner, rng, draw_points,
         floating_core(body, t)),
    ).T.copy()
    w = t * region_volume  # terms 1 and 2 are triple integrals, 3 single
    weights = (w**3, w**3, w)
    means = [max(wk * math.fsum(r) / n_outer, 0.0)
             for wk, r in zip(weights, rows)]
    ses = [wk * float(r.std(ddof=1)) / math.sqrt(n_outer)
           for wk, r in zip(weights, rows)]
    return GammaEstimate(*means, *ses, labels=vector_functional.labels)


# ---------------------------------------------------------------------------
# constructions with provably disjoint visibility


def make_disjoint_visibility_config(d: int, rng: np.random.Generator):
    """Cloud plus two exterior points whose visibility regions are disjoint.

    Points are placed 1e-4 beyond two nearly antipodal facets of a fat hull
    of 48 (d = 2) or 220 points inscribed in the unit ball.  Disjointness
    is certified geometrically: the hull contains the ball of radius
    r_in = min facet offset, so any point z seeing x must satisfy
    angle(z, x) <= arccos(r_in/|z|) + arccos(r_in/|x|); the certificate
    demands the two such visibility cones cannot meet.  Draws are
    retried, up to 50 times, until the certificate holds.
    """
    n_points = 48 if d == 2 else 220
    for _ in range(50):
        g = _unit_rows(rng.standard_normal((n_points, d)))
        radii = rng.uniform(0.92, 0.99, size=n_points)
        pts = g * radii[:, None]
        poly = convex_hull(pts)
        if not poly.is_full_dimensional():
            continue
        normals, offsets = poly.facet_planes()
        r_in = float(offsets.min())
        if r_in <= 0.5:
            continue
        fi = int(np.argmax(normals[:, 0]))
        fj = int(np.argmin(normals @ normals[fi]))
        x = _point_beyond_facet(poly, fi)
        y = _point_beyond_facet(poly, fj)
        if max(np.linalg.norm(x), np.linalg.norm(y)) >= 1.0:
            continue
        alpha_max = math.acos(min(r_in, 1.0))
        ax = math.acos(min(r_in / np.linalg.norm(x), 1.0))
        ay = math.acos(min(r_in / np.linalg.norm(y), 1.0))
        angle_xy = math.acos(float(np.clip(
            x @ y / (np.linalg.norm(x) * np.linalg.norm(y)), -1.0, 1.0
        )))
        if angle_xy > ax + ay + 2.0 * alpha_max + 1e-6:
            return pts, x, y
    raise RuntimeError("could not certify a disjoint-visibility construction")


def _point_beyond_facet(poly: Polytope, facet_index: int):
    idx = list(poly.facet_vertex_sets[facet_index])
    centroid = poly.vertices[idx].mean(axis=0)
    return centroid + 1e-4 * poly.facet_normals[facet_index]
