"""Convex bodies, uniform sampling, and Poisson point processes.

A body supplies exact volume, membership, and a direct uniform sampler.
Point processes with intensity ``t`` times Lebesgue measure restricted
to the body are sampled by drawing a Poisson number of points and
placing them i.i.d. uniformly.

The ball and the ellipsoid have smooth boundary with positive curvature
everywhere; the cube does not and is provided only as an exact-answer
test body (its intrinsic volumes are binomial coefficients).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .records import RECORDS, ConfigError, check_record

__all__ = [
    "ConvexBody",
    "Ball",
    "Ellipsoid",
    "Cube",
    "PointCloud",
    "body_from_spec",
    "sample_poisson_process",
    "unit_ball_volume",
    "ball_cap_volume",
    "ball_floating_body_radius",
    "ball_core_radius",
    "floating_radius",
]

def unit_ball_volume(k: int) -> float:
    """Volume of the k-dimensional unit ball, pi^(k/2) / Gamma(1 + k/2)."""
    return math.pi ** (k / 2.0) / math.gamma(1.0 + k / 2.0)


class PointCloud:
    """A finite set of points in R^d, stored as an (n, d) array."""

    def __init__(self, dim: int, points):
        self.dim = dim
        self.points = np.asarray(points, dtype=float).reshape(-1, dim)

    def __len__(self) -> int:
        return self.points.shape[0]

    def outside(self, center: np.ndarray, rho: float):
        """The rows at distance >= rho from ``center``, the points that a
        core ball's prefilter keeps, and their indices."""
        # column by column: numpy reduces the short rows of an (n, d) array
        # several times slower
        cols = self.points.T
        r2 = (cols[0] - center[0]) ** 2
        for x, c in zip(cols[1:], center[1:]):
            r2 += (x - c) ** 2
        keep = np.flatnonzero(r2 >= rho * rho)
        return self.points.take(keep, axis=0), keep


class _CoreSplitSample(PointCloud):
    """A ball's Poisson sample drawn with a core ball (center, rho): until
    ``points`` is read, ``outside`` with that center array builds only the
    rows outside the core (:meth:`Ball._rows` is elementwise, so a row has
    its bits whichever rows are built with it).  A row scaled to
    s = R u^(1/d) is outside only if s >= rho - |center - body center|
    minus 4 d eps (R + |center| + |body center|) of rounding, so rows with
    u below that bound, widened by a relative 1e-9, are dropped untested."""

    def __init__(self, body: Ball, g, u, center: np.ndarray, rho: float):
        self.dim, self._body, self._g, self._u = body.dim, body, g, u
        self._core, self._outer = (center, rho), None

    def __len__(self) -> int:
        return len(self._u)

    @functools.cached_property
    def points(self) -> np.ndarray:
        return self._body._rows(self._g.copy(), self._u)

    def outside(self, center, rho):
        if rho != self._core[1] or center is not self._core[0]:
            return super().outside(center, rho)
        if self._outer is None:
            body, g, u = self._body, self._g, self._u
            c, bc = center.tolist(), body.center.tolist()
            reach = rho - math.dist(c, bc) - 4 * body.dim * math.ulp(1.0) * (
                body.radius + max(map(abs, bc)) + max(map(abs, c)))
            u_lo = (max(reach, 0.0) / body.radius) ** body.dim * (1 - 1e-9)
            cand = np.flatnonzero(u >= u_lo)
            rows = body._rows(g.take(cand, axis=0), u.take(cand))
            rows, keep = PointCloud(body.dim, rows).outside(center, rho)
            self._outer = rows, cand.take(keep)
        return self._outer


class ConvexBody:
    """Base class: membership, volume, and a closed-form uniform sampler."""

    dim: int
    kind: str
    volume: float
    is_smooth: bool

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(
                f"point has shape {x.shape}, expected ({self.dim},)"
            )
        return bool(self._contains_many(x[None, :])[0])

    def _contains_many(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sample_uniform(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` uniform points on the body, as an (n, d) array."""
        raise NotImplementedError


def _unit_rows(g: np.ndarray) -> np.ndarray:
    """Divide each row of the (m, d) array ``g`` by its Euclidean norm, in
    place, and return it.

    Below 8 columns numpy sums a row's squares left to right, so summing
    the squared columns in order gives ``np.linalg.norm(g, axis=1)`` bit
    for bit, without its (m, d) temporaries; wider rows take that norm.
    """
    if g.shape[1] >= 8:
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        return g
    cols = g.T
    sq = cols[0] * cols[0]
    for c in cols[1:]:
        sq += c * c
    g /= np.sqrt(sq)[:, None]
    return g


def _finite(name: str, value) -> np.ndarray:
    v = np.asarray(value, dtype=float)
    if not all(map(math.isfinite, v.flat)):
        raise ValueError(f"{name} must be finite")
    return v


def _as_center(dim: int, center) -> np.ndarray:
    c = np.zeros(dim) if center is None else _finite("center", center)
    if c.shape != (dim,):
        raise ValueError("center has wrong dimension")
    return c


@dataclass(frozen=True)
class Ball(ConvexBody):
    dim: int
    radius: float = 1.0
    center: np.ndarray = None
    kind: str = field(default="ball", init=False)
    is_smooth: bool = field(default=True, init=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if _finite("radius", self.radius) <= 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center", _as_center(self.dim, self.center))

    @property
    def volume(self) -> float:
        return unit_ball_volume(self.dim) * self.radius**self.dim

    def _contains_many(self, pts):
        d2 = ((pts - self.center) ** 2).sum(axis=1)
        return d2 <= self.radius**2 * (1.0 + 1e-15)

    def sample_uniform(self, rng, n, inner=0.0):
        """``n`` uniform points on the ball outside its concentric ball of
        volume fraction ``inner`` (the whole ball when it is 0)."""
        return self._rows(*self._draw(rng, n, inner))

    def _draw(self, rng, n, inner=0.0):
        """The normals and the volume fractions of ``n`` uniform points."""
        g = rng.standard_normal((n, self.dim))
        return g, inner + rng.random(n) * (1.0 - inner)

    def _rows(self, g, u):
        """The points of :meth:`_draw`'s rows, normalized in place in ``g``."""
        out = _unit_rows(g)
        out *= (self.radius * u ** (1.0 / self.dim))[:, None]
        out += self.center
        return out


@dataclass(frozen=True)
class Ellipsoid(ConvexBody):
    dim: int
    semi_axes: np.ndarray = None
    center: np.ndarray = None
    kind: str = field(default="ellipsoid", init=False)
    is_smooth: bool = field(default=True, init=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        a = _finite("semi_axes", self.semi_axes)
        if a.shape != (self.dim,) or np.any(a <= 0):
            raise ValueError("semi_axes must be dim positive reals")
        object.__setattr__(self, "semi_axes", a)
        object.__setattr__(self, "center", _as_center(self.dim, self.center))

    @property
    def volume(self) -> float:
        return unit_ball_volume(self.dim) * float(np.prod(self.semi_axes))

    # the unit ball's membership test and draw, mapped by x -> a x + center
    def _contains_many(self, pts):
        u = (pts - self.center) / self.semi_axes
        return Ball(self.dim)._contains_many(u)

    def sample_uniform(self, rng, n):
        unit = Ball(self.dim).sample_uniform(rng, n)
        return unit * self.semi_axes + self.center


@dataclass(frozen=True)
class Cube(ConvexBody):
    """Axis-aligned cube [-side/2, side/2]^d.  Non-smooth: test body only."""

    dim: int
    side: float = 1.0
    kind: str = field(default="cube", init=False)
    is_smooth: bool = field(default=False, init=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if _finite("side", self.side) <= 0:
            raise ValueError("side must be positive")

    @property
    def volume(self) -> float:
        return self.side**self.dim

    def _contains_many(self, pts):
        h = self.side / 2.0 * (1.0 + 1e-15)
        return (np.abs(pts) <= h).all(axis=1)

    def sample_uniform(self, rng, n):
        h = self.side / 2.0
        return rng.uniform(-h, h, size=(n, self.dim))


def body_from_spec(spec: dict) -> ConvexBody:
    """Build a body from its config record, e.g. {"kind":"ball","dim":2,"radius":1.0}."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in RECORDS["body"]:
        raise ConfigError("body", f"unknown body kind {kind!r}")
    args = check_record(spec, RECORDS["body"][kind], "body", at="body")
    del args["kind"]
    cls = {"ball": Ball, "ellipsoid": Ellipsoid, "cube": Cube}[kind]
    try:
        return cls(**args)
    except ValueError as exc:  # the body's own ranges
        raise ConfigError("body", str(exc)) from exc


def sample_poisson_process(
    body: ConvexBody, t: float, rng: np.random.Generator, core=None
) -> PointCloud:
    """Poisson process with intensity ``t`` per unit volume, restricted to the body.

    The point count is Poisson(t * volume); given the count, points are
    i.i.d. uniform.  A zero count yields an empty cloud.  Given a ``core``
    ball (center, rho), a ball's sample builds its points inside the core
    only when ``points`` is read, with the same draws and bits.
    """
    if t <= 0:
        raise ValueError("intensity t must be positive")
    n = int(rng.poisson(t * body.volume))
    if n == 0:
        return PointCloud(body.dim, np.empty((0, body.dim)))
    if core is not None and isinstance(body, Ball):
        return _CoreSplitSample(body, *body._draw(rng, n), *core)
    return PointCloud(body.dim, body.sample_uniform(rng, n))


def ball_cap_volume(d: int, r: float, rho: float) -> float:
    """Volume of the cap cut from a d-ball of radius r by a hyperplane
    at distance rho from the center (the smaller piece)."""
    if not 0.0 <= rho <= r:
        raise ValueError("rho must lie in [0, r]")
    a = rho / r
    # integral of (1-u^2)^((d-1)/2) over [a, 1] via the regularized beta
    half = 0.5 * special.beta(0.5, (d + 1) / 2.0)
    tail = half * (1.0 - special.betainc(0.5, (d + 1) / 2.0, a * a))
    return unit_ball_volume(d - 1) * r**d * tail


def ball_floating_body_radius(d: int, r: float, eps: float) -> float:
    """Radius of the concentric ball whose complementary caps have volume eps.

    Every halfspace cutting volume eps off the ball of radius r touches
    the returned concentric sphere, so the set of points not cut off by
    any such cap is exactly the concentric ball of this radius.  Solved
    by root-finding on the monotone cap-volume function.
    """
    half_volume = unit_ball_volume(d) * r**d / 2.0
    if not 0.0 < eps <= half_volume:
        raise ValueError(
            f"eps must lie in (0, {half_volume:.6g}] (half the ball volume)"
        )
    from scipy.optimize import brentq  # ~0.4 s to import; only used here

    f = lambda rho: ball_cap_volume(d, r, rho) - eps
    if f(0.0) <= 0.0:  # eps at (or within rounding of) the half volume
        return 0.0
    return float(brentq(f, 0.0, r, xtol=1e-15, rtol=1e-12))


def floating_radius(body: ConvexBody, t: float, c: float) -> float:
    """Radius of the floating body at cap volume c log t / t of a ball,
    the shell's inner radius at intensity t."""
    if not isinstance(body, Ball):
        raise ValueError("the floating body is implemented for balls only;"
                         " other bodies' error terms take sampling='plain'")
    if t <= 1.0:
        raise ValueError("need t > 1 so that eps = c log t / t is positive")
    return ball_floating_body_radius(body.dim, body.radius,
                                     c * math.log(t) / t)


def ball_core_radius(d: int, r: float, eps: float) -> float | None:
    """``ball_floating_body_radius`` in closed form, without a root finder.

    Inverts ``ball_cap_volume``'s regularized incomplete beta with
    ``scipy.special.betaincinv``, so it never imports ``scipy.optimize``;
    the hull prefilter, which only needs some radius near the floating
    body's, calls it in every replication block.  Returns None where the
    floating body is undefined (eps outside (0, half the ball volume]).
    """
    half = unit_ball_volume(d) * r**d / 2.0
    if not 0.0 < eps <= half:
        return None
    # ball_cap_volume is half (1 - I_x(1/2, (d + 1)/2)) at x = (rho / r)^2
    x = special.betaincinv(0.5, (d + 1) / 2.0, 1.0 - eps / half)
    return r * math.sqrt(x)
