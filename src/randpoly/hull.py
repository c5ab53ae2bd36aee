"""Convex hulls with their facets and face lattices, and their intrinsic
volumes.

Hull construction handles every degeneracy totally: an empty input gives an
empty polytope, a single point a point polytope, and inputs whose affine
hull has dimension k < d are processed inside an orthonormal chart of that
affine hull, so one code path serves all cases.  Facet enumeration is
delegated to qhull, and every hull keeps qhull's simplices, neighbors and
plane equations; volumes, surface measures, exterior angles and face
counts are array expressions over them.  A facet is the group of simplices
that share one plane equation, so non-simplicial test bodies such as cubes
get their true facets back.  The face lattice is built only when asked
for: from the facets of a simplicial hull, by downward closure otherwise.
:func:`f_vector` checks every count it makes against Euler's relation
and, on a simplicial polytope, the ridge identity 2 f_{k-2} = k f_{k-1}.

Intrinsic volumes are available exactly in ambient dimension <= 3 and by
Monte Carlo averaging of projection volumes over Haar-random subspaces in
any dimension.  A projection onto a line is measured by its width, one
onto a hyperplane from the polytope's facets (Cauchy's formula), one onto
a plane in d = 4 from the polytope's ridges, and any other projection by
its own hull.  The measures of a 3- or 4-polytope read one normal per
boundary triangle or tetrahedron (a cross product, or four signed 3 x 3
minors).  Polytopes of dimension k = 2 and k >= 5 keep determinants,
whose round-off stored d = 2 bound estimates carry bit for bit.

Most points of a Poisson sample in a smooth body lie inside its floating
body, which the hull contains with high probability, so they never become
vertices.  :func:`prefiltered_hull` hands qhull only the points outside a
core ball and proves afterwards that the dropped points changed nothing.
Sampled balls in d = 2 and d = 3 use it.  In d = 3 it returns simplicial
hulls, every sampled hull among them, in a canonical order, so their
metrics depend on the vertex set alone and do not move with the points
qhull was spared.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull as _QhullHull

from .bodies import Ball, PointCloud, ball_core_radius, unit_ball_volume

__all__ = [
    "Polytope",
    "FVector",
    "convex_hull",
    "outer_hull",
    "outside_core",
    "prefiltered_hull",
    "floating_core",
    "f_vector",
    "volume",
    "surface_measure",
    "intrinsic_volume_mc",
    "exact_intrinsic_volumes",
    "brute_force_facets",
    "hull_facets_as_source_sets",
]

# Facet-membership and affine-rank decisions are made at this tolerance,
# relative to the diameter of the input point set.
REL_TOL = 1e-9

# Full-dimensional inputs whose bounding box lies farther from the origin
# than this many diameters reach qhull centred on the box.  On raw
# coordinates, qhull's planes for a unit disc at 1e8 miss their own
# vertices by 1.5e-8, more than REL_TOL times the diameter.
FAR_FROM_ORIGIN = 1e3


@dataclass(frozen=True)
class FVector:
    """Face counts (f_0, ..., f_{d-1}) of a polytope in ambient dimension d."""

    counts: tuple[int, ...]

    def __getitem__(self, i: int) -> int:
        return self.counts[i]

    def __len__(self) -> int:
        return len(self.counts)

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * c for i, c in enumerate(self.counts))


class Polytope:
    """Vertex list, facets and face lattice of a convex polytope.

    ``vertices`` holds the extreme points in ambient coordinates.  ``faces``
    maps each face dimension i to the set of faces, a face being the sorted
    tuple of its vertex indices.  For inputs of affine dimension k < d the
    lattice is that of the k-dimensional polytope inside its affine hull,
    and ``degeneracy`` records the situation.  Facet hyperplane data lives
    in the coordinates qhull saw (``local_vertices``): k-dimensional chart
    coordinates for such inputs, and for a full-dimensional polytope the
    ambient ones minus ``origin``, which is nonzero only for inputs far
    from the origin.

    A hull built by qhull keeps qhull's triangulation of its boundary:
    ``facet_simplices[s]`` holds the vertex ids of simplex s,
    ``facet_neighbors[s, i]`` is the simplex across the ridge opposite
    slot i, and ``simplex_facet[s]`` is the facet that contains simplex s.
    On a simplicial hull each simplex is a facet, and
    ``facet_vertex_sets`` is the (F, k) array of sorted facet vertex ids.
    On a non-simplicial hull (exact test bodies such as cubes) it is a
    list of sorted tuples, one per facet.  Metrics and face counts are
    array expressions over these arrays, and ``faces`` is built on first
    access.  Simplicial 3-D hulls from :func:`prefiltered_hull`, which
    include every sampled hull, come in a canonical order.
    """

    __slots__ = (
        "dim_ambient",
        "affine_dim",
        "degeneracy",
        "vertices",
        "source_indices",
        "origin",
        "local_vertices",
        "_faces",
        "_triangles",
        "facet_vertex_sets",
        "facet_normals",
        "facet_offsets",
        "facet_simplices",
        "facet_neighbors",
        "simplex_facet",
        "is_simplicial",
        "diameter",
    )

    def __init__(self, dim_ambient: int):
        self.dim_ambient = dim_ambient
        self.affine_dim = -1
        self.degeneracy = "empty"
        # shared read-only defaults: construction replaces, never writes
        (self.vertices, self.origin, self.source_indices, self.local_vertices,
         self.facet_normals, self.facet_offsets, self.facet_simplices,
         self.facet_neighbors, self.simplex_facet) = _empty_arrays(dim_ambient)
        self._faces: dict[int, frozenset] | None = {}
        self._triangles = None
        self.facet_vertex_sets = []
        self.is_simplicial = True
        self.diameter = 0.0

    # -- basic queries -------------------------------------------------

    @property
    def faces(self) -> dict[int, frozenset]:
        if self._faces is None:
            self._faces = (
                _lattice_simplicial(self.facet_vertex_sets)
                if self.is_simplicial else
                _lattice_general(self.facet_vertex_sets, self.affine_dim,
                                 self.n_vertices)
            )
        return self._faces

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def is_empty(self) -> bool:
        return self.degeneracy == "empty"

    def is_full_dimensional(self) -> bool:
        return self.degeneracy == "full_dimensional"

    def facet_planes(self) -> tuple[np.ndarray, np.ndarray]:
        """Outward unit normals and offsets (n . x <= b) in ambient coordinates.

        Only meaningful for full-dimensional polytopes, whose chart is the
        identity or a shift.
        """
        if not self.is_full_dimensional():
            raise ValueError("facet planes in ambient coordinates require a "
                             "full-dimensional polytope")
        return (self.facet_normals,
                self.facet_offsets + self.facet_normals @ self.origin)

    def max_facet_excess(self, x: np.ndarray) -> float:
        """max_F (n_F . x - b_F); <= 0 means x lies in the polytope."""
        if not self.is_full_dimensional():
            raise ValueError("membership test requires a full-dimensional "
                             "polytope")
        return float((self.facet_normals @ (np.asarray(x, float) - self.origin)
                      - self.facet_offsets).max())


@functools.lru_cache(maxsize=None)
def _empty_arrays(d: int) -> tuple[np.ndarray, ...]:
    """The read-only defaults of a d-dimensional ``Polytope``: no vertices,
    the zero origin, and empty index, chart and facet arrays."""
    arrays = (np.empty((0, d)), np.zeros(d), np.empty(0, dtype=int),
              np.empty((0, 0)), np.empty((0, 0)), np.empty(0),
              np.empty((0, 0), dtype=int), np.empty((0, 0), dtype=int),
              np.empty(0, dtype=int))
    for a in arrays:
        a.flags.writeable = False
    return arrays


# ---------------------------------------------------------------------------
# construction


def convex_hull(cloud: PointCloud | np.ndarray) -> Polytope:
    """Convex hull with its facets; degeneracies are encoded, never errors."""
    if isinstance(cloud, PointCloud):
        pts = cloud.points
        d = cloud.dim
    else:
        pts = np.asarray(cloud, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be an (n, d) array")
        d = pts.shape[1]
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")

    poly = Polytope(d)
    n = pts.shape[0]
    if n == 0:
        return poly

    # bounding box; rows of the transpose reduce ~10x faster than numpy's
    # axis-0 reduction of an (n, d) array
    rows = np.ascontiguousarray(pts.T)
    lo, hi = rows.min(axis=1), rows.max(axis=1)
    # math.sqrt of the dot product has np.linalg.norm's bits, at less cost
    span = hi - lo
    diam = math.sqrt(span.dot(span))
    if diam == 0.0:  # all points coincide
        _as_point(poly, pts[0])
        return poly
    poly.diameter = diam

    # the box's midpoint, like its diagonal, depends only on the hull's
    # vertices, so dropping interior points changes neither
    mid = 0.5 * (lo + hi)
    far = math.sqrt(mid.dot(mid)) > FAR_FROM_ORIGIN * diam
    # affine dimension via singular values, relative threshold; skipped
    # where det(C^T C) > GRAM_DELTA tr(C^T C)^d for the centred points C
    # proves that the SVD would find full rank (_certified_full_rank), but
    # not far off, where the least singular value itself is needed
    if far or not _certified_full_rank(rows):
        centered = pts - pts.mean(axis=0)
        _, svals, vt = np.linalg.svd(centered, full_matrices=False)
        k = int((svals > REL_TOL * svals[0]).sum())
    else:
        k = d

    if k == d:
        if far:
            # the points keep their far-off rounding, up to d - 1 half
            # ulps off a facet plane, and qhull merges a box's facets only
            # given that round-off; not for thin inputs, whose merges broke
            # 4-d slabs up to 130 sqrt(n) round-offs thick
            round_off = (d - 1) * float(np.spacing(np.abs(pts).max())) / 2
            if svals[-1] <= 1e4 * math.sqrt(n) * round_off:
                round_off = 0.0
            poly.origin = mid
            _build_full(poly, pts - mid, pts, round_off)
        else:
            _build_full(poly, pts)
        poly.affine_dim = d
        poly.degeneracy = "full_dimensional"
    else:
        _build_full(poly, centered @ vt[:k].T, pts)
        poly.affine_dim = k
        poly.degeneracy = "lower_dimensional"
    return poly


def outside_core(columns: np.ndarray, center: np.ndarray,
                 rho: float) -> np.ndarray:
    """Mask of the points at distance >= rho from ``center``, the points
    that :func:`outer_hull` keeps; ``columns`` holds their coordinates,
    one row per axis (the transpose of an (n, d) array)."""
    # column by column: numpy reduces the short rows of an (n, d) array
    # several times slower
    r2 = (columns[0] - center[0]) ** 2
    for x, c in zip(columns[1:], center[1:]):
        r2 += (x - c) ** 2
    return r2 >= rho * rho


def outer_hull(points: np.ndarray, center: np.ndarray, rho: float,
               build=convex_hull) -> tuple[Polytope, float] | None:
    """Hull of the points at distance >= rho from ``center``, and the least
    distance from ``center`` to its facet planes.

    ``source_indices`` refer to ``points``, and ``build`` makes the hull.
    Returns None when d or fewer points are that far out, or when their
    hull is not full-dimensional.

    If the distance is at least rho, the core ball B_rho, and with it every
    dropped point, lies in the returned hull, which is then the hull of
    all the points.  Otherwise B_rho is not in the hull of all the points
    either: were it inside, no dropped point (each interior to B_rho)
    could be a vertex, and the two hulls would be equal; the same holds
    when None is returned.  Up to ties at rho, which have probability zero
    for sampled points, this decides whether the full hull contains B_rho.
    """
    d = points.shape[1]
    keep = np.nonzero(outside_core(points.T, center, rho))[0]
    if len(keep) <= d:
        return None
    poly = build(points[keep])
    if not poly.is_full_dimensional():
        return None
    poly.source_indices = keep[poly.source_indices]
    return poly, -poly.max_facet_excess(center)


def prefiltered_hull(cloud: PointCloud | np.ndarray,
                     core: tuple[np.ndarray, float] | None,
                     build=convex_hull) -> Polytope:
    """``build(cloud)``, with qhull given only the points outside the core.

    ``core`` is a ball (center, rho), or None to hull every point.  The hull
    of the points outside it (:func:`outer_hull`) is returned when every
    facet plane lies farther than rho (1 + REL_TOL) from the center; then
    it is the hull of the whole cloud, with ``source_indices`` into the
    cloud.  Otherwise the whole cloud is hulled.  Callers pass their own
    module's ``convex_hull`` as ``build``, so a profiler that wraps it
    there sees every hull at its call site.

    A simplicial full-dimensional 3-D hull, which every sampled hull is,
    is returned in canonical order on either branch
    (:func:`_canonical_order`), so the accepted outer hull and the hull of
    all the points give bit-equal metrics.  Non-simplicial hulls (exact
    test bodies) keep qhull's order, whose triangulation of a merged
    facet depends on the input rows.
    """
    pts = cloud.points if isinstance(cloud, PointCloud) else cloud
    got = (None if core is None else
           outer_hull(np.asarray(pts, dtype=float), *core, build=build))
    accept = got is not None and got[1] > core[1] * (1.0 + REL_TOL)
    poly = got[0] if accept else build(cloud)
    if (poly.dim_ambient == 3 and poly.is_full_dimensional()
            and poly.is_simplicial):
        _canonical_order(poly)
    return poly


def floating_core(body, t: float) -> tuple[np.ndarray, float] | None:
    """Core ball for :func:`prefiltered_hull` of a Poisson sample of ``body``
    at intensity t: the floating body at cap volume 2 log t / t of a ball
    in d = 2 or d = 3.  None for every other body, and where that
    floating body is undefined.

    In d = 2 the hull of the outer points comes out of qhull with the same
    vertex and facet arrays as the hull of all the points, so every
    metric is bit-identical.  In d = 3 :func:`prefiltered_hull` puts both
    hulls into one canonical order, which makes their metrics bit-equal.
    In d >= 4 the outer hull misses the core too often to pay (57 of 100
    draws accepted at t = 200).
    """
    if not (isinstance(body, Ball) and body.dim in (2, 3) and t > 1.0):
        return None
    rho = ball_core_radius(body.dim, body.radius, 2.0 * math.log(t) / t)
    return None if rho is None else (body.center, rho)


# det G > GRAM_DELTA tr(G)^d certifies full rank (see _certified_full_rank)
GRAM_DELTA = 1e-6


def _certified_full_rank(rows: np.ndarray) -> bool:
    """Whether the Gram certificate proves that the points (the columns of
    the (d, n) array ``rows``) have full affine rank, as the SVD rule would
    decide.

    G = C^T C for the centred points C.  Its eigenvalues are the squared
    singular values s_i^2 of C, so det G <= s_min^2 s_max^(2(d-1)) and
    tr G >= s_max^2: det G > delta tr(G)^d gives (s_min / s_max)^2 >
    delta = GRAM_DELTA.  Rounding moves the entries of G, and with them
    its eigenvalues, by about n eps tr G, far below delta tr G for any n
    under 1e8, so the computed certificate still gives s_min / s_max >
    7e-4.  The SVD's singular values are off by a few eps s_max, so it
    sees a ratio far above REL_TOL = 1e-9 and decides full rank too.
    Thin, flat, overflowing and underflowing inputs fail the certificate
    and take the SVD.
    """
    c = rows - rows.sum(axis=1, keepdims=True) / rows.shape[1]
    g = c @ c.T
    if len(g) == 2:
        (a, b), (_, e) = g.tolist()
        return a * e - b * b > GRAM_DELTA * (a + e) ** 2
    return float(np.linalg.det(g)) > GRAM_DELTA * float(g.trace()) ** len(g)


def _as_point(poly: Polytope, p: np.ndarray) -> None:
    poly.affine_dim = 0
    poly.degeneracy = "point"
    poly.vertices = p[None, :].copy()
    poly.source_indices = np.array([0])
    poly.local_vertices = np.zeros((1, 0))
    poly._faces = {0: frozenset({(0,)})}


def _build_full(poly, work_pts, ambient_pts=None, round_off=0.0) -> None:
    """Run qhull on full-rank points and keep its facet arrays.

    ``work_pts`` are the coordinates handed to qhull (chart coordinates for
    lower-dimensional inputs, shifted ones for far-off inputs), row for row
    the ``ambient_pts`` (default: ``work_pts`` themselves).  k = 1 inputs (a
    segment in any ambient dimension) are ordered directly, without qhull.
    A nonzero ``round_off`` is qhull's round-off bound (with Qx above 4-d,
    like scipy).
    """
    k = work_pts.shape[1]
    if k == 1:
        c = work_pts[:, 0]
        vert_idx = np.array([np.argmin(c), np.argmax(c)])
    else:
        options, tol = None, REL_TOL * poly.diameter
        if round_off:  # box vertices sat 0.8 k round-offs off merged facets
            options = f"E{round_off}" + " Qx" * (k > 4)
            tol = max(tol, 2 * k * round_off)
        hull = _QhullHull(work_pts, qhull_options=options)
        if k == 2:
            # counter-clockwise, and d = 2 areas round in this order
            vert_idx = hull.vertices
        else:  # the ids in the simplices, ascending, as np.unique has them
            used = np.zeros(work_pts.shape[0], dtype=bool)
            used[hull.simplices] = True
            vert_idx = np.flatnonzero(used)
    poly.local_vertices = work_pts[vert_idx]
    poly.source_indices = vert_idx
    poly.vertices = (poly.local_vertices if ambient_pts is None
                     else ambient_pts[vert_idx])
    if k == 1:
        poly._faces = {0: frozenset({(0,), (1,)})}
        poly.facet_vertex_sets = [(0,), (1,)]
        poly.facet_normals = np.array([[-1.0], [1.0]])
        poly.facet_offsets = np.array([-1.0, 1.0]) * poly.local_vertices[:, 0]
        return

    # only the ids of vertices are ever looked up
    remap = np.empty(work_pts.shape[0], dtype=int)
    remap[vert_idx] = np.arange(len(vert_idx))
    simplices = remap[hull.simplices]  # (S, k), new indexing
    eq = hull.equations
    neighbors = hull.neighbors
    poly.facet_simplices = simplices
    poly.facet_neighbors = neighbors

    # qhull triangulates any facet it merged for convexity and stamps every
    # simplex of that facet with one shared plane equation, and distinct
    # facets have distinct planes, so the groups of equal equations are the
    # facets (cubes get squares back).  Nearly coplanar but distinct
    # facets, e.g. sliver pairs on large random hulls, carry distinct
    # equations and stay separate, so sampled hulls are simplicial.
    # (offsets are rarely equal, so whole equations are compared only then)
    coplanar = ((eq[neighbors, -1] == eq[:, -1:]).any()
                and (eq[neighbors] == eq[:, None]).all(axis=-1).any())
    if not coplanar:
        firsts = slice(None)
        poly.simplex_facet = np.arange(len(simplices))
        poly.facet_vertex_sets = np.sort(simplices, axis=1)
    else:
        _, firsts, fid = np.unique(eq, axis=0, return_index=True,
                                   return_inverse=True)
        order = np.argsort(firsts)  # facets in order of their first simplex
        firsts = firsts[order]
        fid = np.argsort(order)[fid]
        poly.simplex_facet = fid
        poly.facet_vertex_sets = [
            tuple(np.unique(simplices[fid == f]).tolist())
            for f in range(len(firsts))
        ]
        poly.is_simplicial = False
    poly.facet_normals = np.ascontiguousarray(eq[firsts, :-1])
    poly.facet_offsets = -eq[firsts, -1]
    poly._faces = poly._triangles = None

    _check_facet_inequalities(poly, tol)


def _canonical_order(poly: Polytope) -> None:
    """Renumber a simplicial qhull hull in an order fixed by its vertex set
    alone.

    Vertices are ordered by their coordinates, each simplex row and then
    the simplices are sorted, and the neighbor, facet and plane arrays
    are permuted to match (each simplex is a facet; the plane values stay
    qhull's).  Metrics sum over simplices in this order and take normals
    from the rows, so a hull's values do not depend on the other points
    qhull saw or on their order.
    """
    lv = poly.local_vertices
    vorder = np.lexsort(lv.T[::-1])
    vrank = np.argsort(vorder)
    tri = vrank[poly.facet_simplices]
    n_s, k = tri.shape
    # the flat index of each entry in its sorted row moves the neighbors
    # with it; sorted rows read as digits in base len(lv) order simplices
    at = ((tri[:, :, None] > tri[:, None, :]).sum(axis=2)
          + k * np.arange(n_s)[:, None]).ravel()
    rows = np.empty((2, n_s * k), dtype=tri.dtype)
    rows[:, at] = tri.ravel(), poly.facet_neighbors.ravel()
    tri, nb = rows.reshape(2, n_s, k)
    sorder = (np.argsort(tri @ len(lv) ** np.arange(k - 1, -1, -1))
              if len(lv) ** k < 2 ** 63 else np.lexsort(tri.T[::-1]))
    poly.facet_simplices = poly.facet_vertex_sets = tri[sorder]
    poly.facet_neighbors = np.argsort(sorder)[nb[sorder]]
    poly.facet_normals = poly.facet_normals[sorder]
    poly.facet_offsets = poly.facet_offsets[sorder]
    poly.local_vertices = lv[vorder]
    poly.vertices = poly.vertices[vorder]
    poly.source_indices = poly.source_indices[vorder]
    poly._faces = poly._triangles = None


def _subfaces(facets: np.ndarray, m: int) -> np.ndarray:
    """Distinct m-subsets of the rows of a sorted (F, k) facet array.

    Returns them as sorted rows in lexicographic order; on a simplicial
    polytope these are exactly its (m - 1)-faces.  Rows are compared by
    integer keys (the row read as digits in base max + 1).
    """
    cols = list(itertools.combinations(range(facets.shape[1]), m))
    sub = facets[:, cols].reshape(-1, m)
    base = int(facets.max()) + 1
    if base ** m > np.iinfo(np.int64).max:  # the keys would overflow
        return np.unique(sub, axis=0)
    key = sub[:, 0]
    for j in range(1, m):
        key = key * base + sub[:, j]
    order = np.argsort(key)
    key = key[order]
    return sub[order[np.r_[True, key[1:] != key[:-1]]]]


def _lattice_simplicial(facets: np.ndarray) -> dict[int, frozenset]:
    """All i-faces of a simplicial polytope are the (i+1)-subsets of facets."""
    return {i: frozenset(map(tuple, _subfaces(facets, i + 1).tolist()))
            for i in range(facets.shape[1])}


def _lattice_general(facet_sets, k, n_vertices):
    """Lattice by downward closure: faces are intersections of facet vertex
    sets.  ``k`` is the polytope's dimension and ``n_vertices`` its vertex
    count."""
    fsets = [frozenset(fs) for fs in facet_sets]
    faces_all: set[frozenset] = set(fsets)
    frontier = set(fsets)
    while frontier:
        new = set()
        for a in frontier:
            for b in fsets:
                c = a & b
                if c and c != a and c not in faces_all:
                    new.add(c)
        faces_all |= new
        frontier = new

    # Grade combinatorially: the face lattice of a polytope is graded, so
    # the dimension of a face is its height in the containment order.
    # (A geometric rank test would misclassify sliver faces whose shape is
    # degenerate at the decision tolerance.)
    by_size = sorted(faces_all, key=len)
    height: dict[frozenset, int] = {}
    for fc in by_size:
        h = 0
        for other in by_size:
            if len(other) >= len(fc):
                break
            if other in height and other < fc:
                h = max(h, height[other] + 1)
        height[fc] = h

    for fs in fsets:
        if height[fs] != k - 1:
            raise RuntimeError("face lattice grading inconsistent with the "
                               "facet level; hull construction bug")
    faces: dict[int, set] = {i: set() for i in range(k)}
    for fc, h in height.items():
        if h < k:
            faces[h].add(tuple(sorted(fc)))
    # a point that qhull reports as a vertex but that is not extreme lies
    # inside a larger face and is no 0-face of the closure
    if faces[0] != {(v,) for v in range(n_vertices)}:
        raise RuntimeError("hull vertex is not a 0-face of the face "
                           "lattice; hull construction bug")
    return {i: frozenset(s) for i, s in faces.items()}


def _check_facet_inequalities(poly, tol):
    # rounding is monotone, so the largest n_F . v - b_F is the largest
    # height minus b_F, and one reduction of the whole array finds it
    excess = poly.facet_normals @ poly.local_vertices.T
    excess -= poly.facet_offsets[:, None]
    worst = float(excess.max())
    if worst > tol:
        raise RuntimeError(
            f"hull inconsistency: vertex violates facet plane by {worst:.3e}"
        )


# ---------------------------------------------------------------------------
# combinatorics and measures


def f_vector(poly: Polytope) -> FVector:
    """Face counts per dimension, padded with zeros up to ambient d - 1.

    A simplicial hull is counted from its facet array, without a lattice:
    f_0 is the vertex count, f_{k-1} the facet count, and each f_i in
    between the number of distinct (i+1)-subsets of the facets.  Any other
    polytope counts the faces of its lattice.

    The counts of a k-polytope, k >= 1, must satisfy Euler's relation
    sum (-1)^i f_i = 1 - (-1)^k, and a simplicial one with k >= 2 the
    ridge identity 2 f_{k-2} = k f_{k-1} (each ridge lies in exactly two
    facets); a violation is a hull bug and raises RuntimeError.
    """
    d, k = poly.dim_ambient, poly.affine_dim
    if poly._faces is not None or not poly.is_simplicial:
        faces = poly.faces
        fv = FVector(tuple(len(faces.get(i, ())) for i in range(d)))
    else:
        facets = poly.facet_vertex_sets
        counts = [poly.n_vertices]
        counts += [len(_subfaces(facets, i + 1)) for i in range(1, k - 1)]
        fv = FVector(tuple(counts + [len(facets)] + [0] * (d - k)))
    if k >= 1 and fv.euler_characteristic() != 1 - (-1) ** k:
        raise RuntimeError(f"Euler's relation violated: f={fv.counts}")
    if k >= 2 and poly.is_simplicial and 2 * fv[k - 2] != k * fv[k - 1]:
        raise RuntimeError(f"ridge identity violated: f={fv.counts}")
    return fv


def _running_sum(terms: np.ndarray) -> float:
    """Left-to-right sum of ``terms``, in the order of a running total.

    Pairwise summation (``ndarray.sum``) would move the last bits of areas,
    and d = 2 quantities built from second differences of areas are pure
    round-off, so stored results depend on this order.
    """
    return float(np.cumsum(terms)[-1])


def volume(poly: Polytope) -> float:
    """Ambient d-dimensional volume; 0 for any degenerate polytope."""
    if not poly.is_full_dimensional():
        return 0.0
    return _chart_volume(poly)


def _chart_volume(poly: Polytope) -> float:
    """Volume of the polytope inside its own chart (affine hull): the cones
    from the vertex centroid over the facet simplices."""
    k = poly.affine_dim
    if k <= 0:
        return 0.0
    lv = poly.local_vertices
    if k == 1:
        c = lv[:, 0]
        return float(c.max() - c.min())
    if k in (3, 4):  # (a - o) . n, o the vertex centroid
        a, *_, n = _triangles(poly)
        cones = (a - lv.mean(axis=0)[:, None]) * n
        return _running_sum(np.abs(cones.sum(axis=0)) / math.factorial(k))
    cones = lv[poly.facet_simplices] - lv.mean(axis=0)  # (F, k, k)
    return _running_sum(np.abs(np.linalg.det(cones)) / math.factorial(k))


def surface_measure(poly: Polytope) -> float:
    """Sum of (d-1)-volumes of the facets; full-dimensional polytopes only."""
    if not poly.is_full_dimensional():
        raise ValueError("surface_measure requires a full-dimensional polytope")
    return _chart_surface(poly)


def _chart_surface(poly: Polytope) -> float:
    if poly.affine_dim == 1:
        return 2.0  # two boundary points, counting measure
    return _running_sum(_simplex_areas(poly))


def _simplex_areas(poly: Polytope) -> np.ndarray:
    """(k-1)-volumes of the boundary simplices of a k-polytope, k >= 2:
    the lengths of the cached normals over (k - 1)! for k = 3 and 4, Gram
    determinants in chart coordinates otherwise."""
    k = poly.affine_dim
    if k in (3, 4):
        n = _triangles(poly)[-1]
        return np.sqrt((n * n).sum(axis=0)) / math.factorial(k - 1)
    vs = poly.local_vertices[poly.facet_simplices]  # (F, k, k)
    e = vs[:, 1:] - vs[:, :1]
    det = np.linalg.det(e @ e.transpose(0, 2, 1))
    return np.sqrt(np.where(det > 0, det, 0.0)) / math.factorial(k - 1)


def exact_intrinsic_volumes(poly: Polytope) -> list[float]:
    """(V_0, ..., V_d) for ambient dimension <= 3, exact formulas.

    Lower-dimensional polytopes get the intrinsic volumes of the polytope
    inside its affine hull (a segment has V_1 = its length), padded with
    zeros; the empty polytope is all zeros.
    """
    d = poly.dim_ambient
    if d > 3:
        raise ValueError("exact intrinsic volumes implemented for d <= 3; "
                         "use intrinsic_volume_mc")
    out = [0.0] * (d + 1)
    if poly.is_empty():
        return out
    out[0] = 1.0
    k = poly.affine_dim
    # V_k is the volume and V_{k-1} half the boundary measure inside the
    # affine hull; in 3-D, V_1 comes from exterior angles along edges
    if k >= 1:
        out[k] = _chart_volume(poly)
    if k >= 2:
        out[k - 1] = _chart_surface(poly) / 2.0
    if k == 3:
        out[1] = _mean_width_term_3d(poly)
    return out


def _mean_width_term_3d(poly: Polytope) -> float:
    """V_1 of a 3-polytope: sum of edge length times exterior angle, / 2 pi.

    The edges are the ridges (:func:`_ridges`).  Normals come from
    :func:`_triangles`, and angles are atan2(|n_s x n_r|, n_s . n_r), well
    conditioned where acos of a dot product near 1 is not.  Vectors are
    columns.
    """
    s, slot, r = _ridges(poly)
    _, u, v, n = _triangles(poly)
    n_s, n_r = n[:, s], n[:, r]
    sin = np.sqrt((_cross(n_s, n_r) ** 2).sum(axis=0))
    w = v - u  # the edges opposite slots 0, 1, 2 are w, v and u
    length = np.sqrt(np.array([w * w, v * v, u * u]).sum(axis=1))[slot, s]
    return float((length * np.arctan2(sin, (n_s * n_r).sum(axis=0))).sum()
                 / (2.0 * math.pi))


def _ridges(poly: Polytope) -> tuple[np.ndarray, ...]:
    """(s, slot, r) of each ridge between simplices s < r of different
    facets, r = facet_neighbors[s, slot] across the ridge opposite slot."""
    nb, fid = poly.facet_neighbors, poly.simplex_facet
    s, slot = np.nonzero((nb > np.arange(len(nb))[:, None])
                         & (fid[nb] != fid[:, None]))
    return s, slot, nb[s, slot]


def _triangles(poly: Polytope) -> tuple[np.ndarray, ...]:
    """(a, u, v, n) of each boundary triangle (a, b, c) of a 3-polytope,
    u = b - a, v = c - a and n = u x v, and (a, u, v, w, n) of each
    boundary tetrahedron (a, b, c, e) of a 4-polytope, w = e - a and n
    the four signed 3 x 3 minors of (u, v, w) (:func:`_cross4`).  n is
    turned outward by qhull's planes, and |n| is (k - 1)! times the
    simplex's area.  (k, S) arrays of columns in chart coordinates, built
    on first read and kept with the hull until its arrays change."""
    if poly._triangles is None:
        lv = np.ascontiguousarray(poly.local_vertices.T)
        tri = poly.facet_simplices
        a = lv[:, tri[:, 0]]
        edges = [lv[:, tri[:, i]] - a for i in range(1, len(lv))]
        n = (_cross if len(lv) == 3 else _cross4)(*edges)
        n *= np.sign((n * poly.facet_normals[poly.simplex_facet].T)
                     .sum(axis=0))
        poly._triangles = (a, *edges, n)
    return poly._triangles


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cross products of the columns of two (3, m) arrays, fast."""
    return u[[1, 2, 0]] * v[[2, 0, 1]] - u[[2, 0, 1]] * v[[1, 2, 0]]


def _cross4(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Normals n of the columns of three (4, m) arrays, n_i = (-1)^i times
    the minor of (u, v, w) without row i, so that n . x = det(x, u, v, w):
    each minor expanded along u over the 2 x 2 minors of (v, w)."""
    # vw[p] for the row pairs p = 01, 02, 03, 12, 13, 23
    vw = v[[0, 0, 0, 1, 1, 2]] * w[[1, 2, 3, 2, 3, 3]] \
        - v[[1, 2, 3, 2, 3, 3]] * w[[0, 0, 0, 1, 1, 2]]
    n = (u[[1, 0, 0, 0]] * vw[[5, 5, 4, 3]]
         - u[[2, 2, 1, 1]] * vw[[4, 2, 2, 1]]
         + u[[3, 3, 3, 2]] * vw[[3, 1, 0, 0]])
    n[1::2] *= -1.0
    return n


# ---------------------------------------------------------------------------
# projections onto Haar-random subspaces


def _haar_bases(d: int, j: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal bases, shape (n, d, j), of n Haar-random j-subspaces.

    Orthonormalizes d x j standard Gaussian matrices, whose column spans
    are rotation invariant, which characterizes the Haar measure.
    Householder QR returns an orthonormal basis for any draw, and one
    batched QR gives the values of n successive single draws, because a
    stack of Gaussian matrices takes the stream's normals in the same
    order, and the QR factors each matrix of a stack alone.
    """
    return np.linalg.qr(rng.standard_normal((n, d, j)))[0]


def projection_mean_coefficient(d: int, j: int) -> float:
    """Normalizing constant relating V_j to the mean projection volume."""
    kd = unit_ball_volume(d)
    kj = unit_ball_volume(j)
    kdj = unit_ball_volume(d - j)
    return math.comb(d, j) * kd / (kj * kdj)


def intrinsic_volume_mc(
    poly: Polytope, j: int, n_dirs: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo j-th intrinsic volume: scaled mean of projection volumes
    over Haar subspaces.  Returns (estimate, standard error).

    A projection's volume is its width for j = 1.  On a full-dimensional
    polytope it comes from the facets by Cauchy's formula for j = d - 1
    >= 2 (:func:`_hyperplane_shadows`), and from the ridges for j = 2 in
    d = 4 (:func:`_ridge_shadows`).  Any other projection (2 <= j <= d - 2
    for d >= 5, or of a lower-dimensional polytope) is hulled.  All four
    give the projection hull's value on the same draws, up to round-off.
    """
    d = poly.dim_ambient
    if not 1 <= j <= d:
        raise ValueError("need 1 <= j <= d")
    if n_dirs < 2:
        raise ValueError("need n_dirs >= 2")
    if poly.affine_dim < j:
        return 0.0, 0.0
    c = projection_mean_coefficient(d, j)
    bases = _haar_bases(d, j, n_dirs, rng)
    if 2 <= j == d - 1 and poly.is_full_dimensional():
        vals = _hyperplane_shadows(poly, _unit_normals(bases))
    elif j == 2 and d == 4 and poly.is_full_dimensional():
        vals = _ridge_shadows(poly, bases)
    else:
        vals = np.empty(n_dirs)
        for i, basis in enumerate(bases):
            image = poly.vertices @ basis
            if j == 1:  # a projection onto a line is an interval: the width
                vals[i] = image.max() - image.min()
            else:
                vals[i] = volume(convex_hull(image))
    est = c * float(vals.mean())
    se = c * float(vals.std(ddof=1)) / math.sqrt(n_dirs)
    return est, se


# the facet path gathers at most this many (simplex, direction) terms at
# a time
_SHADOW_BLOCK = 1 << 20


def _hyperplane_shadows(poly: Polytope, normals: np.ndarray) -> np.ndarray:
    """vol_{d-1}(P | u^perp) for each unit normal u (the rows of
    ``normals``) of a full-dimensional d-polytope P.

    Cauchy's projection formula: the shadow is half the sum, over the
    boundary simplices s, of A_s |n_F(s) . u|, with A_s the (d-1)-volume
    of s and n_F(s) the unit normal of its facet (Schneider, *Convex
    Bodies: The Brunn-Minkowski Theory*, 2nd ed. 2014).  Directions
    go in blocks of at most _SHADOW_BLOCK terms.  Each dot product is a
    sum of column products in a fixed order and each direction's terms
    a contiguous row, so a value does not depend on its block.
    """
    half = _simplex_areas(poly) / 2.0
    n = np.ascontiguousarray(poly.facet_normals[poly.simplex_facet].T)
    vals = np.empty(len(normals))
    step = max(1, _SHADOW_BLOCK // len(half))
    for b in range(0, len(normals), step):
        u = normals[b:b + step, :, None]
        dot = u[:, 0] * n[0]  # (block, simplices)
        for i in range(1, len(n)):
            dot += u[:, i] * n[i]
        vals[b:b + step] = (np.abs(dot, out=dot) * half).sum(axis=1)
    return vals


def _ridge_shadows(poly: Polytope, bases: np.ndarray) -> np.ndarray:
    """area(P | L) for each plane L spanned by orthonormal bases (n, 4, 2)
    of a full-dimensional 4-polytope P: half the sum of |<x ^ y, b1 ^ b2>|
    over the ridge triangles (edges x, y from :func:`_triangles`) whose
    two facet normals, projected to L^perp, span a cone that holds a fixed
    c in L^perp.  The highest points in direction c of the fibers
    P cap (y + L^perp) fill those ridges, so they tile P | L (the
    projection tiling of fiber polytopes; Billera & Sturmfels, Ann. Math.
    1992).  c is the middle of the widest angular gap between the
    projected normals, so no cone test falls to round-off, as one at the
    tesseract's normals would with c = the projection of e_1.  Measured
    from that gap's far end, a cone holds c iff its normals lie more than
    pi apart.
    """
    s, slot, r = _ridges(poly)
    # the facet normals' angles in a frame of each L^perp, (n, F)
    perp = np.linalg.qr(bases, mode="complete")[0][..., 2:]
    p = perp.transpose(0, 2, 1) @ poly.facet_normals.T
    angle = np.arctan2(p[:, 1], p[:, 0])
    ends = np.sort(angle, axis=1)
    gap = np.diff(ends, axis=1, append=ends[:, :1] + 2.0 * math.pi)
    widest = np.arange(len(bases)), gap.argmax(axis=1)
    angle -= (ends[widest] + gap[widest])[:, None]
    angle += 2.0 * math.pi * (angle < 0.0)
    fid = poly.simplex_facet
    holds = np.abs(angle.take(fid.take(s), axis=1)
                   - angle.take(fid.take(r), axis=1)) > math.pi
    # <x ^ y, b1 ^ b2> of the edge pairs, from their coordinates in each L
    n = len(bases)
    rows = bases.transpose(2, 0, 1).reshape(2 * n, 4)  # b1s, then b2s
    u, v, w = (rows @ e for e in _triangles(poly)[1:4])
    uv, uw, vw = (x[:n] * y[n:] - x[n:] * y[:n]
                  for x, y in ((u, v), (u, w), (v, w)))
    # the ridge opposite each slot of (a, b, c, e): bce, ace, abe, abc
    faces = np.concatenate([vw - uw + uv, vw, uw, uv], axis=1)
    faces = faces.take(slot * len(fid) + s, axis=1)  # (n, ridges)
    return np.einsum("nr,nr->n", np.abs(faces), holds) / 2.0


def _unit_normals(bases: np.ndarray) -> np.ndarray:
    """Unit normals (n, d) of the hyperplanes spanned by orthonormal bases
    (n, d, d - 1): the columns' generalized cross products, whose entries
    are the signed maximal minors."""
    d = bases.shape[1]
    rows = np.arange(d)
    minors = np.stack([bases[:, rows != i] for i in rows], axis=1)
    return np.linalg.det(minors) * (-1.0) ** rows


# ---------------------------------------------------------------------------
# verification helpers


def brute_force_facets(points: np.ndarray, tol: float = REL_TOL) -> set:
    """Facets of the hull of a general-position point set by exhaustion.

    Tests every d-subset's hyperplane for one-sidedness (O(n^{d+1})).
    Returns facets as frozensets of indices into ``points``.  Intended as
    an independent oracle for small instances.
    """
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    scale = float(np.linalg.norm(pts.max(0) - pts.min(0))) or 1.0
    facets = set()
    for subset in itertools.combinations(range(n), d):
        base = pts[subset[0]]
        a = pts[list(subset[1:])] - base
        _, s, vt = np.linalg.svd(a, full_matrices=True)
        if s[-1] <= tol * max(s[0], 1e-300):
            continue  # affinely dependent d-subset
        normal = vt[-1]
        side = (pts - base) @ normal
        if side.max() <= tol * scale or side.min() >= -tol * scale:
            facets.add(frozenset(subset))
    return facets


def hull_facets_as_source_sets(poly: Polytope) -> set:
    """Facet vertex sets mapped back to input-cloud indices."""
    src = poly.source_indices
    return {frozenset(int(src[v]) for v in fs)
            for fs in poly.facet_vertex_sets}
