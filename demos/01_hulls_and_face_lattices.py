"""Random polytopes from Poisson samples: hulls, face lattices, degeneracies.

Draws Poisson point processes inside a ball, builds the convex hulls, and
walks through the combinatorial structure the library exposes: vertices,
the full face lattice, facet hyperplanes, and the exact Euler relation.
"""
import numpy as np

from randpoly import (
    Ball,
    brute_force_facets,
    convex_hull,
    f_vector,
    hull_facets_as_source_sets,
    sample_poisson_process,
    stream,
    surface_measure,
    volume,
)

ball = Ball(3)
rng = stream(2024)

print("=== hulls of Poisson samples in the unit 3-ball ===")
for t in (20.0, 100.0, 500.0):
    cloud = sample_poisson_process(ball, t, rng)
    poly = convex_hull(cloud)
    fv = f_vector(poly)
    print(f"t = {t:6.0f}: {len(cloud):4d} points -> f = {fv.counts}, "
          f"volume {volume(poly):.4f}, surface {surface_measure(poly):.4f}, "
          f"Euler {fv.euler_characteristic()} (expected 2)")

print("\n=== the face lattice of one small hull ===")
cloud = sample_poisson_process(ball, 5.0, rng)
poly = convex_hull(cloud)
print(f"{len(cloud)} points, degeneracy: {poly.degeneracy}")
for i, faces in sorted(poly.faces.items()):
    print(f"  {len(faces):3d} faces of dimension {i}: "
          f"{sorted(faces)[:4]}{' ...' if len(faces) > 4 else ''}")

print("\n=== facet enumeration agrees with exhaustive search ===")
pts = ball.sample_uniform(rng, 10)
poly = convex_hull(pts)
fast = hull_facets_as_source_sets(poly)
slow = brute_force_facets(pts)
print(f"10 points: {len(fast)} facets from the hull, "
      f"{len(slow)} from the O(n^(d+1)) oracle, equal: {fast == slow}")

print("\n=== degenerate inputs are encoded, not errors ===")
for pts, label in [
    (np.empty((0, 3)), "no points"),
    (np.array([[0.2, 0.1, 0.4]]), "one point"),
    (np.array([[0.0, 0, 0], [1.0, 1, 1], [0.5, 0.5, 0.5]]), "collinear"),
]:
    poly = convex_hull(pts)
    print(f"  {label:10s} -> {poly.degeneracy} "
          f"(affine dimension {poly.affine_dim}), f = {f_vector(poly).counts}")
