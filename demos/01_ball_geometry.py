#!/usr/bin/env python3
"""Tour of the Poincare-ball block routines the encoder runs.

Distances blow up toward the boundary, Mobius addition plays the role of
vector addition, and the exponential map turns a tangent step into a point
at exactly the step's Riemannian length.  Higher curvature shrinks the whole
picture by 1/sqrt(c).  Every routine takes an (n, d) block of points; a
single pair is a two-row block.
"""

import numpy as np

from hyptree.ball import clip_to_ball, exp_map_points, mobius_add_points, pairwise_distance_matrix

print("== distances grow without bound near the rim ==")
radii = np.array([0.5, 0.9, 0.99, 0.999999])
block = np.vstack([[0.0, 0.0], np.column_stack((radii, np.zeros(radii.size)))])
from_origin = pairwise_distance_matrix(block, 1.0)[0, 1:]
for r, d in zip(radii, from_origin):
    print(f"  ||x|| = {r:<9} d(0, x) = {d:8.3f}"
          f"   (closed form 2*atanh(r) = {2 * np.arctanh(r):8.3f})")

print("\n== Mobius addition: the ball's group operation ==")
a = np.array([[0.1, 0.2]])
b = np.array([[0.3, -0.1]])
print("  a (+) b      =", mobius_add_points(a, b, 1.0)[0])
print("  b (+) a      =", mobius_add_points(b, a, 1.0)[0], " (not commutative)")
print("  (-a) (+) a   =", mobius_add_points(-a, a, 1.0)[0])

print("\n== the exponential map realizes tangent lengths exactly ==")
x = np.array([[0.5, 0.1]])
v = np.array([[0.05, -0.02]])
lam = 2.0 / (1.0 - float(x[0] @ x[0]))
moved = exp_map_points(x, v, 1.0)
print("  Riemannian length of v:", lam * np.linalg.norm(v))
print("  d(x, exp_x(v))        :", pairwise_distance_matrix(np.vstack([x, moved]), 1.0)[0, 1])

print("\n== curvature rescales hyperbolic space ==")
pair = np.array([[0.5, 0.1], [-0.3, 0.4]])
total = pairwise_distance_matrix(pair, 1.0)[0, 1]
for c in (1.0, 4.0, 100.0):
    d = pairwise_distance_matrix(pair / np.sqrt(c), c)[0, 1]
    print(f"  c = {c:5}: d = {d:.6f} (= d_1 / sqrt(c) = {total / np.sqrt(c):.6f})")

print("\n== the boundary clip keeps optimizer iterates inside ==")
runaway = np.array([[1.3, 0.4], [0.3, 0.4]])
safe, rescaled = clip_to_ball(runaway, 1.0)
print("  row norms", np.linalg.norm(runaway, axis=1), "->", np.linalg.norm(safe, axis=1),
      f"({rescaled} of {len(runaway)} rows pulled in; interior rows keep their bits)")
