"""Poincare-ball geometry on point blocks: distances, Mobius sums, exp map, clipping.

All routines act on ``(n, d)`` coordinate blocks of the open ball
``B^d_c = {x : sqrt(c)*||x|| < 1}`` with curvature parameter ``c > 0`` and
validate nothing.  The ball is only the encoder's output format: it fits
tangent vectors and clips once, at the end.  One distance kernel,
:func:`pairwise_distance_matrix`, gives the ball-side loss and the denoised
matrix.  Its squared coordinate differences come from scipy's ``cdist``,
which subtracts coordinates explicitly (no Gram-matrix shortcut), as do
those of the encoder's hyperboloid objective, which gives every gradient,
``loss_gradient``'s included.
"""

from __future__ import annotations

import numpy as np

DEFAULT_MARGIN = 1e-5

# Tangent steps shorter than this are treated as exactly zero.
_ZERO_NORM = 1e-15


def clip_to_ball(points: np.ndarray, c: float) -> tuple[np.ndarray, int]:
    """Pull rows with sqrt(c)*||row|| > 1 - DEFAULT_MARGIN back to that radius.

    The rescale repeats until every norm is <= the limit, so the operation is
    exactly idempotent despite rounding in the normalization.  Returns
    ``(points, rescaled)``, where ``rescaled`` is the number of rows that were
    over the limit.
    """
    pts = np.array(points, dtype=np.float64)
    limit = (1.0 - DEFAULT_MARGIN) / np.sqrt(c)
    rescaled = 0
    for attempt in range(4):
        norms = np.linalg.norm(pts, axis=1)
        mask = norms > limit
        if not mask.any():
            break
        if attempt == 0:
            rescaled = int(np.count_nonzero(mask))
        pts[mask] *= (limit / norms[mask])[:, None]
    return pts, rescaled


def pairwise_distance_matrix(points: np.ndarray, c: float) -> np.ndarray:
    """All pairwise hyperbolic distances of an (n, d) point block.

    Exactly symmetric with a zero diagonal.  The squared differences come
    from ``cdist(..., "sqeuclidean")``, which sums the squared coordinate
    differences in order, and distances are
    ``(2/sqrt(c)) asinh(sqrt(q))`` with ``q = c||x_i - x_j||^2 / (conf_i conf_j)``
    and ``conf_i = 1 - c||x_i||^2``: the textbook ``acosh(1 + 2q)/sqrt(c)``
    in a form that stays accurate where ``1 + 2q`` rounds to 1.
    """
    from scipy.spatial.distance import cdist
    pts = np.asarray(points, dtype=np.float64)
    q = cdist(pts, pts, "sqeuclidean")
    conf = 1.0 - c * np.einsum("ij,ij->i", pts, pts)
    q /= np.outer(conf, conf)
    q *= c
    dist = np.sqrt(q, out=q)
    np.arcsinh(dist, out=dist)
    dist *= 2.0 / np.sqrt(c)
    return dist


def mobius_add_points(x: np.ndarray, y: np.ndarray, c: float) -> np.ndarray:
    """Row-wise Mobius sum of two (n, d) blocks."""
    x2 = np.einsum("ij,ij->i", x, x)[:, None]
    y2 = np.einsum("ij,ij->i", y, y)[:, None]
    xy = np.einsum("ij,ij->i", x, y)[:, None]
    lead = 1.0 + 2.0 * c * xy
    num = (lead + c * y2) * x + (1.0 - c * x2) * y
    den = lead + c * c * x2 * y2
    return num / den


def exp_map_points(base: np.ndarray, direction: np.ndarray, c: float) -> np.ndarray:
    """Row-wise exponential map of tangent steps at the given base points."""
    lam = 2.0 / (1.0 - c * np.einsum("ij,ij->i", base, base))[:, None]
    nrm = np.linalg.norm(direction, axis=1)[:, None]
    safe = np.maximum(nrm, _ZERO_NORM)
    sqrt_c = np.sqrt(c)
    step = np.tanh(sqrt_c * lam * nrm / 2.0) * direction / (sqrt_c * safe)
    return mobius_add_points(base, step, c)


def conformal_to_riemannian(points: np.ndarray, c: float, ambient_grad: np.ndarray) -> np.ndarray:
    """Rescale ambient gradients by the inverse Poincare metric, ((1-c||x||^2)^2)/4."""
    conf = 1.0 - c * np.einsum("ij,ij->i", points, points)
    return ambient_grad * (conf**2 / 4.0)[:, None]
