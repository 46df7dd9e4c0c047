"""Poincare-ball geometry on point blocks: distances, Mobius sums, exp map, clipping.

All routines act on ``(n, d)`` coordinate blocks of the open ball
``B^d_c = {x : sqrt(c)*||x|| < 1}`` with curvature parameter ``c > 0``, as the
encoder needs, and validate nothing.  :class:`PoincarePoint` and
:class:`TangentVector` are validated single-point containers, the form in
which :func:`hyptree.embedding.loss_gradient` returns its gradient.  The
encoder uses one shared distance kernel, :func:`pairwise_geometry`, for its
training loss and gradient and, through :func:`pairwise_distance_matrix`, for
the denoised matrix.  The kernel returns a :class:`PairGeometry` and can
overwrite one from an earlier call, so a training run allocates its pairwise
arrays once.  Its row quantities (``sqnorm``, ``conf``) can be handed to
:func:`exp_map_points` and :func:`conformal_to_riemannian`, which then skip
recomputing them; either way the results are the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_MARGIN = 1e-5

# Tangent steps shorter than this are treated as exactly zero.
_ZERO_NORM = 1e-15


def _as_vector(coords) -> np.ndarray:
    v = np.asarray(coords, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D coordinate vector, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class PoincarePoint:
    """A point of the open ball B^d_c.

    Invariants checked at construction: d >= 2, c > 0 and strict ball
    membership sqrt(c)*||coords|| < 1.
    """

    coords: np.ndarray
    curvature: float

    def __post_init__(self):
        object.__setattr__(self, "coords", _as_vector(self.coords))
        object.__setattr__(self, "curvature", float(self.curvature))
        if self.curvature <= 0.0:
            raise ValueError(f"curvature must be positive, got {self.curvature}")
        if self.coords.size < 2:
            raise ValueError("ball dimension must be at least 2")
        if not np.all(np.isfinite(self.coords)):
            raise ValueError("coordinates must be finite")
        if np.sqrt(self.curvature) * float(np.linalg.norm(self.coords)) >= 1.0:
            raise ValueError("point lies on or outside the ball boundary")

    @property
    def dim(self) -> int:
        return self.coords.size


@dataclass(frozen=True)
class TangentVector:
    """A direction attached to a base point of the ball."""

    base: PoincarePoint
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "direction", _as_vector(self.direction))
        if self.direction.size != self.base.dim:
            raise ValueError(
                f"direction has dimension {self.direction.size}, "
                f"base has dimension {self.base.dim}"
            )


#: Entries of the coordinate-difference block in :func:`pairwise_geometry`.
#: Rows are processed in blocks of this many (row, coordinate, column)
#: entries, so a d = 4 block up to n = 128 is formed in one product and the
#: block stays at 512 KiB at larger n.
_DIFF_BLOCK = 2**16


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row; the same operations as ``np.linalg.norm(x, axis=-1)``."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def clip_to_ball(points: np.ndarray, c: float, margin: float = DEFAULT_MARGIN,
                 full_output: bool = False):
    """Rescale rows with sqrt(c)*||row|| >= 1 - margin back to that radius.

    The rescale repeats until every norm is <= the limit, so the operation is
    exactly idempotent despite rounding in the normalization.  With
    ``full_output=True`` returns ``(points, rescaled)``, where ``rescaled`` is
    the number of rows that were over the limit.
    """
    pts = np.array(points, dtype=np.float64)
    limit = (1.0 - margin) / np.sqrt(c)
    rescaled = 0
    for attempt in range(4):
        norms = _row_norms(pts)
        mask = norms > limit
        if not mask.any():
            break
        if attempt == 0:
            rescaled = int(np.count_nonzero(mask))
        pts[mask] *= (limit / norms[mask])[:, None]
    return (pts, rescaled) if full_output else pts


class PairGeometry:
    """Per-point and pairwise quantities of an (n, d) point block.

    ``sqnorm_i = ||x_i||^2``, ``conf_i = 1 - c||x_i||^2``,
    ``cc_ij = conf_i conf_j``, ``q_ij = c||x_i - x_j||^2 / cc_ij`` and
    ``dist`` the hyperbolic distances (exactly symmetric, zero diagonal).
    ``lhs``, ``rhs`` and ``block`` are the work buffers of
    :func:`pairwise_geometry`.  A new instance holds uninitialised arrays.
    """

    def __init__(self, n: int, d: int):
        rows = max(1, min(n, _DIFF_BLOCK // max(d * n, 1)))
        self.sqnorm = np.empty(n)
        self.conf = np.empty(n)
        self.cc = np.empty((n, n))
        self.q = np.empty((n, n))
        self.dist = np.empty((n, n))
        self.lhs = np.zeros((d, rows, d + 1))
        for k in range(d):
            self.lhs[k, :, k] = 1.0
        self.rhs = np.empty((d + 1, n))
        self.rhs[d] = 1.0
        self.block = np.empty((d, rows, n))


def pairwise_geometry(points: np.ndarray, c: float,
                      out: PairGeometry | None = None) -> PairGeometry:
    """The :class:`PairGeometry` of an (n, d) point block, shared by distances and gradients.

    ``out``, a result of an earlier call on a block of the same shape, is
    overwritten instead of allocating new arrays.  Differences are formed
    explicitly (no Gram-matrix shortcut), and distances are
    ``(2/sqrt(c)) asinh(sqrt(q))``, the textbook ``acosh(1 + 2q)/sqrt(c)`` in
    a form that stays accurate where ``1 + 2q`` rounds to 1.  A block of rows
    gets all its differences from one matrix product, ``[I | x_i] @ [-X^T ; 1]``:
    each entry is ``x_ik * 1 + 1 * (-x_jk)`` plus exact zeros, which rounds
    exactly like ``x_ik - x_jk``.  The squared differences are summed over
    coordinates in order.
    """
    pts = np.asarray(points, dtype=np.float64)
    n, d = pts.shape
    geo = PairGeometry(n, d) if out is None else out
    if geo.rhs.shape != (d + 1, n):
        raise ValueError(f"buffers for shape {geo.rhs.shape[1], geo.rhs.shape[0] - 1}, "
                         f"points have shape {pts.shape}")
    np.einsum("ij,ij->i", pts, pts, out=geo.sqnorm)
    conf = np.multiply(c, geo.sqnorm, out=geo.conf)
    np.subtract(1.0, conf, out=conf)

    sq = geo.q
    rows = geo.block.shape[1]
    lhs = geo.lhs.reshape(d * rows, d + 1)
    diff = geo.block.reshape(d * rows, n)
    np.negative(pts.T, out=geo.rhs[:d])
    for start in range(0, n, rows):
        # Equal blocks: the last one overlaps its predecessor if rows does not divide n.
        start = min(start, n - rows)
        block = sq[start:start + rows]
        geo.lhs[:, :, d] = pts[start:start + rows].T
        np.matmul(lhs, geo.rhs, out=diff)
        np.multiply(diff, diff, out=diff)
        np.copyto(block, geo.block[0])
        for k in range(1, d):
            block += geo.block[k]

    np.multiply(conf[:, None], conf, out=geo.cc)
    q = np.divide(sq, geo.cc, out=sq)
    q *= c
    dist = np.sqrt(q, out=geo.dist)
    np.arcsinh(dist, out=dist)
    dist *= 2.0 / np.sqrt(c)
    return geo


def pairwise_distance_matrix(points: np.ndarray, c: float) -> np.ndarray:
    """All pairwise hyperbolic distances of an (n, d) point block."""
    return pairwise_geometry(points, c).dist


def mobius_add_points(x: np.ndarray, y: np.ndarray, c: float,
                      x_sqnorm: np.ndarray | None = None,
                      x_conf: np.ndarray | None = None) -> np.ndarray:
    """Row-wise Mobius sum of two (n, d) blocks.

    ``x_sqnorm`` (``||x_i||^2``) and ``x_conf`` (``1 - c||x_i||^2``) may pass
    row quantities of ``x`` the caller already has.
    """
    x2 = np.einsum("ij,ij->i", x, x) if x_sqnorm is None else x_sqnorm
    x_conf = 1.0 - c * x2 if x_conf is None else x_conf
    x2 = x2[:, None]
    y2 = np.einsum("ij,ij->i", y, y)[:, None]
    xy = np.einsum("ij,ij->i", x, y)[:, None]
    lead = 1.0 + 2.0 * c * xy
    num = (lead + c * y2) * x + x_conf[:, None] * y
    den = lead + c * c * x2 * y2
    return num / den


def exp_map_points(base: np.ndarray, direction: np.ndarray, c: float,
                   sqnorm: np.ndarray | None = None,
                   conf: np.ndarray | None = None) -> np.ndarray:
    """Row-wise exponential map of tangent steps at the given base points.

    ``sqnorm`` and ``conf`` may pass the base rows' :class:`PairGeometry`
    quantities, which are then not computed again.
    """
    if sqnorm is None:
        sqnorm = np.einsum("ij,ij->i", base, base)
    if conf is None:
        conf = 1.0 - c * sqnorm
    lam = 2.0 / conf[:, None]
    nrm = _row_norms(direction)[:, None]
    safe = np.maximum(nrm, _ZERO_NORM)
    sqrt_c = np.sqrt(c)
    step = np.tanh(sqrt_c * lam * nrm / 2.0) * direction / (sqrt_c * safe)
    return mobius_add_points(base, step, c, sqnorm, conf)


def conformal_to_riemannian(points: np.ndarray, c: float, ambient_grad: np.ndarray,
                            conf: np.ndarray | None = None) -> np.ndarray:
    """Rescale ambient gradients by the inverse Poincare metric, ((1-c||x||^2)^2)/4.

    ``conf`` may pass the rows' ``1 - c||x||^2`` (:class:`PairGeometry`).
    """
    if conf is None:
        conf = 1.0 - c * np.einsum("ij,ij->i", points, points)
    return ambient_grad * (conf**2 / 4.0)[:, None]
