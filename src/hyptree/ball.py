"""Poincare-ball geometry: distances, Mobius operations, geodesics, exp map.

All operations act on points of the open ball ``B^d_c = {x : sqrt(c)*||x|| < 1}``
with curvature parameter ``c > 0``.  Two APIs are provided: a validated
per-point API built on :class:`PoincarePoint`, and unvalidated array routines
operating on ``(n, d)`` coordinate blocks, which the embedding optimizer uses
in its inner loop.  The encoder uses one shared distance kernel,
:func:`pairwise_geometry`, for its training loss and gradient and, through
:func:`pairwise_distance_matrix`, for the denoised matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_MARGIN = 1e-5

# Norms below this are treated as exactly zero (Mobius scaling of the origin,
# zero tangent steps).
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


def _check_compatible(x: PoincarePoint, y: PoincarePoint) -> None:
    if x.curvature != y.curvature:
        raise ValueError(
            f"mixed curvatures {x.curvature} and {y.curvature}; "
            "rescale one point set explicitly instead"
        )
    if x.dim != y.dim:
        raise ValueError(f"mixed dimensions {x.dim} and {y.dim}")


def poincare_distance(x: PoincarePoint, y: PoincarePoint) -> float:
    """Hyperbolic distance between two points of B^d_c.

    Computes ``(2/sqrt(c)) * asinh(sqrt(q))`` with
    ``q = c||x-y||^2 / ((1-c||x||^2)(1-c||y||^2))``, which equals the
    textbook ``(1/sqrt(c)) * acosh(1 + 2q)`` but keeps full relative accuracy
    for near-coincident points, where ``1 + 2q`` rounds to 1.
    """
    _check_compatible(x, y)
    c = x.curvature
    diff = x.coords - y.coords
    denom = (1.0 - c * float(x.coords @ x.coords)) * (
        1.0 - c * float(y.coords @ y.coords)
    )
    q = c * float(diff @ diff) / denom
    return float(2.0 * np.arcsinh(np.sqrt(q)) / np.sqrt(c))


def mobius_add(x: PoincarePoint, y: PoincarePoint) -> PoincarePoint:
    """Mobius sum x (+)_c y.  Non-commutative and non-associative."""
    _check_compatible(x, y)
    c = x.curvature
    out = _mobius_add_raw(x.coords, y.coords, c)
    return PoincarePoint(out, c)


def _mobius_add_raw(x: np.ndarray, y: np.ndarray, c: float) -> np.ndarray:
    x2 = float(x @ x)
    y2 = float(y @ y)
    xy = float(x @ y)
    num = (1.0 + 2.0 * c * xy + c * y2) * x + (1.0 - c * x2) * y
    den = 1.0 + 2.0 * c * xy + c * c * x2 * y2
    return num / den


def mobius_scale(t: float, x: PoincarePoint) -> PoincarePoint:
    """Mobius scalar product t (x)_c x; the origin is a fixed point."""
    c = x.curvature
    nrm = float(np.linalg.norm(x.coords))
    if nrm < _ZERO_NORM:
        return PoincarePoint(np.zeros_like(x.coords), c)
    sc = np.sqrt(c) * nrm
    out = np.tanh(t * np.arctanh(sc)) * x.coords / sc
    return PoincarePoint(out, c)


def geodesic_point(x: PoincarePoint, y: PoincarePoint, t: float) -> PoincarePoint:
    """Point gamma_{x->y}(t) on the geodesic from x (t=0) to y (t=1).

    Evaluates ``x (+)_c (t (x)_c ((-x) (+)_c y))``; the curve has constant
    speed, i.e. d(x, gamma(t)) = t * d(x, y).
    """
    _check_compatible(x, y)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"geodesic parameter must lie in [0, 1], got {t}")
    neg_x = PoincarePoint(-x.coords, x.curvature)
    chord = mobius_add(neg_x, y)
    return mobius_add(x, mobius_scale(t, chord))


def exp_map(v: TangentVector) -> PoincarePoint:
    """Exponential map: follow the geodesic leaving v.base with velocity v.

    A zero direction returns the base point unchanged.  The result is
    analytically interior, but float rounding can land it on the boundary;
    such outputs are nudged inside by one part in 1e15.
    """
    base = v.base
    c = base.curvature
    out = exp_map_points(
        base.coords[None, :], v.direction[None, :], c
    )[0]
    nrm = np.sqrt(c) * float(np.linalg.norm(out))
    if nrm >= 1.0:
        out = out * ((1.0 - 1e-15) / nrm)
    return PoincarePoint(out, c)


def project_to_ball(x, c: float, margin: float = DEFAULT_MARGIN) -> PoincarePoint:
    """Pull a raw vector strictly inside the ball, leaving interior points as-is.

    Vectors with sqrt(c)*||x|| >= 1 - margin are rescaled to norm
    (1 - margin)/sqrt(c).  Idempotent.
    """
    if not 0.0 < margin <= 1e-2:
        raise ValueError(f"margin must lie in (0, 1e-2], got {margin}")
    v = _as_vector(x)
    out = clip_to_ball(v[None, :], c, margin)[0]
    return PoincarePoint(out, c)


# ---------------------------------------------------------------------------
# Array routines over (n, d) coordinate blocks.  No per-point validation.
# ---------------------------------------------------------------------------


def clip_to_ball(points: np.ndarray, c: float, margin: float = DEFAULT_MARGIN) -> np.ndarray:
    """Rescale rows with sqrt(c)*||row|| >= 1 - margin back to that radius.

    The rescale repeats until every norm is <= the limit, so the operation is
    exactly idempotent despite rounding in the normalization.
    """
    pts = np.array(points, dtype=np.float64)
    limit = (1.0 - margin) / np.sqrt(c)
    for _ in range(4):
        norms = np.linalg.norm(pts, axis=-1)
        mask = norms > limit
        if not mask.any():
            break
        pts[mask] *= (limit / norms[mask])[:, None]
    return pts


def pairwise_geometry(points: np.ndarray, c: float):
    """``(conf, q, dist)`` of an (n, d) point block, shared by distances and gradients.

    ``conf_i = 1 - c||x_i||^2``, ``q_ij = c||x_i - x_j||^2 / (conf_i conf_j)``
    and ``dist`` the hyperbolic distances (exactly symmetric, zero diagonal).
    Differences are formed explicitly, one coordinate at a time (no
    Gram-matrix shortcut), and distances come from the asinh form of
    :func:`poincare_distance`, so near-coincident points keep full relative
    accuracy.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    conf = 1.0 - c * np.einsum("ij,ij->i", pts, pts)
    sq = np.zeros((n, n))
    diff = np.empty((n, n))
    for col in pts.T:
        np.subtract.outer(col, col, out=diff)
        diff *= diff
        sq += diff
    q = np.divide(sq, np.outer(conf, conf), out=sq)
    q *= c
    dist = np.arcsinh(np.sqrt(q))
    dist *= 2.0 / np.sqrt(c)
    return conf, q, dist


def pairwise_distance_matrix(points: np.ndarray, c: float) -> np.ndarray:
    """All pairwise hyperbolic distances of an (n, d) point block."""
    return pairwise_geometry(points, c)[2]


def mobius_add_points(x: np.ndarray, y: np.ndarray, c: float) -> np.ndarray:
    """Row-wise Mobius sum of two (n, d) blocks."""
    x2 = np.einsum("ij,ij->i", x, x)[:, None]
    y2 = np.einsum("ij,ij->i", y, y)[:, None]
    xy = np.einsum("ij,ij->i", x, y)[:, None]
    num = (1.0 + 2.0 * c * xy + c * y2) * x + (1.0 - c * x2) * y
    den = 1.0 + 2.0 * c * xy + c * c * x2 * y2
    return num / den


def exp_map_points(base: np.ndarray, direction: np.ndarray, c: float) -> np.ndarray:
    """Row-wise exponential map of tangent steps at the given base points."""
    lam = 2.0 / (1.0 - c * np.einsum("ij,ij->i", base, base))[:, None]
    nrm = np.linalg.norm(direction, axis=-1, keepdims=True)
    safe = np.maximum(nrm, _ZERO_NORM)
    sqrt_c = np.sqrt(c)
    step = np.tanh(sqrt_c * lam * nrm / 2.0) * direction / (sqrt_c * safe)
    return mobius_add_points(base, step, c)


def conformal_to_riemannian(points: np.ndarray, c: float, ambient_grad: np.ndarray) -> np.ndarray:
    """Rescale ambient gradients by the inverse Poincare metric, ((1-c||x||^2)^2)/4."""
    conf = 1.0 - c * np.einsum("ij,ij->i", points, points)
    return ambient_grad * (conf**2 / 4.0)[:, None]
