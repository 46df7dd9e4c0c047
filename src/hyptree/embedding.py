"""Hyperbolic metric denoising: fit Poincare-ball points to a dissimilarity matrix.

The encoder places one point per entity and minimizes the l_p distortion
between pairwise hyperbolic distances and (rescaled) input dissimilarities.
It optimizes free tangent vectors at the origin with L-BFGS, computing the
loss and its gradient in hyperboloid (Lorentz) coordinates, and forms the
ball points only at the end; :func:`loss_gradient` carries that one
gradient back to ball coordinates.  Because the ball's own four-point slack
shrinks like 1/sqrt(curvature), the optimized metric is closer to a
tree-metric than the input, which is the denoising effect exploited by the
downstream decoders.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import ball
from .data import write_table
from .metrics import DistanceMatrix, check_exponent

#: Spread of the rescaled input: the scaling factor maps the largest entry
#: to this value.  Must stay well below the ball diameter reachable under
#: the boundary margin ``ball.DEFAULT_MARGIN``, 2 * atanh(1 - margin) / sqrt(c)
#: (~2.44 for c = 100, margin = 1e-5).  The fit sees it and the curvature
#: only through sqrt(c) * TARGET_SPREAD, so the curvature sets the scale.
TARGET_SPREAD = 2.0

#: Correction pairs L-BFGS keeps.
_LBFGS_MEMORY = 20

#: The fit stops at the first iteration k >= ``_STOP_WINDOW`` at which the
#: (rooted) loss fell by at most ``_STOP_TOL`` of itself over the last
#: ``_STOP_WINDOW`` iterations: loss(k - W) - loss(k) <= tol * loss(k).
#: Chosen on the 24 held-out instances of ``demos/05_held_out_study.py``,
#: where a tolerance of 1e-3 cost a Neighbor Joining win.
_STOP_WINDOW = 100
_STOP_TOL = 3e-4
#: ``EmbeddingResult.stop_reason`` of a fit that the rule above ended.
_STOP_REASON = (f"STOP: RELATIVE REDUCTION OF LOSS OVER {_STOP_WINDOW} "
                f"ITERATIONS <= {_STOP_TOL:g}")

#: The start's seeded N(0, I) jitter scale in the free vectors z, and the
#: sqrt(c)-scaled radius its rows are shortened to: the final clip's, ~12.2.
_START_JITTER = 2e-3
_START_RADIUS = 2.0 * np.arctanh(1.0 - ball.DEFAULT_MARGIN)

#: The objective is +inf where a point's sqrt(c)-scaled hyperbolic radius
#: exceeds this, so the line search backs off from points whose sinh and
#: cosh would overflow.  The start lies within ``_START_RADIUS``, and double
#: precision holds a ball point strictly inside the boundary up to a radius
#: of about 37.
_MAX_RADIUS = 30.0

#: Below this radius the radial factors of :func:`_radial` come from their
#: Taylor series, which also covers a point at the origin.
_SERIES_RADIUS = 1e-2


class EncodingError(RuntimeError):
    """Raised when the rescaled targets or the optimization leave finite arithmetic."""


@dataclass(frozen=True)
class EncoderConfig:
    """Settings of one denoising run.

    The input is always rescaled so its largest entry maps to
    ``TARGET_SPREAD``, and the fit sees that spread only through
    sqrt(curvature) * ``TARGET_SPREAD``: the curvature is the one scale
    setting.  ``total_epochs`` caps the L-BFGS iterations; a run
    stops earlier once its loss has fallen by at most 3e-4 of itself over
    the last 100 iterations (see :func:`train_embedding`), or when an
    iteration can no longer lower the loss.  Every evaluation uses all pairs.

    Every run starts from one layout, ``init_scheme = "mds"``: the classical
    MDS coordinates of the target as tangent vectors at the origin, plus a
    seed-dependent jitter; rows past the final clip's radius are shortened
    to it and counted in ``EmbeddingResult.boundary_rescales``.  Being spread
    out, the start avoids the ring-shaped local minima a collapsed start
    falls into in two dimensions.  The seed moves only that jitter; the
    optimizer itself is deterministic.

    The defaults (four dimensions, curvature 100, at most 2000 iterations)
    were measured on 24 held-out shortcut-noise instances (n = 64 and 128;
    noise rates 0.1, 0.3, 0.5; ``demos/05_held_out_study.py``) and 8 exact
    tree metrics.  With them Neighbor Joining on the denoised matrix beats
    Neighbor Joining on the input in all 24 (mean loss ratio 0.832, total
    loss 662.96), and 23 of the 24 runs end by the stop rule, after 14426
    iterations in all (37578 without the rule).  A cap of 1000 or 4000 gives
    the same ratio and wins.  Two dimensions underfit (ratio 1.145, 6 wins),
    and curvature 10 fits worse (1.022, 11 wins) and leaves the denoised
    metric far less tree-like (its delta about three times that at c = 100).
    """

    dimension: int = 4
    curvature: float = 100.0
    p: float = 2.0
    total_epochs: int = 2000
    seed: int = 0
    #: Names the one start for callers that report it; a constant, not a field.
    init_scheme: ClassVar[str] = "mds"

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError("embedding dimension must be at least 2")
        if not 0.0 < self.curvature < np.inf:
            raise ValueError(f"curvature must be positive and finite, got {self.curvature}")
        check_exponent(self.p)
        if self.total_epochs < 1:
            raise ValueError("total_epochs must be at least 1")


@dataclass(frozen=True)
class PoincareEmbedding:
    """n labeled points of one ball B^d_c.

    Checked at construction: c is positive and finite, d >= 2, and every
    point has finite coordinates strictly inside the ball.  The instance is
    frozen with tuple ``labels`` and read-only ``points``, so the checks keep holding.
    """

    labels: tuple[str, ...]
    points: np.ndarray
    curvature: float

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not 0.0 < self.curvature < np.inf:
            raise ValueError(f"curvature must be positive and finite, got {self.curvature}")
        pts = np.array(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] != len(self.labels):
            raise ValueError(f"point block shape {pts.shape} does not match labels")
        if pts.shape[1] < 2:
            raise ValueError("ball dimension must be at least 2")
        if not np.all(np.isfinite(pts)):
            raise ValueError("coordinates must be finite")
        norms = np.sqrt(self.curvature) * np.linalg.norm(pts, axis=1)
        if not np.all(norms < 1.0):
            raise ValueError("some points lie on or outside the ball boundary")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)


@dataclass
class EmbeddingResult:
    """A trained embedding with its loss trace, solver outcome and boundary counts.

    ``loss_trace`` holds the loss after each iteration, in input units, and
    at least one entry; its last entry is ``final_loss``, the loss of the
    returned embedding.  ``iterations`` is the number of L-BFGS iterations.
    ``stop_reason`` is the solver's message, or
    ``"STOP: RELATIVE REDUCTION OF LOSS OVER 100 ITERATIONS <= 0.0003"``
    when the encoder's stop rule ended the fit.  ``boundary_rescales`` counts
    the start rows shortened (see :class:`EncoderConfig`) plus the final
    points pulled back onto the boundary margin, ``points_at_limit`` the latter.
    """

    embedding: PoincareEmbedding
    final_loss: float
    loss_trace: np.ndarray
    config: EncoderConfig
    scaling_factor: float
    boundary_rescales: int = 0
    points_at_limit: int = 0
    iterations: int = 0
    stop_reason: str = ""


def embedding_loss(emb: PoincareEmbedding, dm: DistanceMatrix, p: float = 2.0) -> float:
    """l_p distortion between embedded distances and the matrix entries; see :func:`_power_sum`."""
    check_exponent(p)
    if list(emb.labels) != dm.labels:
        raise ValueError("embedding and matrix are labeled differently; align them first")
    dist = ball.pairwise_distance_matrix(emb.points, emb.curvature)
    return _power_sum(dist - dm.values, p, dm.labels) ** (1.0 / p)


def _power_sum(resid: np.ndarray, p: float, labels: list[str],
               work: np.ndarray | None = None) -> float:
    """sum_{i<j} |resid_ij|^p of a symmetric residual matrix with zero diagonal.

    ``work``, shaped like ``resid``, receives the terms instead of a new array.
    A non-finite sum raises :class:`EncodingError` naming the pair of the
    first non-finite term, or of the largest if only the sum overflowed.
    """
    with np.errstate(over="ignore"):
        if p == 2.0:
            terms = np.multiply(resid, resid, out=work)
        else:
            terms = np.abs(resid, out=work)
            terms **= p
        value = 0.5 * float(np.add.reduce(terms, axis=None))
    if not np.isfinite(value):
        i, j = divmod(int(np.argmax(np.where(np.isfinite(terms), terms, np.inf))), len(terms))
        raise EncodingError(f"non-finite loss at pair ({labels[i]!r}, {labels[j]!r}); "
                            "lower the curvature or p")
    return value


class _GradientWork:
    """The n x n buffers of :func:`_pair_weights`, allocated once per run."""

    def __init__(self, n: int):
        self.root = np.empty((n, n))
        self.t = np.empty((n, n))
        # Views of the diagonals: self-pairs have q = 0 and T = 0.
        self.root_diag = self.root.reshape(-1)[::n + 1]
        self.t_diag = self.t.reshape(-1)[::n + 1]


def _pair_weights(resid: np.ndarray, q: np.ndarray, p: float,
                  work: _GradientWork) -> np.ndarray:
    """``r'_ij / sqrt(q_ij (1 + q_ij))`` into ``work.t``, zero where q_ij = 0.

    r'_ij = p |resid_ij|^(p-1) sign(resid_ij) is the derivative of the pair
    term, exactly ``2 resid_ij`` for p = 2; ``resid`` is overwritten with it.
    With q = sinh^2(sqrt(c) d / 2), sqrt(q (1 + q)) is (sqrt(c)/2) times the
    derivative of d in q, so the caller scales the result to a gradient.
    Self-pairs and coincident points get exactly zero.
    """
    coef = resid
    if p == 2.0:
        coef *= p
    else:
        scale = np.abs(resid, out=work.t)
        scale **= p - 1.0
        scale *= p
        np.sign(resid, out=coef)
        np.multiply(scale, coef, out=coef)
    root = np.add(q, 1.0, out=work.root)
    root *= q
    np.sqrt(root, out=root)
    t = work.t
    # A unit root on the diagonal keeps the divide finite; T_ii is zeroed after.
    work.root_diag.fill(1.0)
    if np.count_nonzero(root) == root.size:
        np.divide(coef, root, out=t)
    else:  # coincident points: T_ij = 0 where q_ij = 0
        t.fill(0.0)
        np.divide(coef, root, out=t, where=root > 0.0)
    work.t_diag.fill(0.0)
    return t


def loss_gradient(emb: PoincareEmbedding, dm: DistanceMatrix, p: float = 2.0) -> np.ndarray:
    """Riemannian gradient of the rooted l_p loss as an (n, d) array.

    Row i is the gradient at point i: the ambient partial derivatives
    rescaled by the inverse ball metric, (1 - c||x_i||^2)^2 / 4.  The ambient
    gradient is the encoder's own (:class:`_HyperboloidObjective`) at the
    points' tangent vectors, carried back through the root and through the
    radial map z = phi(r) x / r, phi(r) = 2 atanh(sqrt(c) r), of
    :func:`_ball_to_tangent`.  An exact perfect fit (a zero
    :func:`embedding_loss` or objective) returns zeros, the subgradient
    convention at the non-smooth point.  A point past the encoder's radius
    cap, sqrt(c)||x_i|| > tanh 15 (within about 2e-13 of the boundary),
    raises ``ValueError``.
    """
    x, c = emb.points, emb.curvature
    if embedding_loss(emb, dm, p) == 0.0:
        return np.zeros_like(x)
    n, d = x.shape
    rt = np.sqrt(c)
    unit = 2.0 / rt
    z = _ball_to_tangent(x, c)
    value, grad = _HyperboloidObjective(dm.values / unit, dm.labels, p, d)(z.reshape(-1))
    if value == np.inf:
        raise ValueError("a point lies past the encoder's radius cap, "
                         "sqrt(c)*||x|| > tanh(15); it has no gradient")
    if value == 0.0:  # a perfect fit in the objective's own rounding
        return np.zeros_like(x)
    grad = grad.reshape(n, d) * (unit * value ** (1.0 / p - 1.0) / p)
    # The map's Jacobian is symmetric: (phi/r) I + (phi' - phi/r) xhat xhat^T,
    # phi' = 2 sqrt(c) / (1 - c r^2); at the origin it is 2 sqrt(c) I.
    norm = np.linalg.norm(x, axis=1)
    nonzero = norm > 0.0
    slope = np.divide(np.linalg.norm(z, axis=1), norm, out=np.full(n, 2.0 * rt), where=nonzero)
    xhat = np.divide(x, norm[:, None], out=np.zeros_like(x), where=nonzero[:, None])
    bend = (2.0 * rt / (1.0 - c * norm**2) - slope) * np.einsum("ij,ij->i", xhat, grad)
    ambient = slope[:, None] * grad + bend[:, None] * xhat
    return ball.conformal_to_riemannian(x, c, ambient)


def _mds_init(values: np.ndarray, d: int) -> np.ndarray:
    """Classical MDS coordinates of a distance matrix, an (n, d) block.

    With fewer points than dimensions (always so for n < 3) the layout has
    n columns, and the rest are zero.
    """
    n = values.shape[0]
    centering = np.eye(n) - np.ones((n, n)) / n
    gram = -0.5 * centering @ (values**2) @ centering
    eigvals, eigvecs = np.linalg.eigh(gram)
    top = np.argsort(eigvals)[::-1][:d]
    coords = eigvecs[:, top] * np.sqrt(np.maximum(eigvals[top], 0.0))
    if top.size < d:
        coords = np.hstack([coords, np.zeros((n, d - top.size))])
    return coords


def _tangent_start(target: np.ndarray, d: int, c: float, seed: int) -> tuple[np.ndarray, int]:
    """The start z (see :class:`_HyperboloidObjective`) and its count of
    shortened rows: sqrt(c) times the MDS coordinates, each point at its MDS
    radius from the origin, plus the seeded jitter; rows past
    ``_START_RADIUS`` are shortened to it."""
    z = np.sqrt(c) * _mds_init(target, d)
    z += _START_JITTER * np.random.default_rng(seed).standard_normal(z.shape)
    radius = np.linalg.norm(z, axis=1)
    far = radius > _START_RADIUS
    z[far] *= (_START_RADIUS / radius[far])[:, None]
    return z, int(np.count_nonzero(far))


def _radial(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(cosh rho, g, h)`` with g = sinh(rho)/rho and h = g'(rho)/rho.

    h = (rho cosh rho - sinh rho)/rho^3.  Both come from their Taylor series
    below ``_SERIES_RADIUS``, where the quotients lose digits or divide by 0.
    """
    sh, ch = np.sinh(rho), np.cosh(rho)
    r2 = rho * rho
    g = 1.0 + r2 / 6.0 * (1.0 + r2 / 20.0)
    h = 1.0 / 3.0 + r2 / 30.0 * (1.0 + r2 / 28.0)
    big = rho >= _SERIES_RADIUS
    np.divide(sh, rho, out=g, where=big)
    np.divide(rho * ch - sh, rho * r2, out=h, where=big)
    return ch, g, h


def _ball_to_tangent(points: np.ndarray, c: float) -> np.ndarray:
    """Tangent vectors at the origin, times sqrt(c), whose length is each
    point's sqrt(c)-scaled distance from the origin."""
    radius = np.sqrt(c) * np.linalg.norm(points, axis=1)
    scale = np.divide(2.0 * np.arctanh(radius), radius, out=np.full(len(points), 2.0),
                      where=radius > 0.0)
    return np.sqrt(c) * points * scale[:, None]


def _tangent_to_ball(z: np.ndarray, c: float) -> np.ndarray:
    """Ball points of :func:`_ball_to_tangent`'s vectors: u / (1 + sqrt(c) x0),
    with the hyperboloid coordinates u and x0 of :class:`_HyperboloidObjective`."""
    ch, g, _ = _radial(np.linalg.norm(z, axis=1))
    return (g[:, None] * z) / (np.sqrt(c) * (1.0 + ch))[:, None]


class _HyperboloidObjective:
    """sum_{i<j} |delta_ij - tau_ij|^p and its gradient in free vectors z.

    Row i of the (n, d) block z is sqrt(c) times a tangent vector at the
    origin whose length is point i's distance from the origin, so
    rho_i = ||z_i|| is that distance times sqrt(c).  The point's hyperboloid
    coordinates are u_i = sinh(rho_i)/(sqrt(c) rho_i) z_i and
    x0_i = cosh(rho_i)/sqrt(c).  A pair's distance is d = (2/sqrt(c)) delta
    with delta = asinh(sqrt(w)) and
    w = (c/4) (||u_i - u_j||^2 - (x0_i - x0_j)^2), clamped at 0 against
    rounding.  The objective is in these units of 2/sqrt(c), so it does not
    depend on c: ``half_target`` is tau = (sqrt(c)/2) t, and the l_p loss is
    (2/sqrt(c)) times its p-th root.

    The kernel holds a_i = (sqrt(c)/2) u_i = (g(rho_i)/2) z_i, whose
    differences are formed explicitly (:func:`ball.squared_differences`),
    and b_i = cosh(rho_i)/2, so that w = ||a_i - a_j||^2 - (b_i - b_j)^2.
    As b_i^2 = 1/4 + ||a_i||^2, dw/da_i = 2 (b_j/b_i a_i - a_j), and the
    gradient in a_i is G_i = (a_i/b_i)(T b)_i - (T A)_i with T from
    :func:`_pair_weights`.  The chain rule through a(z) maps it to
    (g(rho_i) G_i + h(rho_i) (z_i.G_i) z_i)/2 (:func:`_radial`).

    A point with rho_i past ``_MAX_RADIUS`` makes the value +inf with a zero
    gradient, which the line search treats as a failed trial.  Any other
    non-finite value raises :class:`EncodingError` naming a pair.  The
    pairwise buffers are allocated once.
    """

    def __init__(self, half_target: np.ndarray, labels: list[str], p: float, d: int):
        n = half_target.shape[0]
        self.half_target, self.labels, self.p, self.d = half_target, labels, p, d
        self.diff = ball.DifferenceBuffers(n, d)
        self.ab = np.empty((n, d + 1))  # [A | b]: one product gives T @ A and T @ b
        self.w = np.empty((n, n))
        self.resid = np.empty((n, n))
        # Its two buffers also hold the radial term and the loss terms,
        # which are dead before _pair_weights writes them.
        self.work = _GradientWork(n)

    def __call__(self, flat: np.ndarray) -> tuple[float, np.ndarray]:
        p, d = self.p, self.d
        z = flat.reshape(-1, d)
        rho = np.sqrt(np.einsum("ij,ij->i", z, z))
        if not rho.max() <= _MAX_RADIUS:
            return np.inf, np.zeros_like(flat)
        ch, g, h = _radial(rho)
        a = np.multiply(0.5 * g[:, None], z, out=self.ab[:, :d])
        b = np.multiply(0.5, ch, out=self.ab[:, d])

        w = ball.squared_differences(a, self.diff, self.w)
        radial = np.subtract.outer(b, b, out=self.work.root)
        radial *= radial
        w -= radial
        np.maximum(w, 0.0, out=w)
        resid = np.sqrt(w, out=self.resid)
        np.arcsinh(resid, out=resid)
        resid -= self.half_target
        value = _power_sum(resid, p, self.labels, self.work.t)

        t = _pair_weights(resid, w, p, self.work)
        prod = t @ self.ab
        grad = (a / b[:, None]) * prod[:, d:] - prod[:, :d]
        radial_part = h * np.einsum("ij,ij->i", z, grad)
        grad *= g[:, None]
        grad += radial_part[:, None] * z
        grad *= 0.5
        return value, grad.reshape(-1)


class _PhdrInfo(ctypes.Structure):
    """The first two fields of ``struct dl_phdr_info``."""
    _fields_ = [("addr", ctypes.c_void_p), ("name", ctypes.c_char_p)]


#: ``dl_iterate_phdr``'s callback type: (info, size of info, data) -> int.
_PHDR_CALLBACK = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.POINTER(_PhdrInfo), ctypes.c_size_t,
                                  ctypes.c_void_p)


def _openblas_pools() -> list[tuple]:
    """The ``(get, set)`` thread-count functions of every OpenBLAS loaded in
    the process: numpy's ``scipy_openblas_*_num_threads64_``, scipy's
    ``scipy_openblas_*_num_threads`` or a system ``openblas_*_num_threads``.
    Libraries are listed by the C library's ``dl_iterate_phdr``; where it is
    missing (not Linux or the BSDs) no pool is found."""
    try:
        iterate = ctypes.CDLL(None).dl_iterate_phdr
    except (AttributeError, TypeError):
        return []
    iterate.argtypes, iterate.restype = [_PHDR_CALLBACK, ctypes.c_void_p], ctypes.c_int
    paths = []

    def visit(info, size, data):
        name = info.contents.name
        if name and b"openblas" in name:
            paths.append(name.decode())
        return 0

    callback = _PHDR_CALLBACK(visit)
    iterate(callback, None)
    pools = []
    for path in paths:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get is not None:
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                pools.append((get, put))
                break
    return pools


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with every loaded OpenBLAS pool on one thread, and
    restore their thread counts after.

    A threaded BLAS splits a product's sums across its threads, so their
    rounding, and with it every bit of a fit from n of about 256 up, would
    depend on the host's CPU count."""
    pools = [(set_threads, get_threads()) for get_threads, set_threads in _openblas_pools()]
    for set_threads, _ in pools:
        set_threads(1)
    try:
        yield
    finally:
        for set_threads, count in pools:
            set_threads(count)


def train_embedding(dm: DistanceMatrix, cfg: EncoderConfig) -> EmbeddingResult:
    """Optimize ball points against a dissimilarity matrix from the mds start.

    The input is rescaled by s = ``TARGET_SPREAD`` / (largest entry), or 1
    for an all-zero matrix, for optimization; reported losses are always in
    original units, i.e. embedded distances divided by s versus the raw
    input.  A largest entry so small that s overflows (below about
    1.1e-308) raises :class:`EncodingError`.  From the tangent vectors of
    :func:`_tangent_start`, one
    ``scipy.optimize.minimize(method="L-BFGS-B")`` call minimizes the l_p
    loss (:class:`_HyperboloidObjective`), for at most ``cfg.total_epochs``
    iterations.  scipy's own tolerances are zero; the fit ends earlier at the
    first iteration k >= W = 100 whose loss fell by at most tol = 3e-4 of
    itself over the last W iterations, loss(k - W) - loss(k) <= tol * loss(k)
    on ``loss_trace``'s indices, or when an iteration cannot lower the loss.
    Only then are ball points formed, pulled ``ball.DEFAULT_MARGIN`` inside
    the boundary and the points moved counted; the final loss is
    :func:`embedding_loss` of those points.  Fully deterministic for a
    given seed, also across hosts with different CPU counts: from the start
    to the final loss every loaded OpenBLAS pool runs on one thread.
    """
    import scipy.optimize
    n, c, p = dm.n, cfg.curvature, cfg.p

    max_d = float(dm.values.max()) if n > 1 else 0.0
    s = TARGET_SPREAD / max_d if max_d > 0.0 else 1.0
    if s == np.inf:
        raise EncodingError(f"largest entry {max_d!r} is too small to rescale "
                            f"to {TARGET_SPREAD:g}")
    scaled = dm.scaled(s)
    target = scaled.values

    # The objective is the p-th power of the loss up to a constant factor,
    # so the stop rule compares the raw values against (1 + tol) ** p.
    accepted: list[float] = []
    slack = (1.0 + _STOP_TOL) ** p

    def record(intermediate_result):
        accepted.append(intermediate_result.fun)
        if len(accepted) > _STOP_WINDOW and accepted[-1 - _STOP_WINDOW] <= slack * accepted[-1]:
            raise StopIteration

    unit = 2.0 / np.sqrt(c)
    with _one_blas_thread():
        start, rescales = _tangent_start(target, cfg.dimension, c, cfg.seed)
        opt = scipy.optimize.minimize(
            _HyperboloidObjective(target / unit, dm.labels, p, cfg.dimension),
            start.reshape(-1), jac=True, method="L-BFGS-B", callback=record,
            options={"maxcor": _LBFGS_MEMORY, "gtol": 0.0, "ftol": 0.0,
                     "maxiter": cfg.total_epochs},
        )
        points, clipped = ball.clip_to_ball(_tangent_to_ball(opt.x.reshape(n, -1), c), c)
        emb = PoincareEmbedding(dm.labels, points, c)
        # Every accepted value was finite, and the clip only shortens distances.
        final = embedding_loss(emb, scaled, p) / s
    trace = np.empty(max(len(accepted), 1))
    trace[:-1] = unit * np.array(accepted[:-1]) ** (1.0 / p) / s
    trace[-1] = final
    # scipy reports status 99 when the callback ended the fit.
    reason = _STOP_REASON if opt.status == 99 else opt.message.rstrip(": ")
    return EmbeddingResult(emb, final, trace, cfg, s, rescales + clipped, clipped,
                           opt.nit, reason)


def denoised_metric(result: EmbeddingResult) -> DistanceMatrix:
    """Pairwise embedded distances mapped back to original input units.

    The kernel's distances are exactly symmetric, so they need no averaging.
    """
    emb = result.embedding
    dist = ball.pairwise_distance_matrix(emb.points, emb.curvature) / result.scaling_factor
    return DistanceMatrix(list(emb.labels), dist)


def write_embedding(result: EmbeddingResult, path) -> None:
    """Dump coordinates as delimited text with a metadata header line."""
    emb = result.embedding
    header = (f"curvature={emb.curvature!r}", f"dim={emb.points.shape[1]}",
              f"scaling_factor={result.scaling_factor!r}")
    write_table(path, ([lbl, *row] for lbl, row in zip(emb.labels, emb.points)), header)


def write_loss_trace(result: EmbeddingResult, path) -> None:
    write_table(path, enumerate(result.loss_trace))
