"""Hyperbolic metric denoising: fit Poincare-ball points to a dissimilarity matrix.

The encoder places one ball point per entity and minimizes the l_p distortion
between pairwise hyperbolic distances and (rescaled) input dissimilarities
with Riemannian Adam.  Because the ball's own four-point slack shrinks like
1/sqrt(curvature), the optimized metric is closer to a tree-metric than the
input, which is the denoising effect exploited by the downstream decoders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import ball
from .ball import PoincarePoint, TangentVector
from .data import write_table
from .metrics import DistanceMatrix, check_exponent

#: Default spread of the rescaled input: scaling_factor is chosen so that the
#: largest target distance equals this value.  Must stay well below the
#: ball diameter reachable under the boundary margin ``ball.DEFAULT_MARGIN``,
#: 2 * atanh(1 - margin) / sqrt(c)  (~2.44 for c = 100, margin = 1e-5).
TARGET_SPREAD = 2.0

#: Learning-rate multiplier once ``burnin_epochs`` have passed: the burn-in
#: runs at a tenth of the main rate, the ratio Nickel & Kiela (2017) use.
BURNIN_FACTOR = 10.0

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-15

#: Fraction of the run over which the learning rate decays linearly to zero.
#: Adam steps have roughly constant hyperbolic length, so without a cooldown
#: the loss keeps oscillating at the step-size floor instead of settling.
_COOLDOWN_FRACTION = 0.2


class EncodingError(RuntimeError):
    """Raised when the optimization produces a non-finite loss."""


@dataclass(frozen=True)
class EncoderConfig:
    """Hyperparameters of one denoising run.

    ``scaling_factor=None`` rescales the input so its largest entry maps to
    ``TARGET_SPREAD``.  Every step uses all pairs.  The learning rate is
    multiplied by ``BURNIN_FACTOR`` once ``burnin_epochs`` have passed, and
    points are kept ``ball.DEFAULT_MARGIN`` inside the boundary.

    Every run starts from one layout, ``init_scheme = "mds"``: a classical
    metric-MDS layout of the target lifted through the origin exponential
    map, plus a seed-dependent jitter.  Being spread out, it avoids the
    ring-shaped local minima a collapsed start falls into in two dimensions.

    The defaults (four dimensions, curvature 100, one 4000-epoch run from the
    mds start at learning rate 1e-2) were chosen on held-out synthetic
    instances: on shortcut-noise ones (n = 64, 128, 256; noise rates 0.1,
    0.3, 0.5) they let Neighbor Joining on the denoised matrix beat Neighbor
    Joining on the input in 15 of 18 cases, and on exact tree metrics they
    fit more closely than two dimensions at learning rate 1e-3 in 14 of 19
    cases.  At learning rate 3e-3 four dimensions fit exact tree metrics
    worse than two.  In all 29 measured runs the mds start also ended at a
    smaller loss than an exact ball drawing of the target's Neighbor Joining
    tree.  Two dimensions underfit noisy input, and a lower curvature fits
    better but leaves the denoised metric far less tree-like (its delta rises
    about threefold at c = 10).
    """

    dimension: int = 4
    curvature: float = 100.0
    p: float = 2.0
    learning_rate: float = 1e-2
    burnin_epochs: int = 200
    total_epochs: int = 4000
    scaling_factor: float | None = None
    seed: int = 0
    #: Names the one start for callers that report it; a constant, not a field.
    init_scheme: ClassVar[str] = "mds"

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError("embedding dimension must be at least 2")
        for name in ("curvature", "learning_rate", "scaling_factor"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        check_exponent(self.p)
        if self.total_epochs < 1:
            raise ValueError("total_epochs must be at least 1")
        if not 0 <= self.burnin_epochs <= self.total_epochs:
            raise ValueError("need total_epochs >= burnin_epochs >= 0")


@dataclass
class PoincareEmbedding:
    """n labeled points sharing one curvature."""

    labels: list[str]
    points: np.ndarray
    curvature: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] != len(self.labels):
            raise ValueError(f"point block shape {pts.shape} does not match labels")
        norms = np.sqrt(self.curvature) * np.linalg.norm(pts, axis=1)
        if np.any(norms >= 1.0):
            raise ValueError("some points lie on or outside the ball boundary")
        self.points = pts


@dataclass
class EmbeddingResult:
    """A trained embedding with its loss trace and boundary counts.

    ``boundary_rescales`` counts the points pulled back onto the boundary
    margin, at the start and after every epoch (a point pulled back in k
    epochs counts k times); ``points_at_limit`` is the number of points the
    final epoch pulled back.
    """

    embedding: PoincareEmbedding
    final_loss: float
    loss_trace: np.ndarray
    config: EncoderConfig
    scaling_factor: float
    boundary_rescales: int = 0
    points_at_limit: int = 0


def embedding_loss(emb: PoincareEmbedding, dm: DistanceMatrix, p: float = 2.0) -> float:
    """l_p distortion between embedded distances and the matrix entries."""
    check_exponent(p)
    if len(emb.labels) != dm.n:
        raise ValueError(f"{len(emb.labels)} points vs {dm.n} matrix entities")
    dist = ball.pairwise_distance_matrix(emb.points, emb.curvature)
    return _power_sum(dist - dm.values, p) ** (1.0 / p)


def _power_sum(resid: np.ndarray, p: float, work: np.ndarray | None = None) -> float:
    """sum_{i<j} |resid_ij|^p of a symmetric residual matrix with zero diagonal.

    ``work``, shaped like ``resid``, receives the terms instead of a new array.
    """
    if p == 2.0:
        terms = np.multiply(resid, resid, out=work)
    else:
        terms = np.abs(resid, out=work)
        terms **= p
    return 0.5 * float(np.add.reduce(terms, axis=None))


class _GradientWork:
    """The n x n buffers of :func:`_power_gradient`, allocated once per run."""

    def __init__(self, n: int):
        self.root = np.empty((n, n))
        self.t = np.empty((n, n))
        self.positive = np.empty((n, n), dtype=bool)
        # Views of the diagonals: self-pairs have q = 0 and T = 0.
        self.root_diag = self.root.reshape(-1)[::n + 1]
        self.t_diag = self.t.reshape(-1)[::n + 1]


def _power_gradient(points: np.ndarray, geo: ball.PairGeometry, resid: np.ndarray,
                    c: float, p: float, work: _GradientWork | None = None) -> np.ndarray:
    """Ambient gradient of sum_{i<j} |resid_ij|^p, resid = d(x_i, x_j) - t_ij.

    ``geo`` is :func:`ball.pairwise_geometry` of ``points``; the distance is
    (2/sqrt(c)) asinh(sqrt(q)), so the pair term's derivative in x_i is
    T_ij (x_i - x_j) + T_ij q_ij conf_j x_i with
    T_ij = 2 sqrt(c) r'_ij / (conf_i conf_j sqrt(q_ij (1 + q_ij))) and
    r'_ij = p |resid_ij|^(p-1) sign(resid_ij) (zero for coincident pairs),
    which is exactly ``2 resid_ij`` for p = 2.  The sum over j of
    T_ij (x_i - x_j) is taken as rowsum(T) x_i - (T @ X)_i.  ``resid`` is
    overwritten with r'.
    """
    work = _GradientWork(len(points)) if work is None else work
    coef = resid
    if p == 2.0:
        coef *= p
    else:
        scale = np.abs(resid, out=work.t)
        scale **= p - 1.0
        scale *= p
        np.sign(resid, out=coef)
        np.multiply(scale, coef, out=coef)
    root = np.add(geo.q, 1.0, out=work.root)
    root *= geo.q
    np.sqrt(root, out=root)
    t = work.t
    # A unit root on the diagonal keeps the divide finite; T_ii is zeroed after.
    work.root_diag.fill(1.0)
    positive = np.greater(root, 0.0, out=work.positive)
    if positive.all():
        np.divide(coef, root, out=t)
    else:  # coincident points: T_ij = 0 where q_ij = 0
        t.fill(0.0)
        np.divide(coef, root, out=t, where=positive)
    work.t_diag.fill(0.0)
    t *= 2.0 * np.sqrt(c)
    t /= geo.cc
    tq = np.multiply(t, geo.q, out=work.root)
    row = np.add.reduce(t, axis=1) + tq @ geo.conf
    return row[:, None] * points - t @ points


def loss_gradient(emb: PoincareEmbedding, dm: DistanceMatrix, p: float = 2.0) -> list[TangentVector]:
    """Riemannian gradient of the rooted l_p loss, one tangent vector per point.

    The ambient partial derivatives are rescaled by the inverse ball metric,
    (1 - c||x||^2)^2 / 4.  A perfect fit returns zero vectors (subgradient
    convention at the non-smooth point).
    """
    if len(emb.labels) != dm.n:
        raise ValueError(f"{len(emb.labels)} points vs {dm.n} matrix entities")
    c = emb.curvature
    geo = ball.pairwise_geometry(emb.points, c)
    resid = geo.dist - dm.values
    power_sum = _power_sum(resid, p)
    if power_sum == 0.0:
        ambient = np.zeros_like(emb.points)
    else:
        # chain rule through the outer 1/p root
        ambient = _power_gradient(emb.points, geo, resid, c, p) * (
            power_sum ** (1.0 / p - 1.0) / p)
    riem = ball.conformal_to_riemannian(emb.points, c, ambient, geo.conf)
    return [
        TangentVector(PoincarePoint(x, c), g) for x, g in zip(emb.points, riem)
    ]


def _mds_init(values: np.ndarray, d: int, c: float) -> np.ndarray:
    """Classical MDS layout lifted through the origin exponential map.

    Each point lands at hyperbolic distance equal to its Euclidean MDS radius
    from the origin, preserving MDS directions.  With fewer points than
    dimensions (always so for n < 3) the layout has n columns, and the rest
    are zero.
    """
    import scipy.linalg
    n = values.shape[0]
    centering = np.eye(n) - np.ones((n, n)) / n
    gram = -0.5 * centering @ (values**2) @ centering
    # The same LAPACK dsyevd as np.linalg.eigh, with the same bits, but numpy's
    # build took ~50 ms on some n = 64 Gram matrices where this takes 0.5 ms.
    eigvals, eigvecs = scipy.linalg.eigh(gram, driver="evd")
    top = np.argsort(eigvals)[::-1][:d]
    coords = eigvecs[:, top] * np.sqrt(np.maximum(eigvals[top], 0.0))
    if top.size < d:
        coords = np.hstack([coords, np.zeros((n, d - top.size))])
    radii = np.linalg.norm(coords, axis=1, keepdims=True)
    unit = coords / np.maximum(radii, 1e-300)
    return unit * np.tanh(np.sqrt(c) * radii / 2.0) / np.sqrt(c)


def _init_points(cfg: EncoderConfig, target: np.ndarray,
                 rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Starting configuration against the already-rescaled target matrix.

    The mds layout is seed-independent; a small tangent jitter makes different
    seeds explore genuinely different optimization paths.  Returns the points
    and how many of them were clipped to the boundary margin.
    """
    pts = _mds_init(target, cfg.dimension, cfg.curvature)
    jitter = 1e-3 / np.sqrt(cfg.curvature) * rng.standard_normal(pts.shape)
    pts = ball.exp_map_points(pts, jitter, cfg.curvature)
    return ball.clip_to_ball(pts, cfg.curvature, full_output=True)


def train_embedding(dm: DistanceMatrix, cfg: EncoderConfig) -> EmbeddingResult:
    """Optimize ball points against a dissimilarity matrix from the mds start.

    The input is rescaled by the (possibly automatic) scaling factor for
    optimization; reported losses are always in original units, i.e. embedded
    distances divided by the scaling factor versus the raw input.  Each epoch
    performs one Riemannian Adam step (moments kept in ambient tangent
    coordinates, no transport) followed by a projection step that keeps every
    point ``ball.DEFAULT_MARGIN`` inside the boundary; the result counts the
    points that projection moved.  The pairwise geometry (:func:`ball.pairwise_geometry`)
    is computed once per epoch, after the step, into buffers allocated once
    per run: it gives that epoch's loss and the next epoch's gradient, and
    its row quantities also serve the Riemannian rescale and the exponential
    map.  Fully deterministic for a given seed.
    """
    n = dm.n
    c = cfg.curvature
    rng = np.random.default_rng(cfg.seed)

    max_d = float(dm.values.max()) if n > 1 else 0.0
    if cfg.scaling_factor is not None:
        s = cfg.scaling_factor
    elif max_d > 0.0:
        s = TARGET_SPREAD / max_d
    else:
        s = 1.0
    target = dm.values * s
    points, rescales = _init_points(cfg, target, rng)

    m = np.zeros_like(points)
    v = np.zeros(n)
    trace = np.empty(cfg.total_epochs)
    # The residual overwrites the kernel's distances, which only feed it.
    geo = ball.pairwise_geometry(points, c)
    resid = np.subtract(geo.dist, target, out=geo.dist)
    work = _GradientWork(n)
    cooldown_start = cfg.total_epochs - max(int(_COOLDOWN_FRACTION * cfg.total_epochs), 1)
    precond = None

    for epoch in range(cfg.total_epochs):
        lr = cfg.learning_rate * (BURNIN_FACTOR if epoch >= cfg.burnin_epochs else 1.0)
        if epoch >= cooldown_start:
            lr *= (cfg.total_epochs - epoch) / (cfg.total_epochs - cooldown_start)
        grad = _power_gradient(points, geo, resid, c, cfg.p, work)
        grad = ball.conformal_to_riemannian(points, c, grad, geo.conf)

        # Second moment tracks the squared Riemannian norm per point, so the
        # normalized step has roughly unit hyperbolic speed everywhere and
        # boundary-hugging points are not over-driven.
        lam = 2.0 / geo.conf
        gnorm_sq = lam**2 * np.einsum("ij,ij->i", grad, grad)

        t = epoch + 1
        m = _ADAM_BETA1 * m + (1.0 - _ADAM_BETA1) * grad
        v = _ADAM_BETA2 * v + (1.0 - _ADAM_BETA2) * gnorm_sq
        m_hat = m / (1.0 - _ADAM_BETA1**t)
        if epoch < cooldown_start or precond is None:
            precond = np.sqrt(v / (1.0 - _ADAM_BETA2**t)) + _ADAM_EPS
        # During the cooldown the preconditioner is frozen, so steps shrink
        # in proportion to the gradient and the iterate can settle instead of
        # hovering at a constant-step floor.
        step = -lr * m_hat / precond[:, None]
        points = ball.exp_map_points(points, step, c, geo.sqnorm, geo.conf)
        points, clipped = ball.clip_to_ball(points, c, full_output=True)
        rescales += clipped

        ball.pairwise_geometry(points, c, out=geo)
        np.subtract(geo.dist, target, out=resid)
        loss = _power_sum(resid, cfg.p, work.t) ** (1.0 / cfg.p) / s
        if not np.isfinite(loss):
            bad = np.argwhere(~np.isfinite(resid))
            i, j = (int(bad[0][0]), int(bad[0][1])) if bad.size else (0, 0)
            raise EncodingError(
                f"non-finite loss at epoch {epoch} "
                f"(pair {dm.labels[i]!r}, {dm.labels[j]!r}); "
                "reduce the learning rate or the scaling factor"
            )
        trace[epoch] = loss

    emb = PoincareEmbedding(list(dm.labels), points, c)
    return EmbeddingResult(emb, float(trace[-1]), trace, cfg, s, rescales, clipped)


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
