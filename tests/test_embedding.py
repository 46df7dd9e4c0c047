"""Encoder checks: loss, gradients, training behavior, exports."""

import dataclasses
import math

import numpy as np
import pytest

from hyptree import ball
from hyptree import embedding as embedding_module
from hyptree._blas import openblas_pools
from hyptree.data import add_noise_edges, graph_leaf_shortest_paths, random_binary_tree
from hyptree.embedding import (
    EmbeddingResult,
    EncoderConfig,
    EncodingError,
    PoincareEmbedding,
    denoised_metric,
    embedding_loss,
    loss_gradient,
    train_embedding,
    write_embedding,
    write_loss_trace,
)
from hyptree.metrics import DistanceMatrix, delta_exact, four_point_check
from hyptree.trees import leaf_distance_matrix


def random_dm(rng, n):
    raw = rng.random((n, n)) + 0.1
    vals = np.triu(raw, 1)
    return DistanceMatrix([f"e{i}" for i in range(n)], vals + vals.T)


def pair_distance(x, y, c):
    """Hyperbolic distance of one pair from the textbook acosh formula, in
    scalar arithmetic, independent of the block kernel."""
    diff = sum((a - b) ** 2 for a, b in zip(x, y))
    conf_x = 1.0 - c * sum(a * a for a in x)
    conf_y = 1.0 - c * sum(b * b for b in y)
    return math.acosh(1.0 + 2.0 * c * diff / (conf_x * conf_y)) / math.sqrt(c)


def spread_curvature(spread, c=100.0):
    """The curvature at which the input, rescaled to its automatic
    ``TARGET_SPREAD``, is fitted as curvature ``c`` fits it rescaled to
    ``spread``: the fit sees only sqrt(curvature) times the spread."""
    return c * (spread / embedding_module.TARGET_SPREAD) ** 2


def random_embedding(rng, n, d, c, rmax=0.6):
    g = rng.standard_normal((n, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = rmax * rng.random((n, 1)) ** (1 / d)
    return PoincareEmbedding([f"e{i}" for i in range(n)], r * g / np.sqrt(c), c)


# ---------------------------------------------------------------------------
# Reference encoder: the mds start and the hyperboloid objective as plain
# functions, one fresh array per operation, driven by the same L-BFGS call.
# The encoder, which reuses its buffers, must reproduce its points, loss
# trace and iteration count bit for bit.
# ---------------------------------------------------------------------------


def reference_distances(pts, c):
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
    return dist


def reference_clip(points, c, margin):
    """The clipped points and how many rows were over the limit."""
    pts = np.array(points, dtype=np.float64)
    limit = (1.0 - margin) / np.sqrt(c)
    moved = int(np.count_nonzero(np.linalg.norm(pts, axis=-1) > limit))
    for _ in range(4):
        norms = np.linalg.norm(pts, axis=-1)
        mask = norms > limit
        if not mask.any():
            break
        pts[mask] *= (limit / norms[mask])[:, None]
    return pts, moved


def reference_radial(rho):
    """cosh(rho), g = sinh(rho)/rho and h = g'(rho)/rho, with the encoder's
    Taylor series below 1e-2."""
    sh, ch = np.sinh(rho), np.cosh(rho)
    r2 = rho * rho
    big = rho >= 1e-2
    safe = np.where(big, rho, 1.0)
    g = np.where(big, sh / safe, 1.0 + r2 / 6.0 * (1.0 + r2 / 20.0))
    h = np.where(big, (safe * ch - sh) / (safe * (safe * safe)),
                 1.0 / 3.0 + r2 / 30.0 * (1.0 + r2 / 28.0))
    return ch, g, h


def reference_objective(z, tau, p):
    """(sum_{i<j} |asinh(sqrt(w_ij)) - tau_ij|^p, gradient) at the scaled
    tangent vectors z; +inf past a sqrt(c)-radius of 30."""
    n, d = z.shape
    rho = np.sqrt(np.einsum("ij,ij->i", z, z))
    if not rho.max() <= 30.0:
        return np.inf, np.zeros(z.size)
    ch, g, h = reference_radial(rho)
    a = 0.5 * g[:, None] * z
    b = 0.5 * ch
    sq = np.zeros((n, n))
    for col in a.T:
        diff = np.subtract.outer(col, col)
        sq += diff * diff
    w = np.maximum(sq - np.subtract.outer(b, b) ** 2, 0.0)
    resid = np.arcsinh(np.sqrt(w)) - tau
    value = 0.5 * float(np.sum(np.abs(resid) ** p))
    coef = p * np.abs(resid) ** (p - 1.0) * np.sign(resid)
    root = np.sqrt(w * (1.0 + w))
    t = np.divide(coef, root, out=np.zeros_like(coef), where=root > 0.0)
    np.fill_diagonal(t, 0.0)
    prod = t @ np.column_stack([a, b])
    grad = (a / b[:, None]) * prod[:, d:] - prod[:, :d]
    radial = h * np.einsum("ij,ij->i", z, grad)
    grad = 0.5 * (g[:, None] * grad + radial[:, None] * z)
    return value, grad.reshape(-1)


def reference_train(dm, cfg):
    """``(points, loss_trace, iterations, boundary_rescales, points_at_limit)``
    of the reference encoder, with its stop rule."""
    import scipy.optimize

    c, p, n, d = cfg.curvature, cfg.p, dm.n, cfg.dimension
    max_d = float(dm.values.max()) if dm.n > 1 else 0.0
    s = embedding_module.TARGET_SPREAD / max_d if max_d > 0.0 else 1.0
    target = dm.values * s
    start, start_moved = reference_start(target, d, c, cfg.seed)
    unit = 2.0 / np.sqrt(c)
    tau = target / unit
    accepted, losses = [], []

    def record(intermediate_result):
        # The stop rule on the rooted loss: stop at the first k >= 100 with
        # loss[k - 100] - loss[k] <= 3e-4 * loss[k].
        accepted.append(intermediate_result.fun)
        losses.append(unit * intermediate_result.fun ** (1.0 / p) / s)
        k = len(losses) - 1
        if k >= 100 and losses[k - 100] - losses[k] <= 3e-4 * losses[k]:
            raise StopIteration

    opt = scipy.optimize.minimize(
        lambda x: reference_objective(x.reshape(n, d), tau, p),
        start.reshape(-1), jac=True, method="L-BFGS-B",
        callback=record,
        options={"maxcor": 20, "gtol": 0.0, "ftol": 0.0, "maxiter": cfg.total_epochs})
    z = opt.x.reshape(n, d)
    ch, g, _ = reference_radial(np.linalg.norm(z, axis=1))
    points, moved = reference_clip(
        (g[:, None] * z) / (np.sqrt(c) * (1.0 + ch))[:, None], c, ball.DEFAULT_MARGIN)
    resid = reference_distances(points, c) - target
    final = (0.5 * float(np.sum(np.abs(resid) ** p))) ** (1.0 / p) / s
    trace = np.append(unit * np.array(accepted[:-1]) ** (1.0 / p) / s, final)
    return points, trace, opt.nit, start_moved + moved, moved


def reference_mds_init(values, d):
    """Classical MDS coordinates from ``np.linalg.eigh``, written out apart
    from the encoder's copy."""
    n = values.shape[0]
    centering = np.eye(n) - np.ones((n, n)) / n
    gram = -0.5 * centering @ (values**2) @ centering
    eigvals, eigvecs = np.linalg.eigh(gram)
    top = np.argsort(eigvals)[::-1][:d]
    coords = eigvecs[:, top] * np.sqrt(np.maximum(eigvals[top], 0.0))
    if top.size < d:
        coords = np.hstack([coords, np.zeros((n, d - top.size))])
    return coords


def reference_start(target, d, c, seed):
    """The start's sqrt(c)-scaled tangent vectors and how many rows the cap
    shortened: sqrt(c) times the MDS coordinates, a 2e-3 Gaussian jitter,
    and rows past the final clip's radius shortened to it."""
    z = np.sqrt(c) * reference_mds_init(target, d)
    z = z + 2e-3 * np.random.default_rng(seed).standard_normal(z.shape)
    cap = 2.0 * np.arctanh(1.0 - ball.DEFAULT_MARGIN)
    radius = np.linalg.norm(z, axis=1)
    far = radius > cap
    z[far] = z[far] * (cap / radius[far])[:, None]
    return z, int(np.count_nonzero(far))


def assert_bitwise(res, ref):
    points, trace, iterations, rescales, at_limit = ref
    assert res.embedding.points.tobytes() == points.tobytes()
    assert res.loss_trace.tobytes() == trace.tobytes()
    assert (res.iterations, res.boundary_rescales, res.points_at_limit) == (
        iterations, rescales, at_limit)


class TestEncoderConfig:
    def test_defaults_valid(self):
        EncoderConfig()

    @pytest.mark.parametrize(
        "kw",
        [
            {"dimension": 1},
            {"curvature": 0.0},
            {"p": 0.5},
            {"total_epochs": -5},
            {"curvature": -float("inf")},
            {"p": 0.0},
            {"total_epochs": 0},
            {"p": float("inf")},
            {"p": float("nan")},
            {"curvature": float("inf")},
            {"curvature": float("nan")},
            {"curvature": -1.0},
            {"dimension": 0},
            {"p": -float("inf")},
            {"dimension": -1},
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ValueError, match="|".join(kw)):
            EncoderConfig(**kw)

    def test_init_scheme_is_a_constant(self):
        assert EncoderConfig().init_scheme == "mds"
        assert "init_scheme" not in [f.name for f in dataclasses.fields(EncoderConfig)]

    def test_margin_and_solver_settings_are_constants(self):
        assert [f.name for f in dataclasses.fields(EncoderConfig)] == [
            "dimension", "curvature", "p", "total_epochs", "seed"]
        assert EncoderConfig().total_epochs == 2000
        assert (ball.DEFAULT_MARGIN, embedding_module._LBFGS_MEMORY,
                embedding_module._MAX_RADIUS, embedding_module._START_JITTER,
                embedding_module._STOP_WINDOW, embedding_module._STOP_TOL) == (
                    1e-5, 20, 30.0, 2e-3, 100, 3e-4)
        assert embedding_module._START_RADIUS == 2.0 * np.arctanh(1.0 - 1e-5)


class TestPoincareEmbedding:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_coordinate_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PoincareEmbedding(["a", "b"], [[bad, 0.0], [0.0, 0.0]], 1.0)

    @pytest.mark.parametrize("c", [0.0, -1.0, float("inf"), float("nan")])
    def test_curvature_must_be_positive_and_finite(self, c):
        with pytest.raises(ValueError, match="curvature"):
            PoincareEmbedding(["a", "b"], np.zeros((2, 2)), c)

    def test_dimension_one_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            PoincareEmbedding(["a", "b"], [[0.1], [0.2]], 1.0)

    def test_boundary_point_rejected(self):
        with pytest.raises(ValueError, match="boundary"):
            PoincareEmbedding(["a", "b"], [[1.0, 0.0], [0.0, 0.0]], 1.0)
        with pytest.raises(ValueError, match="boundary"):
            PoincareEmbedding(["a", "b"], [[0.11, 0.0], [0.0, 0.0]], 100.0)

    def test_points_cannot_change_after_construction(self):
        src = np.array([[0.1, 0.0], [0.0, 0.0]])
        emb = PoincareEmbedding(["a", "b"], src, 1.0)
        src[0, 0] = 2.0
        assert emb.points[0, 0] == 0.1
        with pytest.raises(ValueError, match="read-only"):
            emb.points[0, 0] = np.nan
        with pytest.raises(dataclasses.FrozenInstanceError):
            emb.points = np.array([[2.0, 0.0], [0.0, 0.0]])
        with pytest.raises(dataclasses.FrozenInstanceError):
            emb.curvature = 0.0
        assert embedding_loss(emb, DistanceMatrix(["a", "b"], [[0.0, 1.0], [1.0, 0.0]])) > 0.0

    def test_labels_frozen_as_a_tuple(self):
        emb = PoincareEmbedding(["a", "b"], np.zeros((2, 2)), 1.0)
        assert emb.labels == ("a", "b")
        with pytest.raises(AttributeError):
            emb.labels.append("c")
        with pytest.raises(dataclasses.FrozenInstanceError):
            emb.labels = ["a", "b", "c"]

    def test_list_and_tuple_labels_give_the_same_outputs(self, tmp_path):
        # write_embedding and denoised_metric write the labels as before,
        # not the tuple's repr.
        pts = random_embedding(np.random.default_rng(49), 3, 2, 100.0).points
        texts, metrics = [], []
        for labels in (["a", "b", "c"], ("a", "b", "c")):
            emb = PoincareEmbedding(labels, pts, 100.0)
            res = EmbeddingResult(emb, 0.0, np.zeros(1), EncoderConfig(), 0.5)
            write_embedding(res, tmp_path / "emb.txt")
            texts.append((tmp_path / "emb.txt").read_bytes())
            metrics.append(denoised_metric(res))
        assert texts[0] == texts[1]
        assert [ln.split(b"\t")[0] for ln in texts[0].splitlines()[1:]] == [b"a", b"b", b"c"]
        assert metrics[0].labels == metrics[1].labels == ["a", "b", "c"]
        assert metrics[0].values.tobytes() == metrics[1].values.tobytes()
        assert metrics[0].values.tobytes() == (
            ball.pairwise_distance_matrix(pts, 100.0) / 0.5).tobytes()

    def test_nan_point_never_reaches_loss_or_gradient(self):
        dm = DistanceMatrix(["a", "b"], [[0.0, 1.0], [1.0, 0.0]])
        for fn in (embedding_loss, loss_gradient):
            with pytest.raises(ValueError, match="finite"):
                fn(PoincareEmbedding(["a", "b"], [[np.nan, 0.0], [0.0, 0.0]], 1.0), dm)


class TestEmbeddingLoss:
    def test_realized_pair_is_zero(self):
        c = 1.0
        target = 1.2
        r = math.tanh(target / 2.0)  # distance 2*atanh(r) = target
        emb = PoincareEmbedding(
            ["u", "v"], np.array([[r / 2 * 0, 0.0], [r, 0.0]])[::-1], c
        )
        dm = DistanceMatrix(["u", "v"], [[0, target], [target, 0]])
        assert embedding_loss(emb, dm, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_all_origin_gives_matrix_norm(self):
        rng = np.random.default_rng(50)
        dm = random_dm(rng, 6)
        emb = PoincareEmbedding(dm.labels, np.zeros((6, 2)), 1.0)
        assert embedding_loss(emb, dm, 2.0) == pytest.approx(
            np.linalg.norm(dm.pair_vector()), rel=1e-14
        )

    def test_matches_independent_accumulation(self):
        rng = np.random.default_rng(51)
        for c in (1.0, 100.0):
            emb = random_embedding(rng, 7, 3, c)
            dm = random_dm(rng, 7)
            p = 2.0
            terms = []
            for i in range(7):
                for j in range(i + 1, 7):
                    dij = pair_distance(emb.points[i].tolist(), emb.points[j].tolist(), c)
                    terms.append(abs(dij - dm.values[i, j]) ** p)
            expected = math.fsum(sorted(terms)) ** (1.0 / p)
            assert embedding_loss(emb, dm, p) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("p", [0.5, float("inf"), float("nan")])
    def test_p_below_one_or_not_finite_rejected(self, p):
        rng = np.random.default_rng(52)
        emb = random_embedding(rng, 4, 2, 1.0)
        dm = random_dm(rng, 4)
        for fn in (embedding_loss, loss_gradient):
            with pytest.raises(ValueError, match="norm exponent p"):
                fn(emb, dm, p)

    @pytest.mark.filterwarnings("error")
    def test_overflow_names_the_pair(self):
        # A residual of 60 to the power 260 overflows a double; every other
        # term is 1.  Both functions raise, naming the pair, with no numpy
        # warning.
        values = np.ones((5, 5)) - np.eye(5)
        values[1, 3] = values[3, 1] = 60.0
        dm = DistanceMatrix(list("abcde"), values)
        emb = PoincareEmbedding(list("abcde"), np.zeros((5, 2)), 1.0)
        for fn in (embedding_loss, loss_gradient):
            with pytest.raises(EncodingError, match="non-finite loss at pair \\('b', 'd'\\)"):
                fn(emb, dm, 260.0)
        assert embedding_loss(emb, dm, 100.0) == pytest.approx(60.0, rel=1e-12)

    def test_size_mismatch(self):
        rng = np.random.default_rng(52)
        emb = random_embedding(rng, 4, 2, 1.0)
        dm = random_dm(rng, 5)
        for fn in (embedding_loss, loss_gradient):
            with pytest.raises(ValueError, match="labeled differently"):
                fn(emb, dm, 2.0)

    def test_labels_must_match_matrix_in_order(self):
        # Points pair with matrix rows by position, so a permuted or foreign
        # labeling of the same points would be scored against the wrong rows.
        rng = np.random.default_rng(54)
        pts = random_embedding(rng, 3, 2, 1.0).points
        dm = DistanceMatrix(["a", "b", "c"], random_dm(rng, 3).values)
        for fn in (embedding_loss, loss_gradient):
            fn(PoincareEmbedding(["a", "b", "c"], pts, 1.0), dm)
            for labels in (["c", "b", "a"], ["x", "y", "z"]):
                with pytest.raises(ValueError, match="labeled differently"):
                    fn(PoincareEmbedding(labels, pts, 1.0), dm)


class TestLossGradient:
    def test_returns_point_block(self):
        rng = np.random.default_rng(55)
        emb = random_embedding(rng, 6, 3, 100.0)
        grad = loss_gradient(emb, random_dm(rng, 6), 2.0)
        assert (grad.shape, grad.dtype) == ((6, 3), np.float64)

    def test_zero_at_perfect_fit(self):
        rng = np.random.default_rng(53)
        emb = random_embedding(rng, 5, 2, 1.0)
        dm = DistanceMatrix(
            emb.labels, ball.pairwise_distance_matrix(emb.points, 1.0)
        )
        assert np.allclose(loss_gradient(emb, dm, 2.0), 0.0, atol=1e-12)

    def test_zero_at_perfect_fit_of_the_objective(self):
        # The target is the objective's own distance, which the ball kernel
        # misses by an ulp: the ball loss is not 0, but the objective is.
        x = np.random.default_rng(0).standard_normal((2, 2)) * 0.05
        c = 100.0
        objective = embedding_module._HyperboloidObjective(np.zeros((2, 2)), ["a", "b"], 2.0, 2)
        objective(embedding_module._ball_to_tangent(x, c).reshape(-1))
        dm = DistanceMatrix(["a", "b"], 2.0 / np.sqrt(c) * np.arcsinh(np.sqrt(objective.w)))
        emb = PoincareEmbedding(["a", "b"], x, c)
        assert embedding_loss(emb, dm, 2.0) > 0.0
        assert np.all(loss_gradient(emb, dm, 2.0) == 0.0)

    def test_collinear_pair_sign(self):
        # two points on a line through the origin; too-short embedded
        # distance pushes the outer point outward (negative gradient points
        # along +x)
        emb = PoincareEmbedding(["u", "v"], np.array([[0.0, 0.0], [0.3, 0.0]]), 1.0)
        dm = DistanceMatrix(["u", "v"], [[0, 2.0], [2.0, 0]])
        grads = loss_gradient(emb, dm, 2.0)
        assert grads[1, 0] < 0.0  # descent moves v to larger x
        assert abs(grads[1, 1]) < 1e-14

    def test_finite_difference_match(self):
        rng = np.random.default_rng(54)
        for c in (1.0, 100.0):
            for p in (2.0, 1.5):
                emb = random_embedding(rng, 5, 3, c)
                dm = random_dm(rng, 5)
                got = loss_gradient(emb, dm, p)
                eps = 1e-6 / np.sqrt(c)
                fd = np.zeros_like(emb.points)
                for i in range(5):
                    for k in range(3):
                        up = emb.points.copy()
                        up[i, k] += eps
                        dn = emb.points.copy()
                        dn[i, k] -= eps
                        fd[i, k] = (
                            embedding_loss(PoincareEmbedding(emb.labels, up, c), dm, p)
                            - embedding_loss(PoincareEmbedding(emb.labels, dn, c), dm, p)
                        ) / (2 * eps)
                fd = ball.conformal_to_riemannian(emb.points, c, fd)
                rel = np.abs(got - fd).max() / np.abs(fd).max()
                assert rel < 1e-4


    def test_point_past_radius_cap_raises(self):
        # sqrt(c)||x|| = 1 - 1e-13 is inside the ball but past tanh(15), the
        # encoder's cap of 30 on the sqrt(c)-scaled distance from the origin.
        for c in (1.0, 100.0):
            pts = np.array([[0.0, 0.1], [1.0 - 1e-13, 0.0], [0.0, -0.2]]) / np.sqrt(c)
            emb = PoincareEmbedding(["e0", "e1", "e2"], pts, c)
            with pytest.raises(ValueError, match="radius cap"):
                loss_gradient(emb, random_dm(np.random.default_rng(58), 3), 2.0)

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_finite_difference_match_at_the_margin(self, p):
        c = 100.0
        rng = np.random.default_rng(59)
        emb = random_embedding(rng, 5, 3, c)
        pts = emb.points.copy()
        pts[2] *= (1.0 - ball.DEFAULT_MARGIN) / (np.sqrt(c) * np.linalg.norm(pts[2]))
        emb = PoincareEmbedding(emb.labels, pts, c)
        dm = random_dm(rng, 5).scaled(5.0)
        got = loss_gradient(emb, dm, p)
        assert np.all(np.isfinite(got))
        # Steps a thousandth of the margin: the distances to point 2 curve like
        # 1/(1 - sqrt(c) r), so its row needs a short step.  The Riemannian
        # gradient there is 1e-5 of the others', and each row is held to its
        # own size.
        eps = 1e-8 / np.sqrt(c)
        fd = np.zeros_like(pts)
        for i in range(5):
            for k in range(3):
                up, dn = pts.copy(), pts.copy()
                up[i, k] += eps
                dn[i, k] -= eps
                fd[i, k] = (
                    embedding_loss(PoincareEmbedding(emb.labels, up, c), dm, p)
                    - embedding_loss(PoincareEmbedding(emb.labels, dn, c), dm, p)
                ) / (2 * eps)
        fd = ball.conformal_to_riemannian(pts, c, fd)
        scale = np.abs(fd).max(axis=1)
        assert np.all(np.abs(got - fd).max(axis=1) < 1e-5 * scale)
        assert scale[2] < 1e-4 * scale.max()


class TestTraining:
    def test_blas_pools_on_one_thread_then_restored(self, monkeypatch):
        # The fit runs every loaded OpenBLAS pool on one thread and gives
        # each its own count back, here 2, also when the fit raises.
        pools = openblas_pools()
        before = [get() for get, _ in pools]
        seen = []

        def failing_start(*args):
            seen.append([get() for get, _ in pools])
            raise EncodingError("stop here")

        monkeypatch.setattr(embedding_module, "_tangent_start", failing_start)
        try:
            for _, put in pools:
                put(2)
            with pytest.raises(EncodingError, match="stop here"):
                train_embedding(random_dm(np.random.default_rng(5), 6), EncoderConfig())
            assert [get() for get, _ in pools] == [2] * len(pools)
        finally:
            for (_, put), count in zip(pools, before):
                put(count)
        assert seen == [[1] * len(pools)]

    def test_two_points_fit(self):
        dm = DistanceMatrix(["u", "v"], [[0, 1.7], [1.7, 0]])
        res = train_embedding(dm, EncoderConfig(seed=0))
        assert res.final_loss < 1e-4

    def test_four_leaf_tree_metric(self):
        t = random_binary_tree(4, 1)
        dm = leaf_distance_matrix(t)
        res = train_embedding(dm, EncoderConfig(seed=0))
        assert res.final_loss < 0.05 * np.linalg.norm(dm.pair_vector())

    def test_defaults_fit_exact_tree_metrics(self):
        # Trees embed with low distortion in hyperbolic space, so the
        # default encoder must fit clean tree metrics closely, not only
        # denoise noisy ones.
        rel = []
        for tree_seed in range(5):
            dm = leaf_distance_matrix(random_binary_tree(32, tree_seed))
            res = train_embedding(dm, EncoderConfig(seed=0))
            rel.append(res.final_loss / np.linalg.norm(dm.pair_vector()))
        assert np.mean(rel) < 0.10

    def test_deterministic(self):
        rng = np.random.default_rng(55)
        dm = random_dm(rng, 8)
        cfg = EncoderConfig(seed=7, total_epochs=60)
        a = train_embedding(dm, cfg)
        b = train_embedding(dm, cfg)
        assert np.array_equal(a.loss_trace, b.loss_trace)
        assert np.array_equal(a.embedding.points, b.embedding.points)

    def test_final_loss_is_last_trace_entry(self):
        rng = np.random.default_rng(56)
        dm = random_dm(rng, 6)
        res = train_embedding(dm, EncoderConfig(seed=1, total_epochs=50))
        assert res.final_loss == res.loss_trace[-1]
        # and it is the loss of the final embedding, in input units
        assert res.final_loss == (
            embedding_loss(res.embedding, dm.scaled(res.scaling_factor), 2.0)
            / res.scaling_factor)

    def test_soft_monotonicity_tail(self):
        rng = np.random.default_rng(57)
        good = 0
        for seed in range(10):
            dm = random_dm(rng, 10)
            res = train_embedding(
                dm, EncoderConfig(seed=seed, total_epochs=300)
            )
            tail = res.loss_trace[-30:]
            if np.all(np.diff(tail) <= 1e-9):
                good += 1
        assert good >= 9

    def test_scale_equivariance(self):
        # The automatic factor maps the largest entry to TARGET_SPREAD, and a
        # power of two scales exactly, so a fit of 2^k D runs on the very
        # targets of a fit of D: the same points bit for bit, every loss 2^k
        # times as large, and the factor 2^-k times.
        dm = random_dm(np.random.default_rng(59), 8)
        cfg = EncoderConfig(seed=11, total_epochs=150)
        base = train_embedding(dm, cfg)
        for k in (-40, -1, 9):
            res = train_embedding(dm.scaled(2.0**k), cfg)
            assert res.embedding.points.tobytes() == base.embedding.points.tobytes()
            assert res.loss_trace.tobytes() == (2.0**k * base.loss_trace).tobytes()
            assert res.final_loss == 2.0**k * base.final_loss
            assert res.scaling_factor == base.scaling_factor / 2.0**k
            assert (res.iterations, res.stop_reason) == (base.iterations, base.stop_reason)

    def test_all_points_inside_ball(self):
        rng = np.random.default_rng(60)
        dm = random_dm(rng, 12)
        res = train_embedding(dm, EncoderConfig(seed=2, total_epochs=100))
        norms = np.sqrt(100.0) * np.linalg.norm(res.embedding.points, axis=1)
        assert np.all(norms < 1.0)

    @pytest.mark.parametrize("n, d", [(1, 4), (2, 4), (3, 4), (4, 8)])
    def test_mds_start_fills_every_dimension(self, n, d, tmp_path):
        dm = random_dm(np.random.default_rng(65), n)
        res = train_embedding(dm, EncoderConfig(dimension=d, total_epochs=20))
        assert res.embedding.points.shape == (n, d)
        assert np.all(res.embedding.points[:, n:] != 0.0)
        write_embedding(res, tmp_path / "emb.txt")
        assert f"dim={d}" in (tmp_path / "emb.txt").read_text().splitlines()[0]


    def test_solver_outcome_recorded(self):
        rng = np.random.default_rng(66)
        dm = random_dm(rng, 12)
        # Uncapped, this fit ends by the stop rule after 271 iterations; a
        # cap below the rule's window of 100 ends it at the cap.
        capped = train_embedding(dm, EncoderConfig(total_epochs=99))
        assert (capped.iterations, len(capped.loss_trace)) == (99, 99)
        assert capped.stop_reason == "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"
        # A tree metric on four leaves is fitted long before the cap.
        early = train_embedding(leaf_distance_matrix(random_binary_tree(4, 1)), EncoderConfig())
        assert 0 < early.iterations == len(early.loss_trace) < 2000
        assert "LIMIT" not in early.stop_reason and early.stop_reason

    def test_stop_rule_ends_the_fit(self):
        # The rule holds on the returned trace at its last index and at no
        # earlier index >= W, and the stop reason names it.
        dm = random_dm(np.random.default_rng(1040), 40)
        res = train_embedding(dm, EncoderConfig(seed=44))
        trace, window = res.loss_trace, 100
        held = [k for k in range(window, len(trace))
                if trace[k - window] - trace[k] <= 3e-4 * trace[k]]
        assert held == [len(trace) - 1] and res.iterations == len(trace) < 2000
        assert res.stop_reason == (
            "STOP: RELATIVE REDUCTION OF LOSS OVER 100 ITERATIONS <= 0.0003")

    def test_l1_run(self):
        # At p = 1 the objective has kinks where a residual crosses zero and
        # L-BFGS steps overshoot; trial points past the radius cap must be
        # rejected without a numpy warning (warnings are errors here).
        dm = graph_leaf_shortest_paths(add_noise_edges(random_binary_tree(40, 3), 0.3, 4))
        res = train_embedding(dm, EncoderConfig(p=1.0, total_epochs=400))
        assert np.all(np.diff(res.loss_trace) <= 1e-9 * res.loss_trace[0])
        assert res.final_loss < 0.8 * res.loss_trace[0]
        assert res.final_loss == pytest.approx(
            embedding_loss(res.embedding, dm.scaled(res.scaling_factor), 1.0)
            / res.scaling_factor, rel=1e-12)

    def test_targets_too_large_to_square_rejected(self):
        # The mds start squares the targets, and 1e200 squared overflows; the
        # automatic factor maps the largest entry to TARGET_SPREAD first.
        values = np.ones((3, 3)) - np.eye(3)
        values[0, 1] = values[1, 0] = 1e200
        dm = DistanceMatrix(list("abc"), values)
        res = train_embedding(dm, EncoderConfig(total_epochs=5))
        assert np.isfinite(res.final_loss) and res.scaling_factor == 2e-200

    def test_subnormal_largest_entry_rejected(self):
        # 2 / 1e-310 overflows, so no finite factor maps the entry to 2.
        dm = DistanceMatrix(list("abc"), 1e-310 * (np.ones((3, 3)) - np.eye(3)))
        with pytest.raises(EncodingError, match="largest entry 1e-310 is too small to rescale"):
            train_embedding(dm, EncoderConfig(total_epochs=5))
        # a largest entry just above the smallest normal double still rescales
        tiny = DistanceMatrix(list("abc"), 2.3e-308 * (np.ones((3, 3)) - np.eye(3)))
        assert train_embedding(tiny, EncoderConfig(total_epochs=5)).scaling_factor == 2.0 / 2.3e-308

    def test_non_finite_loss_names_the_pair(self):
        # The pair (b, d) asks for a distance of 60 on the scale of curvature
        # 1 (curvature 900 at the automatic spread), far past the 24.4 the
        # boundary margin allows there, and its residual to the power 260
        # overflows; every other term stays finite.
        values = np.ones((5, 5)) - np.eye(5)
        values[1, 3] = values[3, 1] = 60.0
        dm = DistanceMatrix(list("abcde"), values)
        cfg = EncoderConfig(curvature=spread_curvature(60.0, c=1.0), p=260.0)
        assert cfg.curvature == 900.0
        with pytest.raises(EncodingError, match="non-finite loss at pair \\('b', 'd'\\); "
                                                "lower the curvature or p"):
            train_embedding(dm, cfg)

    @pytest.mark.parametrize("p", [3e6, 1e308])
    def test_huge_finite_p_is_encoding_error(self, p):
        # The stop rule's slack (1 + tol) ** p overflows a float from p of
        # about 2.4e6; the fit must still end in the pair whose loss overflows.
        dm = graph_leaf_shortest_paths(add_noise_edges(random_binary_tree(16, 0), 0.3, 1))
        with pytest.raises(EncodingError, match="non-finite loss at pair"):
            train_embedding(dm, EncoderConfig(p=p, total_epochs=5))


def law_of_cosines_loss(z, tau, p):
    """sum_{i<j} |asinh(sqrt(w_ij)) - tau_ij|^p in scalar arithmetic, with
    w = sinh^2((rho_i - rho_j)/2) + sinh(rho_i) sinh(rho_j) ||e_i - e_j||^2 / 4
    for radii rho = ||z|| and unit directions e: a sum of two nonnegative
    terms, accurate at any radius and independent of the encoder's kernel."""
    rows = [[float(x) for x in row] for row in z]
    radii = [math.sqrt(sum(x * x for x in row)) for row in rows]
    units = [[x / r for x in row] if r > 0 else [0.0] * len(row)
             for row, r in zip(rows, radii)]
    terms = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            apart = sum((a - b) ** 2 for a, b in zip(units[i], units[j]))
            w = (math.sinh((radii[i] - radii[j]) / 2.0) ** 2
                 + math.sinh(radii[i]) * math.sinh(radii[j]) * apart / 4.0)
            terms.append(abs(math.asinh(math.sqrt(w)) - tau[i, j]) ** p)
    return math.fsum(terms)


def scaled_tangents(rng, radii, d):
    """Rows of sqrt(c)-scaled tangent vectors with the given norms."""
    g = rng.standard_normal((len(radii), d))
    return g * (np.asarray(radii) / np.linalg.norm(g, axis=1))[:, None]


class TestHyperboloidObjective:
    """The encoder's objective against formulas it does not share code with."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_finite_difference_match(self, p):
        rng = np.random.default_rng(80)
        # points next to the origin and just inside the series radius, and
        # one far out
        z = scaled_tangents(rng, [1e-9, 10.0, 5e-3, 0.4, 1.3, 2.2, 3.1], 3)
        tau = random_dm(rng, 7).values * 3.0
        objective = embedding_module._HyperboloidObjective(tau, list("abcdefg"), p, 3)
        value, grad = objective(z.reshape(-1))
        # The kernel's w is a difference of terms of size e^(2 rho) / 16, so
        # pairs with the far point carry about 1e-16 e^rho relative error.
        assert value == pytest.approx(law_of_cosines_loss(z, tau, p), rel=1e-12)
        eps = 1e-6
        fd = np.zeros(z.size)
        for k in range(z.size):
            up, dn = z.copy().reshape(-1), z.copy().reshape(-1)
            up[k] += eps
            dn[k] -= eps
            fd[k] = (law_of_cosines_loss(up.reshape(z.shape), tau, p)
                     - law_of_cosines_loss(dn.reshape(z.shape), tau, p)) / (2 * eps)
        assert np.abs(grad - fd).max() / np.abs(fd).max() < 1e-8

    @pytest.mark.parametrize("c", [1.0, 100.0])
    def test_distances_match_ball_kernel(self, c):
        rng = np.random.default_rng(81)
        z = scaled_tangents(rng, np.linspace(0.0, 12.0, 25), 4)
        objective = embedding_module._HyperboloidObjective(
            np.zeros((25, 25)), [f"e{i}" for i in range(25)], 2.0, 4)
        objective(z.reshape(-1))
        got = 2.0 / np.sqrt(c) * np.arcsinh(np.sqrt(objective.w))
        points = embedding_module._tangent_to_ball(z, c)
        want = ball.pairwise_distance_matrix(points, c)
        # The ball's own coordinates hold a point at sqrt(c)-radius rho to
        # about 1e-16 e^rho in rho, 2e-11 at rho = 12.
        assert np.abs(got - want).max() < 1e-10 / np.sqrt(c)
        assert np.array_equal(got, got.T) and np.all(np.diag(got) == 0.0)
        # the ball points map back to the same vectors
        back = embedding_module._ball_to_tangent(points, c)
        assert np.abs(back - z).max() < 1e-10

    def test_near_coincident_far_points_stay_finite(self):
        # Far out, ||a_i - a_j||^2 and (b_i - b_j)^2 nearly cancel, and for
        # points a few ulps apart their rounded difference goes negative.
        rng = np.random.default_rng(83)
        e = rng.standard_normal(4)
        e /= np.linalg.norm(e)
        z = np.array([20.0 * e, 20.0 * e * (1.0 + 1e-14), 20.0 * e + 1e-14, 0.5 * e])
        ch, g, _ = reference_radial(np.linalg.norm(z, axis=1))
        a = 0.5 * g[:, None] * z
        unclamped = ((a[:, None, :] - a[None, :, :]) ** 2).sum(axis=-1) - np.subtract.outer(
            0.5 * ch, 0.5 * ch) ** 2
        assert np.any(unclamped < 0.0)
        objective = embedding_module._HyperboloidObjective(
            np.ones((4, 4)) - np.eye(4), list("abcd"), 2.0, 4)
        value, grad = objective(z.reshape(-1))
        assert np.isfinite(value) and np.all(np.isfinite(grad))
        assert np.all(objective.w >= 0.0)

    def test_point_past_radius_cap_gives_infinity(self):
        z = scaled_tangents(np.random.default_rng(82), [0.5, 1.0, 30.5], 2)
        objective = embedding_module._HyperboloidObjective(np.ones((3, 3)), ["a", "b", "c"], 1.0, 2)
        value, grad = objective(z.reshape(-1))
        assert value == np.inf and np.all(grad == 0.0)
        z[2] *= 29.9 / 30.5
        assert np.isfinite(objective(z.reshape(-1))[0])


class TestBitwiseReference:
    """The encoder and its kernels reproduce the plain references bit for bit."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("n", [2, 3, 9, 40])
    def test_matches_reference(self, n, d, p):
        dm = random_dm(np.random.default_rng(1000 + n), n)
        cfg = EncoderConfig(dimension=d, p=p, seed=n + d, total_epochs=40)
        assert_bitwise(train_embedding(dm, cfg), reference_train(dm, cfg))

    def test_noisy_tree_metric(self):
        dm = graph_leaf_shortest_paths(add_noise_edges(random_binary_tree(24, 5), 0.3, 6))
        cfg = EncoderConfig(total_epochs=60)
        assert_bitwise(train_embedding(dm, cfg), reference_train(dm, cfg))

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_run_ended_by_the_stop_rule(self, p):
        dm = random_dm(np.random.default_rng(1040), 40)
        cfg = EncoderConfig(p=p, seed=44)
        res = train_embedding(dm, cfg)
        assert res.stop_reason == embedding_module._STOP_REASON
        assert_bitwise(res, reference_train(dm, cfg))

    def test_saturating_run(self):
        # Targets far beyond the ball's reachable diameter (curvature 100 at
        # the input's own spread) drive points past the boundary margin, so
        # trial points hit the radius cap and the final clip moves points.
        dm = graph_leaf_shortest_paths(add_noise_edges(random_binary_tree(30, 7), 0.3, 8))
        cfg = EncoderConfig(curvature=spread_curvature(dm.values.max()), total_epochs=80)
        res = train_embedding(dm, cfg)
        assert res.points_at_limit > 0
        assert_bitwise(res, reference_train(dm, cfg))

    @pytest.mark.parametrize("diagonal", [0.0, 0.5])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_power_gradient_with_coincident_points(self, p, diagonal):
        # The objective's value and gradient of sum |resid|^p, with three
        # coincident points (w = 0 off the diagonal).
        rng = np.random.default_rng(70)
        z = scaled_tangents(rng, [0.3, 1.2, 2.5, 0.0, 4.0, 0.7, 1.9], 3)
        z[4] = z[1]
        z[6] = z[1]
        tau = random_dm(rng, 7).values * 3.0
        # a nonzero diagonal checks that self-pairs add nothing to the gradient
        target = tau + diagonal * np.eye(7)
        objective = embedding_module._HyperboloidObjective(target, list("abcdefg"), p, 3)
        value, grad = objective(z.reshape(-1))
        assert np.count_nonzero(objective.w == 0.0) == 7 + 6
        want_value, want_grad = reference_objective(z, target, p)
        assert (value, grad.tobytes()) == (want_value, want_grad.tobytes())
        assert grad.tobytes() == reference_objective(z, tau, p)[1].tobytes()

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_rows_inside_the_series_radius(self, p):
        # Rows at rho = 1e-9 and 5e-3 take the radial factors' Taylor series,
        # the rows past 1e-2 their quotients.
        rng = np.random.default_rng(73)
        z = scaled_tangents(rng, [0.8, 1e-9, 2.1, 5e-3, 0.05, 3.4, 1.3], 3)
        tau = random_dm(rng, 7).values * 3.0
        objective = embedding_module._HyperboloidObjective(tau, list("abcdefg"), p, 3)
        value, grad = objective(z.reshape(-1))
        want_value, want_grad = reference_objective(z, tau, p)
        assert (value, grad.tobytes()) == (want_value, want_grad.tobytes())
        assert np.all(grad.reshape(z.shape)[[1, 3]] != 0.0)

    def test_mds_start_matches_numpy_eigh(self):
        rng = np.random.default_rng(72)
        for n in (2, 3, 5, 26, 48, 64, 65, 128):
            inputs = [random_dm(rng, n).values]
            if n >= 5:
                tree = random_binary_tree(n, n)
                inputs.append(graph_leaf_shortest_paths(add_noise_edges(tree, 0.3, n + 1)).values)
            for values in inputs:
                for d in (2, 4):
                    got = embedding_module._mds_init(values, d)
                    assert got.tobytes() == reference_mds_init(values, d).tobytes(), (n, d)

    def test_kernel_matches_reference_geometry(self):
        rng = np.random.default_rng(71)
        for n, d in [(1, 2), (5, 2), (40, 4), (300, 4), (12, 9)]:
            pts = random_embedding(rng, n, d, 100.0, rmax=0.99).points
            got = ball.pairwise_distance_matrix(pts, 100.0)
            assert got.tobytes() == reference_distances(pts, 100.0).tobytes()


class TestObjectiveBufferReuse:
    """One objective instance keeps its bits as calls switch between the
    divide over all pairs and the one that skips coincident points."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_alternating_branches_match_reference(self, p):
        rng = np.random.default_rng(74)
        tau = random_dm(rng, 7).values * 3.0
        objective = embedding_module._HyperboloidObjective(tau, list("abcdefg"), p, 3)
        for step in range(6):
            z = scaled_tangents(rng, rng.uniform(0.1, 3.0, 7), 3)
            coincident = step % 2 == 0
            if coincident:
                z[5] = z[2]
            value, grad = objective(z.reshape(-1))
            assert np.count_nonzero(objective.w == 0.0) == (9 if coincident else 7)
            want_value, want_grad = reference_objective(z, tau, p)
            assert (value, grad.tobytes()) == (want_value, want_grad.tobytes()), step


class TestBoundaryCounts:
    def test_saturating_run_counts(self):
        dm = graph_leaf_shortest_paths(add_noise_edges(random_binary_tree(64, 3), 0.3, 4))
        cfg = EncoderConfig(curvature=spread_curvature(dm.values.max()), total_epochs=200)
        res = train_embedding(dm, cfg)
        assert res.boundary_rescales > 0
        assert 0 < res.points_at_limit <= dm.n
        radii = np.sqrt(cfg.curvature) * np.linalg.norm(res.embedding.points, axis=1)
        assert np.sum(radii >= (1.0 - ball.DEFAULT_MARGIN) * (1.0 - 1e-12)) >= res.points_at_limit
        again = train_embedding(dm, cfg)
        assert (again.boundary_rescales, again.points_at_limit) == (
            res.boundary_rescales, res.points_at_limit)

    def test_unsaturated_run_counts_zero(self):
        # A tree metric at half the default spread stays clear of the margin.
        dm = leaf_distance_matrix(random_binary_tree(16, 2))
        cfg = EncoderConfig(curvature=spread_curvature(1.0), total_epochs=100)
        res = train_embedding(dm, cfg)
        assert (res.boundary_rescales, res.points_at_limit) == (0, 0)

    def test_start_rows_past_the_cap_shortened(self):
        # At the curvature of spread 3 max (c = 100 on 3 D) all 16 rows of
        # this mds start lie past the final clip's radius, 2 atanh(1 - margin)
        # (warnings are errors here); at spread max some do.  Those rows are
        # shortened to that radius in z and counted; the other rows keep
        # their bits.
        dm = graph_leaf_shortest_paths(add_noise_edges(random_binary_tree(16, 0), 0.3, 1))
        cap = embedding_module._START_RADIUS
        s = embedding_module.TARGET_SPREAD / dm.values.max()
        for factor, past in ((3.0, 16), (1.0, 10)):
            cfg = EncoderConfig(curvature=spread_curvature(factor * dm.values.max()),
                                total_epochs=30)
            c, target = cfg.curvature, s * dm.values
            free = np.sqrt(c) * reference_mds_init(target, cfg.dimension)
            free = free + 2e-3 * np.random.default_rng(cfg.seed).standard_normal(free.shape)
            radius = np.linalg.norm(free, axis=1)
            far = radius > cap
            assert np.count_nonzero(far) == past
            start, moved = embedding_module._tangent_start(target, cfg.dimension, c, cfg.seed)
            assert moved == past
            assert start[~far].tobytes() == free[~far].tobytes()
            shortened = free[far] * (cap / radius[far])[:, None]
            assert start[far].tobytes() == shortened.tobytes()
            # their recomputed norms are the cap up to the norm's own rounding
            assert np.all(np.abs(np.linalg.norm(start[far], axis=1) - cap) <= 4 * np.spacing(cap))
            res = train_embedding(dm, cfg)
            assert res.boundary_rescales - res.points_at_limit == moved

    def test_clip_reports_rows_moved(self):
        pts = np.array([[0.05, 0.0], [0.2, 0.0], [0.0, -3.0]])
        out, moved = ball.clip_to_ball(pts, 100.0)
        assert moved == 2
        assert ball.clip_to_ball(out, 100.0)[1] == 0


class TestDenoisedMetric:
    def test_kernel_distances_exactly_symmetric(self):
        rng = np.random.default_rng(64)
        for c in (1.0, 100.0):
            pts = random_embedding(rng, 30, 4, c, rmax=0.999).points.copy()
            # near-coincident pairs, down to one ulp apart
            pts[1] = pts[0] * (1.0 + 1e-13)
            pts[2] = np.nextafter(pts[0], 1.0)
            pts[3] = pts[0]
            dist = ball.pairwise_distance_matrix(pts, c)
            assert np.array_equal(dist, dist.T)
            assert np.all(np.diag(dist) == 0.0)
            assert dist[0, 1] > 0.0 and dist[0, 3] == 0.0

    def test_identical_points_zero(self):
        emb = PoincareEmbedding(["u", "v", "w"], np.zeros((3, 2)), 1.0)
        res = EmbeddingResult(emb, 0.0, np.zeros(1), EncoderConfig(), 1.0)
        assert np.all(denoised_metric(res).values == 0.0)

    def test_tree_fit_is_nearly_four_point(self):
        t = random_binary_tree(6, 3)
        dm = leaf_distance_matrix(t)
        res = train_embedding(dm, EncoderConfig(seed=0, total_epochs=600))
        out = denoised_metric(res)
        delta = delta_exact(out).delta
        assert four_point_check(out, 2.0 * delta)

    def test_synthetic_noise_delta_improves(self):
        t = random_binary_tree(24, 4)
        g = add_noise_edges(t, 0.2, 5)
        dm = graph_leaf_shortest_paths(g)
        res = train_embedding(dm, EncoderConfig(seed=0))
        out = denoised_metric(res)
        assert delta_exact(out).delta < delta_exact(dm).delta


class TestExports:
    def test_embedding_file(self, tmp_path):
        rng = np.random.default_rng(62)
        dm = random_dm(rng, 5)
        cfg = EncoderConfig(
            seed=0, total_epochs=30, dimension=3, curvature=50.0
        )
        res = train_embedding(dm, cfg)
        path = tmp_path / "emb.txt"
        write_embedding(res, path)
        lines = path.read_text().splitlines()
        head = dict(kv.split("=") for kv in lines[0].split("\t"))
        assert float(head["curvature"]) == 50.0
        assert int(head["dim"]) == 3
        assert float(head["scaling_factor"]) == res.scaling_factor
        assert len(lines) == 1 + 5
        first = lines[1].split("\t")
        assert first[0] == dm.labels[0]
        assert [float(x) for x in first[1:]] == list(res.embedding.points[0])

    def test_loss_trace_file(self, tmp_path):
        rng = np.random.default_rng(63)
        dm = random_dm(rng, 4)
        res = train_embedding(dm, EncoderConfig(seed=0, total_epochs=25))
        path = tmp_path / "trace.txt"
        write_loss_trace(res, path)
        rows = [ln.split("\t") for ln in path.read_text().splitlines()]
        # One row per iteration; this run stops before its 25-iteration cap.
        assert len(rows) == res.iterations < 25
        assert [int(k) for k, _ in rows] == list(range(len(rows)))
        assert [float(x) for _, x in rows] == list(res.loss_trace)
