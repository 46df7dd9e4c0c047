"""Encoder checks: loss, gradients, training behavior, exports."""

import dataclasses
import math

import numpy as np
import pytest

from hyptree import ball
from hyptree import embedding as embedding_module
from hyptree.data import add_noise_edges, graph_leaf_shortest_paths, random_binary_tree
from hyptree.embedding import (
    EmbeddingResult,
    EncoderConfig,
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


def random_embedding(rng, n, d, c, rmax=0.6):
    g = rng.standard_normal((n, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = rmax * rng.random((n, 1)) ** (1 / d)
    return PoincareEmbedding([f"e{i}" for i in range(n)], r * g / np.sqrt(c), c)


# ---------------------------------------------------------------------------
# Reference encoder: the training loop as it was before it reused the
# kernel's row quantities and buffers, one fresh array per operation.  The
# encoder must reproduce its points and loss trace bit for bit.
# ---------------------------------------------------------------------------


def reference_geometry(pts, c):
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


def reference_power_gradient(points, conf, q, resid, c, p):
    coef = p * np.abs(resid) ** (p - 1.0) * np.sign(resid)
    root = np.sqrt(q * (1.0 + q))
    t = np.divide(coef, root, out=np.zeros_like(coef), where=root > 0.0)
    t *= 2.0 * np.sqrt(c)
    t /= np.outer(conf, conf)
    row = t.sum(axis=1) + (t * q) @ conf
    return row[:, None] * points - t @ points


def reference_exp_map(base, direction, c):
    lam = 2.0 / (1.0 - c * np.einsum("ij,ij->i", base, base))[:, None]
    nrm = np.linalg.norm(direction, axis=-1, keepdims=True)
    safe = np.maximum(nrm, 1e-15)
    sqrt_c = np.sqrt(c)
    y = np.tanh(sqrt_c * lam * nrm / 2.0) * direction / (sqrt_c * safe)
    x2 = np.einsum("ij,ij->i", base, base)[:, None]
    y2 = np.einsum("ij,ij->i", y, y)[:, None]
    xy = np.einsum("ij,ij->i", base, y)[:, None]
    num = (1.0 + 2.0 * c * xy + c * y2) * base + (1.0 - c * x2) * y
    den = 1.0 + 2.0 * c * xy + c * c * x2 * y2
    return num / den


def reference_clip(points, c, margin):
    pts = np.array(points, dtype=np.float64)
    limit = (1.0 - margin) / np.sqrt(c)
    for _ in range(4):
        norms = np.linalg.norm(pts, axis=-1)
        mask = norms > limit
        if not mask.any():
            break
        pts[mask] *= (limit / norms[mask])[:, None]
    return pts


def reference_mds_init(values, d, c):
    """The mds start with ``np.linalg.eigh`` in place of scipy's dsyevd driver."""
    n = values.shape[0]
    centering = np.eye(n) - np.ones((n, n)) / n
    gram = -0.5 * centering @ (values**2) @ centering
    eigvals, eigvecs = np.linalg.eigh(gram)
    top = np.argsort(eigvals)[::-1][:d]
    coords = eigvecs[:, top] * np.sqrt(np.maximum(eigvals[top], 0.0))
    if top.size < d:
        coords = np.hstack([coords, np.zeros((n, d - top.size))])
    radii = np.linalg.norm(coords, axis=1, keepdims=True)
    unit = coords / np.maximum(radii, 1e-300)
    return unit * np.tanh(np.sqrt(c) * radii / 2.0) / np.sqrt(c)


def reference_train(dm, cfg):
    """``(points, loss_trace)`` of the reference loop from the encoder's own start."""
    c, p = cfg.curvature, cfg.p
    max_d = float(dm.values.max()) if dm.n > 1 else 0.0
    if cfg.scaling_factor is not None:
        s = cfg.scaling_factor
    else:
        s = embedding_module.TARGET_SPREAD / max_d if max_d > 0.0 else 1.0
    target = dm.values * s
    points, _ = embedding_module._init_points(cfg, target, np.random.default_rng(cfg.seed))
    m = np.zeros_like(points)
    v = np.zeros(dm.n)
    trace = np.empty(cfg.total_epochs)
    conf, q, dist = reference_geometry(points, c)
    resid = dist - target
    cooldown_start = cfg.total_epochs - max(int(0.2 * cfg.total_epochs), 1)
    precond = None
    burnin, margin = embedding_module.BURNIN_FACTOR, ball.DEFAULT_MARGIN
    for epoch in range(cfg.total_epochs):
        lr = cfg.learning_rate * (burnin if epoch >= cfg.burnin_epochs else 1.0)
        if epoch >= cooldown_start:
            lr *= (cfg.total_epochs - epoch) / (cfg.total_epochs - cooldown_start)
        grad = reference_power_gradient(points, conf, q, resid, c, p)
        rconf = 1.0 - c * np.einsum("ij,ij->i", points, points)
        grad = grad * (rconf**2 / 4.0)[:, None]
        lam = 2.0 / conf
        gnorm_sq = lam**2 * np.einsum("ij,ij->i", grad, grad)
        t = epoch + 1
        m = 0.9 * m + (1.0 - 0.9) * grad
        v = 0.999 * v + (1.0 - 0.999) * gnorm_sq
        m_hat = m / (1.0 - 0.9**t)
        if epoch < cooldown_start or precond is None:
            precond = np.sqrt(v / (1.0 - 0.999**t)) + 1e-15
        step = -lr * m_hat / precond[:, None]
        points = reference_clip(reference_exp_map(points, step, c), c, margin)
        conf, q, dist = reference_geometry(points, c)
        resid = dist - target
        trace[epoch] = (0.5 * float(np.sum(np.abs(resid) ** p))) ** (1.0 / p) / s
    return points, trace


def assert_bitwise(res, ref):
    points, trace = ref
    assert res.embedding.points.tobytes() == points.tobytes()
    assert res.loss_trace.tobytes() == trace.tobytes()


class TestEncoderConfig:
    def test_defaults_valid(self):
        EncoderConfig()

    @pytest.mark.parametrize(
        "kw",
        [
            {"dimension": 1},
            {"curvature": 0.0},
            {"p": 0.5},
            {"burnin_epochs": 10, "total_epochs": 5},
            {"learning_rate": 0.0},
            {"scaling_factor": -1.0},
            {"total_epochs": 0},
            {"p": float("inf")},
            {"p": float("nan")},
            {"curvature": float("inf")},
            {"curvature": float("nan")},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"scaling_factor": float("inf")},
            {"scaling_factor": float("nan")},
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ValueError, match="|".join(kw)):
            EncoderConfig(**kw)

    def test_init_scheme_is_a_constant(self):
        assert EncoderConfig().init_scheme == "mds"
        assert "init_scheme" not in [f.name for f in dataclasses.fields(EncoderConfig)]

    def test_burnin_factor_and_margin_are_constants(self):
        assert [f.name for f in dataclasses.fields(EncoderConfig)] == [
            "dimension", "curvature", "p", "learning_rate", "burnin_epochs",
            "total_epochs", "scaling_factor", "seed"]
        assert (embedding_module.BURNIN_FACTOR, ball.DEFAULT_MARGIN) == (10.0, 1e-5)


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
        with pytest.raises(ValueError, match="norm exponent p"):
            embedding_loss(emb, random_dm(rng, 4), p)

    def test_size_mismatch(self):
        rng = np.random.default_rng(52)
        emb = random_embedding(rng, 4, 2, 1.0)
        with pytest.raises(ValueError):
            embedding_loss(emb, random_dm(rng, 5), 2.0)


class TestLossGradient:
    def test_zero_at_perfect_fit(self):
        rng = np.random.default_rng(53)
        emb = random_embedding(rng, 5, 2, 1.0)
        dm = DistanceMatrix(
            emb.labels, ball.pairwise_distance_matrix(emb.points, 1.0)
        )
        for g in loss_gradient(emb, dm, 2.0):
            assert np.allclose(g.direction, 0.0, atol=1e-12)

    def test_collinear_pair_sign(self):
        # two points on a line through the origin; too-short embedded
        # distance pushes the outer point outward (negative gradient points
        # along +x)
        emb = PoincareEmbedding(["u", "v"], np.array([[0.0, 0.0], [0.3, 0.0]]), 1.0)
        dm = DistanceMatrix(["u", "v"], [[0, 2.0], [2.0, 0]])
        grads = loss_gradient(emb, dm, 2.0)
        assert grads[1].direction[0] < 0.0  # descent moves v to larger x
        assert abs(grads[1].direction[1]) < 1e-14

    def test_finite_difference_match(self):
        rng = np.random.default_rng(54)
        for c in (1.0, 100.0):
            for p in (2.0, 1.5):
                emb = random_embedding(rng, 5, 3, c)
                dm = random_dm(rng, 5)
                grads = loss_gradient(emb, dm, p)
                got = np.array([g.direction for g in grads])
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


class TestTraining:
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
        cfg = EncoderConfig(seed=7, total_epochs=60, burnin_epochs=6)
        a = train_embedding(dm, cfg)
        b = train_embedding(dm, cfg)
        assert np.array_equal(a.loss_trace, b.loss_trace)
        assert np.array_equal(a.embedding.points, b.embedding.points)

    def test_final_loss_is_last_trace_entry(self):
        rng = np.random.default_rng(56)
        dm = random_dm(rng, 6)
        res = train_embedding(dm, EncoderConfig(seed=1, total_epochs=50, burnin_epochs=5))
        assert res.final_loss == res.loss_trace[-1]
        # and it matches an independent evaluation of the final embedding
        assert res.final_loss == pytest.approx(
            embedding_loss(res.embedding, dm.scaled(res.scaling_factor), 2.0)
            / res.scaling_factor,
            rel=1e-12,
        )

    def test_soft_monotonicity_tail(self):
        rng = np.random.default_rng(57)
        good = 0
        for seed in range(10):
            dm = random_dm(rng, 10)
            res = train_embedding(
                dm, EncoderConfig(seed=seed, total_epochs=300, burnin_epochs=30)
            )
            tail = res.loss_trace[-30:]
            if np.all(np.diff(tail) <= 1e-9):
                good += 1
        assert good >= 9

    def test_curvature_consistency(self):
        # training at curvature c on D matches curvature 1 on sqrt(c) * D
        # under the x -> sqrt(c) x map, matched seeds and mapped settings
        rng = np.random.default_rng(59)
        dm = random_dm(rng, 8)
        c = 100.0
        rt = np.sqrt(c)
        span = float(dm.values.max())
        cfg_c = EncoderConfig(
            seed=11, curvature=c, total_epochs=150, burnin_epochs=15,
            scaling_factor=2.0 / span, learning_rate=1e-3,
        )
        cfg_1 = EncoderConfig(
            seed=11, curvature=1.0, total_epochs=150, burnin_epochs=15,
            scaling_factor=rt * 2.0 / span, learning_rate=rt * 1e-3,
        )
        res_c = train_embedding(dm, cfg_c)
        res_1 = train_embedding(dm, cfg_1)
        assert np.abs(res_c.loss_trace - res_1.loss_trace).max() < 1e-6
        assert np.abs(rt * res_c.embedding.points - res_1.embedding.points).max() < 1e-7

    def test_all_points_inside_ball(self):
        rng = np.random.default_rng(60)
        dm = random_dm(rng, 12)
        res = train_embedding(dm, EncoderConfig(seed=2, total_epochs=100, burnin_epochs=10))
        norms = np.sqrt(100.0) * np.linalg.norm(res.embedding.points, axis=1)
        assert np.all(norms < 1.0)

    @pytest.mark.parametrize("n, d", [(1, 4), (2, 4), (3, 4), (4, 8)])
    def test_mds_start_fills_every_dimension(self, n, d, tmp_path):
        dm = random_dm(np.random.default_rng(65), n)
        res = train_embedding(dm, EncoderConfig(dimension=d, total_epochs=20, burnin_epochs=2))
        assert res.embedding.points.shape == (n, d)
        assert np.all(res.embedding.points[:, n:] != 0.0)
        write_embedding(res, tmp_path / "emb.txt")
        assert f"dim={d}" in (tmp_path / "emb.txt").read_text().splitlines()[0]


class TestBitwiseReference:
    """The encoder reproduces the reference loop bit for bit."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("n", [2, 3, 9, 40])
    def test_matches_reference(self, n, d, p):
        dm = random_dm(np.random.default_rng(1000 + n), n)
        cfg = EncoderConfig(dimension=d, p=p, seed=n + d, total_epochs=40, burnin_epochs=4)
        assert_bitwise(train_embedding(dm, cfg), reference_train(dm, cfg))

    def test_noisy_tree_metric(self):
        dm = graph_leaf_shortest_paths(add_noise_edges(random_binary_tree(24, 5), 0.3, 6))
        cfg = EncoderConfig(total_epochs=60, burnin_epochs=6)
        assert_bitwise(train_embedding(dm, cfg), reference_train(dm, cfg))

    def test_saturating_run(self):
        # Targets far beyond the ball's reachable diameter pin points at the
        # boundary margin, so the clip path runs in most epochs.
        dm = graph_leaf_shortest_paths(add_noise_edges(random_binary_tree(30, 7), 0.3, 8))
        cfg = EncoderConfig(scaling_factor=1.0, total_epochs=80, burnin_epochs=8)
        res = train_embedding(dm, cfg)
        assert res.boundary_rescales > cfg.total_epochs
        assert_bitwise(res, reference_train(dm, cfg))

    @pytest.mark.parametrize("diagonal", [0.0, 0.5])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_power_gradient_with_coincident_points(self, p, diagonal):
        rng = np.random.default_rng(70)
        c = 100.0
        pts = random_embedding(rng, 7, 3, c).points
        pts[4] = pts[1]
        pts[6] = pts[1]
        # a nonzero diagonal checks that self-pairs contribute exactly nothing
        target = random_dm(rng, 7).values + diagonal * np.eye(7)
        conf, q, dist = reference_geometry(pts, c)
        assert np.count_nonzero(q == 0.0) == 7 + 6
        resid = dist - target
        expected = reference_power_gradient(pts, conf, q, resid, c, p)
        geo = ball.pairwise_geometry(pts, c)
        got = embedding_module._power_gradient(pts, geo, geo.dist - target, c, p)
        assert got.tobytes() == expected.tobytes()

    def test_mds_start_matches_numpy_eigh(self):
        rng = np.random.default_rng(72)
        for n in (2, 3, 5, 26, 48, 64, 65, 128):
            inputs = [random_dm(rng, n).values]
            if n >= 5:
                tree = random_binary_tree(n, n)
                inputs.append(graph_leaf_shortest_paths(add_noise_edges(tree, 0.3, n + 1)).values)
            for values in inputs:
                for d in (2, 4):
                    got = embedding_module._mds_init(values, d, 1.0)
                    assert got.tobytes() == reference_mds_init(values, d, 1.0).tobytes(), (n, d)

    def test_kernel_matches_reference_geometry(self):
        rng = np.random.default_rng(71)
        # n = 300 takes several row blocks, the last one overlapping.
        for n, d in [(1, 2), (5, 2), (40, 4), (300, 4), (12, 9)]:
            pts = random_embedding(rng, n, d, 100.0, rmax=0.99).points
            conf, q, dist = reference_geometry(pts, 100.0)
            geo = ball.pairwise_geometry(pts, 100.0)
            for got, want in [(geo.conf, conf), (geo.q, q), (geo.dist, dist),
                              (geo.cc, np.outer(conf, conf))]:
                assert got.tobytes() == want.tobytes()
            again = ball.pairwise_geometry(pts[::-1], 100.0, out=geo)
            assert again is geo
            assert geo.dist.tobytes() == reference_geometry(pts[::-1], 100.0)[2].tobytes()

    def test_kernel_rejects_mismatched_buffers(self):
        geo = ball.pairwise_geometry(np.zeros((4, 2)), 1.0)
        with pytest.raises(ValueError):
            ball.pairwise_geometry(np.zeros((5, 2)), 1.0, out=geo)
        with pytest.raises(ValueError):
            ball.pairwise_geometry(np.zeros((4, 3)), 1.0, out=geo)


class TestBoundaryCounts:
    def test_saturating_run_counts(self):
        dm = graph_leaf_shortest_paths(add_noise_edges(random_binary_tree(64, 3), 0.3, 4))
        cfg = EncoderConfig(scaling_factor=1.0, total_epochs=200, burnin_epochs=20)
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
        cfg = EncoderConfig(scaling_factor=1.0 / float(dm.values.max()),
                            total_epochs=100, burnin_epochs=10)
        res = train_embedding(dm, cfg)
        assert (res.boundary_rescales, res.points_at_limit) == (0, 0)

    def test_clip_reports_rows_moved(self):
        pts = np.array([[0.05, 0.0], [0.2, 0.0], [0.0, -3.0]])
        out, moved = ball.clip_to_ball(pts, 100.0, 1e-5, full_output=True)
        assert moved == 2
        assert np.array_equal(out, ball.clip_to_ball(pts, 100.0, 1e-5))
        assert ball.clip_to_ball(out, 100.0, 1e-5, full_output=True)[1] == 0


class TestDenoisedMetric:
    def test_kernel_distances_exactly_symmetric(self):
        rng = np.random.default_rng(64)
        for c in (1.0, 100.0):
            pts = random_embedding(rng, 30, 4, c, rmax=0.999).points
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
        res = train_embedding(dm, EncoderConfig(seed=0, total_epochs=600, burnin_epochs=60))
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
            seed=0, total_epochs=30, burnin_epochs=3, dimension=3, curvature=50.0
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
        res = train_embedding(dm, EncoderConfig(seed=0, total_epochs=25, burnin_epochs=2))
        path = tmp_path / "trace.txt"
        write_loss_trace(res, path)
        rows = [ln.split("\t") for ln in path.read_text().splitlines()]
        assert len(rows) == 25
        assert [float(x) for _, x in rows] == list(res.loss_trace)
