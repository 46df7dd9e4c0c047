"""Encoder checks: loss, gradients, training behavior, exports."""

import math

import numpy as np
import pytest

from hyptree import ball
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


def random_embedding(rng, n, d, c, rmax=0.6):
    g = rng.standard_normal((n, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = rmax * rng.random((n, 1)) ** (1 / d)
    return PoincareEmbedding([f"e{i}" for i in range(n)], r * g / np.sqrt(c), c)


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
            {"init_scheme": "magic"},
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            EncoderConfig(**kw)


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
        from hyptree.ball import PoincarePoint, poincare_distance

        rng = np.random.default_rng(51)
        for c in (1.0, 100.0):
            emb = random_embedding(rng, 7, 3, c)
            dm = random_dm(rng, 7)
            p = 2.0
            terms = []
            for i in range(7):
                for j in range(i + 1, 7):
                    dij = poincare_distance(
                        PoincarePoint(emb.points[i], c), PoincarePoint(emb.points[j], c)
                    )
                    terms.append(abs(dij - dm.values[i, j]) ** p)
            expected = math.fsum(sorted(terms)) ** (1.0 / p)
            assert embedding_loss(emb, dm, p) == pytest.approx(expected, abs=1e-12)

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
            scaling_factor=2.0 / span, learning_rate=1e-3, init_radius=1e-6,
        )
        cfg_1 = EncoderConfig(
            seed=11, curvature=1.0, total_epochs=150, burnin_epochs=15,
            scaling_factor=rt * 2.0 / span, learning_rate=rt * 1e-3,
            init_radius=rt * 1e-6,
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

    @pytest.mark.parametrize("scheme", ["uniform", "seriation", "mds", "tree", "auto"])
    def test_init_schemes_all_train(self, scheme):
        rng = np.random.default_rng(61)
        dm = random_dm(rng, 7)
        cfg = EncoderConfig(
            seed=0, total_epochs=60, burnin_epochs=6, init_scheme=scheme
        )
        res = train_embedding(dm, cfg)
        assert np.isfinite(res.final_loss)


class TestDenoisedMetric:
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
