"""Poincare-ball block routines against closed forms and exact oracles.

Single pairs and points are checked as two- or one-row blocks, the smallest
input of the routines the encoder runs.
"""

import numpy as np
import pytest

from hyptree.ball import (
    PoincarePoint,
    clip_to_ball,
    exp_map_points,
    mobius_add_points,
    pairwise_distance_matrix,
)


def rand_point(rng, c=1.0, d=2, rmax=0.8):
    g = rng.standard_normal(d)
    g /= np.linalg.norm(g)
    return rmax * rng.random() ** (1 / d) * g / np.sqrt(c)


def pair_block(x, y):
    return np.stack((np.asarray(x, dtype=float), np.asarray(y, dtype=float)))


# ---------------------------------------------------------------------------
# Reference per-pair formulas in scalar form, independent of the block
# routines.
# ---------------------------------------------------------------------------


def reference_distance(x: np.ndarray, y: np.ndarray, c: float) -> float:
    diff = x - y
    denom = (1.0 - c * float(x @ x)) * (1.0 - c * float(y @ y))
    q = c * float(diff @ diff) / denom
    return float(2.0 * np.arcsinh(np.sqrt(q)) / np.sqrt(c))


def reference_mobius_add(x: np.ndarray, y: np.ndarray, c: float) -> np.ndarray:
    x2 = float(x @ x)
    y2 = float(y @ y)
    xy = float(x @ y)
    num = (1.0 + 2.0 * c * xy + c * y2) * x + (1.0 - c * x2) * y
    den = 1.0 + 2.0 * c * xy + c * c * x2 * y2
    return num / den


def reference_pairs(rng):
    """(x, y, c): random pairs, pairs near the boundary, and near-coincident pairs."""
    for c in (1.0, 4.0, 100.0):
        for d in (2, 3, 4):
            for _ in range(30):
                yield rand_point(rng, c, d), rand_point(rng, c, d), c
            for margin in (1e-2, 1e-3, 1e-5):
                for _ in range(10):
                    g = rng.standard_normal((2, d))
                    g *= (1.0 - margin) / (np.sqrt(c) * np.linalg.norm(g, axis=1, keepdims=True))
                    yield g[0], g[1], c
            for _ in range(20):
                x = rand_point(rng, c, d, rmax=0.9)
                step = rng.standard_normal(d) * 1e-9 / np.sqrt(c)
                yield x, x + step, c


def mobius_rounding_scale(x, y, c):
    """First-order bound on the rounding error of each coordinate of x (+)_c y, in eps."""
    x2, y2, xy = x @ x, y @ y, x @ y
    num = (1.0 + 2.0 * c * abs(xy) + c * y2) * np.abs(x) + (1.0 + c * x2) * np.abs(y)
    den = 1.0 + 2.0 * c * abs(xy) + c * c * x2 * y2
    out = reference_mobius_add(x, y, c)
    return (num + np.abs(out) * den) / abs(1.0 + 2.0 * c * xy + c * c * x2 * y2)


class TestDistance:
    def test_identity_at_origin(self):
        assert np.array_equal(pairwise_distance_matrix(np.zeros((2, 2)), 1.0), np.zeros((2, 2)))

    def test_distance_to_origin_closed_form(self):
        # 2 * atanh(0.5)
        mat = pairwise_distance_matrix(pair_block([0.5, 0.0], [0.0, 0.0]), 1.0)
        assert mat[0, 1] == pytest.approx(1.0986122886681098, abs=1e-14)

    def test_curvature_four_value(self):
        # frozen from a 50-digit evaluation of the acosh formula
        x, y = [0.3, 0.1], [-0.2, 0.4]
        mat = pairwise_distance_matrix(pair_block(x, y), 4.0)
        expected = 1.9283840648976965
        assert mat[0, 1] == pytest.approx(expected, rel=1e-14)
        assert mat[1, 0] == mat[0, 1]
        assert pairwise_distance_matrix(pair_block(y, x), 4.0)[0, 1] == mat[0, 1]

    def test_symmetry_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = float(rng.choice([1.0, 4.0, 100.0]))
            x, y = rand_point(rng, c), rand_point(rng, c)
            mat = pairwise_distance_matrix(pair_block(x, y), c)
            assert np.array_equal(mat, mat.T)
            assert pairwise_distance_matrix(pair_block(y, x), c)[0, 1] == mat[0, 1]

    def test_triangle_inequality_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            mat = pairwise_distance_matrix(np.array([rand_point(rng) for _ in range(3)]), 1.0)
            assert mat[0, 2] <= mat[0, 1] + mat[1, 2] + 1e-9

    def test_curvature_scaling_map(self):
        # x -> x / sqrt(c) maps the unit ball to B_c and divides distances by sqrt(c)
        rng = np.random.default_rng(2)
        for c in (4.0, 25.0, 100.0):
            for _ in range(20):
                block = pair_block(rand_point(rng), rand_point(rng))
                unit = pairwise_distance_matrix(block, 1.0)[0, 1]
                scaled = pairwise_distance_matrix(block / np.sqrt(c), c)[0, 1]
                assert scaled == pytest.approx(unit / np.sqrt(c), abs=1e-10)

    def test_boundary_point_rejected(self):
        with pytest.raises(ValueError, match="boundary"):
            PoincarePoint([1.0, 0.0], 1.0)
        with pytest.raises(ValueError, match="boundary"):
            PoincarePoint([0.11, 0.0], 100.0)

    def test_pairwise_matrix_matches_pointwise(self):
        # Each entry of a six-row block has the bits of its own two-row block.
        rng = np.random.default_rng(3)
        block = np.array([rand_point(rng, c=4.0) for _ in range(6)])
        mat = pairwise_distance_matrix(block, 4.0)
        for i in range(6):
            for j in range(6):
                expected = pairwise_distance_matrix(block[[i, j]], 4.0)[0, 1] if i != j else 0.0
                assert mat[i, j] == expected

    def test_pairwise_matrix_near_coincident_points(self):
        # Pairs about 1e-9/sqrt(c) apart at radius about 0.5/sqrt(c).  The
        # block kernel must match the per-pair distance to full relative
        # accuracy; a Gram-matrix shortcut (||x||^2 + ||y||^2 - 2 x.y) or the
        # acosh(1 + 2q) form loses every digit here.
        rng = np.random.default_rng(17)
        for c in (1.0, 100.0):
            for d in (2, 4):
                rows = []
                for _ in range(4):
                    x = rng.standard_normal(d)
                    x *= 0.5 / (np.sqrt(c) * np.linalg.norm(x))
                    step = rng.standard_normal(d)
                    rows += [x, x + 1e-9 / np.sqrt(c) * step / np.linalg.norm(step)]
                block = np.array(rows)
                mat = pairwise_distance_matrix(block, c)
                for i in range(len(block)):
                    for j in range(len(block)):
                        if i == j:
                            assert mat[i, j] == 0.0
                            continue
                        expected = reference_distance(block[i], block[j], c)
                        assert expected > 0.0
                        assert mat[i, j] == pytest.approx(expected, rel=1e-10, abs=0.0)
                # the near pairs: about 2e-9 / (1 - 0.25) / sqrt(c)
                near = mat[np.arange(0, 8, 2), np.arange(1, 8, 2)] * np.sqrt(c)
                assert np.allclose(near, 2e-9 / 0.75, rtol=1e-6)


class TestPointApiMatchesReference:
    # Single pairs through the block routines against the scalar reference
    # formulas.  The block routines sum squares with einsum and scale q in
    # another order, so results may differ from the scalar formulas by a few
    # rounding errors.  Near the boundary 1 - c||x||^2 cancels, which scales
    # the distance's rounding error by 1 / (1 - c||x||^2), and the Mobius sum
    # can cancel in its numerator and denominator; each tolerance carries that
    # factor.
    ROUNDINGS = 4

    def test_distance(self):
        rng = np.random.default_rng(20)
        for x, y, c in reference_pairs(rng):
            got = pairwise_distance_matrix(pair_block(x, y), c)[0, 1]
            want = reference_distance(x, y, c)
            kappa = 1.0 / min(1.0 - c * (x @ x), 1.0 - c * (y @ y))
            assert abs(got - want) <= self.ROUNDINGS * kappa * np.spacing(want), (got, want)

    def test_distance_exactly_symmetric(self):
        rng = np.random.default_rng(21)
        for x, y, c in reference_pairs(rng):
            assert (pairwise_distance_matrix(pair_block(x, y), c)[0, 1]
                    == pairwise_distance_matrix(pair_block(y, x), c)[0, 1])

    def test_mobius_add(self):
        eps = np.finfo(np.float64).eps
        rng = np.random.default_rng(22)
        for x, y, c in reference_pairs(rng):
            for a, b in ((x, y), (y, x)):
                got = mobius_add_points(a[None], b[None], c)[0]
                want = reference_mobius_add(a, b, c)
                tol = self.ROUNDINGS * eps * mobius_rounding_scale(a, b, c)
                assert np.all(np.abs(got - want) <= tol), (got, want)


class TestMobius:
    def test_additive_identity(self):
        rng = np.random.default_rng(4)
        block = np.array([rand_point(rng) for _ in range(10)])
        out = mobius_add_points(block, np.zeros_like(block), 1.0)
        assert np.allclose(out, block, atol=1e-15)

    def test_left_inverse(self):
        rng = np.random.default_rng(5)
        block = np.array([rand_point(rng) for _ in range(10)])
        out = mobius_add_points(-block, block, 1.0)
        assert np.linalg.norm(out, axis=1).max() < 1e-12

    def test_exact_rational_oracle(self):
        # exact-Fraction evaluation gives (397/1025, 129/1025)
        out = mobius_add_points(np.array([[0.1, 0.2]]), np.array([[0.3, -0.1]]), 1.0)[0]
        assert out[0] == pytest.approx(0.3873170731707317, abs=1e-15)
        assert out[1] == pytest.approx(0.12585365853658537, abs=1e-15)

    def test_noncommutative_witness(self):
        x, y = np.array([[0.5, 0.0]]), np.array([[0.0, 0.5]])
        ab = mobius_add_points(x, y, 1.0)
        ba = mobius_add_points(y, x, 1.0)
        assert np.linalg.norm(ab - ba) > 1e-6


class TestExpMap:
    def test_zero_direction(self):
        base = np.array([[0.2, -0.4], [0.0, 0.0]])
        out = exp_map_points(base, np.zeros_like(base), 1.0)
        assert np.allclose(out, base, atol=1e-15)

    def test_origin_closed_form(self):
        a = np.array([0.1, 0.5, 2.0])
        out = exp_map_points(np.zeros((3, 2)), np.column_stack((a, np.zeros(3))), 1.0)
        assert out[:, 0] == pytest.approx(np.tanh(a), abs=1e-14)
        assert np.all(out[:, 1] == 0.0)

    def test_step_length_matches_metric(self):
        # d(base, exp(v)) equals the Riemannian length of v
        rng = np.random.default_rng(8)
        for _ in range(30):
            c = float(rng.choice([1.0, 100.0]))
            base = rand_point(rng, c)
            direction = 1e-3 * rng.standard_normal(2) / np.sqrt(c)
            lam = 2.0 / (1.0 - c * float(base @ base))
            out = exp_map_points(base[None], direction[None], c)[0]
            assert pairwise_distance_matrix(pair_block(base, out), c)[0, 1] == pytest.approx(
                lam * np.linalg.norm(direction), rel=1e-6
            )

    def test_stays_in_ball_after_projection(self):
        rng = np.random.default_rng(9)
        base = np.array([rand_point(rng, 100.0, rmax=0.999) for _ in range(20)])
        out = exp_map_points(base, rng.standard_normal(base.shape), 100.0)
        safe = clip_to_ball(out, 100.0)
        assert np.all(np.sqrt(100.0) * np.linalg.norm(safe, axis=1) < 1.0)


class TestProjection:
    def test_interior_unchanged(self):
        rng = np.random.default_rng(11)
        block = np.array([[0.3, 0.4]] + [rand_point(rng, c=1.0, rmax=0.99) for _ in range(10)])
        out, rescaled = clip_to_ball(block, 1.0, 1e-5, full_output=True)
        assert np.array_equal(out, block)
        assert rescaled == 0

    def test_boundary_pulled_in(self):
        block = np.array([[1.0, 0.0], [0.0, -3.0], [0.6, 0.8]])
        out, rescaled = clip_to_ball(block, 1.0, 1e-5, full_output=True)
        assert rescaled == 3
        assert np.linalg.norm(out, axis=1) == pytest.approx(1 - 1e-5, abs=1e-15)
        assert np.all(np.linalg.norm(out, axis=1) <= 1 - 1e-5)

    def test_idempotent(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            once = clip_to_ball(2.0 * rng.standard_normal((4, 3)), 1.0)
            twice, rescaled = clip_to_ball(once, 1.0, full_output=True)
            assert np.array_equal(once, twice)
            assert rescaled == 0

    def test_clip_block(self):
        pts = np.array([[0.05, 0.0], [0.2, 0.0]])
        out = clip_to_ball(pts, 100.0, 1e-5)
        assert np.array_equal(out[0], pts[0])
        assert 10.0 * np.linalg.norm(out[1]) == pytest.approx(1 - 1e-5)
