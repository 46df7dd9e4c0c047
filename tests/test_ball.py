"""Poincare-ball primitive checks against closed forms and exact oracles."""

import numpy as np
import pytest

from hyptree.ball import (
    PoincarePoint,
    TangentVector,
    clip_to_ball,
    exp_map,
    geodesic_point,
    mobius_add,
    mobius_add_points,
    mobius_scale,
    pairwise_distance_matrix,
    poincare_distance,
    project_to_ball,
)


def pt(coords, c=1.0):
    return PoincarePoint(np.asarray(coords, dtype=float), c)


def rand_point(rng, c=1.0, d=2, rmax=0.8):
    g = rng.standard_normal(d)
    g /= np.linalg.norm(g)
    return PoincarePoint(rmax * rng.random() ** (1 / d) * g / np.sqrt(c), c)


# ---------------------------------------------------------------------------
# Reference per-point formulas: the scalar versions the point API used before
# it called the block routines.
# ---------------------------------------------------------------------------


def reference_distance(x: PoincarePoint, y: PoincarePoint) -> float:
    c = x.curvature
    diff = x.coords - y.coords
    denom = (1.0 - c * float(x.coords @ x.coords)) * (
        1.0 - c * float(y.coords @ y.coords)
    )
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
    """(x, y) pairs: random, near the boundary, and near-coincident."""
    for c in (1.0, 4.0, 100.0):
        for d in (2, 3, 4):
            for _ in range(30):
                yield rand_point(rng, c, d), rand_point(rng, c, d)
            for margin in (1e-2, 1e-3, 1e-5):
                for _ in range(10):
                    g = rng.standard_normal((2, d))
                    g *= (1.0 - margin) / (np.sqrt(c) * np.linalg.norm(g, axis=1, keepdims=True))
                    yield PoincarePoint(g[0], c), PoincarePoint(g[1], c)
            for _ in range(20):
                x = rand_point(rng, c, d, rmax=0.9)
                step = rng.standard_normal(d) * 1e-9 / np.sqrt(c)
                yield x, PoincarePoint(x.coords + step, c)


def mobius_rounding_scale(x, y, c):
    """First-order bound on the rounding error of each coordinate of x (+)_c y, in eps."""
    x2, y2, xy = x @ x, y @ y, x @ y
    num = (1.0 + 2.0 * c * abs(xy) + c * y2) * np.abs(x) + (1.0 + c * x2) * np.abs(y)
    den = 1.0 + 2.0 * c * abs(xy) + c * c * x2 * y2
    out = reference_mobius_add(x, y, c)
    return (num + np.abs(out) * den) / abs(1.0 + 2.0 * c * xy + c * c * x2 * y2)


class TestDistance:
    def test_identity_at_origin(self):
        o = pt([0.0, 0.0])
        assert poincare_distance(o, o) == 0.0

    def test_distance_to_origin_closed_form(self):
        # 2 * atanh(0.5)
        x = pt([0.5, 0.0])
        o = pt([0.0, 0.0])
        assert poincare_distance(x, o) == pytest.approx(1.0986122886681098, abs=1e-14)

    def test_curvature_four_value(self):
        # frozen from a 50-digit evaluation of the acosh formula
        x = pt([0.3, 0.1], c=4.0)
        y = pt([-0.2, 0.4], c=4.0)
        expected = 1.9283840648976965
        assert poincare_distance(x, y) == pytest.approx(expected, rel=1e-14)
        assert poincare_distance(y, x) == poincare_distance(x, y)

    def test_symmetry_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = float(rng.choice([1.0, 4.0, 100.0]))
            x, y = rand_point(rng, c), rand_point(rng, c)
            assert poincare_distance(x, y) == pytest.approx(
                poincare_distance(y, x), abs=1e-12
            )

    def test_triangle_inequality_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            x, y, z = (rand_point(rng) for _ in range(3))
            assert poincare_distance(x, z) <= (
                poincare_distance(x, y) + poincare_distance(y, z) + 1e-9
            )

    def test_curvature_scaling_map(self):
        # x -> x / sqrt(c) maps the unit ball to B_c and divides distances by sqrt(c)
        rng = np.random.default_rng(2)
        for c in (4.0, 25.0, 100.0):
            for _ in range(20):
                x, y = rand_point(rng), rand_point(rng)
                xc = PoincarePoint(x.coords / np.sqrt(c), c)
                yc = PoincarePoint(y.coords / np.sqrt(c), c)
                assert poincare_distance(xc, yc) == pytest.approx(
                    poincare_distance(x, y) / np.sqrt(c), abs=1e-10
                )

    def test_mixed_curvature_rejected(self):
        with pytest.raises(ValueError, match="curvature"):
            poincare_distance(pt([0.1, 0.1], 1.0), pt([0.01, 0.01], 100.0))

    def test_mixed_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            poincare_distance(pt([0.1, 0.1]), pt([0.1, 0.1, 0.1]))

    def test_boundary_point_rejected(self):
        with pytest.raises(ValueError, match="boundary"):
            pt([1.0, 0.0])
        with pytest.raises(ValueError, match="boundary"):
            pt([0.11, 0.0], c=100.0)

    def test_pairwise_matrix_matches_pointwise(self):
        rng = np.random.default_rng(3)
        pts = [rand_point(rng, c=4.0) for _ in range(6)]
        block = np.array([p.coords for p in pts])
        mat = pairwise_distance_matrix(block, 4.0)
        for i in range(6):
            for j in range(6):
                expected = poincare_distance(pts[i], pts[j]) if i != j else 0.0
                assert mat[i, j] == pytest.approx(expected, abs=1e-13)

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
                pts = [PoincarePoint(r, c) for r in block]
                for i in range(len(pts)):
                    for j in range(len(pts)):
                        if i == j:
                            assert mat[i, j] == 0.0
                            continue
                        expected = poincare_distance(pts[i], pts[j])
                        assert expected > 0.0
                        assert mat[i, j] == pytest.approx(expected, rel=1e-10, abs=0.0)
                # the near pairs: about 2e-9 / (1 - 0.25) / sqrt(c)
                near = mat[np.arange(0, 8, 2), np.arange(1, 8, 2)] * np.sqrt(c)
                assert np.allclose(near, 2e-9 / 0.75, rtol=1e-6)


class TestPointApiMatchesReference:
    # The block routines sum squares with einsum and scale q in another order,
    # so results may differ from the scalar formulas by a few rounding errors.
    # Near the boundary 1 - c||x||^2 cancels, which scales the distance's
    # rounding error by 1 / (1 - c||x||^2), and the Mobius sum can cancel in
    # its numerator and denominator; each tolerance carries that factor.
    ROUNDINGS = 4

    def test_distance(self):
        rng = np.random.default_rng(20)
        for x, y in reference_pairs(rng):
            got, want = poincare_distance(x, y), reference_distance(x, y)
            c = x.curvature
            kappa = 1.0 / min(1.0 - c * (x.coords @ x.coords), 1.0 - c * (y.coords @ y.coords))
            assert abs(got - want) <= self.ROUNDINGS * kappa * np.spacing(want), (got, want)

    def test_distance_exactly_symmetric(self):
        rng = np.random.default_rng(21)
        for x, y in reference_pairs(rng):
            assert poincare_distance(x, y) == poincare_distance(y, x)

    def test_mobius_add(self):
        eps = np.finfo(np.float64).eps
        rng = np.random.default_rng(22)
        for x, y in reference_pairs(rng):
            for a, b in ((x, y), (y, x)):
                c = a.curvature
                got = mobius_add(a, b).coords
                want = reference_mobius_add(a.coords, b.coords, c)
                tol = self.ROUNDINGS * eps * mobius_rounding_scale(a.coords, b.coords, c)
                assert np.all(np.abs(got - want) <= tol), (got, want)


class TestMobius:
    def test_additive_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rand_point(rng)
            zero = pt([0.0, 0.0])
            out = mobius_add(x, zero)
            assert np.allclose(out.coords, x.coords, atol=1e-15)

    def test_left_inverse(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rand_point(rng)
            neg = pt(-x.coords)
            out = mobius_add(neg, x)
            assert np.linalg.norm(out.coords) < 1e-12

    def test_exact_rational_oracle(self):
        # exact-Fraction evaluation gives (397/1025, 129/1025)
        out = mobius_add(pt([0.1, 0.2]), pt([0.3, -0.1]))
        assert out.coords[0] == pytest.approx(0.3873170731707317, abs=1e-15)
        assert out.coords[1] == pytest.approx(0.12585365853658537, abs=1e-15)

    def test_noncommutative_witness(self):
        x, y = pt([0.5, 0.0]), pt([0.0, 0.5])
        ab = mobius_add(x, y).coords
        ba = mobius_add(y, x).coords
        assert np.linalg.norm(ab - ba) > 1e-6

    def test_sum_rounding_onto_boundary_nudged_inside(self):
        # At radii (1 - u m)/sqrt(c) with m = 1e-6 or 1e-7 some sums of two
        # valid points round onto or past the boundary.  They come back nudged
        # inside by one part in 1e15; every other sum keeps the block
        # routine's bits.
        rng = np.random.default_rng(30)
        nudged = 0
        for m in (1e-6, 1e-7):
            for c in (1.0, 100.0):
                for _ in range(2000):
                    g = rng.standard_normal((2, 2))
                    g *= (1.0 - m * rng.random((2, 1))) / (
                        np.sqrt(c) * np.linalg.norm(g, axis=1, keepdims=True))
                    raw = mobius_add_points(g[:1], g[1:], c)[0]
                    got = mobius_add(PoincarePoint(g[0], c), PoincarePoint(g[1], c)).coords
                    radius = np.sqrt(c) * float(np.linalg.norm(raw))
                    if radius >= 1.0:
                        nudged += 1
                        raw = raw * ((1.0 - 1e-15) / radius)
                    assert got.tobytes() == raw.tobytes()
        assert nudged > 0

    def test_scale_identity_and_zero(self):
        x = pt([0.3, -0.2])
        assert np.allclose(mobius_scale(1.0, x).coords, x.coords, atol=1e-12)
        assert np.allclose(mobius_scale(0.0, x).coords, 0.0)

    def test_scale_of_origin(self):
        o = pt([0.0, 0.0])
        assert np.allclose(mobius_scale(7.3, o).coords, 0.0)

    def test_scale_doubling_closed_form(self):
        # tanh(2 atanh(0.4)) = 0.8 / 1.16
        out = mobius_scale(2.0, pt([0.4, 0.0]))
        assert out.coords[0] == pytest.approx(0.6896551724137931, abs=1e-14)
        assert out.coords[1] == 0.0


class TestGeodesic:
    def test_endpoints(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x, y = rand_point(rng), rand_point(rng)
            assert np.allclose(geodesic_point(x, y, 0.0).coords, x.coords, atol=1e-12)
            assert np.allclose(geodesic_point(x, y, 1.0).coords, y.coords, atol=1e-12)

    def test_constant_speed(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            c = float(rng.choice([1.0, 100.0]))
            x, y = rand_point(rng, c), rand_point(rng, c)
            t = float(rng.random())
            g = geodesic_point(x, y, t)
            assert poincare_distance(x, g) == pytest.approx(
                t * poincare_distance(x, y), abs=1e-9
            )

    def test_parameter_out_of_range(self):
        x, y = pt([0.1, 0.0]), pt([0.0, 0.1])
        with pytest.raises(ValueError):
            geodesic_point(x, y, 1.5)
        with pytest.raises(ValueError):
            geodesic_point(x, y, -0.1)


class TestExpMap:
    def test_zero_direction(self):
        x = pt([0.2, -0.4])
        out = exp_map(TangentVector(x, np.zeros(2)))
        assert np.allclose(out.coords, x.coords, atol=1e-15)

    def test_origin_closed_form(self):
        for a in (0.1, 0.5, 2.0):
            out = exp_map(TangentVector(pt([0.0, 0.0]), np.array([a, 0.0])))
            assert out.coords[0] == pytest.approx(np.tanh(a), abs=1e-14)
            assert out.coords[1] == 0.0

    def test_step_length_matches_metric(self):
        # d(base, exp(v)) equals the Riemannian length of v
        rng = np.random.default_rng(8)
        for _ in range(30):
            c = float(rng.choice([1.0, 100.0]))
            base = rand_point(rng, c)
            direction = 1e-3 * rng.standard_normal(2) / np.sqrt(c)
            lam = 2.0 / (1.0 - c * float(base.coords @ base.coords))
            out = exp_map(TangentVector(base, direction))
            assert poincare_distance(base, out) == pytest.approx(
                lam * np.linalg.norm(direction), rel=1e-6
            )

    def test_stays_in_ball_after_projection(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            base = rand_point(rng, 100.0, rmax=0.999)
            direction = rng.standard_normal(2)
            out = exp_map(TangentVector(base, direction))
            safe = project_to_ball(out.coords, 100.0)
            assert np.sqrt(100.0) * np.linalg.norm(safe.coords) < 1.0


class TestProjection:
    def test_interior_unchanged(self):
        out = project_to_ball(np.array([0.3, 0.4]), 1.0, margin=1e-5)
        assert np.allclose(out.coords, [0.3, 0.4])

    def test_boundary_pulled_in(self):
        out = project_to_ball(np.array([1.0, 0.0]), 1.0, margin=1e-5)
        assert np.linalg.norm(out.coords) == pytest.approx(1 - 1e-5, abs=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            raw = 2.0 * rng.standard_normal(3)
            once = project_to_ball(raw, 1.0).coords
            twice = project_to_ball(once, 1.0).coords
            assert np.array_equal(once, twice)

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            project_to_ball(np.array([0.1, 0.1]), 1.0, margin=0.5)

    def test_clip_block(self):
        pts = np.array([[0.05, 0.0], [0.2, 0.0]])
        out = clip_to_ball(pts, 100.0, 1e-5)
        assert np.array_equal(out[0], pts[0])
        assert 10.0 * np.linalg.norm(out[1]) == pytest.approx(1 - 1e-5)
