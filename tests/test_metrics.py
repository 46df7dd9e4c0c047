"""Distance-matrix container, hyperbolicity, and cost checks."""

import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from hyptree import metrics
from hyptree.metrics import (
    DistanceMatrix,
    delta_exact,
    delta_sampled,
    four_point_check,
    gromov_product,
    lp_cost,
    ultrametric_check,
)

QUARTET = DistanceMatrix(
    ["a", "b", "c", "d"],
    [[0, 2, 3, 3], [2, 0, 3, 3], [3, 3, 0, 2], [3, 3, 2, 0]],
)

FOUR_CYCLE = DistanceMatrix(
    ["w", "x", "y", "z"],
    [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]],
)


#: Worker counts the exact scan is checked at, whatever the machine's cores.
#: At n = 5 there are two values of j, so 3 and 5 workers exceed the slices.
WORKER_COUNTS = (1, 2, 3, 5)


def force_workers(monkeypatch, count):
    monkeypatch.setattr(metrics, "_cpu_count", lambda: count)


def delta_definition_oracle(values: np.ndarray) -> float:
    """Direct four-point statement: max over all labelings of distinct quadruples."""
    n = values.shape[0]
    worst = 0.0
    for quad in itertools.combinations(range(n), 4):
        for r, x, y, z in itertools.permutations(quad):
            gp_xy = 0.5 * (values[r, x] + values[r, y] - values[x, y])
            gp_xz = 0.5 * (values[r, x] + values[r, z] - values[x, z])
            gp_yz = 0.5 * (values[r, y] + values[r, z] - values[y, z])
            worst = max(worst, min(gp_xz, gp_yz) - gp_xy)
    return worst


def delta_pair_sum_reference(values: np.ndarray) -> float:
    """Plain loop over quadruples: each pair sum one addition, halved per quadruple."""
    d = values.tolist()
    worst = 0.0
    for i, j, k, l in itertools.combinations(range(len(d)), 4):
        s = sorted([d[i][j] + d[k][l], d[i][k] + d[j][l], d[i][l] + d[j][k]])
        worst = max(worst, (s[2] - s[1]) / 2)
    return worst


def reference_inputs(rng, n):
    """Non-dyadic reals (not always metric), integer ties and Euclidean points."""
    labels = [str(i) for i in range(n)]
    reals = np.triu(rng.random((n, n)) * 10.0, 1)
    ties = np.triu(rng.integers(1, 4, size=(n, n)).astype(float), 1)
    pts = rng.normal(size=(n, 3))
    euclid = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    return [DistanceMatrix(labels, v + v.T) for v in (reals, ties)] + [
        DistanceMatrix(labels, euclid)
    ]


def compacting_sampled_gap(d, rng, size, limit):
    """Reference sampler: copies the first ``limit`` quadruples with four
    distinct points out of the draw, then gathers their six distances."""
    idx = rng.integers(0, d.shape[0], size=(size, 4))
    pairs = zip(*np.triu_indices(4, 1))
    idx = idx[np.logical_and.reduce([idx[:, p] != idx[:, q] for p, q in pairs])][:limit]
    if idx.size == 0:
        return 0.0, 0
    a, b, c, e = idx.T
    gap = metrics._quad_gap(
        d[a, b] + d[c, e], d[a, c] + d[b, e], d[a, e] + d[b, c], np.empty(a.size)
    )
    return float(gap.max()), a.size


def compacting_delta_sampled(dm, m, seed):
    """Reference sampled delta: int64 batches of min(max(remaining, 1024),
    2**20) quadruples, each drawn in one call and scanned by
    ``compacting_sampled_gap`` until m distinct quadruples are kept."""
    if dm.n < 4:
        return 0.0
    rng = np.random.default_rng(seed)
    best, remaining = 0.0, m
    while remaining > 0:
        size = min(max(remaining, 1024), 2**20)
        gap, got = compacting_sampled_gap(dm.values, rng, size, remaining)
        best, remaining = max(best, gap), remaining - got
    return best / 2.0


def dyadic_matrix(rng, n):
    """Random symmetric matrix with entries k/16: both delta routes are exact."""
    raw = rng.integers(1, 64, size=(n, n)) / 16.0
    vals = np.triu(raw, 1)
    return DistanceMatrix([str(i) for i in range(n)], vals + vals.T)


def reference_distance_matrix_values(labels, values):
    """The constructor's checks and averaging as they were with a separate
    ``|D - D^T|`` and ``(D + D^T)/2``: the values it kept."""
    vals = np.array(values, dtype=np.float64)
    asym = np.abs(vals - vals.T)
    worst = asym.max() if asym.size else 0.0
    assert worst <= metrics.SYMMETRY_TOL
    if worst > 0.0:
        vals = (vals + vals.T) / 2.0
    assert not (vals.size and vals.min() < -1e-12)
    np.clip(vals, 0.0, None, out=vals)
    np.fill_diagonal(vals, 0.0)
    return vals


class TestDistanceMatrix:
    @pytest.mark.parametrize("n", [1, 2, 5, 64, 200])
    def test_values_match_reference(self, n):
        rng = np.random.default_rng(n)
        labels = [str(i) for i in range(n)]
        upper = np.triu(rng.random((n, n)) * 10.0 + 1e-5, 1)
        sym = upper + upper.T
        off = 1.0 - np.eye(n)
        # Asymmetric by up to 1e-6 in about half the entries.
        jitter = sym + rng.uniform(-5e-7, 5e-7, size=(n, n)) * (rng.random((n, n)) < 0.5) * off
        # Entries just below zero, symmetric and not, that the constructor clips.
        zeros = np.triu(rng.random((n, n)) < 0.3, 1)
        tiny_negative = np.where(zeros | zeros.T, -1e-13, sym)
        tiny_negative[zeros] -= 4e-13
        np.fill_diagonal(tiny_negative, -5e-13)
        for vals in (sym, jitter, tiny_negative):
            want = reference_distance_matrix_values(labels, vals)
            assert DistanceMatrix(labels, vals).values.tobytes() == want.tobytes()

    def test_peak_memory_one_temporary(self):
        # The kept float64 copy plus one n x n temporary: 4 MiB at n = 512.
        # Forming |D - D^T| and (D + D^T)/2 in fresh arrays peaked at 6 MiB.
        rng = np.random.default_rng(3)
        n = 512
        upper = np.triu(rng.random((n, n)), 1)
        labels = [str(i) for i in range(n)]
        for vals in (upper + upper.T, upper + upper.T + 1e-9 * np.eye(n, k=1)):
            tracemalloc.start()
            try:
                DistanceMatrix(labels, vals)
                peak = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
            assert peak <= 4.5

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="asymmetry"):
            DistanceMatrix(["a", "b"], [[0, 1], [0.5, 0]])

    def test_tiny_asymmetry_averaged(self):
        dm = DistanceMatrix(["a", "b"], [[0, 1 + 1e-9], [1, 0]])
        assert dm.values[0, 1] == dm.values[1, 0]

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            DistanceMatrix(["a", "b"], [[0, -1], [-1, 0]])

    def test_diagonal_forced_zero(self):
        dm = DistanceMatrix(["a", "b"], [[1e-10, 1], [1, 1e-10]])
        assert dm.values[0, 0] == 0.0

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            DistanceMatrix(["a", "a"], [[0, 1], [1, 0]])

    def test_reordered(self):
        out = QUARTET.reordered(["d", "c", "b", "a"])
        assert out.values[0, 1] == 2.0
        assert out.values[0, 3] == 3.0


class TestGromovProduct:
    def test_self_product_is_distance(self):
        assert gromov_product(QUARTET, 1, 1, 2) == QUARTET.values[2, 1]

    def test_base_at_endpoint_is_zero(self):
        assert gromov_product(QUARTET, 0, 1, 0) == 0.0

    def test_quartet_hand_value(self):
        # (a, b)_c = (3 + 3 - 2) / 2 = 2
        assert gromov_product(QUARTET, 0, 1, 2) == 2.0

    def test_index_error(self):
        with pytest.raises(IndexError):
            gromov_product(QUARTET, 0, 1, 9)


class TestDeltaExact:
    def test_tree_metric_is_zero(self):
        assert delta_exact(QUARTET).delta <= 1e-12

    def test_four_cycle_is_one(self):
        rep = delta_exact(FOUR_CYCLE)
        assert rep.delta == 1.0
        assert rep.quadruples_evaluated == 1

    def test_homogeneity(self):
        rng = np.random.default_rng(11)
        dm = dyadic_matrix(rng, 7)
        base = delta_exact(dm).delta
        for s in (0.5, 2.0, 8.0):
            assert delta_exact(dm.scaled(s)).delta == pytest.approx(
                s * base, abs=1e-12
            )

    def test_small_n_is_zero(self):
        dm = DistanceMatrix(["a", "b", "c"], [[0, 1, 2], [1, 0, 3], [2, 3, 0]])
        assert delta_exact(dm).delta == 0.0

    def test_matches_definition_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            dm = dyadic_matrix(rng, int(rng.integers(4, 9)))
            assert delta_exact(dm).delta == delta_definition_oracle(dm.values)

    def test_bitwise_matches_pair_sum_reference(self, monkeypatch):
        rng = np.random.default_rng(17)
        for n in range(4, 25):
            for dm in reference_inputs(rng, n):
                want = delta_pair_sum_reference(dm.values)
                for workers in WORKER_COUNTS:
                    force_workers(monkeypatch, workers)
                    assert delta_exact(dm).delta == want, (n, workers)

    def test_small_blocks_match_reference(self, monkeypatch):
        # With 7-element blocks the pair list is cut into 3-pair tiles, and
        # j = 15 (one (k, l) pair) and j = 14 (three) take their rows i < j
        # in several blocks.
        monkeypatch.setattr(metrics, "_BLOCK", 7)
        rng = np.random.default_rng(18)
        for dm in reference_inputs(rng, 18):
            want = delta_pair_sum_reference(dm.values)
            for workers in WORKER_COUNTS:
                force_workers(monkeypatch, workers)
                assert delta_exact(dm).delta == want, workers

    def test_slices_run_in_threads_joined_by_return(self, monkeypatch):
        # Slice 1 runs on the calling thread and each other slice once on a
        # pool thread; no thread outlives the call.  A short switch interval
        # makes the threads interleave inside the scan.
        scan, seen = metrics._scan_slice, []

        def spy(*args, **kwargs):
            seen.append((args[-1], threading.get_ident()))
            return scan(*args, **kwargs)

        monkeypatch.setattr(metrics, "_scan_slice", spy)
        dm = reference_inputs(np.random.default_rng(20), 24)[0]
        want = delta_pair_sum_reference(dm.values)
        caller = threading.get_ident()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in WORKER_COUNTS:
                force_workers(monkeypatch, workers)
                seen.clear()
                before = threading.active_count()
                assert delta_exact(dm).delta == want
                assert threading.active_count() == before
                assert sorted(first for first, _ in seen) == list(range(1, workers + 1))
                assert [first for first, ident in seen if ident == caller] == [1]
        finally:
            sys.setswitchinterval(interval)


class TestDeltaSampled:
    def test_tree_metric_zero(self):
        assert delta_sampled(QUARTET, 500, seed=3).delta == 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        dm = dyadic_matrix(rng, 8)
        a = delta_sampled(dm, 2000, seed=42)
        b = delta_sampled(dm, 2000, seed=42)
        assert a.delta == b.delta

    def test_lower_bounds_exact(self):
        rng = np.random.default_rng(14)
        for seed in range(5):
            dm = dyadic_matrix(rng, 8)
            assert delta_sampled(dm, 300, seed=seed).delta <= delta_exact(dm).delta

    def test_exact_bounds_sampled_without_tolerance(self):
        # The exact scan and the sampler list each quadruple's three pair sums
        # in different orders, so the slack must not depend on that order.
        # Tree 905266064 once gave a sampled delta one ulp above the exact one.
        from hyptree.data import add_noise_edges, graph_leaf_shortest_paths, random_binary_tree

        for seed in [905266064, *range(20)]:
            graph = add_noise_edges(random_binary_tree(12, seed), 0.3, seed + 1)
            dm = graph_leaf_shortest_paths(graph)
            assert delta_sampled(dm, 10**4, seed=0).delta <= delta_exact(dm).delta

    def test_exhaustive_coincidence_small(self):
        # n = 5 has only five quadruples; 5000 samples cover them all
        rng = np.random.default_rng(15)
        dm = dyadic_matrix(rng, 5)
        assert delta_sampled(dm, 5000, seed=0).delta == delta_exact(dm).delta

    def test_peak_memory_bounded(self, monkeypatch):
        rng = np.random.default_rng(19)

        def peak_mib(fn, n):
            dm = reference_inputs(rng, n)[0]
            tracemalloc.start()
            try:
                fn(dm)
                return tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()

        # Each chunk is drawn just before it is scanned, so the peak does not
        # grow with m.
        assert peak_mib(lambda dm: delta_sampled(dm, 4 * 10**6, seed=0), 64) < 100
        assert peak_mib(lambda dm: delta_sampled(dm, 4 * 10**6, seed=0), 512) < 2
        # The exact scan's workers share one buffer budget.
        for workers in (1, 2, 4):
            force_workers(monkeypatch, workers)
            assert peak_mib(delta_exact, 160) < 4, workers

    def test_bitwise_matches_compacting_reference(self):
        # At n = 4 only 24 of 256 draws have four distinct points, so the
        # reference batches run short and the last one is cut at the
        # remaining count.
        rng = np.random.default_rng(21)
        for n in (4, 5, 8, 64, 192):
            dm = reference_inputs(rng, n)[0]
            for m in (1, 7, 1023, 1025, 2**20, 2**20 + 1, 10**6):
                for seed in (0, 1, 2):
                    want = compacting_delta_sampled(dm, m, seed)
                    assert delta_sampled(dm, m, seed).delta == want, (n, m, seed)

    def test_small_chunks_match_compacting_reference(self, monkeypatch):
        # 7-row chunks put the m-th kept quadruple in a chunk after the first
        # even for small m.
        rng = np.random.default_rng(22)
        monkeypatch.setattr(metrics, "_SAMPLE_CHUNK", 7)
        for n in (4, 8, 64):
            dm = reference_inputs(rng, n)[1]
            for m in (1, 7, 1023, 1025, 3000):
                assert delta_sampled(dm, m, seed=5).delta == compacting_delta_sampled(dm, m, 5), (n, m)

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            delta_sampled(QUARTET, 0, seed=0)


class TestFourPointCheck:
    def test_tree_metric_true(self):
        assert four_point_check(QUARTET, 1e-9)

    def test_four_cycle_false_at_half(self):
        assert not four_point_check(FOUR_CYCLE, 0.5)

    def test_matches_delta_by_factor_two(self):
        # sum-form slack tol corresponds to delta <= tol / 2
        rng = np.random.default_rng(16)
        for _ in range(10):
            dm = dyadic_matrix(rng, 7)
            delta = delta_exact(dm).delta
            assert four_point_check(dm, 2.0 * delta)
            if delta > 0:
                assert not four_point_check(dm, 2.0 * delta - 1e-9)


class TestUltrametricCheck:
    def test_path_tree_fails(self):
        # path a - b - c with weights 1, 3: d(a, c) = 4 > max(1, 3)
        dm = DistanceMatrix(["a", "b", "c"], [[0, 1, 4], [1, 0, 3], [4, 3, 0]])
        assert not ultrametric_check(dm, 0.5)

    def test_cophenetic_passes(self):
        dm = DistanceMatrix(
            ["a", "b", "c"], [[0, 1, 2], [1, 0, 2], [2, 2, 0]]
        )
        assert ultrametric_check(dm, 1e-12)

    def test_ultrametric_implies_four_point(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            # random ultrametric via random merge heights
            heights = np.sort(rng.random(3))
            dm = DistanceMatrix(
                ["a", "b", "c", "d"],
                [
                    [0, heights[0], heights[2], heights[2]],
                    [heights[0], 0, heights[2], heights[2]],
                    [heights[2], heights[2], 0, heights[1]],
                    [heights[2], heights[2], heights[1], 0],
                ],
            )
            assert ultrametric_check(dm, 1e-12)
            assert four_point_check(dm, 1e-12)


class TestLpCost:
    def test_zero_when_equal(self):
        assert lp_cost(QUARTET, QUARTET, 2.0) == 0.0

    def test_single_pair(self):
        a = DistanceMatrix(["x", "y"], [[0, 5], [5, 0]])
        b = DistanceMatrix(["x", "y"], [[0, 2], [2, 0]])
        assert lp_cost(a, b, 2.0) == 3.0

    def test_pythagorean(self):
        a = DistanceMatrix(["x", "y", "z"], [[0, 3, 4], [3, 0, 0], [4, 0, 0]])
        b = DistanceMatrix(["x", "y", "z"], [[0, 0, 0], [0, 0, 0], [0, 0, 0]])
        assert lp_cost(a, b, 2.0) == 5.0

    def test_bitwise_matches_pair_vector_formula(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 3, 17, 64):
            a, b, _ = reference_inputs(rng, n)
            for p in (1.0, 2.0, 3.0):
                diff = np.abs(a.pair_vector() - b.pair_vector())
                want = 0.0 if diff.size == 0 else float(np.sum(diff**p) ** (1.0 / p))
                assert lp_cost(a, b, p) == want, (n, p)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            lp_cost(QUARTET, QUARTET, 0.5)

    def test_label_mismatch_rejected(self):
        other = DistanceMatrix(["a", "b", "c", "e"], QUARTET.values)
        with pytest.raises(ValueError):
            lp_cost(QUARTET, other, 2.0)


class TestDeltaFourPointEquivalence:
    def test_zero_delta_iff_four_point(self):
        rng = np.random.default_rng(18)
        from hyptree.data import random_binary_tree
        from hyptree.trees import leaf_distance_matrix

        for seed in range(5):
            tree_dm = leaf_distance_matrix(random_binary_tree(8, seed))
            assert delta_exact(tree_dm).delta <= 1e-12
            assert four_point_check(tree_dm, 1e-12)
        for _ in range(5):
            dm = dyadic_matrix(rng, 8)
            zero = delta_exact(dm).delta <= 1e-12
            assert four_point_check(dm, 1e-12) == zero
