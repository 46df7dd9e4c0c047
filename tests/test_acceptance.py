"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criterion 7 is split into its delta part (7a) and its decoder-gain part (7b)
so the verdicts are individually visible.
"""

import itertools
import os
import time
from pathlib import Path

import numpy as np
import pytest

from hyptree.ball import pairwise_distance_matrix
from hyptree.cli import main
from hyptree.data import (
    FeatureTable,
    add_noise_edges,
    cosine_dissimilarity,
    graph_leaf_shortest_paths,
    load_features,
    random_binary_tree,
)
from hyptree.decoders import dendrogram_to_ultrametric, linkage, neighbor_joining
from hyptree.embedding import (
    EncoderConfig,
    PoincareEmbedding,
    denoised_metric,
    embedding_loss,
    loss_gradient,
    train_embedding,
)
from hyptree import ball
from hyptree.metrics import (
    DistanceMatrix,
    delta_exact,
    lp_cost,
    ultrametric_check,
)
from hyptree.pipeline import compare_objectives
from hyptree.trees import (
    WeightedTree,
    design_matrix,
    leaf_distance_matrix,
)


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")


def reweighted(tree, low=0.1, high=1.0, seed=0):
    rng = np.random.default_rng(seed)
    edges = tuple((u, v, float(rng.uniform(low, high))) for u, v, _ in tree.edges)
    return WeightedTree(tree.vertices, edges, dict(tree.leaf_labels))


def test_criterion_1_nj_consistency():
    """NJ reproduces 200 random tree metrics exactly, with zero clamps."""
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    total_clamps = 0
    for k in range(200):
        n = int(rng.integers(4, 33))
        tree = reweighted(random_binary_tree(n, k), seed=1000 + k)
        dm = leaf_distance_matrix(tree)
        decoded, clamps = neighbor_joining(dm)
        total_clamps += clamps
        back = leaf_distance_matrix(decoded)
        worst = max(worst, float(np.abs(back.values - dm.values).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and total_clamps == 0 and elapsed < 30
    verdict(
        "1 (NJ consistency)", ok,
        f"max linf {worst:.2e}, clamps {total_clamps}, {elapsed:.1f}s",
    )
    assert worst <= 1e-9
    assert total_clamps == 0
    assert elapsed < 30


def test_criterion_2_delta_oracle():
    """Four-sums delta equals the direct definition over all labelings."""
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    mismatches = 0
    for _ in range(50):
        n = int(rng.integers(4, 11))
        # dyadic entries keep both evaluation routes exact in floats
        raw = rng.integers(1, 128, size=(n, n)) / 32.0
        vals = np.triu(raw, 1)
        dm = DistanceMatrix([str(i) for i in range(n)], vals + vals.T)
        fast = delta_exact(dm).delta
        direct = 0.0
        for quad in itertools.combinations(range(n), 4):
            for r, x, y, z in itertools.permutations(quad):
                gp_xy = 0.5 * (dm.values[r, x] + dm.values[r, y] - dm.values[x, y])
                gp_xz = 0.5 * (dm.values[r, x] + dm.values[r, z] - dm.values[x, z])
                gp_yz = 0.5 * (dm.values[r, y] + dm.values[r, z] - dm.values[y, z])
                direct = max(direct, min(gp_xz, gp_yz) - gp_xy)
        if fast != direct:
            mismatches += 1

    tree_ok = True
    for k in range(10):
        tree = random_binary_tree(int(rng.integers(4, 12)), k)
        # dyadic weights make the tree metric exactly additive in floats
        tree = WeightedTree(
            tree.vertices,
            tuple((u, v, float(rng.integers(1, 64)) / 32.0) for u, v, _ in tree.edges),
            dict(tree.leaf_labels),
        )
        if delta_exact(leaf_distance_matrix(tree)).delta != 0.0:
            tree_ok = False

    cycle = DistanceMatrix(
        ["w", "x", "y", "z"],
        [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]],
    )
    cycle_ok = delta_exact(cycle).delta == 1.0
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and tree_ok and cycle_ok and elapsed < 10
    verdict(
        "2 (delta oracle)", ok,
        f"mismatches {mismatches}/50, trees zero {tree_ok}, 4-cycle {cycle_ok}, {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert tree_ok and cycle_ok
    assert elapsed < 10


def test_criterion_3_homogeneity_and_curvature_map():
    """delta scales with the metric; the ball map scales by 1 / sqrt(c)."""
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    hom_worst = 0.0
    for _ in range(10):
        n = int(rng.integers(5, 10))
        raw = rng.random((n, n))
        vals = np.triu(raw, 1)
        dm = DistanceMatrix([str(i) for i in range(n)], vals + vals.T)
        base = delta_exact(dm).delta
        for s in (0.25, 2.0, 16.0):
            hom_worst = max(hom_worst, abs(delta_exact(dm.scaled(s)).delta - s * base))

    map_worst = 0.0
    for c in (4.0, 25.0, 100.0):
        pts = 0.8 * rng.random((8, 1)) ** 0.5 * (
            lambda g: g / np.linalg.norm(g, axis=1, keepdims=True)
        )(rng.standard_normal((8, 2)))
        d1 = pairwise_distance_matrix(pts, 1.0)
        dc = pairwise_distance_matrix(pts / np.sqrt(c), c)
        map_worst = max(map_worst, float(np.abs(dc - d1 / np.sqrt(c)).max()))
        delta1 = delta_exact(DistanceMatrix([str(i) for i in range(8)], d1)).delta
        deltac = delta_exact(DistanceMatrix([str(i) for i in range(8)], dc)).delta
        map_worst = max(map_worst, abs(deltac - delta1 / np.sqrt(c)))
    elapsed = time.perf_counter() - start
    ok = hom_worst <= 1e-12 and map_worst <= 1e-10 and elapsed < 5
    verdict(
        "3 (homogeneity/curvature map)", ok,
        f"homogeneity err {hom_worst:.2e}, map err {map_worst:.2e}, {elapsed:.1f}s",
    )
    assert hom_worst <= 1e-12
    assert map_worst <= 1e-10
    assert elapsed < 5


def test_criterion_4_convexity():
    """The weight-fitting objective is convex along 100 random segments."""
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = -np.inf
    for _ in range(100):
        n = int(rng.integers(4, 13))
        tree = random_binary_tree(n, int(rng.integers(10**6)))
        a = design_matrix(tree)
        target = leaf_distance_matrix(tree).pair_vector() + 0.5 * rng.standard_normal(
            a.shape[0]
        )
        w1, w2 = rng.random(a.shape[1]), rng.random(a.shape[1])
        lam = float(rng.random())
        for p in (1.0, 2.0):
            def cost(w):
                return float(np.sum(np.abs(a @ w - target) ** p) ** (1.0 / p))
            gap = cost(lam * w1 + (1 - lam) * w2) - (
                lam * cost(w1) + (1 - lam) * cost(w2)
            )
            worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5
    verdict("4 (convexity)", ok, f"worst gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 5


def test_criterion_5_gradient_check():
    """Riemannian gradients match conformal-rescaled central differences."""
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for k in range(20):
        n = int(rng.integers(3, 9))
        d = int(rng.integers(2, 5))
        c = float(rng.choice([1.0, 100.0]))
        g = rng.standard_normal((n, d))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        pts = 0.7 * rng.random((n, 1)) ** (1 / d) * g / np.sqrt(c)
        labels = [f"v{i}" for i in range(n)]
        emb = PoincareEmbedding(labels, pts, c)
        raw = rng.random((n, n)) + 0.2
        vals = np.triu(raw, 1)
        dm = DistanceMatrix(labels, vals + vals.T)
        got = loss_gradient(emb, dm, 2.0)
        eps = 1e-6 / np.sqrt(c)
        fd = np.zeros_like(pts)
        for i in range(n):
            for kk in range(d):
                up, dn = pts.copy(), pts.copy()
                up[i, kk] += eps
                dn[i, kk] -= eps
                fd[i, kk] = (
                    embedding_loss(PoincareEmbedding(labels, up, c), dm, 2.0)
                    - embedding_loss(PoincareEmbedding(labels, dn, c), dm, 2.0)
                ) / (2 * eps)
        fd = ball.conformal_to_riemannian(pts, c, fd)
        worst = max(worst, float(np.abs(got - fd).max() / np.abs(fd).max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 10
    verdict("5 (gradient check)", ok, f"worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 10


def _naive_linkage(values, method):
    n = values.shape[0]
    members = {i: [i] for i in range(n)}
    shapes = {i: i for i in range(n)}
    active = list(range(n))
    merges = []

    def flat_dist(a, b):
        pair = [values[x, y] for x in members[a] for y in members[b]]
        if method == "single":
            return min(pair)
        if method == "complete":
            return max(pair)
        return sum(pair) / len(pair)

    def wpgma(sa, sb):
        if isinstance(sa, int) and isinstance(sb, int):
            return values[sa, sb]
        if not isinstance(sa, int):
            return 0.5 * (wpgma(sa[0], sb) + wpgma(sa[1], sb))
        return wpgma(sb, sa)

    while len(active) > 1:
        best = None
        for i in range(len(active)):
            for j in range(i + 1, len(active)):
                a, b = active[i], active[j]
                dist = wpgma(shapes[a], shapes[b]) if method == "weighted" else flat_dist(a, b)
                if best is None or dist < best[0]:
                    best = (dist, i, j)
        dist, i, j = best
        a, b = active[i], active[j]
        new = n + len(merges)
        members[new] = members[a] + members[b]
        shapes[new] = (shapes[a], shapes[b])
        merges.append((min(a, b), max(a, b), dist, len(members[new])))
        active[i] = new
        del active[j]
    return merges


def test_criterion_6_linkage_oracle():
    """All four linkage rules match a naive re-scan on 100 random matrices."""
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    mismatches = 0
    ultrametric_failures = 0
    for _ in range(100):
        n = int(rng.integers(3, 11))
        raw = rng.random((n, n))
        vals = np.triu(raw, 1)
        dm = DistanceMatrix([str(i) for i in range(n)], vals + vals.T)
        for method in ("single", "complete", "average", "weighted"):
            dend = linkage(dm, method)
            expected = _naive_linkage(dm.values, method)
            same = all(
                g[0] == e[0] and g[1] == e[1] and abs(g[2] - e[2]) <= 1e-12 and g[3] == e[3]
                for g, e in zip(dend.merges, expected)
            )
            if not same:
                mismatches += 1
            if not ultrametric_check(dendrogram_to_ultrametric(dend), 1e-12):
                ultrametric_failures += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and ultrametric_failures == 0 and elapsed < 10
    verdict(
        "6 (linkage oracle)", ok,
        f"mismatches {mismatches}, ultrametric failures {ultrametric_failures}, {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert ultrametric_failures == 0
    assert elapsed < 10


def _denoising_runs():
    """One synthetic input per noise rate, three encoder seeds each."""
    outcomes = []
    for rate in (0.1, 0.3, 0.5):
        tree = random_binary_tree(64, 0)
        graph = add_noise_edges(tree, rate, 1)
        dm = graph_leaf_shortest_paths(graph)
        delta_in = delta_exact(dm).delta
        direct_tree, _ = neighbor_joining(dm)
        loss_direct = lp_cost(
            leaf_distance_matrix(direct_tree).reordered(dm.labels), dm
        )
        for seed in (0, 1, 2):
            result = train_embedding(dm, EncoderConfig(seed=seed))
            den = denoised_metric(result)
            delta_out = delta_exact(den).delta
            hyper_tree, _ = neighbor_joining(den)
            loss_hyper = lp_cost(
                leaf_distance_matrix(hyper_tree).reordered(dm.labels), dm
            )
            outcomes.append((rate, seed, delta_in, delta_out, loss_direct, loss_hyper))
    return outcomes


@pytest.fixture(scope="module")
def denoising_outcomes():
    start = time.perf_counter()
    outcomes = _denoising_runs()
    elapsed = time.perf_counter() - start
    assert elapsed < 1200, f"criterion 7 runs took {elapsed:.0f}s"
    return outcomes


def test_criterion_7a_denoising_reduces_delta(denoising_outcomes):
    """delta(denoised) < delta(input) in at least 7 of 9 runs."""
    wins = sum(1 for _, _, din, dout, _, _ in denoising_outcomes if dout < din)
    ok = wins >= 7
    verdict("7a (delta reduction)", ok, f"{wins}/9 runs reduced delta")
    assert wins >= 7


def test_criterion_7b_denoising_helps_nj(denoising_outcomes):
    """Denoised-NJ l2 loss beats direct NJ in at least 6 of 9 runs.

    Both losses are measured against the noisy input, so a win means the
    encoder's fit, decoded by NJ, is a better tree for the data than NJ on
    the data itself.  The runs use the default ``EncoderConfig``.
    """
    wins = sum(1 for _, _, _, _, ld, lh in denoising_outcomes if lh < ld)
    ok = wins >= 6
    verdict("7b (NJ gain)", ok, f"{wins}/9 runs improved the NJ l2 loss")
    assert wins >= 6


def test_criterion_8_objective_study():
    """Distance-fit selection recovers ground truth better than clan-size
    selection when measurements are leaf distances, at n = 7 and n = 10."""
    start = time.perf_counter()
    gaps = {}
    ok = True
    for n in (7, 10):
        result = compare_objectives(n, trials=20, pool_size=1000, seed=8)
        means = result.means
        gaps[n] = (means["l2_fit_on_distances"], means["dasgupta_fit_on_distances"])
        if not means["l2_fit_on_distances"] < means["dasgupta_fit_on_distances"]:
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 900
    verdict(
        "8 (objective study)", ok,
        "; ".join(
            f"n={n}: l2 {a:.3f} vs clan {b:.3f}" for n, (a, b) in gaps.items()
        ) + f", {elapsed:.0f}s",
    )
    for n, (a, b) in gaps.items():
        assert a < b, f"n={n}"
    assert elapsed < 900


def _find_feature_table():
    """A user-supplied feature file, or the bundled-by-sklearn iris data."""
    candidates = [os.environ.get("HYPTREE_FEATURES"), "tests/data/features.txt"]
    for cand in candidates:
        if cand and Path(cand).exists():
            return load_features(cand)
    try:
        from sklearn.datasets import load_iris
    except ImportError:
        return None
    iris = load_iris()
    return FeatureTable([f"{i:03d}" for i in range(len(iris.data))], iris.data)


def test_criterion_9_real_data_direction():
    """On an iris-style feature table, denoised NJ beats direct NJ."""
    table = _find_feature_table()
    if table is None:
        verdict("9 (real data)", True, "skipped: no feature file available")
        pytest.skip("no feature file and scikit-learn unavailable")
    start = time.perf_counter()
    dm = cosine_dissimilarity(table)
    direct_tree, clamps_direct = neighbor_joining(dm)
    loss_direct = lp_cost(
        leaf_distance_matrix(direct_tree).reordered(dm.labels), dm
    )
    result = train_embedding(dm, EncoderConfig(seed=0))
    den = denoised_metric(result)
    hyper_tree, clamps_hyper = neighbor_joining(den)
    loss_hyper = lp_cost(
        leaf_distance_matrix(hyper_tree).reordered(dm.labels), dm
    )
    elapsed = time.perf_counter() - start
    ok = loss_hyper < loss_direct and elapsed < 600
    verdict(
        "9 (real data)", ok,
        f"direct {loss_direct:.3f} (clamps {clamps_direct}) vs denoised "
        f"{loss_hyper:.3f} (clamps {clamps_hyper}), {elapsed:.0f}s",
    )
    assert loss_hyper < loss_direct
    assert elapsed < 600


def test_criterion_10_determinism(tmp_path):
    """Seeded commands rerun byte-identically."""
    src = tmp_path / "src"
    rc = main(["synth", "--n", "16", "--noise-rate", "0.3", "--seed", "9",
               "--output-dir", str(src)])
    assert rc == 0
    runs = []
    for name in ("one", "two"):
        out = tmp_path / name
        rc = main([
            "pipeline", "--input", str(src / "matrix.txt"), "--seed", "9",
            "--decoders", "nj,average", "--output-dir", str(out),
            "--epochs", "150",
        ])
        assert rc == 0
        runs.append(out)
    identical = True
    names = [
        "report.txt", "denoised.txt", "embedding.txt", "loss_trace.txt",
        "nj_direct.nwk", "nj_denoised.nwk", "average_denoised.nwk",
        "average_direct.dendro",
    ]
    for name in names:
        if (runs[0] / name).read_bytes() != (runs[1] / name).read_bytes():
            identical = False
    # and a rerun of synth itself
    src2 = tmp_path / "src2"
    main(["synth", "--n", "16", "--noise-rate", "0.3", "--seed", "9",
          "--output-dir", str(src2)])
    for name in ("tree.nwk", "graph.tsv", "matrix.txt"):
        if (src / name).read_bytes() != (src2 / name).read_bytes():
            identical = False
    verdict("10 (determinism)", identical, f"{len(names) + 3} artifacts compared")
    assert identical
