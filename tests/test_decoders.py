"""Neighbor Joining and linkage decoder checks, including naive oracles."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from hyptree import decoders
from hyptree.data import add_noise_edges, graph_leaf_shortest_paths, random_binary_tree
from hyptree.decoders import (
    LINKAGE_METHODS,
    Dendrogram,
    dendrogram_to_tree,
    dendrogram_to_ultrametric,
    linkage,
    neighbor_joining,
)
from hyptree.metrics import DistanceMatrix, ultrametric_check
from hyptree.trees import WeightedTree, leaf_distance_matrix

TRIPLE = DistanceMatrix(["a", "b", "c"], [[0, 1, 2], [1, 0, 3], [2, 3, 0]])
# Strongly non-additive: Neighbor Joining estimates negative branch lengths.
CLAMPING = DistanceMatrix(list("abcde"), [
    [0.0, 1.0, 1.0, 1.0, 4.0],
    [1.0, 0.0, 1.0, 4.0, 1.0],
    [1.0, 1.0, 0.0, 1.0, 1.0],
    [1.0, 4.0, 1.0, 0.0, 1.0],
    [4.0, 1.0, 1.0, 1.0, 0.0],
])


def naive_linkage(values, method):
    """Re-scan reference: recompute inter-cluster distances from scratch.

    Deliberately avoids the Lance-Williams recurrence the production code
    uses; distances between clusters are recomputed from the original matrix
    each round.
    """
    n = values.shape[0]
    clusters = {i: [i] for i in range(n)}
    active = list(range(n))
    merges = []

    def cluster_dist(a, b):
        pair_dists = [values[x, y] for x in clusters[a] for y in clusters[b]]
        if method == "single":
            return min(pair_dists)
        if method == "complete":
            return max(pair_dists)
        if method == "average":
            return sum(pair_dists) / len(pair_dists)
        # weighted: recursively averaged pair of prior clusters; recompute
        # by replaying the definition on the merge tree
        raise AssertionError

    def wpgma_dist(tree_a, tree_b):
        # weighted linkage distance defined recursively on merge structure
        if isinstance(tree_a, int) and isinstance(tree_b, int):
            return values[tree_a, tree_b]
        if not isinstance(tree_a, int):
            return 0.5 * (
                wpgma_dist(tree_a[0], tree_b) + wpgma_dist(tree_a[1], tree_b)
            )
        return wpgma_dist(tree_b, tree_a)

    shapes = {i: i for i in range(n)}
    while len(active) > 1:
        best = None
        for i in range(len(active)):
            for j in range(i + 1, len(active)):
                a, b = active[i], active[j]
                d = (
                    wpgma_dist(shapes[a], shapes[b])
                    if method == "weighted"
                    else cluster_dist(a, b)
                )
                if best is None or d < best[0]:
                    best = (d, i, j)
        d, i, j = best
        a, b = active[i], active[j]
        new = n + len(merges)
        clusters[new] = clusters[a] + clusters[b]
        shapes[new] = (shapes[a], shapes[b])
        merges.append((min(a, b), max(a, b), d, len(clusters[new])))
        active[i] = new
        del active[j]
    return merges


def _members(shape):
    return [shape] if isinstance(shape, int) else _members(shape[0]) + _members(shape[1])


def naive_cluster_distance(values, method, shape_a, shape_b):
    """Inter-cluster distance from its definition on the merge trees.

    Flat rules reduce over all member pairs; weighted averages the distances
    of the two halves of a merged cluster, recursively.
    """
    if method == "weighted":
        if isinstance(shape_a, int) and isinstance(shape_b, int):
            return values[shape_a, shape_b]
        if isinstance(shape_a, int):
            shape_a, shape_b = shape_b, shape_a
        return 0.5 * (
            naive_cluster_distance(values, method, shape_a[0], shape_b)
            + naive_cluster_distance(values, method, shape_a[1], shape_b)
        )
    pair = [values[x, y] for x in _members(shape_a) for y in _members(shape_b)]
    if method == "single":
        return min(pair)
    if method == "complete":
        return max(pair)
    return sum(pair) / len(pair)


def naive_cophenetic(n, merges):
    vals = np.zeros((n, n))
    members = {i: [i] for i in range(n)}
    for k, (a, b, h, _) in enumerate(merges):
        for x in members[a]:
            for y in members[b]:
                vals[x, y] = vals[y, x] = h
        members[n + k] = members.pop(a) + members.pop(b)
    return vals


def tied_matrices(count, seed):
    """Integer entries 1-3 on 3 to 24 entities, so most merges face ties."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 25))
        vals = np.triu(rng.integers(1, 4, size=(n, n)).astype(float), 1)
        yield DistanceMatrix([str(i) for i in range(n)], vals + vals.T)


def copying_neighbor_joining(values):
    """Reference NJ that copies the working matrix on every join.

    Returns ``(edges, clamps)``.  Q, the tie rule and the reduction are
    written as in the production code, but each join rebuilds the reduced
    matrix with ``np.ix_`` instead of shifting it in place.
    """
    n = values.shape[0]
    work = np.array(values, dtype=float)
    active = list(range(n))
    next_id = n
    edges = []
    clamps = 0

    def clamped(w):
        nonlocal clamps
        if w < 0.0:
            clamps += 1
            return 0.0
        return float(w)

    while len(active) > 3:
        m = len(active)
        r = work.sum(axis=1)
        q = (m - 2) * work - (r[:, None] + r[None, :])
        np.fill_diagonal(q, np.inf)
        i, j = np.unravel_index(int(np.argmin(q)), q.shape)
        if i > j:
            i, j = j, i
        li = 0.5 * work[i, j] + (r[i] - r[j]) / (2.0 * (m - 2))
        lj = 0.5 * work[i, j] + (r[j] - r[i]) / (2.0 * (m - 2))
        edges.append((active[i], next_id, clamped(li)))
        edges.append((active[j], next_id, clamped(lj)))
        merged = 0.5 * (work[i, :] + work[j, :] - work[i, j])
        merged[i] = 0.0
        work[i, :] = merged
        work[:, i] = merged
        active[i] = next_id
        next_id += 1
        keep = [k for k in range(m) if k != j]
        work = work[np.ix_(keep, keep)]
        del active[j]

    if len(active) == 3:
        d01, d02, d12 = work[0, 1], work[0, 2], work[1, 2]
        edges.append((active[0], next_id, clamped(0.5 * (d01 + d02 - d12))))
        edges.append((active[1], next_id, clamped(0.5 * (d01 + d12 - d02))))
        edges.append((active[2], next_id, clamped(0.5 * (d02 + d12 - d01))))
    else:
        edges.append((active[0], active[1], clamped(work[0, 1])))
    return tuple(edges), clamps


def spy_searches(monkeypatch):
    """Record the active-node count of every sorted-row join search."""
    search, seen = decoders._PartnerRows.search, []

    def spy(self, r):
        seen.append(r.size)
        return search(self, r)

    monkeypatch.setattr(decoders._PartnerRows, "search", spy)
    return seen


def nj_oracle_inputs(seed):
    """Non-metric reals, ties, Euclidean points, n = 2..40.

    Integer entries 1-3 tie exactly in Q.  Entries 0.1-0.3 tie only up to
    rounding, so there the pair that wins depends on the last bit of each Q
    entry: a search that rounds Q otherwise picks another pair on some.
    """
    rng = np.random.default_rng(seed)
    for n in range(2, 41):
        reals = rng.random((n, n))
        ties = np.triu(rng.integers(1, 4, size=(n, n)).astype(float), 1)
        near_ties = np.triu(rng.integers(1, 4, size=(n, n)) * 0.1, 1)
        points = rng.normal(size=(n, 3))
        euclid = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
        for vals in (reals + reals.T, ties + ties.T, near_ties + near_ties.T, euclid):
            yield DistanceMatrix([str(i) for i in range(n)], vals)


def forced_first_join(n, a, b, seed):
    """Reals in [1, 1.1] but 0.1 at (a, b), which makes (a, b) the first join."""
    rng = np.random.default_rng(seed)
    vals = np.triu(1.0 + 0.1 * rng.random((n, n)), 1)
    vals = vals + vals.T
    vals[a, b] = vals[b, a] = 0.1
    return DistanceMatrix([str(k) for k in range(n)], vals)


class TestNeighborJoining:
    def test_returns_tree_and_int_clamp_count(self):
        rng = np.random.default_rng(29)
        cases = [CLAMPING]
        for n in (1, 2, 3, 4, 20):
            vals = np.triu(rng.random((n, n)), 1)
            cases.append(DistanceMatrix([f"e{k}" for k in range(n)], vals + vals.T))
        for dm in cases:
            tree, clamps = neighbor_joining(dm)
            assert isinstance(tree, WeightedTree) and tree.n_leaves == dm.n
            assert type(clamps) is int and clamps >= 0
        assert neighbor_joining(CLAMPING)[1] > 0

    def test_two_leaves(self):
        dm = DistanceMatrix(["a", "b"], [[0, 4], [4, 0]])
        tree, _ = neighbor_joining(dm)
        assert len(tree.edges) == 1
        assert tree.edges[0][2] == 4.0

    def test_three_leaves_exact(self):
        tree, _ = neighbor_joining(TRIPLE)
        dm2 = leaf_distance_matrix(tree).reordered(TRIPLE.labels)
        assert np.allclose(dm2.values, TRIPLE.values, atol=1e-12)

    def test_single_entity(self):
        tree, _ = neighbor_joining(DistanceMatrix(["only"], [[0.0]]))
        assert len(tree.vertices) == 1
        assert tree.leaf_labels == {0: "only"}

    def test_additive_quartet(self):
        dm = DistanceMatrix(
            ["a", "b", "c", "d"],
            [[0, 2, 3, 3], [2, 0, 3, 3], [3, 3, 0, 2], [3, 3, 2, 0]],
        )
        tree, clamps = neighbor_joining(dm)
        assert clamps == 0
        assert sorted(w for _, _, w in tree.edges) == [1.0] * 5
        back = leaf_distance_matrix(tree).reordered(dm.labels)
        assert np.abs(back.values - dm.values).max() <= 1e-9

    def test_consistency_on_random_trees(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            n = int(rng.integers(4, 20))
            t = random_binary_tree(n, int(rng.integers(10000)))
            # keep edge weights away from zero so the topology is identifiable
            t = type(t)(
                t.vertices,
                tuple((u, v, 0.1 + 0.9 * w) for u, v, w in t.edges),
                dict(t.leaf_labels),
            )
            dm = leaf_distance_matrix(t)
            tree, clamps = neighbor_joining(dm)
            assert clamps == 0
            back = leaf_distance_matrix(tree)
            assert np.abs(back.values - dm.values).max() <= 1e-9

    def test_negative_weights_clamped(self):
        tree, clamps = neighbor_joining(CLAMPING)
        assert clamps > 0
        assert all(w >= 0.0 for _, _, w in tree.edges)

    def test_deterministic_on_ties(self):
        vals = np.ones((5, 5)) - np.eye(5)
        dm = DistanceMatrix(list("abcde"), vals)
        t1, _ = neighbor_joining(dm)
        t2, _ = neighbor_joining(dm)
        assert t1.edges == t2.edges
        # every pair ties in Q; leaves 0 and 1 join first, into vertex 5
        assert t1.edges[0][:2] == (0, 5)
        assert t1.edges[1][:2] == (1, 5)

    @pytest.mark.parametrize("sorted_rows", [False, True])
    def test_q_symmetric_ties_join_smallest_pair(self, monkeypatch, sorted_rows):
        # In thirds, Q(0, 1) and Q(2, 3) tie in exact arithmetic, and
        # ((m-2) d - r_i) - r_j rounds Q(3, 2) one ulp lower than both.
        # Formed as (m-2) d - (r_i + r_j), Q equals its transpose bit for bit
        # and the two entries tie exactly, so the tie rule joins 0 and 1.
        k = np.array([[0, 1, 3, 3], [1, 0, 2, 3], [3, 2, 0, 1], [3, 3, 1, 0]])
        d = k / 3.0
        r = d.sum(axis=1)
        q = 2 * d - (r[:, None] + r[None, :])
        assert q.tobytes() == q.T.tobytes()
        assert q[0, 1] == q[2, 3] == np.min(q[~np.eye(4, dtype=bool)])
        if sorted_rows:
            monkeypatch.setattr(decoders, "_SORTED_MIN_M", 3)
        searches = spy_searches(monkeypatch)
        tree, _ = neighbor_joining(DistanceMatrix(list("abcd"), d))
        assert searches == ([4] if sorted_rows else [])
        assert tree.edges[0][:2] == (0, 4)
        assert tree.edges[1][:2] == (1, 4)

    def test_bitwise_matches_copying_reference(self):
        count = 0
        for dm in nj_oracle_inputs(41):
            tree, clamps = neighbor_joining(dm)
            assert (tree.edges, clamps) == copying_neighbor_joining(dm.values), dm.n
            count += 1
        assert count == 4 * 39

    def test_bitwise_matches_copying_reference_noisy_n300(self):
        t = random_binary_tree(300, 3)
        dm = graph_leaf_shortest_paths(add_noise_edges(t, 0.3, 4))
        tree, clamps = neighbor_joining(dm)
        assert (tree.edges, clamps) == copying_neighbor_joining(dm.values)

    @pytest.mark.parametrize("chunk", [1, 2, 16])
    def test_sorted_row_search_matches_copying_reference(self, monkeypatch, chunk):
        # With the threshold at 3 every join comes from the sorted rows;
        # one- and two-entry chunks make most searches continue past the
        # first chunk, over dead partners too.
        monkeypatch.setattr(decoders, "_SORTED_MIN_M", 3)
        monkeypatch.setattr(decoders, "_SEARCH_CHUNK", chunk)
        searches = spy_searches(monkeypatch)
        for dm in nj_oracle_inputs(41):
            searches.clear()
            tree, clamps = neighbor_joining(dm)
            assert (tree.edges, clamps) == copying_neighbor_joining(dm.values), dm.n
            assert searches == list(range(dm.n, 3, -1)), dm.n

    @pytest.mark.parametrize("noisy", [True, False])
    def test_sorted_row_search_matches_copying_reference_n512(self, monkeypatch, noisy):
        # At the default threshold the joins above it use the sorted rows and
        # the rest scan Q in full.
        searches = spy_searches(monkeypatch)
        t = random_binary_tree(512, 5)
        dm = graph_leaf_shortest_paths(add_noise_edges(t, 0.3, 6)) if noisy else leaf_distance_matrix(t)
        tree, clamps = neighbor_joining(dm)
        assert (tree.edges, clamps) == copying_neighbor_joining(dm.values)
        assert searches == list(range(512, decoders._SORTED_MIN_M, -1))

    def test_sorted_rows_searched_above_active_threshold(self, monkeypatch):
        # One threshold: on any input with more than _SORTED_MIN_M = 192
        # leaves, the joins down to it search the sorted rows.
        searches = spy_searches(monkeypatch)
        dm = graph_leaf_shortest_paths(add_noise_edges(random_binary_tree(200, 2), 0.3, 3))
        tree, clamps = neighbor_joining(dm)
        assert (tree.edges, clamps) == copying_neighbor_joining(dm.values)
        assert searches == list(range(200, 192, -1))

    @pytest.mark.parametrize("sorted_rows", [False, True])
    def test_deletion_at_block_edges_matches_copying_reference(self, monkeypatch, sorted_rows):
        # Deleting the last slot (j = m - 1) moves no block; joining slots 0
        # and 1 moves the whole lower-right block and row and column 0 beside
        # it.  With the threshold at 3 every join searches the sorted rows.
        if sorted_rows:
            monkeypatch.setattr(decoders, "_SORTED_MIN_M", 3)
        # (At m = 4, Q(0, 1) always ties with Q(2, 3), so n starts at 5.)
        for n in (5, 9, 40):
            for a, b in ((n - 2, n - 1), (0, 1), (0, n - 1)):
                dm = forced_first_join(n, a, b, seed=n)
                tree, clamps = neighbor_joining(dm)
                assert [u for u, _, _ in tree.edges[:2]] == [a, b], (n, a, b)
                assert (tree.edges, clamps) == copying_neighbor_joining(dm.values), (n, a, b)

    def test_peak_memory_n512(self):
        # NJ holds the working matrix (2 MiB), the sorted partner rows
        # (3.1 MiB), a Q buffer for the last 192 active nodes (0.28 MiB) and
        # the deletion's scratch buffer (0.5 MiB); on this input its traced
        # peak is 6.25 MiB.  Deleting a node through overlapping slice
        # assignments, which numpy copies through a temporary of up to
        # 2 MiB, peaked at 7.08 MiB.
        t = random_binary_tree(512, 0)
        dm = graph_leaf_shortest_paths(add_noise_edges(t, 0.3, 1))
        tracemalloc.start()
        try:
            neighbor_joining(dm)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak <= 6.5


class TestLinkage:
    def test_single_hand_trace(self):
        dend = linkage(TRIPLE, "single")
        assert dend.merges[0][:3] == (0, 1, 1.0)
        assert dend.merges[1][2] == 2.0

    def test_complete_hand_trace(self):
        dend = linkage(TRIPLE, "complete")
        assert dend.merges[0][2] == 1.0
        assert dend.merges[1][2] == 3.0

    def test_average_hand_trace(self):
        dend = linkage(TRIPLE, "average")
        assert dend.merges[1][2] == 2.5

    def test_weighted_matches_average_for_singletons(self):
        dend = linkage(TRIPLE, "weighted")
        assert dend.merges[1][2] == 2.5

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown linkage"):
            linkage(TRIPLE, "ward")

    def test_matches_naive_rescan(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            n = int(rng.integers(3, 11))
            raw = rng.random((n, n))
            vals = np.triu(raw, 1)
            dm = DistanceMatrix([str(i) for i in range(n)], vals + vals.T)
            for method in ("single", "complete", "average", "weighted"):
                dend = linkage(dm, method)
                expected = naive_linkage(dm.values, method)
                got = [(a, b, pytest.approx(h, abs=1e-12), s) for a, b, h, s in expected]
                assert list(dend.merges) == got, method

    def test_heights_monotone(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            n = int(rng.integers(3, 20))
            raw = rng.random((n, n))
            vals = np.triu(raw, 1)
            dm = DistanceMatrix([str(i) for i in range(n)], vals + vals.T)
            for method in ("single", "complete", "average", "weighted"):
                heights = [m[2] for m in linkage(dm, method).merges]
                assert all(a <= b for a, b in zip(heights, heights[1:]))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(33)
        n = 8
        raw = rng.random((n, n))
        vals = np.triu(raw, 1)
        labels = [f"x{i}" for i in range(n)]
        dm = DistanceMatrix(labels, vals + vals.T)
        perm = rng.permutation(n)
        dm_p = DistanceMatrix(
            [labels[k] for k in perm], dm.values[np.ix_(perm, perm)]
        )
        for method in ("single", "complete", "average", "weighted"):
            u1 = dendrogram_to_ultrametric(linkage(dm, method))
            u2 = dendrogram_to_ultrametric(linkage(dm_p, method))
            assert np.allclose(
                u2.reordered(labels).values, u1.values, atol=1e-12
            )


class TestLinkageTies:
    """On tied input which tied pair merges is scipy's choice; these hold for any choice."""

    def test_each_merge_joins_a_closest_pair(self):
        for dm in tied_matrices(150, 37):
            for method in LINKAGE_METHODS:
                shapes = {i: i for i in range(dm.n)}
                for k, (a, b, h, _) in enumerate(linkage(dm, method).merges):
                    closest = min(
                        naive_cluster_distance(dm.values, method, shapes[x], shapes[y])
                        for x, y in itertools.combinations(shapes, 2)
                    )
                    d = naive_cluster_distance(dm.values, method, shapes[a], shapes[b])
                    assert d <= closest + 1e-12, (method, k)
                    assert abs(h - d) <= 1e-12, (method, k)
                    shapes[dm.n + k] = (shapes.pop(a), shapes.pop(b))

    def test_merges_match_per_row_conversion(self):
        # One tolist() of scipy's merge table gives the same ints and floats
        # as converting its numpy scalars one by one.
        from scipy.cluster import hierarchy
        from scipy.spatial.distance import squareform
        for dm in tied_matrices(40, 43):
            for method in LINKAGE_METHODS:
                z = hierarchy.linkage(squareform(dm.values, checks=False), method)
                want = tuple(
                    (int(min(a, b)), int(max(a, b)), float(h), int(size)) for a, b, h, size in z
                )
                merges = linkage(dm, method).merges
                assert merges == want, method
                assert {tuple(map(type, mg)) for mg in merges} == {(int, int, float, int)}

    def test_single_cophenetic_matches_oracle(self):
        for dm in tied_matrices(150, 38):
            expected = naive_cophenetic(dm.n, naive_linkage(dm.values, "single"))
            got = dendrogram_to_ultrametric(linkage(dm, "single")).values
            assert np.array_equal(got, expected)


class TestDendrogram:
    def test_leaf_count_is_label_count(self):
        assert Dendrogram(((0, 1, 1.0, 2), (2, 3, 2.0, 3)), ["a", "b", "c"]).n == 3
        assert Dendrogram((), ["a"]).n == 1
        assert linkage(TRIPLE, "average").n == 3

    def test_merge_count_must_match_labels(self):
        # Two merges need three leaves; with two labels cluster 2 is no leaf.
        with pytest.raises(ValueError, match="2 merges for 2 leaves"):
            Dendrogram(((0, 1, 1.0, 2), (2, 3, 2.0, 3)), ["a", "b"])

    def test_rejects_reused_cluster(self):
        with pytest.raises(ValueError, match="merge 1 references invalid or merged"):
            Dendrogram(((0, 1, 1.0, 2), (0, 2, 2.0, 2)), ["a", "b", "c"])

    def test_frozen_with_tuple_labels(self):
        dm = DistanceMatrix(list("abc"), [[0, 1, 2], [1, 0, 2], [2, 2, 0]])
        dend = linkage(dm, "average")
        assert dend.labels == ("a", "b", "c")
        with pytest.raises(AttributeError):
            dend.labels.append("x")
        with pytest.raises(dataclasses.FrozenInstanceError):
            dend.labels = ["a", "b", "c", "x"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            dend.merges = ()
        assert dendrogram_to_ultrametric(dend).labels == ["a", "b", "c"]
        assert dendrogram_to_tree(dend).n_leaves == 3

    def test_requires_monotone_heights(self):
        with pytest.raises(ValueError, match="height"):
            Dendrogram(((0, 1, 2.0, 2), (2, 3, 1.0, 3)), ["a", "b", "c"])

    def test_requires_consistent_sizes(self):
        with pytest.raises(ValueError, match="size"):
            Dendrogram(((0, 1, 1.0, 2), (2, 3, 2.0, 4)), ["a", "b", "c"])

    def test_cophenetic_hand_values(self):
        u = dendrogram_to_ultrametric(linkage(TRIPLE, "single"))
        assert u.values[0, 1] == 1.0
        assert u.values[0, 2] == 2.0
        assert u.values[1, 2] == 2.0

    def test_cophenetic_is_ultrametric(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            n = int(rng.integers(3, 12))
            raw = rng.random((n, n))
            vals = np.triu(raw, 1)
            dm = DistanceMatrix([str(i) for i in range(n)], vals + vals.T)
            for method in ("single", "complete", "average", "weighted"):
                u = dendrogram_to_ultrametric(linkage(dm, method))
                assert ultrametric_check(u, 1e-12)

    def test_bytes_match_pair_vector_reference(self):
        # squareform reads and writes the upper triangle in the order of
        # DistanceMatrix.pair_vector, so linkage and the cophenetic matrix
        # have the same bytes as a reference built on that order.
        from scipy.cluster import hierarchy

        rng = np.random.default_rng(36)
        for n in (2, 3, 64):
            labels = [str(i) for i in range(n)]
            reals = np.triu(rng.random((n, n)), 1)
            ties = np.triu(rng.integers(1, 4, size=(n, n)).astype(float), 1)
            for vals in (reals, ties):
                dm = DistanceMatrix(labels, vals + vals.T)
                for method in LINKAGE_METHODS:
                    z = hierarchy.linkage(dm.pair_vector(), method)
                    want = [(min(a, b), max(a, b), h, s) for a, b, h, s in z]
                    dend = linkage(dm, method)
                    got = np.array(dend.merges, dtype=np.float64)
                    assert got.tobytes() == np.array(want).tobytes(), (n, method)
                    iu = np.triu_indices(n, 1)
                    want = np.zeros((n, n))
                    want[iu] = want.T[iu] = hierarchy.cophenet(got)
                    full = dendrogram_to_ultrametric(dend).values
                    assert full.tobytes() == want.tobytes(), (n, method)

    def test_single_leaf(self):
        dend = linkage(DistanceMatrix(["z"], [[0.0]]), "single")
        assert dend.merges == ()
        u = dendrogram_to_ultrametric(dend)
        assert u.values.shape == (1, 1)
        tree = dendrogram_to_tree(dend)
        assert len(tree.vertices) == 1

    def test_tree_matches_cophenetic(self):
        rng = np.random.default_rng(35)
        for method in ("single", "complete", "average", "weighted"):
            n = 9
            raw = rng.random((n, n))
            vals = np.triu(raw, 1)
            dm = DistanceMatrix([str(i) for i in range(n)], vals + vals.T)
            dend = linkage(dm, method)
            tree = dendrogram_to_tree(dend)
            u = dendrogram_to_ultrametric(dend)
            lm = leaf_distance_matrix(tree).reordered(u.labels)
            assert np.abs(lm.values - u.values).max() <= 1e-12

    def test_leaves_equidistant_from_root(self):
        dend = linkage(TRIPLE, "average")
        tree = dendrogram_to_tree(dend)
        adj = tree.adjacency()

        def depth(v, parent, acc):
            hits = []
            if v in tree.leaf_labels:
                hits.append(acc)
            for u, w in adj[v]:
                if u != parent:
                    hits.extend(depth(u, v, acc + w))
            return hits

        depths = depth(tree.root, None, 0.0)
        assert max(depths) - min(depths) <= 1e-12


class TestCopheneticIsTreeMetric:
    def test_cophenetic_four_point(self):
        from hyptree.metrics import four_point_check

        rng = np.random.default_rng(36)
        for _ in range(5):
            n = int(rng.integers(4, 10))
            raw = rng.random((n, n))
            vals = np.triu(raw, 1)
            dm = DistanceMatrix([str(i) for i in range(n)], vals + vals.T)
            u = dendrogram_to_ultrametric(linkage(dm, "average"))
            assert four_point_check(u, 1e-12)
