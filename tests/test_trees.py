"""Tree structure, metric, fitting, and rooting checks."""

import tracemalloc
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
from scipy.sparse.csgraph import dijkstra

from hyptree.data import add_noise_edges, graph_leaf_shortest_paths, random_binary_tree
from hyptree.decoders import dendrogram_to_tree, linkage, neighbor_joining
from hyptree.metrics import DistanceMatrix, four_point_check, lp_cost
from hyptree.newick import _format_label, parse_newick, write_newick
from hyptree.trees import (
    TreeStructureError,
    WeightedTree,
    _leaf_path_lengths,
    dasgupta_cost,
    design_matrix,
    fit_edge_weights,
    lca,
    lca_clan_sizes,
    leaf_distance_matrix,
    midpoint_root,
    midpoint_root_and_metric,
    tree_distance,
    trim_root,
    unit_edges,
)


def zero_edge_tree():
    """Leaves a..d on vertices 0..3, internal 7 and 9; three of the five edges
    weigh zero, as Neighbor Joining's clamps leave them."""
    return WeightedTree(
        vertices=(0, 1, 2, 3, 7, 9),
        edges=((0, 7, 0.0), (1, 7, 1.0), (7, 9, 0.0), (9, 2, 2.0), (9, 3, 0.0)),
        leaf_labels={0: "a", 1: "b", 2: "c", 3: "d"},
    )


def quartet_tree():
    """((a:1, b:1):1, (c:1, d:1)) as an unrooted tree with middle edge 1."""
    return WeightedTree(
        vertices=(0, 1, 2, 3, 4, 5),
        edges=((0, 4, 1.0), (1, 4, 1.0), (4, 5, 1.0), (2, 5, 1.0), (3, 5, 1.0)),
        leaf_labels={0: "a", 1: "b", 2: "c", 3: "d"},
    )


def rooted_triplet():
    """((a, b), c) rooted; pendant weights 0.5 under the inner vertex."""
    return WeightedTree(
        vertices=(0, 1, 2, 3, 4),
        edges=((0, 3, 0.5), (1, 3, 0.5), (3, 4, 0.5), (2, 4, 1.0)),
        leaf_labels={0: "a", 1: "b", 2: "c"},
        root=4,
    )


class TestWeightedTree:
    def test_rejects_cycle(self):
        with pytest.raises(TreeStructureError):
            WeightedTree((0, 1, 2), ((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)), {0: "a"})

    def test_rejects_disconnected(self):
        with pytest.raises(TreeStructureError):
            WeightedTree((0, 1, 2, 3), ((0, 1, 1.0), (2, 3, 1.0), (0, 1, 2.0)), {})

    def test_rejects_negative_weight(self):
        with pytest.raises(TreeStructureError):
            WeightedTree((0, 1), ((0, 1, -0.5),), {0: "a", 1: "b"})

    def test_rejects_internal_label(self):
        with pytest.raises(TreeStructureError):
            WeightedTree(
                (0, 1, 2), ((0, 1, 1.0), (1, 2, 1.0)), {1: "mid"}
            )

    def test_zero_weights_allowed(self):
        t = WeightedTree((0, 1), ((0, 1, 0.0),), {0: "a", 1: "b"})
        assert leaf_distance_matrix(t).values[0, 1] == 0.0


def dijkstra_leaf_path_lengths(tree):
    """Reference: one csgraph.dijkstra call from every leaf over the edge list."""
    leaves = tree.sorted_leaves()
    pos = {v: k for k, v in enumerate(tree.vertices)}
    rows = [pos[u] for u, _, _ in tree.edges]
    cols = [pos[v] for _, v, _ in tree.edges]
    weights = [w for _, _, w in tree.edges]
    m = len(tree.vertices)
    graph = scipy.sparse.csr_matrix((weights, (rows, cols)), shape=(m, m), dtype=np.float64)
    idx = [pos[v] for _, v in leaves]
    return leaves, dijkstra(graph, directed=False, indices=idx)[:, idx]


def caterpillar(n, first=100):
    """Binary caterpillar on n leaves: a spine of n - 2 vertices first,
    first + 1, ... whose two ends carry two leaves each and inner vertices one,
    listed spine first, so ``vertices[0]`` is internal."""
    spine = list(range(first, first + n - 2))
    edges = [(u, v, 0.1 * (k + 1)) for k, (u, v) in enumerate(zip(spine, spine[1:]))]
    edges += [(k, spine[min(max(k - 1, 0), n - 3)], 1.0 / (k + 3)) for k in range(n)]
    return WeightedTree(tuple(spine) + tuple(range(n)), tuple(edges),
                        {k: f"c{k:02d}" for k in range(n)})


def with_zero_weights(tree, rng, share=0.3):
    zero = rng.random(len(tree.edges)) < share
    edges = tuple((u, v, 0.0 if z else w) for (u, v, w), z in zip(tree.edges, zero))
    return WeightedTree(tree.vertices, edges, dict(tree.leaf_labels), root=tree.root)


def leaf_metric_cases():
    rng = np.random.default_rng(31)
    cases = [
        zero_edge_tree(), quartet_tree(), rooted_triplet(), caterpillar(3), caterpillar(17),
        WeightedTree((0,), (), {0: "a"}),
        WeightedTree((5, 0), ((0, 5, 0.5),), {0: "a"}),
        WeightedTree((0, 1), ((0, 1, 0.7),), {0: "a", 1: "b"}),
        WeightedTree((3, 0, 1, 2), ((0, 3, 0.1), (1, 3, 0.2), (2, 3, 0.3)),
                     {0: "a", 1: "b", 2: "c"}),
    ]
    for n, seed in ((2, 0), (3, 1), (5, 2), (16, 3), (64, 4), (97, 5)):
        t = random_binary_tree(n, seed)
        assert t.vertices[0] in t.leaf_labels
        rooted = midpoint_root(t)
        assert sum(rooted.root in e[:2] for e in rooted.edges) == 2
        # The same tree with an internal vertex listed first.
        cases += [t, rooted, with_zero_weights(t, rng),
                  WeightedTree(t.vertices[::-1], t.edges, dict(t.leaf_labels))]
    for n, seed in ((8, 6), (40, 7), (128, 8)):
        graph = add_noise_edges(random_binary_tree(n, seed), 0.3, seed + 1)
        nj, _ = neighbor_joining(graph_leaf_shortest_paths(graph))
        cases += [nj, midpoint_root(nj), with_zero_weights(nj, rng),
                  dendrogram_to_tree(linkage(graph_leaf_shortest_paths(graph), "average"))]
    return cases


class TestLeafPathLengths:
    def test_bitwise_matches_dijkstra(self):
        asymmetric = 0
        for t in leaf_metric_cases():
            for tree in (t, unit_edges(t)):
                leaves, dist = _leaf_path_lengths(tree)
                ref_leaves, ref = dijkstra_leaf_path_lengths(tree)
                assert leaves == ref_leaves
                assert dist.shape == ref.shape and dist.dtype == ref.dtype
                assert dist.tobytes() == ref.tobytes()
                asymmetric += not np.array_equal(ref, ref.T)
        # Some path sums round differently from the two ends, so the cases
        # also pin down the direction in which each entry is summed.
        assert asymmetric > 0


def reference_orient(tree, root):
    """Reference: BFS parent pointers, parent edge index, depth and order."""
    adj = {v: [] for v in tree.vertices}
    for k, (u, v, _) in enumerate(tree.edges):
        adj[u].append((v, k))
        adj[v].append((u, k))
    parent, parent_edge, depth, order = {root: None}, {root: None}, {root: 0}, [root]
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v, k in adj[u]:
            if v not in parent:
                parent[v], parent_edge[v], depth[v] = u, k, depth[u] + 1
                order.append(v)
                queue.append(v)
    return parent, parent_edge, depth, order


def reference_lca(tree, i, j):
    """Reference: climb parent pointers, deeper vertex first."""
    parent, _, depth, _ = reference_orient(tree, tree.root)
    a, b = i, j
    while depth[a] > depth[b]:
        a = parent[a]
    while depth[b] > depth[a]:
        b = parent[b]
    while a != b:
        a, b = parent[a], parent[b]
    return a


def reference_lca_clan_sizes(tree):
    """Reference: merge leaf groups bottom-up and fill every cross-group pair."""
    leaves = tree.sorted_leaves()
    leaf_pos = {v: i for i, (_, v) in enumerate(leaves)}
    vals = np.zeros((len(leaves), len(leaves)))
    parent, _, _, order = reference_orient(tree, tree.root)
    below = {v: [] for v in tree.vertices}
    children = {v: [] for v in tree.vertices}
    for v in order:
        if parent[v] is not None:
            children[parent[v]].append(v)
    for v in reversed(order):
        groups = [below[c] for c in children[v]]
        if v in leaf_pos:
            groups.append([leaf_pos[v]])
        merged = [x for g in groups for x in g]
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                for x in groups[a]:
                    for y in groups[b]:
                        vals[x, y] = vals[y, x] = len(merged)
        below[v] = merged
    return DistanceMatrix([lbl for lbl, _ in leaves], vals)


def reference_design_matrix(tree):
    """Reference: climb each pair's path edge by edge."""
    leaves = tree.sorted_leaves()
    n = len(leaves)
    parent, parent_edge, depth, _ = reference_orient(tree, tree.vertices[0])

    def path_edges(a, b):
        out, tail = [], []
        while depth[a] > depth[b]:
            out.append(parent_edge[a])
            a = parent[a]
        while depth[b] > depth[a]:
            tail.append(parent_edge[b])
            b = parent[b]
        while a != b:
            out.append(parent_edge[a])
            tail.append(parent_edge[b])
            a, b = parent[a], parent[b]
        return out + tail[::-1]

    rows = np.zeros((n * (n - 1) // 2, len(tree.edges)))
    iu, ju = np.triu_indices(n, 1)
    for k, (i, j) in enumerate(zip(iu, ju)):
        rows[k, path_edges(leaves[i][1], leaves[j][1])] = 1.0
    return rows


def reference_midpoint_root(tree):
    """Reference: walk the diameter path from its first leaf, splitting the
    straddling edge, from the Dijkstra leaf path lengths."""
    leaves, dist = dijkstra_leaf_path_lengths(tree)
    iu, ju = np.triu_indices(len(leaves), 1)
    k = int(np.argmax(dist[iu, ju]))
    total = float(dist[iu[k], ju[k]])
    va, vb = leaves[iu[k]][1], leaves[ju[k]][1]
    parent, _, _, _ = reference_orient(tree, va)
    path = [vb]
    while path[-1] != va:
        path.append(parent[path[-1]])
    path.reverse()
    target, acc, new_root = total / 2.0, 0.0, max(tree.vertices) + 1
    adj = {u: dict(nbrs) for u, nbrs in tree.adjacency().items()}
    for a, b in zip(path, path[1:]):
        w = adj[a][b]
        if acc == target:
            return replace(tree, leaf_labels=dict(tree.leaf_labels), root=a)
        if acc + w > target or (acc + w == target and b == vb):
            off = target - acc
            edges = tuple(e for e in tree.edges if {e[0], e[1]} != {a, b})
            edges += ((a, new_root, off), (new_root, b, w - off))
            return WeightedTree(tree.vertices + (new_root,), edges,
                                dict(tree.leaf_labels), root=new_root)
        acc += w
    return replace(tree, leaf_labels=dict(tree.leaf_labels), root=path[-1])


def reference_write_newick(tree):
    """Reference: render each subtree recursively, children in adjacency order."""
    if len(tree.vertices) == 1:
        return _format_label(tree.leaf_labels.get(tree.vertices[0], "")) + ";"
    adj = tree.adjacency()
    anchor = tree.root
    if anchor is None:
        internal = sorted(v for v in tree.vertices if len(adj[v]) >= 2)
        anchor = internal[0] if internal else min(tree.leaf_labels, key=tree.leaf_labels.get)

    def render(v, seen_from):
        kids = [(u, w) for u, w in adj[v] if u != seen_from]
        label = _format_label(tree.leaf_labels[v]) if v in tree.leaf_labels else ""
        if not kids:
            return label
        return "(" + ",".join(f"{render(u, v)}:{w!r}" for u, w in kids) + ")" + label

    return render(anchor, None) + ";"


def walk_reference_cases():
    """The leaf-metric cases plus random binary trees with n = 2 ... 40,
    single-linkage trees, a multifurcating parsed tree with zero-weight edges,
    and the midpoint root of every unrooted tree with two or more leaves."""
    cases = leaf_metric_cases() + [caterpillar(40)]
    cases += [random_binary_tree(n, 100 + n) for n in range(2, 41)]
    for n, seed in ((6, 40), (33, 41)):
        dm = graph_leaf_shortest_paths(add_noise_edges(random_binary_tree(n, seed), 0.3, seed))
        cases += [dendrogram_to_tree(linkage(dm, m)) for m in ("single", "average")]
    cases.append(parse_newick("((a:1,b:0,(c:2,d:0.5,e:1):0)x:3,f:1,(g:0,h:1):2);"))
    # All weights zero: the midpoint root is a labeled leaf.
    flat = random_binary_tree(6, 42)
    cases += [WeightedTree((0, 1), ((0, 1, 0.0),), {0: "a", 1: "b"}),
              WeightedTree(flat.vertices, tuple((u, v, 0.0) for u, v, _ in flat.edges),
                           dict(flat.leaf_labels))]
    return cases + [
        midpoint_root(t) for t in cases if t.root is None and t.n_leaves >= 2
    ]


class TestWalkMatchesReference:
    """Every operation built on the one preorder walk gives bit-for-bit the
    output of the reference traversals above."""

    def test_design_matrix(self):
        for t in walk_reference_cases():
            got, ref = design_matrix(t), reference_design_matrix(t)
            assert got.shape == ref.shape and got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes()

    def test_midpoint_root(self):
        cases = [t for t in walk_reference_cases() if t.root is None and t.n_leaves >= 2]
        assert len(cases) > 60
        for t in cases:
            got, ref = midpoint_root(t), reference_midpoint_root(t)
            assert (got.vertices, got.edges, got.root) == (ref.vertices, ref.edges, ref.root)

    def test_clan_sizes_and_lca(self):
        rng = np.random.default_rng(25)
        rooted = [t for t in walk_reference_cases() if t.root is not None]
        assert len(rooted) > 80
        for t in rooted:
            got, ref = lca_clan_sizes(t), reference_lca_clan_sizes(t)
            assert got.labels == ref.labels
            assert got.values.tobytes() == ref.values.tobytes()
            for i, j in rng.choice(t.vertices, (20, 2)):
                assert lca(t, int(i), int(j)) == reference_lca(t, int(i), int(j))

    def test_write_newick(self):
        for t in walk_reference_cases():
            assert write_newick(t) == reference_write_newick(t)

    def test_parse_newick_ids_and_edge_order(self):
        # Vertex ids in text order (preorder); a child's edge follows its
        # subtree's edges; internal labels are dropped.
        t = parse_newick("((a:1,b:2)x:3,c:4,(d:5)e:6);")
        assert t.vertices == (0, 1, 2, 3, 4, 5, 6)
        assert t.edges == ((1, 2, 1.0), (1, 3, 2.0), (0, 1, 3.0), (0, 4, 4.0),
                           (5, 6, 5.0), (0, 5, 6.0))
        assert t.leaf_labels == {2: "a", 3: "b", 4: "c", 6: "d"}
        assert t.root is None


class TestLeafDistanceMatrix:
    def test_single_edge(self):
        t = WeightedTree((0, 1), ((0, 1, 3.0),), {0: "a", 1: "b"})
        assert leaf_distance_matrix(t).values[0, 1] == 3.0

    def test_quartet_hand_values(self):
        dm = leaf_distance_matrix(quartet_tree())
        assert dm.labels == ["a", "b", "c", "d"]
        expect = np.array(
            [[0, 2, 3, 3], [2, 0, 3, 3], [3, 3, 0, 2], [3, 3, 2, 0]], dtype=float
        )
        assert np.allclose(dm.values, expect)

    def test_zero_weight_edges_hand_values(self):
        dm = leaf_distance_matrix(zero_edge_tree())
        assert dm.labels == ["a", "b", "c", "d"]
        expect = np.array(
            [[0, 1, 2, 0], [1, 0, 3, 1], [2, 3, 0, 2], [0, 1, 2, 0]], dtype=float
        )
        assert np.array_equal(dm.values, expect)

    def test_four_point_condition(self):
        rng = np.random.default_rng(20)
        for seed in range(5):
            t = random_binary_tree(int(rng.integers(4, 16)), seed)
            assert four_point_check(leaf_distance_matrix(t), 1e-9)

    def test_symmetric_zero_diagonal(self):
        t = random_binary_tree(10, 3)
        dm = leaf_distance_matrix(t)
        assert np.array_equal(dm.values, dm.values.T)
        assert np.all(np.diag(dm.values) == 0.0)


class TestLca:
    def test_self(self):
        t = rooted_triplet()
        assert lca(t, 0, 0) == 0

    def test_triplet(self):
        t = rooted_triplet()
        assert lca(t, 0, 1) == 3
        assert lca(t, 0, 2) == 4

    def test_unrooted_rejected(self):
        with pytest.raises(ValueError, match="root"):
            lca(quartet_tree(), 0, 1)

    def test_unknown_vertex_rejected(self):
        with pytest.raises(ValueError):
            lca(rooted_triplet(), 0, 99)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(21)
        for seed in range(5):
            t = midpoint_root(random_binary_tree(8, seed))
            adj = t.adjacency()
            parent = {t.root: None}
            order = [t.root]
            for v in order:
                for u, _ in adj[v]:
                    if u not in parent:
                        parent[u] = v
                        order.append(u)

            def ancestors(v):
                out = []
                while v is not None:
                    out.append(v)
                    v = parent[v]
                return out

            leaves = list(t.leaf_labels)
            for _ in range(10):
                i, j = rng.choice(leaves, 2)
                up_i = ancestors(int(i))
                up_j = set(ancestors(int(j)))
                expected = next(v for v in up_i if v in up_j)
                assert lca(t, int(i), int(j)) == expected


class TestClanSizesAndDasgupta:
    def test_triplet_clan_sizes(self):
        clans = lca_clan_sizes(rooted_triplet())
        assert clans.labels == ["a", "b", "c"]
        assert clans.values[0, 1] == 2.0
        assert clans.values[0, 2] == 3.0
        assert clans.values[1, 2] == 3.0

    def test_balanced_quartet(self):
        t = midpoint_root(quartet_tree())
        clans = lca_clan_sizes(t)
        assert clans.values[clans.labels.index("a"), clans.labels.index("b")] == 2.0
        assert clans.values[clans.labels.index("a"), clans.labels.index("c")] == 4.0

    def test_entries_in_range(self):
        t = midpoint_root(random_binary_tree(12, 5))
        clans = lca_clan_sizes(t)
        off = clans.pair_vector()
        assert off.min() >= 2.0
        assert off.max() <= 12.0
        assert np.array_equal(off, off.astype(int).astype(float))

    def test_dasgupta_hand_value(self):
        dm = DistanceMatrix(["a", "b", "c"], [[0, 1, 2], [1, 0, 2], [2, 2, 0]])
        assert dasgupta_cost(rooted_triplet(), dm) == 14.0

    def test_dasgupta_two_leaves(self):
        t = WeightedTree((0, 1, 2), ((0, 2, 1.0), (1, 2, 1.0)), {0: "a", 1: "b"}, root=2)
        dm = DistanceMatrix(["a", "b"], [[0, 3], [3, 0]])
        assert dasgupta_cost(t, dm) == 6.0

    def test_dasgupta_scaling(self):
        dm = DistanceMatrix(["a", "b", "c"], [[0, 1, 2], [1, 0, 2], [2, 2, 0]])
        base = dasgupta_cost(rooted_triplet(), dm)
        assert dasgupta_cost(rooted_triplet(), dm.scaled(3.0)) == 3.0 * base

    def test_dasgupta_needs_root(self):
        dm = leaf_distance_matrix(quartet_tree())
        with pytest.raises(ValueError):
            dasgupta_cost(quartet_tree(), dm)


class TestDesignMatrix:
    def test_two_leaf(self):
        t = WeightedTree((0, 1), ((0, 1, 3.0),), {0: "a", 1: "b"})
        d = design_matrix(t)
        assert d.shape == (1, 1)
        assert d[0, 0] == 1.0

    def test_star_rows(self):
        t = WeightedTree(
            (0, 1, 2, 3),
            ((0, 3, 1.0), (1, 3, 1.0), (2, 3, 1.0)),
            {0: "a", 1: "b", 2: "c"},
        )
        d = design_matrix(t)
        assert d.shape == (3, 3)
        assert np.all(d.sum(axis=1) == 2.0)

    def test_reproduces_leaf_matrix(self):
        # Rows in pair_vector order of the sorted labels, columns in edge
        # order: labels here are not in vertex order, and the trees' edges
        # are listed in several orders.
        trees = [caterpillar(9), zero_edge_tree(), parse_newick("((z:1,b:2):0.5,(y:3,a:4):1);")]
        for seed in range(6):
            t = random_binary_tree(12, seed)
            dm = leaf_distance_matrix(t)
            nj, _ = neighbor_joining(dm.reordered(dm.labels[::-1]))
            trees += [t, midpoint_root(t), nj, replace(t, edges=t.edges[::-1])]
        for t in trees:
            d = design_matrix(t)
            assert d.dtype == np.float64
            w = np.array([e[2] for e in t.edges])
            np.testing.assert_allclose(
                d @ w, leaf_distance_matrix(t).pair_vector(), rtol=1e-12, atol=0.0
            )


def projected_gradient_oracle(A, b, iters=300000):
    """Independent slow solver for min ||Aw - b||, w >= 0."""
    step = 1.0 / np.linalg.norm(A, 2) ** 2
    w = np.zeros(A.shape[1])
    for _ in range(iters):
        nxt = np.clip(w - step * (A.T @ (A @ w - b)), 0.0, None)
        if np.max(np.abs(nxt - w)) < 1e-13:
            return nxt
        w = nxt
    return w


class TestFitEdgeWeights:
    def test_exact_recovery(self):
        t = random_binary_tree(8, 2)
        dm = leaf_distance_matrix(t)
        fitted = fit_edge_weights(t, dm)
        assert np.allclose(
            leaf_distance_matrix(fitted).values, dm.values, atol=1e-9
        )

    def test_star_hand_solution(self):
        t = WeightedTree(
            (0, 1, 2, 3),
            ((0, 3, 0.0), (1, 3, 0.0), (2, 3, 0.0)),
            {0: "a", 1: "b", 2: "c"},
        )
        dm = DistanceMatrix(["a", "b", "c"], [[0, 2, 2], [2, 0, 2], [2, 2, 0]])
        fitted = fit_edge_weights(t, dm)
        assert np.allclose([e[2] for e in fitted.edges], 1.0, atol=1e-12)

    def test_matches_projected_gradient_oracle(self):
        rng = np.random.default_rng(22)
        for seed in range(4):
            t = random_binary_tree(5, seed)
            dm = leaf_distance_matrix(t)
            bump = 0.2 * np.triu(rng.standard_normal(dm.values.shape), 1)
            noisy = DistanceMatrix(dm.labels, np.abs(dm.values + bump + bump.T))
            # A degree-2 root makes A^T A singular: its two edges share every path.
            for tree in (t, midpoint_root(t), dendrogram_to_tree(linkage(noisy, "average"))):
                fitted = fit_edge_weights(tree, noisy)
                d = design_matrix(tree)
                target = noisy.reordered([lbl for lbl, _ in tree.sorted_leaves()]).pair_vector()
                w_oracle = projected_gradient_oracle(d, target)
                obj = np.linalg.norm(d @ np.array([e[2] for e in fitted.edges]) - target)
                obj_oracle = np.linalg.norm(d @ w_oracle - target)
                assert obj <= obj_oracle + 1e-6

    def test_never_negative_never_worse_than_zero(self):
        rng = np.random.default_rng(23)
        t = random_binary_tree(7, 9)
        vals = np.abs(np.triu(rng.standard_normal((7, 7)), 1))
        dm = DistanceMatrix([lbl for lbl, _ in t.sorted_leaves()], vals + vals.T)
        fitted = fit_edge_weights(t, dm)
        weights = np.array([e[2] for e in fitted.edges])
        assert np.all(weights >= 0.0)
        fit_lm = leaf_distance_matrix(fitted).reordered(dm.labels)
        zero_cost = lp_cost(DistanceMatrix(dm.labels, np.zeros_like(dm.values)), dm)
        assert lp_cost(fit_lm, dm) <= zero_cost


class TestFitEdgeWeightsAtScale:
    @staticmethod
    def noisy_case(n, seed):
        t = random_binary_tree(n, seed)
        return t, graph_leaf_shortest_paths(add_noise_edges(t, 0.3, seed + 1))

    def test_objective_matches_dense_nnls(self):
        t, dm = self.noisy_case(64, 5)
        for tree in (t, midpoint_root(t), neighbor_joining(dm)[0]):
            a = design_matrix(tree)
            d = dm.reordered([lbl for lbl, _ in tree.sorted_leaves()]).pair_vector()
            w = np.array([e[2] for e in fit_edge_weights(tree, dm).edges])
            dense = scipy.optimize.nnls(a, d)[1]
            assert abs(np.linalg.norm(a @ w - d) - dense) <= 1e-9 * (1 + np.linalg.norm(d))

    def test_memory_without_pair_by_edge_matrix(self):
        # The dense 32640 x 509 design matrix alone would take 127 MiB.
        t, dm = self.noisy_case(256, 7)
        tracemalloc.start()
        try:
            fit_edge_weights(t, dm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_edges_on_no_leaf_path_get_zero_weight(self):
        # Vertex 9 is an unlabeled leaf; listed first, its edge separates all
        # leaves from none.
        dm = DistanceMatrix(["a", "b", "c"], [[0, 2, 2], [2, 0, 2], [2, 2, 0]])
        edges = ((0, 3, 0.0), (1, 3, 0.0), (3, 9, 5.0), (2, 3, 0.0))
        for verts in ((0, 1, 2, 3, 9), (9, 3, 0, 1, 2)):
            fitted = fit_edge_weights(WeightedTree(verts, edges, {0: "a", 1: "b", 2: "c"}), dm)
            assert np.allclose([w for _, _, w in fitted.edges], [1, 1, 0, 1], atol=1e-12)
            assert fitted.edges[2][2] == 0.0

    def test_fewer_than_two_leaves_rejected(self):
        one = DistanceMatrix(["a"], [[0.0]])
        for t in (WeightedTree((0,), (), {0: "a"}),
                  WeightedTree((5, 0), ((0, 5, 0.5),), {0: "a"})):
            with pytest.raises(ValueError, match="at least two labeled leaves"):
                fit_edge_weights(t, one)


class TestDeepTrees:
    """Newick I/O keeps no Python frame per tree level."""

    def test_caterpillar_round_trip(self):
        t = caterpillar(2000, first=2000)
        text = write_newick(t)
        back = parse_newick(text)
        assert write_newick(back) == text
        assert back.leaf_labels.values() and sorted(back.leaf_labels.values()) == sorted(
            t.leaf_labels.values())
        assert sorted(w for _, _, w in back.edges) == sorted(w for _, _, w in t.edges)

    def test_single_linkage_chain_round_trip(self):
        # Gaps grow along the line, so single linkage merges the points one
        # by one into a 400-level chain.
        x = np.arange(400) + np.linspace(0, 0.5, 400) ** 2
        dm = DistanceMatrix([f"p{i:03d}" for i in range(400)], np.abs(x[:, None] - x))
        t = dendrogram_to_tree(linkage(dm, "single"))
        text = write_newick(t)
        back = parse_newick(text)
        assert back.root is not None
        assert write_newick(back) == text
        assert np.array_equal(leaf_distance_matrix(back).values, leaf_distance_matrix(t).values)


class TestRooting:
    def test_trim_two_leaf(self):
        t = WeightedTree(
            (0, 1, 2), ((0, 2, 1.0), (1, 2, 2.0)), {0: "a", 1: "b"}, root=2
        )
        out = trim_root(t)
        assert out.root is None
        assert len(out.edges) == 1
        assert out.edges[0][2] == 3.0

    def test_trim_preserves_distances(self):
        for seed in range(5):
            t = midpoint_root(random_binary_tree(9, seed))
            before = leaf_distance_matrix(t).values
            after = leaf_distance_matrix(trim_root(t)).values
            assert np.allclose(before, after, atol=1e-12)

    def test_trim_requires_degree_two_root(self):
        with pytest.raises(ValueError):
            trim_root(quartet_tree())

    def test_midpoint_path_tree(self):
        # effectively the path a - b - c with weights 1, 3 (leaf b hangs off
        # the middle vertex by a zero edge): root splits (b, c) into 1 + 2
        t = WeightedTree(
            (0, 1, 2, 3),
            ((0, 1, 1.0), (1, 2, 3.0), (1, 3, 0.0)),
            {0: "a", 2: "c", 3: "b"},
        )
        rooted = midpoint_root(t)
        assert rooted.root is not None
        incident = sorted(w for u, v, w in rooted.edges if rooted.root in (u, v))
        assert incident == [1.0, 2.0]
        assert np.allclose(
            leaf_distance_matrix(rooted).values, leaf_distance_matrix(t).values,
            atol=1e-12,
        )

    def test_midpoint_through_zero_weight_edges(self):
        # diameter b - c = 1 + 0 + 2; its midpoint lies 0.5 past vertex 9 on
        # the edge (9, c), which is split by the new vertex 10
        t = zero_edge_tree()
        rooted = midpoint_root(t)
        assert rooted.root == 10
        assert (9, 10, 0.5) in rooted.edges and (10, 2, 1.5) in rooted.edges
        assert (9, 2, 2.0) not in rooted.edges
        assert np.array_equal(
            leaf_distance_matrix(rooted).values, leaf_distance_matrix(t).values
        )

    def test_midpoint_symmetric_quartet(self):
        rooted = midpoint_root(quartet_tree())
        incident = sorted(w for u, v, w in rooted.edges if rooted.root in (u, v))
        assert incident == [0.5, 0.5]

    def test_midpoint_two_leaf(self):
        t = WeightedTree((0, 1), ((0, 1, 6.0),), {0: "a", 1: "b"})
        rooted = midpoint_root(t)
        incident = sorted(w for u, v, w in rooted.edges if rooted.root in (u, v))
        assert incident == [3.0, 3.0]

    def test_midpoint_root_and_metric_match_separate_calls(self):
        rng = np.random.default_rng(17)
        trees = [zero_edge_tree(), quartet_tree()]
        for seed in range(6):
            t = random_binary_tree(int(rng.integers(2, 40)), seed)
            # clamp some weights to zero, as Neighbor Joining does
            zero = rng.random(len(t.edges)) < 0.3
            edges = tuple((u, v, 0.0 if z else w) for (u, v, w), z in zip(t.edges, zero))
            trees += [t, WeightedTree(t.vertices, edges, dict(t.leaf_labels))]
        for t in trees:
            rooted, pairs = midpoint_root_and_metric(t)
            alone = midpoint_root(t)
            assert (rooted.edges, rooted.root) == (alone.edges, alone.root)
            assert pairs.tobytes() == leaf_distance_matrix(t).pair_vector().tobytes()

    def test_midpoint_root_and_metric_validation(self):
        with pytest.raises(ValueError):
            midpoint_root_and_metric(rooted_triplet())
        with pytest.raises(ValueError):
            midpoint_root_and_metric(WeightedTree((0,), (), {0: "a"}))

    def test_trim_midpoint_roundtrip(self):
        for seed in range(4):
            t = midpoint_root(random_binary_tree(8, seed))
            again = midpoint_root(trim_root(t))
            assert np.allclose(
                leaf_distance_matrix(t).values,
                leaf_distance_matrix(again).values,
                atol=1e-12,
            )


class TestTreeDistance:
    def test_identical_zero(self):
        t = quartet_tree()
        assert tree_distance(t, t) == 0.0

    def test_quartet_topologies(self):
        # ab|cd vs ac|bd on unit edges: frozen brute-force value 1/3
        t1 = quartet_tree()
        t2 = WeightedTree(
            vertices=(0, 1, 2, 3, 4, 5),
            edges=((0, 4, 1.0), (2, 4, 1.0), (4, 5, 1.0), (1, 5, 1.0), (3, 5, 1.0)),
            leaf_labels={0: "a", 1: "b", 2: "c", 3: "d"},
        )
        assert tree_distance(t1, t2) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_reweighting_invariant(self):
        t1 = quartet_tree()
        scaled = WeightedTree(
            t1.vertices,
            tuple((u, v, 7.0 * w) for u, v, w in t1.edges),
            dict(t1.leaf_labels),
        )
        other = random_binary_tree(4, 0)
        relabeled = WeightedTree(
            other.vertices,
            other.edges,
            {v: lbl for (v, _), lbl in zip(sorted(other.leaf_labels.items()), "abcd")},
        )
        assert tree_distance(t1, relabeled) == tree_distance(scaled, relabeled)

    def test_unit_edges_give_edge_counts(self):
        # zero_edge_tree: a-7, b-7, 7-9, 9-c, 9-d.
        hops = [[0, 2, 3, 3], [2, 0, 3, 3], [3, 3, 0, 2], [3, 3, 2, 0]]
        assert np.array_equal(leaf_distance_matrix(unit_edges(zero_edge_tree())).values, hops)
        for t in (caterpillar(17), midpoint_root(random_binary_tree(33, 4))):
            unit = unit_edges(t)
            assert (unit.vertices, unit.leaf_labels, unit.root) == (
                t.vertices, t.leaf_labels, t.root)
            assert [e[:2] for e in unit.edges] == [e[:2] for e in t.edges]
            d = leaf_distance_matrix(unit).values
            assert np.array_equal(d, np.round(d)) and d.max() >= 2.0

    def test_leaf_set_mismatch(self):
        t1 = quartet_tree()
        t2 = WeightedTree((0, 1), ((0, 1, 1.0),), {0: "a", 1: "b"})
        with pytest.raises(ValueError):
            tree_distance(t1, t2)

    def test_one_leaf_rejected(self):
        t = WeightedTree((0,), (), {0: "a"})
        with pytest.raises(ValueError, match="at least two leaves"):
            tree_distance(t, t)


class TestConvexity:
    def test_convex_combination_inequality(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            t = random_binary_tree(int(rng.integers(4, 10)), int(rng.integers(100)))
            d = design_matrix(t)
            target = leaf_distance_matrix(t).pair_vector() + 0.3 * rng.standard_normal(
                d.shape[0]
            )
            w1 = rng.random(d.shape[1])
            w2 = rng.random(d.shape[1])
            lam = float(rng.random())
            for p in (1.0, 2.0):
                def cost(w):
                    return float(
                        np.sum(np.abs(d @ w - target) ** p) ** (1.0 / p)
                    )
                mixed = cost(lam * w1 + (1 - lam) * w2)
                assert mixed <= lam * cost(w1) + (1 - lam) * cost(w2) + 1e-12


class TestNewick:
    def test_round_trip_unrooted(self):
        for seed in range(5):
            t = random_binary_tree(7, seed)
            back = parse_newick(write_newick(t))
            assert sorted(back.leaf_labels.values()) == sorted(t.leaf_labels.values())
            assert np.allclose(
                leaf_distance_matrix(back).values,
                leaf_distance_matrix(t).values,
                atol=1e-12,
            )

    def test_round_trip_rooted(self):
        t = midpoint_root(random_binary_tree(6, 3))
        back = parse_newick(write_newick(t))
        assert back.root is not None
        assert np.allclose(
            leaf_distance_matrix(back).values, leaf_distance_matrix(t).values,
            atol=1e-12,
        )

    def test_weights_exact(self):
        t = WeightedTree(
            (0, 1, 2),
            ((0, 2, 0.1), (1, 2, 1.0 / 3.0)),
            {0: "a", 1: "b"},
            root=2,
        )
        back = parse_newick(write_newick(t))
        assert sorted(w for _, _, w in back.edges) == sorted(
            w for _, _, w in t.edges
        )

    def test_quoted_labels(self):
        t = WeightedTree(
            (0, 1), ((0, 1, 2.0),), {0: "taxon (1), 'odd'", 1: "plain"}
        )
        back = parse_newick(write_newick(t))
        assert sorted(back.leaf_labels.values()) == sorted(t.leaf_labels.values())

    def test_two_leaf_round_trip(self):
        t = WeightedTree((0, 1), ((0, 1, 3.0),), {0: "A", 1: "B"})
        text = write_newick(t)
        back = parse_newick(text)
        assert len(back.vertices) == 2
        assert leaf_distance_matrix(back).values[0, 1] == 3.0

    def test_parse_errors(self):
        with pytest.raises(TreeStructureError):
            parse_newick("(a:1,b:2)")  # missing semicolon
        with pytest.raises(TreeStructureError):
            parse_newick("(a:1,b:2;")  # unbalanced
