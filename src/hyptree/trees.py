"""Weighted trees over labeled leaves and the operations the pipeline needs.

Covers leaf-to-leaf metrics, LCA and clan sizes, the Dasgupta cost, the
pair-by-edge path-incidence matrix with nonnegative least-squares weight
fitting, midpoint rooting, root trimming, and a unit-edge tree-to-tree
distance for topology comparisons.  Leaf metrics need no graph search: a
tree has one path between two vertices, so two propagation passes over its
vertices give every leaf-to-leaf path length.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np
import scipy.optimize

from .metrics import DistanceMatrix


class TreeStructureError(ValueError):
    """Raised when an edge list does not describe the required tree shape."""


@dataclass
class WeightedTree:
    """Tree with nonnegative edge weights and externally labeled leaves.

    ``leaf_labels`` maps leaf vertex ids to entity names; internal vertices
    carry no labels.  Instances are treated as immutable: operations return
    new trees.  Zero edge weights are permitted.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, float], ...]
    leaf_labels: dict[int, str]
    root: int | None = None

    def __post_init__(self):
        self.vertices = tuple(int(v) for v in self.vertices)
        self.edges = tuple((int(u), int(v), float(w)) for u, v, w in self.edges)
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise TreeStructureError("duplicate vertex ids")
        if len(self.edges) != len(self.vertices) - 1:
            raise TreeStructureError(
                f"{len(self.edges)} edges for {len(self.vertices)} vertices; "
                "a tree needs exactly |V| - 1"
            )
        deg: dict[int, int] = {v: 0 for v in self.vertices}
        for u, v, w in self.edges:
            if u not in vs or v not in vs:
                raise TreeStructureError(f"edge ({u}, {v}) references unknown vertex")
            if u == v:
                raise TreeStructureError(f"self-loop at vertex {u}")
            if not math.isfinite(w) or w < 0.0:
                raise TreeStructureError(f"edge ({u}, {v}) has invalid weight {w}")
            deg[u] += 1
            deg[v] += 1
        if self.vertices and not self._connected():
            raise TreeStructureError("edge list is disconnected")
        labels = list(self.leaf_labels.values())
        if len(set(labels)) != len(labels):
            raise TreeStructureError("duplicate leaf labels")
        for v in self.leaf_labels:
            if v not in vs:
                raise TreeStructureError(f"labeled vertex {v} does not exist")
            if len(self.vertices) > 1 and deg[v] != 1:
                raise TreeStructureError(f"labeled vertex {v} is not a leaf")
        if self.root is not None and self.root not in vs:
            raise TreeStructureError(f"root {self.root} does not exist")

    def _connected(self) -> bool:
        adj = self.adjacency()
        seen = {self.vertices[0]}
        queue = deque(seen)
        while queue:
            u = queue.popleft()
            for v, _ in adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return len(seen) == len(self.vertices)

    def adjacency(self) -> dict[int, list[tuple[int, float]]]:
        adj: dict[int, list[tuple[int, float]]] = {v: [] for v in self.vertices}
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_labels)

    def sorted_leaves(self) -> list[tuple[str, int]]:
        """(label, vertex) pairs in label order."""
        return sorted((lbl, v) for v, lbl in self.leaf_labels.items())


@dataclass(frozen=True)
class DesignMatrix:
    """Path-incidence matrix: one row per unordered leaf pair, one column per edge."""

    pairs: tuple[tuple[str, str], ...]
    edge_ends: tuple[tuple[int, int], ...]
    matrix: np.ndarray


def _leaf_path_lengths(tree: WeightedTree, unit: bool = False):
    """Labeled leaves in label order and their leaf-to-leaf path lengths.

    The tree is rooted at ``vertices[0]`` and walked in preorder, so the
    labeled leaves of every subtree take one contiguous range of source
    columns.  Row v of a |V| x n_leaves array holds the path length from
    every source leaf to v.  A bottom-up pass fills the sources inside each
    subtree (row parent(v) = row v + w), then a top-down pass fills the
    sources outside it (row v = row parent(v) + w).  Each entry is thus
    summed edge by edge outward from its source leaf, as Dijkstra's
    relaxation sums it, so entry (i, j) may differ from (j, i) in the last
    bit.  With ``unit=True`` every edge counts 1 regardless of its weight.
    """
    leaves = tree.sorted_leaves()
    adj = tree.adjacency()
    # Popping a vertex pushes its children, so its whole subtree is popped
    # before anything below it on the stack: the pop order is a preorder.
    # Per position k in it: the parent's position, the weight of the edge to
    # the parent, and lo[k], the first source column in the subtree.
    up, weight, lo, at = [], [], [], {}
    seen = {tree.vertices[0]}
    stack = [(tree.vertices[0], -1, 0.0)]
    while stack:
        u, p, w = stack.pop()
        k = len(up)
        up.append(p)
        weight.append(1.0 if unit else w)
        lo.append(len(at))
        if u in tree.leaf_labels:
            at[u] = k
        for v, wv in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append((v, k, wv))
    m = len(up)
    dist = np.empty((m, len(at)))
    for k in at.values():
        dist[k, lo[k]] = 0.0
    # hi[k], one past the last source column in the subtree, is final once
    # every later position (all of k's descendants) has been visited.
    hi = lo[1:] + [len(at)]
    for k in range(m - 1, 0, -1):
        np.add(dist[k, lo[k] : hi[k]], weight[k], out=dist[up[k], lo[k] : hi[k]])
        hi[up[k]] = max(hi[up[k]], hi[k])
    for k in range(1, m):
        np.add(dist[up[k], : lo[k]], weight[k], out=dist[k, : lo[k]])
        np.add(dist[up[k], hi[k] :], weight[k], out=dist[k, hi[k] :])
    rows = [at[v] for _, v in leaves]
    return leaves, np.ascontiguousarray(dist[np.ix_(rows, [lo[k] for k in rows])].T)


def leaf_distance_matrix(tree: WeightedTree, unit: bool = False) -> DistanceMatrix:
    """Pairwise path distances between labeled leaves, labels in sorted order.

    With ``unit=True`` every edge counts 1 regardless of its weight.
    """
    return _symmetrised(*_leaf_path_lengths(tree, unit=unit))


def _symmetrised(leaves, dist) -> DistanceMatrix:
    return DistanceMatrix([lbl for lbl, _ in leaves], (dist + dist.T) / 2.0)


def _orient(tree: WeightedTree, root: int):
    """Parent pointers, parent edge index, and depth for every vertex."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in tree.vertices}
    for k, (u, v, _) in enumerate(tree.edges):
        adj[u].append((v, k))
        adj[v].append((u, k))
    parent = {root: None}
    parent_edge = {root: None}
    depth = {root: 0}
    order = [root]
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v, k in adj[u]:
            if v not in parent:
                parent[v] = u
                parent_edge[v] = k
                depth[v] = depth[u] + 1
                order.append(v)
                queue.append(v)
    return parent, parent_edge, depth, order


def lca(tree: WeightedTree, i: int, j: int) -> int:
    """Lowest common ancestor of two vertices in a rooted tree."""
    if tree.root is None:
        raise ValueError("tree has no root; use midpoint_root first")
    if i not in set(tree.vertices) or j not in set(tree.vertices):
        raise ValueError(f"unknown vertex in lca query ({i}, {j})")
    parent, _, depth, _ = _orient(tree, tree.root)
    a, b = i, j
    while depth[a] > depth[b]:
        a = parent[a]
    while depth[b] > depth[a]:
        b = parent[b]
    while a != b:
        a = parent[a]
        b = parent[b]
    return a


def lca_clan_sizes(tree: WeightedTree) -> DistanceMatrix:
    """Matrix of |{leaves under lca(i, j)}| for all labeled leaf pairs.

    Diagonal is 0.  Off-diagonal entries are integers in [2, n].
    """
    if tree.root is None:
        raise ValueError("clan sizes need a rooted tree")
    leaves = tree.sorted_leaves()
    labels = [lbl for lbl, _ in leaves]
    leaf_pos = {v: i for i, (_, v) in enumerate(leaves)}
    n = len(leaves)
    vals = np.zeros((n, n))
    parent, _, _, order = _orient(tree, tree.root)
    # Post-order accumulation of the leaf set below each vertex; pairs split
    # across two child subtrees meet exactly at that vertex.
    below: dict[int, list[int]] = {v: [] for v in tree.vertices}
    children: dict[int, list[int]] = {v: [] for v in tree.vertices}
    for v in order:
        if parent[v] is not None:
            children[parent[v]].append(v)
    for v in reversed(order):
        groups = [below[c] for c in children[v]]
        if v in leaf_pos:
            groups.append([leaf_pos[v]])
        merged: list[int] = []
        for g in groups:
            merged.extend(g)
        clan = len(merged)
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                for x in groups[a]:
                    for y in groups[b]:
                        vals[x, y] = clan
                        vals[y, x] = clan
        below[v] = merged
    return DistanceMatrix(labels, vals)


def dasgupta_cost(tree: WeightedTree, dm: DistanceMatrix) -> float:
    """Sum over unordered leaf pairs of (clan size at the lca) * dissimilarity.

    Purely topological: edge weights of the tree are ignored.  For
    dissimilarity inputs, better hierarchies score higher.
    """
    if tree.root is None:
        raise ValueError("the Dasgupta cost needs a rooted tree")
    clans = lca_clan_sizes(tree)
    if clans.labels != sorted(dm.labels):
        raise ValueError("tree leaves do not match matrix labels")
    target = dm.reordered(clans.labels) if dm.labels != clans.labels else dm
    return float(np.sum(clans.pair_vector() * target.pair_vector()))


def design_matrix(tree: WeightedTree) -> DesignMatrix:
    """0/1 incidence of edges on leaf-to-leaf paths, so that A @ w = d_T."""
    leaves = tree.sorted_leaves()
    n = len(leaves)
    anchor = tree.vertices[0]
    parent, parent_edge, depth, _ = _orient(tree, anchor)
    n_edges = len(tree.edges)

    def path_edges(a: int, b: int) -> list[int]:
        out = []
        while depth[a] > depth[b]:
            out.append(parent_edge[a])
            a = parent[a]
        tail = []
        while depth[b] > depth[a]:
            tail.append(parent_edge[b])
            b = parent[b]
        while a != b:
            out.append(parent_edge[a])
            tail.append(parent_edge[b])
            a = parent[a]
            b = parent[b]
        return out + tail[::-1]

    pairs = []
    rows = np.zeros((n * (n - 1) // 2, n_edges))
    r = 0
    for i in range(n):
        for j in range(i + 1, n):
            pairs.append((leaves[i][0], leaves[j][0]))
            rows[r, path_edges(leaves[i][1], leaves[j][1])] = 1.0
            r += 1
    return DesignMatrix(tuple(pairs), tuple((u, v) for u, v, _ in tree.edges), rows)


def _projected_gradient_nnls(A: np.ndarray, b: np.ndarray, iters: int = 20000) -> np.ndarray:
    """Slow but dependable fallback: projected gradient on ||Aw - b||^2, w >= 0."""
    step = 1.0 / max(float(np.linalg.norm(A, 2)) ** 2, 1e-30)
    w = np.zeros(A.shape[1])
    for _ in range(iters):
        g = A.T @ (A @ w - b)
        w_new = np.clip(w - step * g, 0.0, None)
        if np.max(np.abs(w_new - w)) < 1e-14:
            return w_new
        w = w_new
    return w


def fit_edge_weights(tree: WeightedTree, dm: DistanceMatrix, p: float = 2.0) -> WeightedTree:
    """Refit edge weights to minimize ||A_T w - d||_p over w >= 0, keeping topology.

    Only p = 2 is implemented (nonnegative least squares); the objective is
    convex in w, so the solver's optimum never exceeds the input weights' cost.
    """
    if p != 2.0:
        raise NotImplementedError("edge-weight fitting is implemented for p = 2 only")
    design = design_matrix(tree)
    tree_labels = [lbl for lbl, _ in tree.sorted_leaves()]
    if sorted(dm.labels) != tree_labels:
        raise ValueError("matrix labels do not match the topology's leaves")
    target = dm.reordered(tree_labels) if dm.labels != tree_labels else dm
    b = target.pair_vector()
    try:
        w, _ = scipy.optimize.nnls(design.matrix, b)
    except RuntimeError:
        w = _projected_gradient_nnls(design.matrix, b)
    w = np.clip(w, 0.0, None)
    new_edges = tuple((u, v, float(wk)) for (u, v, _), wk in zip(tree.edges, w))
    return replace(tree, edges=new_edges, leaf_labels=dict(tree.leaf_labels))


def trim_root(tree: WeightedTree) -> WeightedTree:
    """Remove a degree-2 root, bridging its two edges into one of summed weight.

    Leaf-to-leaf distances are unchanged.
    """
    if tree.root is None:
        raise ValueError("tree has no root to trim")
    incident = [(u, v, w) for u, v, w in tree.edges if tree.root in (u, v)]
    if len(incident) != 2:
        raise ValueError(f"root has degree {len(incident)}, expected 2")
    (u1, v1, w1), (u2, v2, w2) = incident
    a = v1 if u1 == tree.root else u1
    b = v2 if u2 == tree.root else u2
    edges = tuple(e for e in tree.edges if tree.root not in e[:2]) + ((a, b, w1 + w2),)
    vertices = tuple(v for v in tree.vertices if v != tree.root)
    return WeightedTree(vertices, edges, dict(tree.leaf_labels), root=None)


def midpoint_root(tree: WeightedTree) -> WeightedTree:
    """Root at the midpoint of the longest leaf-to-leaf path.

    Among diameter-achieving pairs the lexicographically smallest label pair
    wins.  If the midpoint falls exactly on a vertex that vertex becomes the
    root; otherwise the straddling edge is split in two.
    """
    return _root_at_midpoint(tree, *_leaf_path_lengths(tree))


def midpoint_root_and_metric(tree: WeightedTree) -> tuple[WeightedTree, DistanceMatrix]:
    """``midpoint_root(tree)`` and ``leaf_distance_matrix(tree)`` from one
    leaf path-length pass.

    The metric is that of the unrooted input.  In exact arithmetic it equals
    the rooted tree's metric; splitting an edge can change the latter's path
    sums in the last bit.
    """
    leaves, dist = _leaf_path_lengths(tree)
    return _root_at_midpoint(tree, leaves, dist), _symmetrised(leaves, dist)


def _root_at_midpoint(tree: WeightedTree, leaves, dist: np.ndarray) -> WeightedTree:
    """Midpoint rooting given the raw (unsymmetrised) leaf path lengths."""
    if tree.root is not None:
        raise ValueError("tree is already rooted; trim_root it first")
    if tree.n_leaves < 2:
        raise ValueError("midpoint rooting needs at least two labeled leaves")
    # Row-major upper-triangle order visits pairs in label order, so argmax,
    # which returns the first maximum, picks the lexicographically smallest
    # diameter pair.  The pair and the total come from the raw matrix: the
    # symmetrised one can round the diameter differently.
    iu, ju = np.triu_indices(len(leaves), 1)
    k = int(np.argmax(dist[iu, ju]))
    total = float(dist[iu[k], ju[k]])
    va, vb = leaves[iu[k]][1], leaves[ju[k]][1]

    # Path from va to vb as alternating vertices/edges.
    anchor = va
    parent, parent_edge, depth, _ = _orient(tree, anchor)
    path_vertices = [vb]
    v = vb
    while v != va:
        v = parent[v]
        path_vertices.append(v)
    path_vertices.reverse()  # va ... vb

    target = total / 2.0
    acc = 0.0
    new_root = max(tree.vertices) + 1
    adj = {u: {w: wt for w, wt in nbrs} for u, nbrs in tree.adjacency().items()}
    for a, b in zip(path_vertices, path_vertices[1:]):
        w = adj[a][b]
        if acc == target:
            return replace(tree, leaf_labels=dict(tree.leaf_labels), root=a)
        if acc + w > target or (acc + w == target and b == vb):
            off = target - acc
            edges = tuple(
                e for e in tree.edges if {e[0], e[1]} != {a, b}
            ) + ((a, new_root, off), (new_root, b, w - off))
            return WeightedTree(
                tree.vertices + (new_root,), edges, dict(tree.leaf_labels), root=new_root
            )
        acc += w
    # Midpoint coincides with the far endpoint only if total == 0.
    return replace(tree, leaf_labels=dict(tree.leaf_labels), root=path_vertices[-1])


def tree_distance(t1: WeightedTree, t2: WeightedTree) -> float:
    """Topology distance (2/(n(n-1))) * ||d_T1 - d_T2||_2 with unit edge lengths."""
    labels1 = [lbl for lbl, _ in t1.sorted_leaves()]
    labels2 = [lbl for lbl, _ in t2.sorted_leaves()]
    if labels1 != labels2:
        raise ValueError("trees are labeled over different leaf sets")
    n = len(labels1)
    d1 = leaf_distance_matrix(t1, unit=True).pair_vector()
    d2 = leaf_distance_matrix(t2, unit=True).pair_vector()
    return float(2.0 / (n * (n - 1)) * np.linalg.norm(d1 - d2))
