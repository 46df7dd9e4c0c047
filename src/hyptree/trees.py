"""Weighted trees over labeled leaves and the operations the pipeline needs.

Covers leaf-to-leaf metrics, LCA and clan sizes, the Dasgupta cost, the
pair-by-edge path-incidence matrix, nonnegative least-squares weight
fitting, midpoint rooting, root trimming, and a unit-edge tree-to-tree
distance for topology comparisons.  Every operation makes one preorder walk
(``_walk``), in which each subtree's labeled leaves take one contiguous range
of columns.  Leaf metrics are two propagation passes over it; the weight
refit builds its normal equations from subtree leaf counts in O(|E|^2)
memory, without the pair-by-edge matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .metrics import DistanceMatrix, upper_mask


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
        if len(_walk(self, self.vertices[0])[0]) != len(self.vertices):
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


def _walk(tree: WeightedTree, start: int) -> tuple[list[int], list[int], list[int]]:
    """Preorder walk from ``start``: per position, the vertex, its parent's
    position and its parent edge's index (-1 and -1 at the start).

    Popping a vertex pushes its children in adjacency order, so every subtree
    is popped as one contiguous range of positions after its root, children
    in reverse adjacency order.  Unreachable vertices are left out.
    """
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in tree.vertices}
    for e, (u, v, _) in enumerate(tree.edges):
        adj[u].append((v, e))
        adj[v].append((u, e))
    order, up, edge = [], [], []
    seen = {start}
    stack = [(start, -1, -1)]
    while stack:
        u, p, e = stack.pop()
        k = len(order)
        order.append(u)
        up.append(p)
        edge.append(e)
        for v, f in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append((v, k, f))
    return order, up, edge


def _leaf_ranges(tree: WeightedTree, order: list[int], up: list[int]):
    """Per walk position, the leaf columns [lo, hi) of its subtree; labeled
    leaves are numbered in walk order, so a labeled vertex has column lo[k]."""
    lo, count = [], 0
    for v in order:
        lo.append(count)
        count += v in tree.leaf_labels
    # hi[k] is final once every later position (all of k's descendants) is.
    hi = lo[1:] + [count]
    for k in range(len(order) - 1, 0, -1):
        hi[up[k]] = max(hi[up[k]], hi[k])
    return lo, hi


def _leaf_columns(leaves, order: list[int], lo: list[int]) -> list[int]:
    """The walk's leaf column of each (label, vertex) pair in ``leaves``."""
    pos = {v: k for k, v in enumerate(order)}
    return [lo[pos[v]] for _, v in leaves]


def _path(up: list[int], a: int, b: int) -> list[int]:
    """Walk positions on the tree path from position a to position b.  The
    later end is never the other's ancestor, so it climbs; the lowest common
    ancestor is the path's smallest position."""
    head, tail = [a], [b]
    while a != b:
        if a > b:
            a = up[a]
            head.append(a)
        else:
            b = up[b]
            tail.append(b)
    return head + tail[-2::-1]


def _leaf_path_lengths(tree: WeightedTree, walk=None):
    """Labeled leaves in label order and their leaf-to-leaf path lengths.

    ``walk`` is the ``_walk`` from ``vertices[0]``, made here if not given.
    Row k of a |V| x n_leaves array holds the path length from every source
    leaf column to the vertex at walk position k.  A bottom-up pass fills the
    sources inside each subtree (row parent(k) = row k + w), then a top-down
    pass fills the sources outside it (row k = row parent(k) + w).  Each
    entry is thus summed edge by edge outward from its source leaf, as
    Dijkstra's relaxation sums it, so entry (i, j) may differ from (j, i) in
    the last bit.
    """
    leaves = tree.sorted_leaves()
    order, up, edge = walk or _walk(tree, tree.vertices[0])
    lo, hi = _leaf_ranges(tree, order, up)
    weight = [0.0] + [tree.edges[e][2] for e in edge[1:]]
    pos = {v: k for k, v in enumerate(order)}
    rows = [pos[v] for _, v in leaves]
    dist = np.empty((len(order), len(leaves)))
    for k in rows:
        dist[k, lo[k]] = 0.0
    for k in range(len(order) - 1, 0, -1):
        np.add(dist[k, lo[k] : hi[k]], weight[k], out=dist[up[k], lo[k] : hi[k]])
    for k in range(1, len(order)):
        np.add(dist[up[k], : lo[k]], weight[k], out=dist[k, : lo[k]])
        np.add(dist[up[k], hi[k] :], weight[k], out=dist[k, hi[k] :])
    return leaves, np.ascontiguousarray(dist[np.ix_(rows, [lo[k] for k in rows])].T)


def leaf_distance_matrix(tree: WeightedTree) -> DistanceMatrix:
    """Pairwise path distances between labeled leaves, labels in sorted order."""
    leaves, dist = _leaf_path_lengths(tree)
    return DistanceMatrix([lbl for lbl, _ in leaves], (dist + dist.T) / 2.0)


def lca(tree: WeightedTree, i: int, j: int) -> int:
    """Lowest common ancestor of two vertices in a rooted tree."""
    if tree.root is None:
        raise ValueError("tree has no root; use midpoint_root first")
    if i not in set(tree.vertices) or j not in set(tree.vertices):
        raise ValueError(f"unknown vertex in lca query ({i}, {j})")
    order, up, _ = _walk(tree, tree.root)
    pos = {v: k for k, v in enumerate(order)}
    return order[min(_path(up, pos[i], pos[j]))]


def lca_clan_sizes(tree: WeightedTree) -> DistanceMatrix:
    """Matrix of |{leaves under lca(i, j)}| for all labeled leaf pairs.

    Diagonal is 0.  Off-diagonal entries are integers in [2, n].
    """
    if tree.root is None:
        raise ValueError("clan sizes need a rooted tree")
    leaves = tree.sorted_leaves()
    order, up, _ = _walk(tree, tree.root)
    lo, hi = _leaf_ranges(tree, order, up)
    n = len(leaves)
    vals = np.zeros((n, n))
    # A pair meets at vertex p when its leaves lie in different blocks of p's
    # range: p's own column if it is labeled, and each child's range.  Each
    # block's rows get p's size in the rest of p's range, so every entry is
    # written once.
    for k, v in enumerate(order):
        if v in tree.leaf_labels:
            vals[lo[k], lo[k] + 1 : hi[k]] = hi[k] - lo[k]
        if k:
            p = up[k]
            vals[lo[k] : hi[k], lo[p] : lo[k]] = hi[p] - lo[p]
            vals[lo[k] : hi[k], hi[k] : hi[p]] = hi[p] - lo[p]
    cols = _leaf_columns(leaves, order, lo)
    return DistanceMatrix([lbl for lbl, _ in leaves], vals[np.ix_(cols, cols)])


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


def _edge_ranges(tree: WeightedTree, leaves):
    """Leaf columns of every labeled leaf and, per edge, the column range
    [lo, hi) of its far side, as seen from ``vertices[0]``."""
    order, up, edge = _walk(tree, tree.vertices[0])
    lo, hi = _leaf_ranges(tree, order, up)
    far_lo, far_hi = np.zeros(len(tree.edges), int), np.zeros(len(tree.edges), int)
    far_lo[edge[1:]] = lo[1:]
    far_hi[edge[1:]] = hi[1:]
    return np.array(_leaf_columns(leaves, order, lo), dtype=int), far_lo, far_hi


def design_matrix(tree: WeightedTree) -> np.ndarray:
    """0/1 float64 incidence of edges on leaf-to-leaf paths, so that A @ w = d_T.

    Rows are the unordered pairs of the sorted labels in ``pair_vector``
    order, (0, 1), (0, 2), ..., (n-2, n-1); columns follow ``tree.edges``.
    """
    leaves = tree.sorted_leaves()
    cols, far_lo, far_hi = _edge_ranges(tree, leaves)
    # An edge is on a pair's path iff exactly one of the two leaves is beyond it.
    beyond = (far_lo <= cols[:, None]) & (cols[:, None] < far_hi)
    iu, ju = np.triu_indices(len(leaves), 1)
    return (beyond[iu] != beyond[ju]).astype(np.float64)


def fit_edge_weights(tree: WeightedTree, dm: DistanceMatrix) -> WeightedTree:
    """Refit edge weights to minimize ||A w - d||_2 over w >= 0, keeping topology.

    A is :func:`design_matrix` and d the ``pair_vector`` of ``dm`` in sorted
    label order.  This nonnegative least-squares objective is convex in w, so
    the solver's optimum never exceeds the input weights' cost.  A is never
    built, so memory is O(|E|^2).  With s_e leaves beyond edge e, entry
    (e, f) of A^T A is s_e (n - s_f) if e's far side lies inside f's and
    s_e s_f if the two are disjoint; entry e of A^T d sums d across e's cut,
    from one 2-D prefix sum.  NNLS runs on an eigh square root of A^T A: the
    same objective up to a constant, also where A^T A is singular (degree-2
    vertices).  A solver failure propagates.
    """
    import scipy.optimize
    leaves = tree.sorted_leaves()
    tree_labels = [lbl for lbl, _ in leaves]
    if sorted(dm.labels) != tree_labels:
        raise ValueError("matrix labels do not match the topology's leaves")
    n = len(leaves)
    if n < 2:
        raise ValueError("edge-weight fitting needs at least two labeled leaves")
    target = dm.reordered(tree_labels) if dm.labels != tree_labels else dm
    cols, lo, hi = _edge_ranges(tree, leaves)
    # d over unordered pairs as pair_vector() reads it, in leaf-column order.
    upper = np.triu(target.values, 1)
    d = np.zeros((n, n))
    d[np.ix_(cols, cols)] = upper + upper.T
    prefix = np.zeros((n + 1, n + 1))
    prefix[1:, 1:] = d.cumsum(axis=0).cumsum(axis=1)
    across = (prefix[hi, n] - prefix[lo, n]) - (
        prefix[hi, hi] - prefix[lo, hi] - prefix[hi, lo] + prefix[lo, lo]
    )
    s = (hi - lo).astype(np.float64)
    inside = (lo[:, None] >= lo) & (hi[:, None] <= hi)
    gram = np.where(inside, s[:, None] * (n - s),
                    np.where(inside.T, s * (n - s[:, None]), s[:, None] * s))
    lam, vec = np.linalg.eigh(gram)
    keep = lam > lam[-1] * len(lam) * np.finfo(np.float64).eps
    root = np.sqrt(lam[keep])
    basis = vec[:, keep].T
    w, _ = scipy.optimize.nnls(root[:, None] * basis, (basis @ across) / root)
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
    return midpoint_root_and_metric(tree)[0]


def midpoint_root_and_metric(tree: WeightedTree) -> tuple[WeightedTree, np.ndarray]:
    """``midpoint_root(tree)`` and the ``pair_vector`` of
    ``leaf_distance_matrix(tree)``, from one leaf path-length pass.

    The pairs are over the sorted leaf labels, and no n x n matrix is built
    for them: each is the mean of its two raw path lengths, rounded as
    ``leaf_distance_matrix`` rounds it.  The metric is that of the unrooted
    input.  In exact arithmetic it equals the rooted tree's metric;
    splitting an edge can change the latter's path sums in the last bit.
    """
    walk = _walk(tree, tree.vertices[0])
    leaves, dist = _leaf_path_lengths(tree, walk=walk)
    mask = upper_mask(len(leaves))
    upper = dist[mask]
    return _root_at_midpoint(tree, walk, leaves, upper), (upper + dist.T[mask]) / 2.0


def _root_at_midpoint(tree: WeightedTree, walk, leaves, upper: np.ndarray) -> WeightedTree:
    """Midpoint rooting given the walk, and the raw (unsymmetrised) leaf path
    lengths that ``_leaf_path_lengths`` made from it over the pairs i < j, in
    ``pair_vector`` order."""
    if tree.root is not None:
        raise ValueError("tree is already rooted; trim_root it first")
    if tree.n_leaves < 2:
        raise ValueError("midpoint rooting needs at least two labeled leaves")
    # The pairs come row by row, so argmax, which returns the first maximum,
    # picks the lexicographically smallest diameter pair (row, col); its row
    # is the first whose pairs end after position k.  The pair and the total
    # come from the raw lengths: symmetrised ones can round the diameter
    # differently.
    n = len(leaves)
    k = int(np.argmax(upper))
    ends = np.cumsum(np.arange(n - 1, 0, -1))
    row = int(np.searchsorted(ends, k, side="right"))
    col = k - int(ends[row]) + n
    total = float(upper[k])
    order, up, edge = walk
    pos = {v: i for i, v in enumerate(order)}
    path = _path(up, pos[leaves[row][1]], pos[leaves[col][1]])
    vb = order[path[-1]]

    target = total / 2.0
    acc = 0.0
    new_root = max(tree.vertices) + 1
    for i, j in zip(path, path[1:]):
        # The later position is the child, whose parent edge joins the two.
        e = edge[max(i, j)]
        a, b, w = order[i], order[j], tree.edges[e][2]
        if acc == target:
            return replace(tree, leaf_labels=dict(tree.leaf_labels), root=a)
        if acc + w > target or (acc + w == target and b == vb):
            off = target - acc
            edges = tree.edges[:e] + tree.edges[e + 1 :] + (
                (a, new_root, off), (new_root, b, w - off)
            )
            return WeightedTree(
                tree.vertices + (new_root,), edges, dict(tree.leaf_labels), root=new_root
            )
        acc += w
    # Midpoint coincides with the far endpoint only if total == 0.
    return replace(tree, leaf_labels=dict(tree.leaf_labels), root=vb)


def unit_edges(tree: WeightedTree) -> WeightedTree:
    """The same tree, labels and root with every edge weight set to 1."""
    edges = tuple((u, v, 1.0) for u, v, _ in tree.edges)
    return WeightedTree(tree.vertices, edges, dict(tree.leaf_labels), root=tree.root)


def tree_distance(t1: WeightedTree, t2: WeightedTree) -> float:
    """Topology distance (2/(n(n-1))) * ||d_T1 - d_T2||_2 with unit edge lengths."""
    labels1 = [lbl for lbl, _ in t1.sorted_leaves()]
    labels2 = [lbl for lbl, _ in t2.sorted_leaves()]
    if labels1 != labels2:
        raise ValueError("trees are labeled over different leaf sets")
    n = len(labels1)
    if n < 2:
        raise ValueError("tree distance needs at least two leaves")
    d1 = leaf_distance_matrix(unit_edges(t1)).pair_vector()
    d2 = leaf_distance_matrix(unit_edges(t2)).pair_vector()
    return float(2.0 / (n * (n - 1)) * np.linalg.norm(d1 - d2))
