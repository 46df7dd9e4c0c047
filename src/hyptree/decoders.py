"""Tree-metric and ultrametric decoders for arbitrary dissimilarity matrices.

``neighbor_joining`` returns an unrooted tree with internal degree 3, its
negative branch lengths clamped to zero, and the number it clamped.
``linkage`` runs agglomerative clustering under the single / complete /
average / weighted rules and returns the merge sequence; its cophenetic
matrix is an ultrametric by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import write_table
from .metrics import DistanceMatrix
from .trees import WeightedTree

LINKAGE_METHODS = ("single", "complete", "average", "weighted")


@dataclass
class Dendrogram:
    """Ordered merge sequence (cluster_a, cluster_b, height, merged size).

    Cluster ids 0..n-1 are the n = len(labels) leaves in label order; merge
    k creates id n+k, and every cluster but the last is merged exactly once.
    Heights are non-decreasing along the merge order, and each size is the
    sum of the two merged sizes (scipy's cophenetic routine reads the sizes
    to index its buffers).
    """

    merges: tuple[tuple[int, int, float, int], ...]
    labels: list[str]

    @property
    def n(self) -> int:
        return len(self.labels)

    def __post_init__(self):
        if len(self.merges) != max(self.n - 1, 0):
            raise ValueError(f"{len(self.merges)} merges for {self.n} leaves")
        sizes = [1] * self.n
        used = set()
        prev = 0.0
        for k, (a, b, h, size) in enumerate(self.merges):
            limit = self.n + k
            if not (0 <= a < limit and 0 <= b < limit and a != b) or {a, b} & used:
                raise ValueError(f"merge {k} references invalid or merged clusters ({a}, {b})")
            used.update((a, b))
            if size != sizes[a] + sizes[b]:
                raise ValueError(f"merge {k} has size {size}, expected {sizes[a] + sizes[b]}")
            if h < prev:
                raise ValueError(f"merge {k} decreases height: {h} < {prev}")
            prev = h
            sizes.append(size)


def neighbor_joining(dm: DistanceMatrix) -> tuple[WeightedTree, int]:
    """Neighbor Joining tree for a dissimilarity matrix, and its clamp count.

    Iteratively joins the pair minimizing
    ``Q(i, j) = (m - 2) d(i, j) - sum_k d(i, k) - sum_k d(j, k)``,
    assigning pendant lengths ``d(i, j)/2 +- (r_i - r_j)/(2(m - 2))`` and
    reducing via ``d(u, k) = (d(i, k) + d(j, k) - d(i, j))/2``.  Ties pick the
    lexicographically smallest index pair of the working matrix.  Exact on
    additive inputs.

    The working matrix lives in one n x n buffer allocated up front; with m
    active nodes it is the top-left m x m block, and Q is written into a
    second buffer.  The joined node replaces row and column i, and row and
    column j are deleted by shifting the rows and columns after j up and left
    by one.  Deleting this way keeps the active nodes in their original
    order, and with it the order in which each row sum adds its entries and
    the order in which argmin scans Q.  Swapping the last node into slot j,
    or updating the row sums incrementally, would instead change branch
    lengths in their last bits and could change which pair wins a tie.

    Returns the unrooted tree and the number of negative branch lengths
    that were clamped to zero, a Python int.
    """
    n = dm.n
    if n < 1:
        raise ValueError("neighbor joining needs at least one entity")
    leaf_labels = {i: lbl for i, lbl in enumerate(dm.labels)}
    if n == 1:
        return WeightedTree((0,), (), leaf_labels, root=None), 0

    buf = dm.values.copy()
    qbuf = np.empty(n * n)
    rbuf = np.empty(n)
    active = list(range(n))
    next_id = n
    edges: list[tuple[int, int, float]] = []
    m = n
    while m > 3:
        work = buf[:m, :m]
        r = np.sum(work, axis=1, out=rbuf[:m])
        q = qbuf[: m * m].reshape(m, m)
        np.multiply(m - 2, work, out=q)
        q -= r[:, None]
        q -= r[None, :]
        q.flat[:: m + 1] = np.inf
        # Row-major argmin visits (i, j) with i < j before (j, i), so ties
        # resolve to the lexicographically smallest pair.  Q is scanned in
        # full: its two triangles can differ in the last bit.
        i, j = divmod(int(np.argmin(q)), m)
        if i > j:
            i, j = j, i
        li = 0.5 * work[i, j] + (r[i] - r[j]) / (2.0 * (m - 2))
        lj = 0.5 * work[i, j] + (r[j] - r[i]) / (2.0 * (m - 2))
        edges.append((active[i], next_id, li))
        edges.append((active[j], next_id, lj))
        merged = 0.5 * (work[i, :] + work[j, :] - work[i, j])
        merged[i] = 0.0
        work[i, :] = merged
        work[:, i] = merged
        active[i] = next_id
        next_id += 1
        work[j:-1, :] = work[j + 1:, :]
        work[:-1, j:-1] = work[:-1, j + 1:]
        del active[j]
        m -= 1
    work = buf[:m, :m]

    if m == 3:
        d01, d02, d12 = work[0, 1], work[0, 2], work[1, 2]
        hub = next_id
        next_id += 1
        edges.append((active[0], hub, 0.5 * (d01 + d02 - d12)))
        edges.append((active[1], hub, 0.5 * (d01 + d12 - d02)))
        edges.append((active[2], hub, 0.5 * (d02 + d12 - d01)))
    else:
        edges.append((active[0], active[1], work[0, 1]))

    clamps = sum(1 for _, _, w in edges if w < 0.0)
    edges = tuple((u, v, 0.0 if w < 0.0 else w) for u, v, w in edges)
    return WeightedTree(tuple(range(next_id)), edges, leaf_labels, root=None), clamps


def linkage(dm: DistanceMatrix, method: str) -> Dendrogram:
    """Agglomerative clustering; merge height is the inter-cluster distance.

    Update rules after merging clusters u, v into uv:

    * single:   d(uv, k) = min(d(u, k), d(v, k))
    * complete: d(uv, k) = max(d(u, k), d(v, k))
    * average:  d(uv, k) = (|u| d(u, k) + |v| d(v, k)) / (|u| + |v|)
    * weighted: d(uv, k) = (d(u, k) + d(v, k)) / 2

    Runs ``scipy.cluster.hierarchy.linkage``: the minimum-spanning-tree
    algorithm for single and the nearest-neighbor chain for the other rules
    (Muellner 2011), O(n^2) time.  Each merge joins a closest pair of active
    clusters.  When several pairs tie, which of them merges is scipy's
    choice; the single-linkage cophenetic matrix is unique regardless, the
    other rules' merge trees may differ between tied choices.
    """
    if method not in LINKAGE_METHODS:
        raise ValueError(f"unknown linkage method {method!r}; pick one of {LINKAGE_METHODS}")
    n = dm.n
    if n < 1:
        raise ValueError("linkage needs at least one entity")
    if n == 1:
        return Dendrogram((), list(dm.labels))
    from scipy.cluster import hierarchy
    from scipy.spatial.distance import squareform
    z = hierarchy.linkage(squareform(dm.values, checks=False), method)
    merges = tuple(
        (int(min(a, b)), int(max(a, b)), float(h), int(size)) for a, b, h, size in z
    )
    return Dendrogram(merges, list(dm.labels))


def write_dendrogram(dend: Dendrogram, path) -> None:
    """Write merges as ``index  cluster_a  cluster_b  height  size`` rows."""
    write_table(path, ((k, *merge) for k, merge in enumerate(dend.merges)))


def dendrogram_to_ultrametric(dend: Dendrogram) -> DistanceMatrix:
    """Cophenetic matrix: entry (i, j) is the height of the merge uniting them."""
    if dend.n == 1:
        return DistanceMatrix(list(dend.labels), np.zeros((1, 1)))
    from scipy.cluster import hierarchy
    from scipy.spatial.distance import squareform
    coph = hierarchy.cophenet(np.array(dend.merges, dtype=np.float64))
    return DistanceMatrix(list(dend.labels), squareform(coph))


def dendrogram_to_tree(dend: Dendrogram) -> WeightedTree:
    """Rooted tree whose leaf metric equals the cophenetic matrix.

    The merge at height h becomes an internal vertex at distance h/2 from
    every leaf below it, so all leaves end up equidistant from the root.
    """
    n = dend.n
    leaf_labels = {i: lbl for i, lbl in enumerate(dend.labels)}
    if n == 1:
        return WeightedTree((0,), (), leaf_labels, root=0)
    half = {i: 0.0 for i in range(n)}
    edges = []
    for k, (a, b, h, _) in enumerate(dend.merges):
        vid = n + k
        edges.append((a, vid, h / 2.0 - half[a]))
        edges.append((b, vid, h / 2.0 - half[b]))
        half[vid] = h / 2.0
    vertices = tuple(range(2 * n - 1))
    return WeightedTree(vertices, tuple(edges), leaf_labels, root=2 * n - 2)
