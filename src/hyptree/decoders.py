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
from numpy.lib.stride_tricks import sliding_window_view

from .data import write_table
from .metrics import DistanceMatrix
from .trees import WeightedTree

LINKAGE_METHODS = ("single", "complete", "average", "weighted")


@dataclass(frozen=True)
class Dendrogram:
    """Ordered merge sequence (cluster_a, cluster_b, height, merged size).

    Cluster ids 0..n-1 are the n = len(labels) leaves in label order; merge
    k creates id n+k, and every cluster but the last is merged exactly once.
    Heights are non-decreasing along the merge order, and each size is the
    sum of the two merged sizes (scipy's cophenetic routine reads the sizes
    to index its buffers).  The instance is frozen and stores its merges and
    labels as tuples, so the checks keep holding.
    """

    merges: tuple[tuple[int, int, float, int], ...]
    labels: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    def __post_init__(self):
        object.__setattr__(self, "merges", tuple(tuple(mg) for mg in self.merges))
        object.__setattr__(self, "labels", tuple(self.labels))
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


#: Above this many active nodes Neighbor Joining finds each join from the
#: sorted partner rows instead of forming Q.  On a 2-vCPU VM, NJ at n = 512
#: took 0.075 / 0.074 / 0.075 / 0.076 / 0.078 / 0.085 / 0.096 s switching to
#: the full scan at m = 128 / 192 / 256 / 288 / 320 / 384 / 448, and 0.111 s
#: scanning Q in full throughout.
_SORTED_MIN_M = 192
#: Sorted entries of each row that one step of the search evaluates.
_SEARCH_CHUNK = 16


class _PartnerRows:
    """Each node's partners sorted by distance, for the bounded join search.

    Row ``home[v]`` of ``dist`` and ``part`` lists the nodes that were
    active when node v was created, nearest first, and pads the rest with
    distance +inf and the id ``pad``.  A new node's row reuses the storage of
    the node it replaces, and it is the only row that lists the new node, so
    each active pair sits in the row of its younger node at least.  ``r``
    holds the row sum of every active node by id, and -inf for dead nodes
    and for ``pad``, so an entry with a dead partner gives Q = +inf with no
    mask.  ``active`` lists the active nodes in the working matrix's order.
    """

    def __init__(self, d: np.ndarray):
        n = d.shape[0]
        # A row holds at most n - 1 partners; the padding after them is one
        # chunk wider, so no chunk read from an offset below n runs off it.
        self.dist = np.full((n, n + _SEARCH_CHUNK), np.inf)
        sorted_d = self.dist[:, :n]
        np.copyto(sorted_d, d)
        np.fill_diagonal(sorted_d, np.inf)
        # The node itself sorts last, at +inf, and becomes padding.  Sorting
        # 64 rows at a time keeps argsort's int64 ids small.
        self.pad = 2 * n - 1
        self.part = np.full(self.dist.shape, self.pad, dtype=np.int32)
        for lo in range(0, n, 64):
            block = sorted_d[lo : lo + 64]
            self.part[lo : lo + 64, : n - 1] = np.argsort(block, axis=1)[:, : n - 1]
            block.sort(axis=1)
        self.active = np.arange(n)
        self.home = np.arange(2 * n)
        self.r = np.full(2 * n, -np.inf)
        self.slot = np.zeros(2 * n, dtype=np.intp)
        # Entry x of a window is the chunk of the flattened rows starting at x.
        self.dist_at = sliding_window_view(self.dist.ravel(), _SEARCH_CHUNK)
        self.part_at = sliding_window_view(self.part.ravel(), _SEARCH_CHUNK)

    def search(self, r: np.ndarray) -> int:
        """Row-major position in the m x m Q of its first smallest entry.

        Each entry is formed once, ``(m-2) d - (r_row + r_col)``, which has
        the full scan's bits in either orientation; a pair listed in two rows
        is found at the same position from both.  A row stops once the bound
        ``(m-2) d_next - (r_row + r_max)`` exceeds the best Q so far: rounding
        is monotone, so no entry left in the row can reach the best, and every
        entry equal to it is evaluated.
        """
        m = r.size
        width = self.dist.shape[1]
        active = self.active[:m]
        self.r[active] = r
        slots = np.arange(m)
        self.slot[active] = slots
        rows = self.home[active]
        off = np.zeros(m, dtype=np.intp)
        rmax = r.max()
        scale = float(m - 2)
        best, pos = np.inf, m * m
        while rows.size:
            start = rows * width + off
            ids = self.part_at[start]
            r_row = r.take(slots)
            q = scale * self.dist_at[start]
            q -= r_row[:, None] + self.r.take(ids)
            low = q.min()
            if low <= best:
                if low < best:
                    best, pos = low, m * m
                k, c = np.nonzero(q == best)
                row, col = slots[k], self.slot.take(ids[k, c])
                pos = min(pos, int((np.minimum(row, col) * m + np.maximum(row, col)).min()))
            off += ids.shape[1]
            t = scale * self.dist.ravel().take(start + ids.shape[1])
            keep = t - (r_row + rmax) <= best
            rows, slots, off = rows[keep], slots[keep], off[keep]
        return pos

    def join(self, i: int, j: int, new: int, row: np.ndarray) -> None:
        """Join the nodes in slots i < j into ``new``, which takes slot i, the
        storage of the node there and a sorted row; ``row`` holds its
        distances to the remaining active nodes, its own zero at i."""
        k = row.size
        a, b = self.active[[i, j]]
        self.r[[a, b]] = -np.inf
        h = self.home[new] = self.home[a]
        self.active[i] = new
        self.active[j:k] = self.active[j + 1 : k + 1]
        d = row.copy()
        d[i] = np.inf
        order = np.argsort(d)
        self.dist[h, :k] = d[order]
        self.dist[h, k:] = np.inf
        self.part[h, : k - 1] = self.active[order[:-1]]
        self.part[h, k - 1 :] = self.pad


def neighbor_joining(dm: DistanceMatrix) -> tuple[WeightedTree, int]:
    """Neighbor Joining tree for a dissimilarity matrix, and its clamp count.

    Iteratively joins the pair minimizing
    ``Q(i, j) = (m - 2) d(i, j) - sum_k d(i, k) - sum_k d(j, k)``,
    assigning pendant lengths ``d(i, j)/2 +- (r_i - r_j)/(2(m - 2))`` and
    reducing via ``d(u, k) = (d(i, k) + d(j, k) - d(i, j))/2``.  Ties pick the
    lexicographically smallest index pair of the working matrix.  Exact on
    additive inputs.

    The working matrix lives in one n x n buffer allocated up front; with m
    active nodes it is the top-left m x m block.  The joined node replaces row
    and column i, and row and column j are deleted by shifting the rows and
    columns after j up and left by one.  The shift allocates nothing: the
    block below and right of (j, j) moves as one forward 1-D move of the flat
    buffer, which numpy makes in place, and the two blocks beside it move
    through a scratch buffer of (n - 1)^2 / 4 entries allocated up front.
    (Rebuilding those two blocks as transposes of each other reads memory
    with a stride of n: on a 2-vCPU VM, NJ at n = 1024 took 0.60 s that way,
    0.51 s shifting through temporaries and 0.46 s through the scratch
    buffer.)  Deleting this way keeps the active nodes in their original
    order, and with it the order in which each row sum adds its entries and
    the order in which argmin scans Q.  Swapping the last node into slot j,
    or updating the row sums incrementally, would instead change branch
    lengths in their last bits and could change which pair wins a tie.

    Q is formed as ``(m - 2) d(i, j) - (r_i + r_j)``: floating-point addition
    commutes, so Q is exactly symmetric and its first smallest entry in
    row-major order is the lexicographically smallest tied pair.  With at
    most ``_SORTED_MIN_M`` active nodes Q is written into a second buffer
    and scanned in full.  Above that the join comes from per-node partner
    rows sorted by distance (the search bounds of RapidNJ, Simonsen,
    Mailund & Pedersen 2008), taken ``_SEARCH_CHUNK`` entries of every row
    at a time; on n = 512 tree metrics, noisy or clean, a search reads
    about 4% of Q's entries.  It forms each entry with the full scan's bits
    and returns the same position, so both searches give the same trees bit
    for bit.

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
    flat = buf.reshape(-1)
    partners = _PartnerRows(buf) if n > _SORTED_MIN_M else None
    qbuf = np.empty(min(n, _SORTED_MIN_M) ** 2)
    rbuf = np.empty(n)
    side = np.empty((n - 1) ** 2 // 4)
    active = list(range(n))
    next_id = n
    edges: list[tuple[int, int, float]] = []
    m = n
    while m > 3:
        work = buf[:m, :m]
        r = np.sum(work, axis=1, out=rbuf[:m])
        if partners is not None:
            pos = partners.search(r)
        else:
            q = qbuf[: m * m].reshape(m, m)
            np.multiply(m - 2, work, out=q)
            q -= np.add.outer(r, r)
            q.flat[:: m + 1] = np.inf
            pos = int(np.argmin(q))
        i, j = divmod(pos, m)
        li = 0.5 * work[i, j] + (r[i] - r[j]) / (2.0 * (m - 2))
        lj = 0.5 * work[i, j] + (r[j] - r[i]) / (2.0 * (m - 2))
        edges.append((active[i], next_id, li))
        edges.append((active[j], next_id, lj))
        merged = 0.5 * (work[i, :] + work[j, :] - work[i, j])
        merged[i] = 0.0
        work[i, :] = merged
        work[:, i] = merged
        active[i] = next_id
        # Delete row and column j without a temporary.  Entry (a, b) sits
        # n + 1 flat positions before (a + 1, b + 1), so the lower-right block
        # moves up and left in one forward 1-D move, which numpy makes in
        # place.  That move runs over the lower-left block, so the rows of
        # that block are saved to ``side`` first and written back one row
        # up; the upper-right block moves one column left through ``side``.
        below = side[: (m - 1 - j) * j].reshape(m - 1 - j, j)
        np.copyto(below, work[j + 1 :, :j])
        step = n + 1
        flat[j * step : (m - 2) * step + 1] = flat[(j + 1) * step : (m - 1) * step + 1]
        work[j:-1, :j] = below
        right = side[: j * (m - 1 - j)].reshape(j, m - 1 - j)
        np.copyto(right, work[:j, j + 1 :])
        work[:j, j:-1] = right
        del active[j]
        m -= 1
        if m <= _SORTED_MIN_M:
            partners = None
        elif partners is not None:
            partners.join(i, j, next_id, buf[i, :m])
        next_id += 1
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
        return Dendrogram((), dm.labels)
    from scipy.cluster import hierarchy
    from scipy.spatial.distance import squareform
    z = hierarchy.linkage(squareform(dm.values, checks=False), method)
    merges = tuple(
        (int(min(a, b)), int(max(a, b)), h, int(size)) for a, b, h, size in z.tolist()
    )
    return Dendrogram(merges, dm.labels)


def write_dendrogram(dend: Dendrogram, path) -> None:
    """Write merges as ``index  cluster_a  cluster_b  height  size`` rows."""
    write_table(path, ((k, *merge) for k, merge in enumerate(dend.merges)))


def cophenetic_pairs(dend: Dendrogram) -> np.ndarray:
    """Height of the merge uniting each pair i < j, in ``pair_vector`` order."""
    if dend.n == 1:
        return np.zeros(0)
    from scipy.cluster import hierarchy
    return hierarchy.cophenet(np.array(dend.merges, dtype=np.float64))


def dendrogram_to_ultrametric(dend: Dendrogram) -> DistanceMatrix:
    """Cophenetic matrix: entry (i, j) is the height of the merge uniting them."""
    from scipy.spatial.distance import squareform
    return DistanceMatrix(dend.labels, squareform(cophenetic_pairs(dend)))


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
