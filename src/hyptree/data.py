"""Synthetic ground truth, edge-noise corruption, and file ingestion.

Random weighted binary trees are corrupted by adding shortcut edges between
arbitrary vertices; the observable is the leaf-to-leaf shortest-path metric
of the resulting graph.  Real feature tables are ingested as 1 - cosine
dissimilarities.  Matrix and feature files are plain delimited text, read
and written only by :func:`read_table` and :func:`write_table`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .metrics import DistanceMatrix
from .trees import TreeStructureError, WeightedTree


class MatrixFormatError(ValueError):
    """Raised when a matrix or feature file cannot be ingested."""


@dataclass
class NoisyGraph:
    """A tree plus extra shortcut edges, each edge flagged by provenance."""

    vertices: tuple[int, ...]
    tree_edges: tuple[tuple[int, int, float], ...]
    noise_edges: tuple[tuple[int, int, float], ...]
    leaf_labels: dict[int, str]

    @property
    def all_edges(self) -> tuple[tuple[int, int, float], ...]:
        return self.tree_edges + self.noise_edges


@dataclass
class FeatureTable:
    """n labeled feature rows; rows must not be identically zero."""

    labels: list[str]
    features: np.ndarray

    def __post_init__(self):
        self.labels = [str(x) for x in self.labels]
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] != len(self.labels):
            raise MatrixFormatError(
                f"feature shape {feats.shape} does not match {len(self.labels)} labels"
            )
        if not np.all(np.isfinite(feats)):
            raise MatrixFormatError("features contain non-finite values")
        peaks = np.abs(feats).max(axis=1, initial=0.0)
        if np.any(peaks == 0.0):
            bad = self.labels[int(np.argmin(peaks))]
            raise MatrixFormatError(f"feature row {bad!r} is all zeros; cosine undefined")
        self.features = feats


def random_binary_tree(n_leaves: int, seed: int) -> WeightedTree:
    """Random unrooted binary tree: leaves attach to uniformly chosen edges.

    The topology grows by subdividing a uniform random existing edge for each
    new leaf; all final edge weights are then drawn i.i.d. Unif[0, 1].
    Leaves get ids 0..n-1 and labels ``L000``, ``L001``, ...
    """
    if n_leaves < 2:
        raise ValueError(f"need at least 2 leaves, got {n_leaves}")
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = [(0, 1)]
    next_id = n_leaves  # internal ids
    for leaf in range(2, n_leaves):
        k = int(rng.integers(len(edges)))
        u, v = edges.pop(k)
        mid = next_id
        next_id += 1
        edges.extend([(u, mid), (mid, v), (mid, leaf)])
    weights = rng.uniform(size=len(edges))
    weighted = tuple((u, v, float(w)) for (u, v), w in zip(edges, weights))
    labels = {i: f"L{i:03d}" for i in range(n_leaves)}
    return WeightedTree(tuple(range(next_id)), weighted, labels, root=None)


def add_noise_edges(tree: WeightedTree, rate: float, seed: int) -> NoisyGraph:
    """Add round(rate * (2n - 2)) shortcut edges between distinct vertices.

    Candidate endpoints cover leaves and internal vertices alike; self-loops,
    duplicates of existing edges, and repeated picks are rejected and
    resampled.  Shortcut weights are i.i.d. Unif[0, 1].
    """
    if not 0.0 <= rate < math.inf:
        raise ValueError(f"noise rate must be nonnegative and finite, got {rate}")
    n = tree.n_leaves
    count = int(math.floor(rate * (2 * n - 2) + 0.5))  # half-up
    verts = sorted(tree.vertices)
    occupied = {frozenset((u, v)) for u, v, _ in tree.edges}
    max_edges = len(verts) * (len(verts) - 1) // 2
    if count > max_edges - len(occupied):
        raise TreeStructureError(
            f"cannot place {count} noise edges; only {max_edges - len(occupied)} "
            "vertex pairs are free"
        )
    rng = np.random.default_rng(seed)
    noise: list[tuple[int, int, float]] = []
    while len(noise) < count:
        u = verts[int(rng.integers(len(verts)))]
        v = verts[int(rng.integers(len(verts)))]
        if u == v or frozenset((u, v)) in occupied:
            continue
        occupied.add(frozenset((u, v)))
        noise.append((u, v, float(rng.uniform())))
    return NoisyGraph(
        tuple(tree.vertices), tuple(tree.edges), tuple(noise), dict(tree.leaf_labels)
    )


def graph_leaf_shortest_paths(graph: NoisyGraph) -> DistanceMatrix:
    """Leaf-to-leaf shortest weighted path distances of the corrupted graph.

    The graph is stored sparse, one entry per ordered vertex pair: parallel
    edges keep the smaller weight, and a zero weight is an explicit entry,
    so it stays an edge.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import dijkstra
    verts = sorted(graph.vertices)
    pos = {v: k for k, v in enumerate(verts)}
    weight: dict[tuple[int, int], float] = {}
    for u, v, w in graph.all_edges:
        i, j = pos[u], pos[v]
        weight[i, j] = weight[j, i] = min(w, weight.get((i, j), w))
    pairs = sorted(weight)
    rows, cols = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    indptr = np.searchsorted(rows, np.arange(len(verts) + 1))
    cs = csr_array(([weight[p] for p in pairs], cols, indptr), shape=(len(verts),) * 2)
    leaves = sorted((lbl, v) for v, lbl in graph.leaf_labels.items())
    idx = [pos[v] for _, v in leaves]
    dist = dijkstra(cs, indices=idx)[:, idx]
    if not np.all(np.isfinite(dist)):
        raise TreeStructureError("graph is disconnected between leaves")
    return DistanceMatrix([lbl for lbl, _ in leaves], (dist + dist.T) / 2.0)


def cosine_dissimilarity(table: FeatureTable) -> DistanceMatrix:
    """1 - cosine similarity of feature rows; entries lie in [0, 2].

    Each row is first divided by a power of two (``np.frexp`` of its largest
    |entry|) that brings that entry into [0.5, 1), so norms and products
    neither overflow nor vanish however large or small a row's entries are.
    The division is exact, so wherever the unscaled formula neither
    overflowed nor underflowed it gives the same cosines bit for bit.
    """
    feats = table.features
    _, exps = np.frexp(np.abs(feats).max(axis=1))
    feats = np.ldexp(feats, -exps[:, None])
    norms = np.linalg.norm(feats, axis=1)
    sim = (feats @ feats.T) / np.outer(norms, norms)
    vals = np.clip(1.0 - sim, 0.0, 2.0)
    np.fill_diagonal(vals, 0.0)
    return DistanceMatrix(list(table.labels), (vals + vals.T) / 2.0)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def read_table(path) -> tuple[int, Iterator[list[str]]]:
    """The number of non-blank lines of a delimited text file, and their fields.

    A line is split on tabs if it contains one, else on commas, and every
    field is stripped of surrounding whitespace.  Lines are split one at a
    time as the iterator reaches them, because a matrix's field strings take
    several times the memory of its text.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if ln.strip()]
    fields = ([f.strip() for f in ln.rstrip("\n").split("\t" if "\t" in ln else ",")]
              for ln in lines)
    return len(lines), fields


def write_table(path, rows, header=None) -> None:
    """Write each row as one tab-separated line, after an optional header row.

    Floats are written as ``repr(float(x))``, which reads back to the same
    bits, and every other field (strings, integers) by ``str``.
    """
    floats = (float, np.floating)
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows if header is None else [header, *rows]:
            fields = (repr(float(x)) if isinstance(x, floats) else str(x) for x in row)
            fh.write("\t".join(fields) + "\n")


def load_matrix(path) -> DistanceMatrix:
    """Read a labeled matrix file: a label header line, then n numeric rows."""
    count, table = read_table(path)
    if not count:
        raise MatrixFormatError(f"{path}: empty file")
    labels = next(table)
    n = len(labels)
    if count - 1 != n:
        raise MatrixFormatError(f"{path}: expected {n} data rows, found {count - 1}")
    vals = np.zeros((n, n))
    for i, fields in enumerate(table):
        if len(fields) != n:
            raise MatrixFormatError(f"{path}: row {i + 1} has {len(fields)} fields, expected {n}")
        try:
            vals[i] = [float(f) for f in fields]
        except ValueError as exc:
            raise MatrixFormatError(f"{path}: row {i + 1}: {exc}") from None
    # DistanceMatrix tolerates entries down to -1e-12; a file may not.
    neg = np.argwhere(vals < 0.0)
    if neg.size:
        i, j = neg[0]
        raise MatrixFormatError(f"{path}: negative entry at row {i + 1}, column {j + 1}")
    try:
        return DistanceMatrix(labels, vals)
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: {exc}") from None


def save_matrix(dm: DistanceMatrix, path) -> None:
    write_table(path, dm.values, header=dm.labels)


def load_features(path) -> FeatureTable:
    """Read a feature file: header ``label`` + feature names, then data rows."""
    count, table = read_table(path)
    if count < 2:
        raise MatrixFormatError(f"{path}: need a header and at least one data row")
    m = len(next(table)) - 1
    if m < 1:
        raise MatrixFormatError(f"{path}: header must name at least one feature")
    labels = []
    rows = []
    for i, fields in enumerate(table):
        if len(fields) != m + 1:
            raise MatrixFormatError(
                f"{path}: row {i + 1} has {len(fields)} fields, expected {m + 1}"
            )
        labels.append(fields[0])
        try:
            rows.append([float(f) for f in fields[1:]])
        except ValueError as exc:
            raise MatrixFormatError(f"{path}: row {i + 1} ({fields[0]}): {exc}") from None
    return FeatureTable(labels, np.array(rows))


def save_features(table: FeatureTable, path) -> None:
    header = ["label"] + [f"f{k}" for k in range(table.features.shape[1])]
    write_table(path, ([lbl, *row] for lbl, row in zip(table.labels, table.features)), header)


def save_edge_list(graph: NoisyGraph, path) -> None:
    """Write the corrupted graph as ``u v weight kind`` rows."""
    rows = [(*e, "tree") for e in graph.tree_edges] + [(*e, "noise") for e in graph.noise_edges]
    write_table(path, rows, header=("u", "v", "weight", "kind"))
