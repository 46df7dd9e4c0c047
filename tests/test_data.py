"""Synthetic generation and file-format checks."""

import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.sparse.csgraph import csgraph_from_dense, dijkstra

from hyptree.data import (
    FeatureTable,
    MatrixFormatError,
    NoisyGraph,
    add_noise_edges,
    cosine_dissimilarity,
    graph_leaf_shortest_paths,
    load_features,
    load_matrix,
    random_binary_tree,
    save_edge_list,
    save_features,
    save_matrix,
)
from hyptree.decoders import Dendrogram, write_dendrogram
from hyptree.embedding import (
    EmbeddingResult,
    EncoderConfig,
    PoincareEmbedding,
    write_embedding,
    write_loss_trace,
)
from hyptree.metrics import DistanceMatrix
from hyptree.trees import (
    TreeStructureError,
    WeightedTree,
    lca_clan_sizes,
    leaf_distance_matrix,
    midpoint_root,
)


def dense_leaf_shortest_paths(graph):
    """Reference: the graph as a dense vertex-by-vertex matrix with inf for
    non-edges, passed through ``csgraph_from_dense``."""
    verts = sorted(graph.vertices)
    pos = {v: k for k, v in enumerate(verts)}
    dense = np.full((len(verts), len(verts)), np.inf)
    for u, v, w in graph.all_edges:
        i, j = pos[u], pos[v]
        dense[i, j] = min(dense[i, j], w)
        dense[j, i] = dense[i, j]
    cs = csgraph_from_dense(dense, null_value=np.inf)
    leaves = sorted((lbl, v) for v, lbl in graph.leaf_labels.items())
    idx = [pos[v] for _, v in leaves]
    dist = dijkstra(cs, indices=idx)[:, idx]
    return DistanceMatrix([lbl for lbl, _ in leaves], (dist + dist.T) / 2.0)


def assert_matches_dense_reference(graph):
    got, want = graph_leaf_shortest_paths(graph), dense_leaf_shortest_paths(graph)
    assert got.labels == want.labels
    assert got.values.tobytes() == want.values.tobytes()
    return got


# ---------------------------------------------------------------------------
# Reference readers and writers: each file format as it was implemented before
# one table reader and one table writer served them all.  The current code
# must write the same bytes and raise the same errors.
# ---------------------------------------------------------------------------


def reference_split_fields(line):
    sep = "\t" if "\t" in line else ","
    return [f.strip() for f in line.rstrip("\n").split(sep)]


def reference_load_matrix(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if ln.strip()]
    if not lines:
        raise MatrixFormatError(f"{path}: empty file")
    labels = reference_split_fields(lines[0])
    n = len(labels)
    if len(lines) - 1 != n:
        raise MatrixFormatError(f"{path}: expected {n} data rows, found {len(lines) - 1}")
    vals = np.zeros((n, n))
    for i, line in enumerate(lines[1:]):
        fields = reference_split_fields(line)
        if len(fields) != n:
            raise MatrixFormatError(f"{path}: row {i + 1} has {len(fields)} fields, expected {n}")
        try:
            vals[i] = [float(f) for f in fields]
        except ValueError as exc:
            raise MatrixFormatError(f"{path}: row {i + 1}: {exc}") from None
    neg = np.argwhere(vals < 0.0)
    if neg.size:
        i, j = neg[0]
        raise MatrixFormatError(f"{path}: negative entry at row {i + 1}, column {j + 1}")
    try:
        return DistanceMatrix(labels, vals)
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: {exc}") from None


def reference_save_matrix(dm, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(dm.labels) + "\n")
        for row in dm.values:
            fh.write("\t".join(repr(float(x)) for x in row) + "\n")


def reference_load_features(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if ln.strip()]
    if len(lines) < 2:
        raise MatrixFormatError(f"{path}: need a header and at least one data row")
    header = reference_split_fields(lines[0])
    m = len(header) - 1
    if m < 1:
        raise MatrixFormatError(f"{path}: header must name at least one feature")
    labels = []
    rows = []
    for i, line in enumerate(lines[1:]):
        fields = reference_split_fields(line)
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


def reference_save_features(table, path):
    m = table.features.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("label\t" + "\t".join(f"f{k}" for k in range(m)) + "\n")
        for lbl, row in zip(table.labels, table.features):
            fh.write(lbl + "\t" + "\t".join(repr(float(x)) for x in row) + "\n")


def reference_save_edge_list(graph, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("u\tv\tweight\tkind\n")
        for u, v, w in graph.tree_edges:
            fh.write(f"{u}\t{v}\t{w!r}\ttree\n")
        for u, v, w in graph.noise_edges:
            fh.write(f"{u}\t{v}\t{w!r}\tnoise\n")


def reference_write_embedding(result, path):
    emb = result.embedding
    d = emb.points.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"curvature={emb.curvature!r}\tdim={d}\t"
            f"scaling_factor={result.scaling_factor!r}\n"
        )
        for lbl, row in zip(emb.labels, emb.points):
            fh.write(lbl + "\t" + "\t".join(repr(float(x)) for x in row) + "\n")


def reference_write_loss_trace(result, path):
    with open(path, "w", encoding="utf-8") as fh:
        for epoch, loss in enumerate(result.loss_trace):
            fh.write(f"{epoch}\t{float(loss)!r}\n")


def reference_write_dendrogram(dend, path):
    with open(path, "w", encoding="utf-8") as fh:
        for k, (a, b, h, size) in enumerate(dend.merges):
            fh.write(f"{k}\t{a}\t{b}\t{h!r}\t{size}\n")


#: Floats whose text form is easy to get wrong: the smallest subnormal, tiny
#: and huge normals, a sum that is not its decimal literal, and integers,
#: small and past the point where repr switches to an exponent.
AWKWARD = (5e-324, 1e-300, 1e300, 0.1 + 0.2, 3.0, 0.0, 1.0, 2.5e-310, 123456789.0,
           2.0**53, 1e16)


def awkward_cases():
    """(writer, reference writer, object) triples covering every table writer."""
    n = len(AWKWARD)
    labels = [f"s{i}" for i in range(n)]
    vals = np.zeros((n, n))
    vals[np.triu_indices(n, 1)] = np.resize(AWKWARD, n * (n - 1) // 2)
    dm = DistanceMatrix(labels, vals + vals.T)
    feats = np.resize(AWKWARD, (n, 3)) * np.array([1.0, -1.0, 1.0])
    ft = FeatureTable(labels, feats + np.eye(n, 3))
    graph = add_noise_edges(random_binary_tree(6, 2), 0.5, 3)
    weights = itertools.cycle(AWKWARD)
    graph = NoisyGraph(
        graph.vertices,
        tuple((u, v, next(weights)) for u, v, _ in graph.tree_edges),
        tuple((u, v, next(weights)) for u, v, _ in graph.noise_edges),
        graph.leaf_labels,
    )
    tiny = np.array([[5e-324, 1e-300], [0.1 + 0.2, -0.5], [3.0 / 7.0, 0.0], [2.5e-310, -0.25]])
    emb = PoincareEmbedding(["a", "b", "c", "d"], tiny, 1.0)
    trace = np.array(AWKWARD)
    results = [EmbeddingResult(emb, float(trace[-1]), trace, EncoderConfig(), s)
               for s in (1e300, 0.1 + 0.2, 2.0)]
    results.append(EmbeddingResult(
        PoincareEmbedding(["a", "b", "c", "d"], tiny / 10.0, 100.0), 0.0, trace[:1],
        EncoderConfig(), 5e-324))
    # A caterpillar over n + 1 leaves, merged at every awkward height in turn.
    merges, size = [], [1] * (n + 1)
    for k, h in enumerate(sorted(AWKWARD)):
        a, b = (0, 1) if k == 0 else (n + k, k + 1)
        size.append(size[a] + size[b])
        merges.append((a, b, h, size[-1]))
    dend = Dendrogram(n + 1, tuple(merges), labels + ["s_last"])
    cases = [(save_matrix, reference_save_matrix, dm),
             (save_features, reference_save_features, ft),
             (save_edge_list, reference_save_edge_list, graph),
             (write_dendrogram, reference_write_dendrogram, dend)]
    for res in results:
        cases += [(write_embedding, reference_write_embedding, res),
                  (write_loss_trace, reference_write_loss_trace, res)]
    return cases


AWKWARD_CASES = awkward_cases()


def raised(fn, path):
    """``(type, message)`` of the exception ``fn(path)`` raises."""
    with pytest.raises(Exception) as info:
        fn(path)
    return type(info.value), str(info.value)


#: Matrix files each reader rejects, named by their fault.
BAD_MATRIX_FILES = {
    "empty": "",
    "blank_lines": "\n  \n\t\n",
    "too_few_rows": "a\tb\tc\n0\t1\t2\n1\t0\t3\n",
    "too_many_rows": "a\tb\n0\t1\n1\t0\n1\t0\n",
    "short_row": "a\tb\tc\n0\t1\t2\n1\t0\n2\t3\t0\n",
    "long_row": "a,b\n0,1,2\n1,0\n",
    "not_a_number": "a\tb\n0\tone\n1\t0\n",
    "negative": "a\tb\n0\t-1e-300\n-1e-300\t0\n",
    "asymmetric": "a\tb\n0\t1.0\n0.5\t0\n",
    "non_finite": "a\tb\n0\tinf\ninf\t0\n",
    "duplicate_labels": "a\ta\n0\t1\n1\t0\n",
}

#: Feature files each reader rejects, named by their fault.
BAD_FEATURE_FILES = {
    "empty": "",
    "header_only": "label\tf0\n",
    "no_features": "label\nu\nv\n",
    "short_row": "label\tf0\tf1\nu\t1.0\n",
    "long_row": "label,f0\nu,1,2\n",
    "not_a_number": "label\tf0\nu\t1\nv\tx1\n",
    "zero_row": "label\tf0\tf1\nu\t1\t0\nv\t0\t0.0\n",
    "non_finite": "label\tf0\nu\tnan\n",
}


class TestTableFormats:
    @pytest.mark.parametrize("writer, reference, obj", AWKWARD_CASES,
                             ids=[w.__name__ for w, _, _ in AWKWARD_CASES])
    def test_writers_match_reference_bytes(self, tmp_path, writer, reference, obj):
        writer(obj, tmp_path / "got.txt")
        reference(obj, tmp_path / "want.txt")
        assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()

    def test_matrix_round_trip_matches_reference(self, tmp_path):
        dm = AWKWARD_CASES[0][2]
        save_matrix(dm, tmp_path / "m.txt")
        got, want = load_matrix(tmp_path / "m.txt"), reference_load_matrix(tmp_path / "m.txt")
        assert got.labels == want.labels == dm.labels
        assert got.values.tobytes() == want.values.tobytes() == dm.values.tobytes()

    def test_feature_round_trip_matches_reference(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("label,f0, f1\n\nu, 5e-324,1e150\n v ,3,-0.1\n")
        got, want = load_features(path), reference_load_features(path)
        assert got.labels == want.labels == ["u", "v"]
        assert got.features.tobytes() == want.features.tobytes()

    @pytest.mark.parametrize("name", sorted(BAD_MATRIX_FILES))
    def test_matrix_reader_errors_match_reference(self, tmp_path, name):
        path = tmp_path / f"{name}.txt"
        path.write_text(BAD_MATRIX_FILES[name])
        got = raised(load_matrix, path)
        assert got == raised(reference_load_matrix, path)
        assert got[0] is MatrixFormatError

    @pytest.mark.parametrize("name", sorted(BAD_FEATURE_FILES))
    def test_feature_reader_errors_match_reference(self, tmp_path, name):
        path = tmp_path / f"{name}.txt"
        path.write_text(BAD_FEATURE_FILES[name])
        got = raised(load_features, path)
        assert got == raised(reference_load_features, path)
        assert got[0] is MatrixFormatError


#: Path a - x - c whose edge a - x has weight 0, and a leaf b hanging off x.
ZERO_WEIGHT_TREE = WeightedTree(
    (0, 1, 2, 3), ((0, 1, 0.0), (1, 2, 3.0), (1, 3, 0.5)), {0: "a", 2: "c", 3: "b"}
)


class TestRandomBinaryTree:
    def test_two_leaves(self):
        t = random_binary_tree(2, 0)
        assert len(t.edges) == 1
        assert 0.0 <= t.edges[0][2] <= 1.0

    def test_deterministic(self):
        a = random_binary_tree(5, 123)
        b = random_binary_tree(5, 123)
        assert a.edges == b.edges

    def test_shape(self):
        t = random_binary_tree(10, 7)
        assert t.n_leaves == 10
        assert len(t.edges) == 2 * 10 - 3
        assert all(0.0 <= w <= 1.0 for _, _, w in t.edges)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            random_binary_tree(1, 0)

    def test_quartet_topology_frequencies(self):
        # at n = 4 the attachment process yields each of the three quartet
        # splits with probability 1/3
        counts = {"ab|cd": 0, "ac|bd": 0, "ad|bc": 0}
        for seed in range(3000):
            t = random_binary_tree(4, seed)
            dm = leaf_distance_matrix(t, unit=True)
            sums = {
                "ab|cd": dm.values[0, 1] + dm.values[2, 3],
                "ac|bd": dm.values[0, 2] + dm.values[1, 3],
                "ad|bc": dm.values[0, 3] + dm.values[1, 2],
            }
            counts[min(sums, key=sums.get)] += 1
        expected = 1000.0
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        # df = 2; 18.4 is far beyond the 0.9999 quantile
        assert chi2 < 18.4, counts


class TestAddNoiseEdges:
    def test_zero_rate_identity(self):
        t = random_binary_tree(8, 0)
        g = add_noise_edges(t, 0.0, 1)
        assert g.noise_edges == ()
        assert g.tree_edges == t.edges

    def test_count_formula(self):
        t = random_binary_tree(64, 0)
        g = add_noise_edges(t, 0.1, 1)
        assert len(g.noise_edges) == 13  # round(0.1 * 126)

    def test_half_up_rounding(self):
        t = random_binary_tree(6, 0)  # 2n - 2 = 10
        g = add_noise_edges(t, 0.25, 1)
        assert len(g.noise_edges) == 3  # floor(2.5 + 0.5)

    def test_deterministic(self):
        t = random_binary_tree(10, 0)
        a = add_noise_edges(t, 0.3, 5)
        b = add_noise_edges(t, 0.3, 5)
        assert a.noise_edges == b.noise_edges

    def test_no_duplicates_or_loops(self):
        t = random_binary_tree(12, 3)
        g = add_noise_edges(t, 0.5, 4)
        seen = {frozenset((u, v)) for u, v, _ in t.edges}
        for u, v, _ in g.noise_edges:
            assert u != v
            key = frozenset((u, v))
            assert key not in seen or seen.remove(key)
            seen.add(key)

    def test_too_many_requested(self):
        t = random_binary_tree(3, 0)  # 4 vertices, 3 edges, 3 free slots
        with pytest.raises(TreeStructureError):
            add_noise_edges(t, 2.0, 0)


class TestShortestPaths:
    def test_no_noise_equals_tree_metric(self):
        t = random_binary_tree(9, 2)
        g = add_noise_edges(t, 0.0, 0)
        dm = graph_leaf_shortest_paths(g)
        assert np.allclose(dm.values, leaf_distance_matrix(t).values, atol=1e-12)

    def test_triangle_shortcut(self):
        # path a - b - c with weights 1, 3 plus a shortcut (a, c) of weight 1
        tree = WeightedTree(
            (0, 1, 2, 3),
            ((0, 1, 1.0), (1, 2, 3.0), (1, 3, 0.0)),
            {0: "a", 2: "c", 3: "b"},
        )
        g = NoisyGraph(tree.vertices, tree.edges, ((0, 2, 1.0),), dict(tree.leaf_labels))
        dm = graph_leaf_shortest_paths(g)
        ia, ib, ic = dm.labels.index("a"), dm.labels.index("b"), dm.labels.index("c")
        assert dm.values[ia, ic] == 1.0
        assert dm.values[ib, ic] == 2.0  # through a

    def test_metric_properties(self):
        t = random_binary_tree(16, 5)
        g = add_noise_edges(t, 0.4, 6)
        dm = graph_leaf_shortest_paths(g)
        v = dm.values
        assert np.array_equal(v, v.T)
        assert np.all(np.diag(v) == 0.0)
        n = dm.n
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    assert v[x, y] <= v[x, z] + v[z, y] + 1e-9

    def test_shortcuts_never_increase(self):
        t = random_binary_tree(12, 8)
        base = leaf_distance_matrix(t)
        g = add_noise_edges(t, 0.5, 9)
        noisy = graph_leaf_shortest_paths(g)
        assert np.all(noisy.values <= base.values + 1e-12)

    def test_bitwise_matches_dense_reference(self):
        for n in (4, 8, 64, 192, 512):
            for s in range(5):
                assert_matches_dense_reference(add_noise_edges(random_binary_tree(n, s), 0.3, s + 1))

    def test_zero_weights_are_edges(self):
        t = ZERO_WEIGHT_TREE
        dm = assert_matches_dense_reference(NoisyGraph(t.vertices, t.edges, (), t.leaf_labels))
        assert dm.values[dm.labels.index("a"), dm.labels.index("b")] == 0.5
        dm = assert_matches_dense_reference(
            NoisyGraph(t.vertices, t.edges, ((0, 2, 0.0),), t.leaf_labels)
        )
        assert dm.values[dm.labels.index("a"), dm.labels.index("c")] == 0.0

    def test_parallel_edges_keep_smaller_weight(self):
        t = ZERO_WEIGHT_TREE
        for extra in (((2, 1, 1.0),), ((1, 2, 5.0), (2, 1, 1.0), (1, 2, 2.0))):
            dm = assert_matches_dense_reference(NoisyGraph(t.vertices, t.edges, extra, t.leaf_labels))
            assert dm.values[dm.labels.index("a"), dm.labels.index("c")] == 1.0

    def test_disconnected_rejected(self):
        edges = ((0, 1, 1.0), (2, 3, 1.0))
        g = NoisyGraph((0, 1, 2, 3), edges, (), {0: "a", 1: "b", 2: "c", 3: "d"})
        with pytest.raises(TreeStructureError, match="disconnected"):
            graph_leaf_shortest_paths(g)

    def test_peak_memory_bounded(self):
        # The graph is built sparse from the edge list; a dense vertex-by-vertex
        # matrix alone would be 8 MiB at n = 512.
        g = add_noise_edges(random_binary_tree(512, 0), 0.3, 1)
        tracemalloc.start()
        try:
            graph_leaf_shortest_paths(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


class TestDasguptaMeasurements:
    def test_triplet(self):
        t = WeightedTree(
            (0, 1, 2, 3, 4),
            ((0, 3, 0.5), (1, 3, 0.5), (3, 4, 0.5), (2, 4, 1.0)),
            {0: "a", 1: "b", 2: "c"},
            root=4,
        )
        dm = lca_clan_sizes(t)
        assert dm.values[0, 1] == 2.0
        assert dm.values[0, 2] == 3.0

    def test_root_pairs_get_n(self):
        t = midpoint_root(random_binary_tree(10, 4))
        dm = lca_clan_sizes(t)
        assert dm.pair_vector().max() == 10.0

    def test_unrooted_rejected(self):
        with pytest.raises(ValueError):
            lca_clan_sizes(random_binary_tree(5, 0))


class TestCosine:
    def test_identical_rows(self):
        ft = FeatureTable(["u", "v"], [[1.0, 2.0], [2.0, 4.0]])
        dm = cosine_dissimilarity(ft)
        assert dm.values[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_rows(self):
        ft = FeatureTable(["u", "v"], [[1.0, 0.0], [0.0, 1.0]])
        assert cosine_dissimilarity(ft).values[0, 1] == 1.0

    def test_antipodal_rows(self):
        ft = FeatureTable(["u", "v"], [[1.0, 0.0], [-1.0, 0.0]])
        assert cosine_dissimilarity(ft).values[0, 1] == 2.0

    def test_zero_row_named(self):
        with pytest.raises(MatrixFormatError, match="bad_row"):
            FeatureTable(["ok", "bad_row"], [[1.0, 0.0], [0.0, 0.0]])

    def test_huge_and_tiny_rows(self):
        # Unscaled, the norm of (1e300, 1) overflows, which made its cosines
        # 0, and a row near 1e-200 underflowed to a zero norm and was rejected.
        ft = FeatureTable(["u", "v", "w", "t"],
                          [[1e300, 1.0], [1.0, 2.0], [3.0, 1.0], [1e-200, 3e-200]])
        d = cosine_dissimilarity(ft).values
        assert d[0, 1] == pytest.approx(1.0 - 1.0 / np.sqrt(5.0), abs=1e-15)
        assert d[0, 2] == pytest.approx(1.0 - 3.0 / np.sqrt(10.0), abs=1e-15)
        assert d[3, 1] == pytest.approx(1.0 - 7.0 / np.sqrt(50.0), abs=1e-15)
        assert d[3, 2] == pytest.approx(1.0 - 6.0 / np.sqrt(100.0), abs=1e-15)

    def test_ordinary_rows_keep_their_bits(self):
        # Dividing a row by a power of two is exact, so rows whose norms
        # never overflowed give the cosines of the unscaled formula.
        rng = np.random.default_rng(41)
        for _ in range(40):
            n, d = rng.integers(2, 30, size=2)
            feats = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-100, 100, size=(n, 1))
            norms = np.linalg.norm(feats, axis=1)
            vals = np.clip(1.0 - (feats @ feats.T) / np.outer(norms, norms), 0.0, 2.0)
            np.fill_diagonal(vals, 0.0)
            labels = [str(i) for i in range(n)]
            want = DistanceMatrix(labels, (vals + vals.T) / 2.0).values
            got = cosine_dissimilarity(FeatureTable(labels, feats)).values
            assert got.tobytes() == want.tobytes()


class TestMatrixFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(40)
        raw = rng.random((5, 5))
        vals = np.triu(raw, 1)
        dm = DistanceMatrix([f"s{i}" for i in range(5)], vals + vals.T)
        path = tmp_path / "m.txt"
        save_matrix(dm, path)
        back = load_matrix(path)
        assert back.labels == dm.labels
        assert np.array_equal(back.values, dm.values)

    def test_asymmetric_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a\tb\n0\t1.0\n0.5\t0\n")
        with pytest.raises(MatrixFormatError, match="asymmetry"):
            load_matrix(path)

    def test_negative_located(self, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("a\tb\n0\t-1.0\n-1.0\t0\n")
        with pytest.raises(MatrixFormatError, match="row 1"):
            load_matrix(path)

    def test_nan_located(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("a\tb\n0\tnan\nnan\t0\n")
        with pytest.raises(MatrixFormatError, match="non-finite"):
            load_matrix(path)

    def test_comma_separated(self, tmp_path):
        path = tmp_path / "csv.txt"
        path.write_text("a,b,c\n0,1,2\n1,0,3\n2,3,0\n")
        dm = load_matrix(path)
        assert dm.labels == ["a", "b", "c"]
        assert dm.values[1, 2] == 3.0

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("a\tb\n0\t1\n")
        with pytest.raises(MatrixFormatError, match="rows"):
            load_matrix(path)


class TestFeatureFiles:
    def test_round_trip(self, tmp_path):
        ft = FeatureTable(["u", "v"], [[0.5, 1.5, -2.0], [3.0, 0.25, 1.0]])
        path = tmp_path / "f.txt"
        save_features(ft, path)
        back = load_features(path)
        assert back.labels == ft.labels
        assert np.array_equal(back.features, ft.features)

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("label\tf0\tf1\nu\t1.0\n")
        with pytest.raises(MatrixFormatError, match="row 1"):
            load_features(path)

    def test_edge_list(self, tmp_path):
        t = random_binary_tree(5, 0)
        g = add_noise_edges(t, 0.5, 1)
        path = tmp_path / "g.tsv"
        save_edge_list(g, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "u\tv\tweight\tkind"
        kinds = {ln.split("\t")[3] for ln in lines[1:]}
        assert kinds == {"tree", "noise"}


class TestNoiseDeltaInvariant:
    def test_zero_rate_zero_delta_positive_rate_positive(self):
        from hyptree.metrics import delta_exact

        positive = 0
        for seed in range(20):
            t = random_binary_tree(64, seed)
            clean = graph_leaf_shortest_paths(add_noise_edges(t, 0.0, seed))
            assert delta_exact(clean).delta <= 1e-12
            noisy = graph_leaf_shortest_paths(add_noise_edges(t, 0.3, seed))
            if delta_exact(noisy).delta > 1e-9:
                positive += 1
        assert positive >= 19
