"""Pipeline orchestration and objective-study checks."""

import numpy as np
import pytest
import scipy.optimize

import hyptree.pipeline as pipeline_mod
from hyptree.data import add_noise_edges, graph_leaf_shortest_paths, random_binary_tree
from hyptree.decoders import (
    LINKAGE_METHODS,
    dendrogram_to_ultrametric,
    linkage,
    neighbor_joining,
)
from hyptree.embedding import EncoderConfig
from hyptree.metrics import DistanceMatrix, delta_exact, lp_cost
from hyptree.pipeline import (
    ALL_DECODERS,
    compare_objectives,
    decode_and_score,
    measure_delta,
    run_pipeline,
)
from hyptree.report import parse_report
from hyptree.trees import (
    design_matrix,
    leaf_distance_matrix,
    midpoint_root,
    tree_distance,
)


def noisy_input(n=16, rate=0.3, seed=0):
    t = random_binary_tree(n, seed)
    g = add_noise_edges(t, rate, seed + 1)
    return graph_leaf_shortest_paths(g)


def triu_lp_cost(fitted, target, p):
    """l_p loss of two aligned matrices over the pairs ``np.triu_indices`` gathers."""
    diff = np.abs(fitted.values - target.values)[np.triu_indices(fitted.n, 1)]
    return 0.0 if diff.size == 0 else float(np.sum(diff**p) ** (1.0 / p))


def scoring_inputs():
    """Integer entries 0-2, so Q and merge heights tie and some off-diagonal
    entries are zero, with labels that sort in index order; then a noisy
    tree metric whose labels do not ("t10" < "t2")."""
    rng = np.random.default_rng(47)
    for n in (1, 2, 3, 5, 40, 300):
        vals = np.triu(rng.integers(0, 3, size=(n, n)).astype(float), 1)
        yield DistanceMatrix([f"e{k:03d}" for k in range(n)], vals + vals.T)
    yield noisy_input(n=40, seed=3)


SMALL_CFG = EncoderConfig(seed=0, total_epochs=120)


class TestMeasureDelta:
    def test_auto_small_is_exact(self):
        dm = noisy_input()
        rep = measure_delta(dm, "auto")
        assert rep.method == "exact"
        assert rep.delta == delta_exact(dm).delta

    def test_sampled_mode(self):
        dm = noisy_input()
        rep = measure_delta(dm, "sampled", samples=500, seed=3)
        assert rep.method == "sampled"
        assert rep.delta <= delta_exact(dm).delta

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            measure_delta(noisy_input(), "guess")


class TestDecodeAndScore:
    def test_nj_matches_manual(self):
        dm = noisy_input()
        out = decode_and_score(dm, dm, "nj")
        tree, clamps = neighbor_joining(dm)
        rooted = midpoint_root(tree)
        expected = lp_cost(
            leaf_distance_matrix(rooted).reordered(dm.labels), dm, 2.0
        )
        assert out.loss == expected
        assert out.clamps == clamps
        assert out.tree.root is not None
        assert out.dendrogram is None

    def test_nj_loss_matches_rooted_metric(self):
        # the loss is scored on the unrooted metric; the returned rooted
        # tree's metric differs from it by rounding only
        for seed in range(4):
            dm = noisy_input(n=40, seed=seed)
            out = decode_and_score(dm, dm, "nj")
            rooted = lp_cost(leaf_distance_matrix(out.tree).reordered(dm.labels), dm, 2.0)
            assert out.loss == pytest.approx(rooted, rel=1e-12, abs=0.0)

    def test_linkage_matches_manual(self):
        dm = noisy_input()
        out = decode_and_score(dm, dm, "average")
        coph = dendrogram_to_ultrametric(linkage(dm, "average"))
        assert out.loss == lp_cost(coph.reordered(dm.labels), dm, 2.0)
        assert out.dendrogram is not None

    def test_scored_in_eval_label_order(self):
        # Decoded matrices come in sorted label order; an evaluation matrix
        # in another order gets them reordered to its own.
        dm = noisy_input()
        flipped = dm.reordered(dm.labels[::-1])
        fitted = {
            "nj": leaf_distance_matrix(neighbor_joining(dm)[0]),
            "average": dendrogram_to_ultrametric(linkage(dm, "average")),
        }
        for method, metric in fitted.items():
            out = decode_and_score(dm, flipped, method)
            assert out.loss == lp_cost(metric.reordered(flipped.labels), flipped, 2.0)


    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_loss_bits_match_fitted_matrix(self, p):
        # Scored on pair vectors, permuted when the labels differ, every loss
        # equals that of the explicit fitted matrix bit for bit; n = 300 is
        # above the size where NJ searches sorted rows.
        for dm in scoring_inputs():
            fitted = {"nj": leaf_distance_matrix(neighbor_joining(dm)[0])}
            for method in LINKAGE_METHODS:
                fitted[method] = dendrogram_to_ultrametric(linkage(dm, method))
            for order in (dm.labels, dm.labels[::-1]):
                ev = dm.reordered(order)
                for method, metric in fitted.items():
                    loss = decode_and_score(dm, ev, method, p).loss
                    aligned = metric.reordered(ev.labels)
                    want = triu_lp_cost(aligned, ev, p)
                    assert loss == lp_cost(aligned, ev, p) == want, (dm.n, method)

    @staticmethod
    def forbidden(*args):
        raise AssertionError("built, reordered or scored a fitted matrix")

    def test_no_fitted_matrix_when_labels_align(self, monkeypatch):
        for name in ("leaf_distance_matrix", "dendrogram_to_ultrametric", "lp_cost"):
            monkeypatch.setattr(pipeline_mod, name, self.forbidden)
        dm = noisy_input()
        dm = dm.reordered(sorted(dm.labels))
        for method in ALL_DECODERS:
            assert decode_and_score(dm, dm, method).loss > 0.0

    def test_relabelled_scored_on_pairs(self, monkeypatch):
        # With labels out of the decoder's order, every decoder's pair vector
        # is permuted into the evaluation order: no fitted matrix is built or
        # reordered, and the loss keeps the matrix route's bits.
        dm = noisy_input(n=40, seed=3)
        reversed_dm = dm.reordered(sorted(dm.labels)[::-1])
        fitted = {"nj": leaf_distance_matrix(neighbor_joining(reversed_dm)[0])}
        for method in LINKAGE_METHODS:
            fitted[method] = dendrogram_to_ultrametric(linkage(dm, method))
        for p in (1.0, 1.5, 2.0, 3.0):
            for method, metric in fitted.items():
                decode_dm = reversed_dm if method == "nj" else dm
                want = lp_cost(metric.reordered(reversed_dm.labels), reversed_dm, p)
                with monkeypatch.context() as patch:
                    for name in ("leaf_distance_matrix", "dendrogram_to_ultrametric",
                                 "lp_cost"):
                        patch.setattr(pipeline_mod, name, self.forbidden)
                    patch.setattr(DistanceMatrix, "reordered", self.forbidden)
                    loss = decode_and_score(decode_dm, reversed_dm, method, p).loss
                assert loss == want, (method, p)

    def test_reorder_rejects_other_labels(self):
        dm = noisy_input()
        other = DistanceMatrix([f"x{k}" for k in range(dm.n)], dm.values)
        for method in ("nj", "average"):
            with pytest.raises(ValueError, match="label sets differ"):
                decode_and_score(dm, other, method)


class TestRunPipeline:
    def test_report_structure_and_gains(self):
        dm = noisy_input()
        report, artifacts = run_pipeline(dm, SMALL_CFG, ("nj", "single"), dataset="toy")
        assert report.dataset == "toy"
        assert report.n == dm.n
        assert report.delta_method == "exact"
        assert {r.name for r in report.rows} == {"nj", "single"}
        for row in report.rows:
            assert row.error is None
            assert row.gain == row.loss_direct / row.loss_denoised - 1.0
        assert "nj_direct" in artifacts and "single_denoised" in artifacts
        assert artifacts["nj_direct"].clamps is not None

    def test_report_text_round_trip(self):
        dm = noisy_input()
        report, _ = run_pipeline(dm, SMALL_CFG, ("nj",), dataset="toy")
        parsed = parse_report(report.to_text())
        gain = float(parsed["nj.gain"])
        direct = float(parsed["nj.loss_direct"])
        denoised = float(parsed["nj.loss_denoised"])
        assert abs(gain - (direct / denoised - 1.0)) <= 1e-12
        assert "wall" not in report.to_text()

    def test_decoder_failure_isolated(self, monkeypatch):
        dm = noisy_input()

        def explode(*args, **kwargs):
            raise RuntimeError("decoder blew up")

        monkeypatch.setattr(pipeline_mod, "neighbor_joining", explode)
        report, artifacts = run_pipeline(dm, SMALL_CFG, ("nj", "single"))
        by_name = {r.name: r for r in report.rows}
        assert by_name["nj"].error is not None
        assert "decoder blew up" in by_name["nj"].error
        assert by_name["single"].error is None
        assert "single_direct" in artifacts

    def test_unknown_decoder_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline(noisy_input(), SMALL_CFG, ("nj", "mystery"))

    def test_no_decoders_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline(noisy_input(), SMALL_CFG, ())

    def test_deterministic(self):
        dm = noisy_input()
        a, _ = run_pipeline(dm, SMALL_CFG, ("nj", "average"))
        b, _ = run_pipeline(dm, SMALL_CFG, ("nj", "average"))
        assert a.to_text() == b.to_text()


class TestCompareObjectives:
    def test_shapes_and_determinism(self):
        a = compare_objectives(6, trials=3, pool_size=25, seed=4)
        b = compare_objectives(6, trials=3, pool_size=25, seed=4)
        assert a.scatter.shape == (3, 4)
        assert np.array_equal(a.scatter, b.scatter)
        assert set(a.means) == {
            "l2_fit_on_distances",
            "dasgupta_fit_on_distances",
            "l2_fit_on_clan_sizes",
            "dasgupta_fit_on_clan_sizes",
        }
        text = a.to_text()
        assert "mean.l2_fit_on_distances" in text
        assert len(text.splitlines()) == 3 + 4 + 1 + 3

    def test_truth_in_pool_is_selected_by_l2(self):
        # the zero-residual weight fit makes the generating topology the
        # unique l2 minimizer when it is present in the pool
        rng = np.random.default_rng(70)
        truth = random_binary_tree(7, 99)
        pool = [truth] + [random_binary_tree(7, int(s)) for s in rng.integers(0, 50, 8)]
        target = leaf_distance_matrix(truth).pair_vector()
        resid = [
            scipy.optimize.nnls(design_matrix(t), target)[1] for t in pool
        ]
        best = pool[int(np.argmin(resid))]
        assert tree_distance(truth, best) == 0.0
        assert resid[0] <= 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            compare_objectives(6, trials=0, pool_size=5, seed=0)


class TestPerfectInput:
    def test_clean_tree_metric_gains_nothing(self):
        from hyptree.trees import leaf_distance_matrix

        dm = leaf_distance_matrix(random_binary_tree(8, 2))
        report, _ = run_pipeline(
            dm, EncoderConfig(seed=0, total_epochs=300), ("nj",)
        )
        row = report.rows[0]
        assert row.loss_direct < 1e-6
        assert row.gain <= 1e-6  # denoising cannot help a perfect input
