"""End-to-end runs: measure, denoise, decode on both matrices, score, compare.

Also hosts the objective comparison study: over a fixed pool of random
topologies, pick the best tree under the l2 distance fit and under the
clan-size (Dasgupta) objective for measurements generated by each, and score
every pick by its unit-edge distance to the ground-truth tree.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import random_binary_tree
from .decoders import (
    LINKAGE_METHODS,
    Dendrogram,
    cophenetic_pairs,
    dendrogram_to_tree,
    dendrogram_to_ultrametric,  # not called here; perfbench/spans.py traces it by name
    linkage,
    neighbor_joining,
)
from .embedding import EncoderConfig, denoised_metric, train_embedding
from .metrics import (
    DistanceMatrix,
    HyperbolicityReport,
    delta_exact,
    delta_sampled,
    lp_cost,  # not called here; perfbench/spans.py traces it by name
    lp_pair_cost,
)
from .report import DecoderRow, ObjectiveStudyResult, RunReport
from .trees import (
    WeightedTree,
    design_matrix,
    lca_clan_sizes,
    leaf_distance_matrix,
    midpoint_root,
    midpoint_root_and_metric,
    tree_distance,
    unit_edges,
)

TREE_DECODERS = ("nj",)
ALL_DECODERS = TREE_DECODERS + LINKAGE_METHODS

#: Beyond this many entities, delta is estimated from sampled quadruples.
#: One exact scan uses every CPU in the process's affinity set, with the same
#: bits for any count, and takes about 1.4 s at n = 300 on a 2-vCPU x86-64 VM
#: (2.1 s on one of its CPUs).  The cutoff stays there because ``auto`` also
#: runs at n = 512 (the ``decode-n512`` benchmark), where a scan covers about
#: 51x the quadruples of n = 192 and takes 11 s on both CPUs, against 0.05 s
#: for the default 1e6 samples (median of 9 seeds).
DELTA_EXACT_MAX_N = 300
DELTA_DEFAULT_SAMPLES = 10**6
#: The modes :func:`measure_delta` accepts.
DELTA_MODES = ("auto", "exact", "sampled")


def measure_delta(
    dm: DistanceMatrix,
    mode: str = "auto",
    samples: int = DELTA_DEFAULT_SAMPLES,
    seed: int = 0,
) -> HyperbolicityReport:
    """Exact delta for small inputs, sampled lower bound for large ones.

    A sample count below 1 is an error in every mode, exact included."""
    if samples < 1:
        raise ValueError(f"sample count must be >= 1, got {samples}")
    if mode == "auto":
        mode = "exact" if dm.n <= DELTA_EXACT_MAX_N else "sampled"
    if mode == "exact":
        return delta_exact(dm)
    if mode == "sampled":
        return delta_sampled(dm, samples, seed)
    raise ValueError(f"unknown delta mode {mode!r}")


@dataclass
class DecodeOutcome:
    loss: float
    clamps: int | None
    tree: WeightedTree
    dendrogram: Dendrogram | None


def decode_and_score(decode_dm: DistanceMatrix, eval_dm: DistanceMatrix, method: str,
                     p: float = 2.0) -> DecodeOutcome:
    """Run one decoder on ``decode_dm`` and score its metric against ``eval_dm``.

    Tree decoders are midpoint-rooted and scored on the leaf metric of the
    unrooted tree, which equals the rooted tree's in exact arithmetic;
    linkage decoders are scored on their cophenetic (ultrametric) heights.
    Both are scored on their pair vectors (a tree's over its sorted labels,
    a dendrogram's over ``decode_dm``'s), permuted into ``eval_dm``'s order
    when the labels differ, with no n x n matrix built.  The loss is
    ``lp_cost(fitted.reordered(eval_dm.labels), eval_dm, p)``, bit for bit.
    """
    if method == "nj":
        tree, clamps = neighbor_joining(decode_dm)
        if tree.n_leaves >= 2:
            rooted, pairs = midpoint_root_and_metric(tree)
        else:
            rooted, pairs = tree, np.zeros(0)
        labels = [lbl for lbl, _ in tree.sorted_leaves()]
        return DecodeOutcome(_score(labels, pairs, eval_dm, p), clamps, rooted, None)
    dend = linkage(decode_dm, method)
    loss = _score(list(dend.labels), cophenetic_pairs(dend), eval_dm, p)
    return DecodeOutcome(loss, None, dendrogram_to_tree(dend), dend)


def _score(labels: list[str], pairs: np.ndarray, eval_dm: DistanceMatrix, p: float) -> float:
    """l_p loss against ``eval_dm`` of a metric given as its pair vector over
    ``labels``."""
    if labels != eval_dm.labels:
        pairs = _reorder_pairs(pairs, labels, eval_dm.labels)
    return lp_pair_cost(pairs, eval_dm.pair_vector(), p)


def _reorder_pairs(pairs: np.ndarray, labels: list[str], order: list[str]) -> np.ndarray:
    """The pair vector over ``labels`` of an exactly symmetric metric, read
    in ``order``: the ``pair_vector`` of the metric's matrix reordered to
    ``order``, with the same bits and no n x n matrix built."""
    if sorted(labels) != sorted(order):
        raise ValueError("label sets differ; cannot reorder")
    pos = {lbl: k for k, lbl in enumerate(labels)}
    idx = np.array([pos[lbl] for lbl in order], dtype=np.intp)
    n = idx.size
    rows, cols = np.triu_indices(n, 1)
    lo = np.minimum(idx[rows], idx[cols])
    hi = np.maximum(idx[rows], idx[cols])
    # (lo, hi) with lo < hi sits after the n - 1 - r pairs of each row r < lo.
    return pairs[lo * (2 * n - lo - 1) // 2 + (hi - lo - 1)]


def run_pipeline(dm: DistanceMatrix, cfg: EncoderConfig,
                 decoders: tuple[str, ...] = ALL_DECODERS, dataset: str = "input"):
    """Denoise a matrix and decode both versions with every requested decoder.

    Delta before and after denoising follows :func:`measure_delta`'s default:
    exact up to ``DELTA_EXACT_MAX_N`` entities, else ``DELTA_DEFAULT_SAMPLES``
    quadruples sampled with seed 0.  Returns ``(report, artifacts)`` where
    ``artifacts`` maps names like ``"nj_direct"`` to DecodeOutcome objects
    plus ``"denoised"`` to the denoised DistanceMatrix and ``"embedding"`` to
    the EmbeddingResult.  A decoder failure is recorded in its row and does
    not stop the run.
    """
    if not decoders:
        raise ValueError("need at least one decoder")
    for name in decoders:
        if name not in ALL_DECODERS:
            raise ValueError(f"unknown decoder {name!r}; pick from {ALL_DECODERS}")
    # Imported before the first timer starts, so no stage's time includes them.
    import scipy.optimize
    import scipy.spatial.distance
    if set(decoders) & set(LINKAGE_METHODS):
        import scipy.cluster.hierarchy
    wall: dict[str, float] = {}

    t0 = time.perf_counter()
    rep_in = measure_delta(dm)
    wall["delta_input"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    result = train_embedding(dm, cfg)
    wall["encoder"] = time.perf_counter() - t0

    denoised = denoised_metric(result)
    t0 = time.perf_counter()
    rep_out = measure_delta(denoised)
    wall["delta_denoised"] = time.perf_counter() - t0

    artifacts = {"denoised": denoised, "embedding": result}
    rows = []
    for name in decoders:
        t0 = time.perf_counter()
        try:
            direct = decode_and_score(dm, dm, name, cfg.p)
            hyper = decode_and_score(denoised, dm, name, cfg.p)
        except Exception as exc:  # isolate the failing decoder's row
            rows.append(DecoderRow(name, 0.0, 0.0, error=f"{type(exc).__name__}: {exc}"))
            continue
        finally:
            wall[f"decode_{name}"] = time.perf_counter() - t0
        artifacts[f"{name}_direct"] = direct
        artifacts[f"{name}_denoised"] = hyper
        rows.append(
            DecoderRow(name, direct.loss, hyper.loss, direct.clamps, hyper.clamps)
        )

    report = RunReport(
        dataset=dataset,
        n=dm.n,
        seed=cfg.seed,
        delta_method=rep_in.method,
        delta_samples=rep_in.quadruples_evaluated if rep_in.method == "sampled" else 0,
        delta_seed=rep_in.seed,
        delta_input=rep_in.delta,
        delta_denoised=rep_out.delta,
        encoder_loss=result.final_loss,
        rows=rows,
        wall_times=wall,
    )
    return report, artifacts


def compare_objectives(n: int, trials: int, pool_size: int, seed: int) -> ObjectiveStudyResult:
    """Score l2-optimal vs Dasgupta-optimal topology picks from a fixed pool.

    Per trial, a ground-truth weighted tree produces two measurement sets:
    its leaf path distances and its lca clan sizes.  For each measurement
    matrix the pool minimizer of the l2 fit (edge weights refit per topology)
    and the pool maximizer of the clan-size objective (higher is better for
    dissimilarities) are picked and compared to the ground truth by unit-edge
    tree distance.
    """
    if pool_size < 1 or trials < 1:
        raise ValueError("trials and pool_size must be positive")
    import scipy.optimize
    rng = np.random.default_rng(seed)
    pool_seeds = rng.integers(0, 2**31, size=pool_size)
    trial_seeds = rng.integers(0, 2**31, size=trials)

    pool = [random_binary_tree(n, int(s)) for s in pool_seeds]
    designs = [design_matrix(t) for t in pool]
    # Clan sizes need a root; topologies are rooted at their unit-weight midpoint.
    clan_vecs = [
        lca_clan_sizes(midpoint_root(unit_edges(t))).pair_vector() for t in pool
    ]

    scatter = np.zeros((trials, 4))
    for t in range(trials):
        truth = random_binary_tree(n, int(trial_seeds[t]))
        d_dist = leaf_distance_matrix(truth)
        d_clan = lca_clan_sizes(midpoint_root(truth))
        for col, dm in ((0, d_dist), (2, d_clan)):
            b = dm.pair_vector()
            resid = np.array([scipy.optimize.nnls(A, b)[1] for A in designs])
            scores = np.array([cv @ b for cv in clan_vecs])
            best_l2 = pool[int(np.argmin(resid))]
            best_dasg = pool[int(np.argmax(scores))]
            scatter[t, col] = tree_distance(truth, best_l2)
            scatter[t, col + 1] = tree_distance(truth, best_dasg)
    return ObjectiveStudyResult(n, trials, pool_size, scatter)
