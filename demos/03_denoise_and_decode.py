#!/usr/bin/env python3
"""The full denoising story on a synthetic benchmark.

A random weighted tree is corrupted with shortcut edges; the observable is
the leaf-to-leaf shortest-path metric.  A Poincare-ball embedding is fitted
to that metric, its pairwise distances form the denoised matrix, and every
decoder runs on both versions.  Denoising slashes delta; decoder losses are
reported against the original input either way.
"""

from hyptree import (
    EncoderConfig,
    add_noise_edges,
    delta_exact,
    denoised_metric,
    graph_leaf_shortest_paths,
    random_binary_tree,
    run_pipeline,
    train_embedding,
)

tree = random_binary_tree(48, seed=3)
graph = add_noise_edges(tree, 0.3, seed=4)
dm = graph_leaf_shortest_paths(graph)
print(f"input: n = {dm.n}, {len(graph.noise_edges)} shortcut edges, "
      f"delta = {delta_exact(dm).delta:.3f}")

cfg = EncoderConfig(seed=0, total_epochs=800)
result = train_embedding(dm, cfg)
den = denoised_metric(result)
print(f"encoder: final l2 distortion = {result.final_loss:.2f} "
      f"(after the first iteration {result.loss_trace[0]:.2f}; "
      f"{result.iterations} iterations, {result.stop_reason})")
print(f"denoised delta = {delta_exact(den).delta:.3f}")

report, artifacts = run_pipeline(
    dm, cfg, ("nj", "single", "complete", "average", "weighted"),
    dataset="demo",
)
print("\nper-decoder l2 losses against the original matrix:")
print(f"  {'decoder':10s} {'direct':>9s} {'denoised':>9s} {'gain':>8s}")
for row in report.rows:
    print(f"  {row.name:10s} {row.loss_direct:9.2f} {row.loss_denoised:9.2f} "
          f"{100 * row.gain:7.1f}%")
nj = artifacts["nj_denoised"]
print("\nnegative branch lengths clamped by NJ:",
      f"direct {artifacts['nj_direct'].clamps}, denoised {nj.clamps}")
