#!/usr/bin/env python3
"""Held-out quality of the default encoder: does denoising help Neighbor Joining?

The 24 held-out instances share no tree or noise seed with the acceptance
gates: ``random_binary_tree(n, t)`` with shortcut noise from
``add_noise_edges(tree, rate, s)``, for n in {64, 128}, tree seeds
t in {11, 12}, noise seeds s in {111, 112} and rates 0.1, 0.3 and 0.5.  Each
is fitted once with the default ``EncoderConfig``.  An instance's NJ ratio
is the l2 loss against the input of Neighbor Joining on the denoised matrix,
divided by that of Neighbor Joining on the input; below 1 is a win.

Printed: one line per instance, then the total encoder loss, the mean NJ
ratio, the wins, the total iterations, the count of each stop reason and the
encoder's total wall time (the only figure that depends on the machine).
"""

import time
from collections import Counter

from hyptree import (
    EncoderConfig,
    add_noise_edges,
    denoised_metric,
    graph_leaf_shortest_paths,
    random_binary_tree,
    train_embedding,
)
from hyptree.pipeline import decode_and_score

cfg = EncoderConfig()
losses, ratios, iterations, reasons = [], [], [], Counter()
seconds = 0.0
print(f"{'n':>4s} {'tree':>4s} {'noise':>5s} {'rate':>4s} {'loss':>8s} "
      f"{'NJ ratio':>8s} {'iters':>5s}")
for n in (64, 128):
    for tree_seed in (11, 12):
        tree = random_binary_tree(n, tree_seed)
        for noise_seed in (111, 112):
            for rate in (0.1, 0.3, 0.5):
                dm = graph_leaf_shortest_paths(add_noise_edges(tree, rate, noise_seed))
                t0 = time.perf_counter()
                result = train_embedding(dm, cfg)
                seconds += time.perf_counter() - t0
                direct = decode_and_score(dm, dm, "nj", cfg.p).loss
                denoised = decode_and_score(denoised_metric(result), dm, "nj", cfg.p).loss
                losses.append(result.final_loss)
                ratios.append(denoised / direct)
                iterations.append(result.iterations)
                reasons[result.stop_reason] += 1
                print(f"{n:4d} {tree_seed:4d} {noise_seed:5d} {rate:4.1f} "
                      f"{result.final_loss:8.2f} {ratios[-1]:8.3f} {result.iterations:5d}")

print(f"\ntotal encoder loss  {sum(losses):.2f}")
print(f"mean NJ ratio       {sum(ratios) / len(ratios):.3f}")
print(f"NJ wins             {sum(r < 1.0 for r in ratios)}/{len(ratios)}")
print(f"iterations          {sum(iterations)}")
print("stop reasons:")
for reason, count in reasons.most_common():
    print(f"  {count:2d}  {reason}")
print(f"encoder seconds     {seconds:.1f}")
