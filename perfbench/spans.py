"""Spans recorded around calls into hyptree's public functions.

The tracer replaces a module attribute with a wrapper that opens a span,
calls the original and closes the span, so a call is traced exactly when the
caller looks the name up in that module at call time.  Spans live in memory
as ``[name, parent_index, start, end]`` and are written out once, at the end
of a run.  Nothing under ``src/`` is changed; every patch is undone by
:meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, parent, time.perf_counter(), None])
        self._open.append(idx)
        try:
            yield idx
        finally:
            self.spans[idx][3] = time.perf_counter()
            self._open.pop()

    def wrap(self, module, attr: str, name, count=None) -> None:
        """Trace ``module.attr``; ``name`` is a span name or a function of the call's args.

        ``count(counts, args, kwargs, result)`` may add layer counters.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name(*args, **kwargs) if callable(name) else name):
                result = original(*args, **kwargs)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        self._patches.append((module, attr, original))
        setattr(module, attr, traced)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def totals(self, root: str) -> tuple[int, dict[str, float], dict[str, float], Counter]:
        """Per-name time, self time and call counts under spans named ``root``.

        Returns ``(roots, seconds, self_seconds, calls)``.  Self time is a
        span's duration minus the time its direct children cover.
        """
        child_time = defaultdict(float)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        under = [False] * len(self.spans)
        roots = 0
        seconds: dict[str, float] = defaultdict(float)
        self_seconds: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for idx, (name, parent, start, end) in enumerate(self.spans):
            if name == root and parent is None:
                roots += 1
                under[idx] = True
                continue
            under[idx] = parent is not None and under[parent]
            if not under[idx]:
                continue
            seconds[name] += end - start
            self_seconds[name] += end - start - child_time[idx]
            calls[name] += 1
        return roots, seconds, self_seconds, calls

    def children_of(self, parent_name: str, names: tuple[str, ...]) -> float:
        """Seconds spent in spans named ``names`` whose parent is a ``parent_name`` span."""
        total = 0.0
        for name, parent, start, end in self.spans:
            if name in names and parent is not None and self.spans[parent][0] == parent_name:
                total += end - start
        return total

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: k for k, n in enumerate(names)}
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [
            [ids[name], parent, round((start - t0) * 1e6), round((end - start) * 1e6)]
            for name, parent, start, end in self.spans
        ]
        doc = {
            "columns": ["name", "parent", "start_us", "duration_us"],
            "names": names,
            "counts": dict(self.counts),
            "spans": rows,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _epochs(counts, args, kwargs, result) -> None:
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    # ``auto`` trains once from the tree start and once from the mds start.
    starts = 2 if cfg.init_scheme == "auto" else 1
    counts["embedding.epochs"] += cfg.total_epochs * starts


def _quadruples(counts, args, kwargs, result) -> None:
    counts["metrics.delta_exact.quadruples"] += result.quadruples_evaluated


def _clamps(counts, args, kwargs, result) -> None:
    if isinstance(result, tuple):
        counts["decoders.neighbor_joining.clamps"] += result[1]


def _linkage_name(dm, method, *rest, **kwargs) -> str:
    return f"decoders.linkage.{method}"


def install(tracer: Tracer, ht) -> None:
    """Patch the names the encoder, ``pipeline`` and ``cli`` look up at call time."""
    for fn in ("pairwise_distance_matrix", "exp_map_points", "clip_to_ball",
               "conformal_to_riemannian"):
        tracer.wrap(ht.ball, fn, f"ball.{fn}")
    # The encoder's tree start imports these two when it is called.
    tracer.wrap(ht.decoders, "neighbor_joining", "decoders.neighbor_joining", _clamps)
    tracer.wrap(ht.trees, "midpoint_root", "trees.midpoint_root")

    pl = ht.pipeline
    tracer.wrap(pl, "train_embedding", "embedding.train_embedding", _epochs)
    tracer.wrap(pl, "denoised_metric", "embedding.denoised_metric")
    tracer.wrap(pl, "measure_delta", "pipeline.measure_delta")
    tracer.wrap(pl, "delta_exact", "metrics.delta_exact", _quadruples)
    tracer.wrap(pl, "delta_sampled", "metrics.delta_sampled")
    tracer.wrap(pl, "lp_cost", "metrics.lp_cost")
    tracer.wrap(pl, "decode_and_score", "pipeline.decode_and_score")
    tracer.wrap(pl, "neighbor_joining", "decoders.neighbor_joining", _clamps)
    tracer.wrap(pl, "linkage", _linkage_name)
    tracer.wrap(pl, "dendrogram_to_ultrametric", "decoders.dendrogram_to_ultrametric")
    tracer.wrap(pl, "dendrogram_to_tree", "decoders.dendrogram_to_tree")
    tracer.wrap(pl, "midpoint_root", "trees.midpoint_root")
    tracer.wrap(pl, "leaf_distance_matrix", "trees.leaf_distance_matrix")

    cli = ht.cli
    tracer.wrap(cli, "load_matrix", "data.load_matrix")
    tracer.wrap(cli, "run_pipeline", "pipeline.run_pipeline")
    tracer.wrap(cli, "write_newick", "newick.write_newick")
    for fn in ("save_matrix", "write_embedding", "write_loss_trace", "write_dendrogram"):
        tracer.wrap(cli, fn, f"cli.{fn}")


def install_data(tracer: Tracer, data) -> None:
    """Patch the synthetic-data generators the benchmark calls during set-up."""
    for fn in ("random_binary_tree", "add_noise_edges", "graph_leaf_shortest_paths"):
        tracer.wrap(data, fn, f"data.{fn}")
