"""Benchmark for hyptree: end-to-end time and fit quality, with traced layers.

Run from the repository root::

    python3 perfbench/run.py --workload pipeline-n64 --seed 0 --seconds 25 --trace 0

Each workload draws a fixed number of noisy synthetic instances from
``--seed`` (a random binary tree, shortcut edges at rate 0.3, leaf shortest
paths), then runs its flow on them in turn, in this one process, until at
least ``--seconds`` have passed and every instance has run once, plus one
repeat of the first.  Only the flow call is timed; output checks run after it.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the environment, sample counts and any failure messages.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every flow
call twice, untraced and then traced, prints the per-layer metrics and writes
all spans to ``.perfbench_out/``.  ``--smoke`` shrinks every size so the
harness is checked in seconds.  See ``perfbench/README.md`` for what each
metric means and which workload should move it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans as tracing  # noqa: E402  (perfbench/spans.py)

NOISE_RATE = 0.3
DECODERS = ("nj", "single", "complete", "average", "weighted")
SAMPLED_QUADRUPLES = 10**6
SETUP_REPEATS = 3
CLEAN_DELTA_TOL = 1e-9
# The exact scan and the sampler add each quadruple's pair sums in a
# different order, so the same maximum can differ in the last bits.
DELTA_ROUNDING = 1e-12

FITS = tuple(f"fit_{m}" for m in DECODERS)
QUALITY = ("encoder_loss", "delta_ratio") + FITS
# Quality figures a workload's flow does not produce are reported as this
# fixed value, so that every workload prints the same metric set.
NOT_MEASURED = 1.0

PER_LAYER_SECONDS = (
    ["ball.pairwise_distance_matrix", "ball.exp_map_points", "ball.clip_to_ball",
     "ball.conformal_to_riemannian", "embedding.train_embedding",
     "metrics.delta_exact", "metrics.delta_sampled", "metrics.lp_cost",
     "decoders.neighbor_joining"]
    + [f"decoders.linkage.{m}" for m in DECODERS[1:]]
    + ["decoders.dendrogram_to_ultrametric", "decoders.dendrogram_to_tree",
       "trees.midpoint_root", "trees.leaf_distance_matrix",
       "newick.write_newick", "pipeline.decode_and_score"]
)
PER_LAYER_CALLS = ("ball.pairwise_distance_matrix", "metrics.delta_exact")
PER_LAYER_SETUP = ("data.random_binary_tree", "data.add_noise_edges",
                   "data.graph_leaf_shortest_paths")


@dataclass
class Instance:
    tree: object
    noisy: object
    clean: object = None
    path: Path | None = None


@dataclass
class Outcome:
    """What one flow call produced, judged outside the timed region."""

    quality: dict[str, float] = field(default_factory=dict)
    fingerprint: str = ""
    errors: list[str] = field(default_factory=list)


@dataclass
class Workload:
    n: int
    instances: int
    prepare: Callable | None
    run: Callable
    judge: Callable
    quality: tuple[str, ...]


# ---------------------------------------------------------------- flows


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


def prepare_pipeline(ht, inst: Instance, workdir: Path, k: int) -> None:
    inst.path = workdir / f"matrix{k}.txt"
    ht.data.save_matrix(inst.noisy, inst.path)


def run_pipeline(ht, inst: Instance, out: Path):
    """``hyptree pipeline`` in-process: default encoder, all five decoders."""
    return _quiet(ht.cli.main, ["pipeline", "--input", str(inst.path), "--seed", "0",
                                "--output-dir", str(out)])


def judge_pipeline(ht, inst: Instance, out: Path, code) -> Outcome:
    res = Outcome()
    if code != 0:
        res.errors.append(f"pipeline exited with {code}")
        return res
    text = (out / "report.txt").read_text(encoding="utf-8")
    rep = ht.report.parse_report(text)
    res.fingerprint = text
    res.errors += [f"decoder row error: {k} = {v}" for k, v in rep.items() if k.endswith(".error")]
    d_in, d_out = float(rep["delta_input"]), float(rep["delta_denoised"])
    if not d_out < d_in:
        res.errors.append(f"delta_denoised {d_out!r} is not below delta_input {d_in!r}")
    res.quality["encoder_loss"] = float(rep["encoder_loss"])
    res.quality["delta_ratio"] = d_out / d_in
    for m in DECODERS:
        if f"{m}.loss_denoised" in rep:
            res.quality[f"fit_{m}"] = float(rep[f"{m}.loss_denoised"])
        for which in ("direct", "denoised"):
            nwk = (out / f"{m}_{which}.nwk").read_text(encoding="utf-8")
            tree = ht.newick.parse_newick(nwk)
            res.errors += _label_errors(f"{m}_{which}", tree, inst.noisy.labels)
    return res


def run_decode(ht, inst: Instance, out: Path):
    """Direct decode and score with every decoder, plus ``measure_delta`` auto."""
    pl = ht.pipeline
    outcomes = {m: pl.decode_and_score(inst.noisy, inst.noisy, m) for m in DECODERS}
    return outcomes, pl.measure_delta(inst.noisy)


def judge_decode(ht, inst: Instance, out: Path, result) -> Outcome:
    outcomes, delta = result
    res = Outcome()
    parts = [repr(delta.delta)]
    for m, oc in outcomes.items():
        res.quality[f"fit_{m}"] = oc.loss
        res.errors += _label_errors(m, oc.tree, inst.noisy.labels)
        parts.append(f"{m} {oc.loss!r} {oc.clamps} {sorted(oc.tree.edges)!r}")
    res.fingerprint = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    return res


def prepare_delta(ht, inst: Instance, workdir: Path, k: int) -> None:
    inst.clean = ht.trees.leaf_distance_matrix(inst.tree)


def run_delta(ht, inst: Instance, out: Path):
    """Exact and sampled delta of the noisy matrix and of the clean tree metric."""
    md = ht.pipeline.measure_delta
    return [md(dm, mode, SAMPLED_QUADRUPLES, 0)
            for dm in (inst.noisy, inst.clean) for mode in ("exact", "sampled")]


def judge_delta(ht, inst: Instance, out: Path, reports) -> Outcome:
    noisy_exact, noisy_sampled, clean_exact, clean_sampled = (r.delta for r in reports)
    res = Outcome(fingerprint=repr([noisy_exact, noisy_sampled, clean_exact, clean_sampled]))
    if clean_exact > CLEAN_DELTA_TOL:
        res.errors.append(f"clean tree metric has exact delta {clean_exact!r}")
    for what, exact, sampled in (("noisy", noisy_exact, noisy_sampled),
                                 ("clean", clean_exact, clean_sampled)):
        if exact < sampled - DELTA_ROUNDING * max(1.0, abs(sampled)):
            res.errors.append(f"{what}: exact delta {exact!r} < sampled {sampled!r}")
    return res


def _label_errors(what: str, tree, labels) -> list[str]:
    got = sorted(tree.leaf_labels.values())
    if got != sorted(labels):
        return [f"{what}: tree has {len(got)} leaf labels, expected the {len(labels)} input labels"]
    return []


WORKLOADS = {
    "pipeline-n64": Workload(
        64, 5, prepare_pipeline, run_pipeline, judge_pipeline, QUALITY),
    "delta-n192": Workload(
        192, 3, prepare_delta, run_delta, judge_delta, ()),
    "decode-n512": Workload(
        512, 4, None, run_decode, judge_decode, FITS),
}
SMOKE_N = {"pipeline-n64": 10, "delta-n192": 12, "decode-n512": 16}


# ---------------------------------------------------------------- set-up


def import_hyptree():
    """Import hyptree from this checkout's ``src/`` as fresh module objects."""
    for name in [m for m in sys.modules if m == "hyptree" or m.startswith("hyptree.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    importlib.import_module("hyptree")
    importlib.import_module("hyptree.cli")
    mods = {name: sys.modules[f"hyptree.{name}"] for name in
            ("ball", "cli", "data", "decoders", "embedding", "metrics", "newick",
             "pipeline", "report", "trees")}
    origin = Path(mods["cli"].__file__).resolve()
    if not origin.is_relative_to(ROOT / "src"):
        raise ImportError(f"hyptree imported from {origin}, not from {ROOT / 'src'}")
    return type("Hyptree", (), mods)


def make_instances(ht, wl: Workload, n: int, count: int, seed: int,
                   workdir: Path) -> list[Instance]:
    import numpy as np

    seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)
    out = []
    for k, s in enumerate(int(x) for x in seeds):
        tree = ht.data.random_binary_tree(n, s)
        noisy = ht.data.graph_leaf_shortest_paths(ht.data.add_noise_edges(tree, NOISE_RATE, s + 1))
        inst = Instance(tree, noisy)
        if wl.prepare:
            wl.prepare(ht, inst, workdir, k)
        out.append(inst)
    return out


def set_up(wl: Workload, n: int, count: int, seed: int, workdir: Path, tracer):
    """Import and generate ``SETUP_REPEATS`` times (once when tracing).

    Returns the last import, its instances and the median set-up seconds.
    """
    times = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        t0 = time.perf_counter()
        ht = import_hyptree()
        if tracer:
            tracing.install_data(tracer, ht.data)
            with tracer.span("setup"):
                instances = make_instances(ht, wl, n, count, seed, workdir)
            tracer.uninstall()
        else:
            instances = make_instances(ht, wl, n, count, seed, workdir)
        times.append(time.perf_counter() - t0)
    return ht, instances, statistics.median(times)


# ---------------------------------------------------------------- measuring


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def timed_call(wl: Workload, ht, inst: Instance, out: Path, tracer=None):
    """Run one flow call; returns (seconds, result or exception)."""
    out.mkdir(parents=True, exist_ok=True)
    if tracer:
        tracing.install(tracer, ht)
    t0 = time.perf_counter()
    try:
        if tracer:
            with tracer.span("flow"):
                result = wl.run(ht, inst, out)
        else:
            result = wl.run(ht, inst, out)
    except Exception as exc:  # a failed operation is counted, not fatal
        result = exc
    seconds = time.perf_counter() - t0
    if tracer:
        tracer.uninstall()
    return seconds, result


def judge(wl: Workload, ht, inst: Instance, out: Path, result) -> Outcome:
    if isinstance(result, Exception):
        return Outcome(errors=[f"{type(result).__name__}: {result}"])
    try:
        return wl.judge(ht, inst, out, result)
    except Exception as exc:  # unreadable outputs are a failed check
        return Outcome(errors=[f"output check raised {type(exc).__name__}: {exc}"])
    finally:
        shutil.rmtree(out, ignore_errors=True)


def layer_metrics(tracer, untraced: list[float], traced: list[float]) -> dict:
    flows, secs, self_secs, calls = tracer.totals("flow")
    setups, setup_secs, _, _ = tracer.totals("setup")
    per = max(flows, 1)
    m = {f"{name}.s": secs.get(name, 0.0) / per for name in PER_LAYER_SECONDS}
    m.update({f"{name}.calls": calls.get(name, 0) / per for name in PER_LAYER_CALLS})
    m.update({f"{name}.s": setup_secs.get(name, 0.0) / max(setups, 1) for name in PER_LAYER_SETUP})
    m["embedding.train_embedding.self_s"] = self_secs.get("embedding.train_embedding", 0.0) / per
    init = tracer.children_of("embedding.train_embedding",
                              ("decoders.neighbor_joining", "trees.midpoint_root")) / per
    epochs = tracer.counts["embedding.epochs"] / per
    m["embedding.init_s"] = init
    m["embedding.epochs"] = epochs
    m["embedding.epoch_ms"] = (
        1e3 * (m["embedding.train_embedding.s"] - init) / epochs if epochs else 0.0)
    m["metrics.delta_exact.quadruples"] = tracer.counts["metrics.delta_exact.quadruples"] / per
    m["decoders.neighbor_joining.clamps"] = tracer.counts["decoders.neighbor_joining.clamps"] / per
    m["trace.run_s"] = statistics.median(traced)
    m["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return m


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple[dict, dict]:
    wl = WORKLOADS[name]
    n = SMOKE_N[name] if smoke else wl.n
    count = 2 if smoke else wl.instances
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    tracer = tracing.Tracer() if trace else None
    try:
        ht, instances, setup_s = set_up(wl, n, count, seed, workdir, tracer)
        untraced, traced, outcomes = [], [], []
        start = time.perf_counter()
        k = 0
        while k <= count or time.perf_counter() - start < seconds:
            inst = instances[k % count]
            out = workdir / f"call{k}"
            dt, result = timed_call(wl, ht, inst, out)
            untraced.append(dt)
            outcomes.append((k % count, judge(wl, ht, inst, out, result)))
            if tracer:
                dt, result = timed_call(wl, ht, inst, out, tracer)
                traced.append(dt)
                outcomes.append((k % count, judge(wl, ht, inst, out, result)))
            k += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first_seen: dict[int, str] = {}
    for idx, oc in outcomes:
        if not oc.errors and oc.fingerprint:
            if first_seen.setdefault(idx, oc.fingerprint) != oc.fingerprint:
                oc.errors.append(f"instance {idx}: outputs differ from its first call")
    failures = [f"call {k}: {e}" for k, (_, oc) in enumerate(outcomes) for e in oc.errors]
    failed = sum(1 for _, oc in outcomes if oc.errors)
    attempted = len(outcomes)

    if tracer:
        metrics = layer_metrics(tracer, untraced, traced)
        tracer.write(OUT_DIR / f"trace-{name}-seed{seed}.json")
    else:
        # Quality figures are deterministic per instance: average the first
        # call of each instance.
        first = {idx: oc for idx, oc in reversed(outcomes)}
        quality = {}
        for key in QUALITY:
            vals = [oc.quality[key] for oc in first.values() if key in oc.quality]
            quality[key] = statistics.fmean(vals) if key in wl.quality and vals else NOT_MEASURED
        metrics = {
            "run_s": statistics.median(untraced),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "ok_rate": (attempted - failed) / attempted,
            **quality,
        }
    info = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "smoke": smoke, "n": n, "instances": count, "calls": attempted,
        "call_s": untraced, "traced_call_s": traced,
        "failures": failures, "environment": environment(),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    return info, result


UNITS = {"peak_rss_mb": "MB", "ok_rate": "share", "delta_ratio": "ratio",
         "encoder_loss": "l2", "embedding.epoch_ms": "ms"}


def unit_of(metric: str) -> str:
    if metric in UNITS or metric.startswith("fit_"):
        return UNITS.get(metric, "l2")
    return "s" if metric.endswith(("_s", ".s")) else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, to check the harness")
    args = parser.parse_args(argv)
    try:
        info, result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except ImportError as exc:
        print(f"perfbench: cannot import hyptree from this checkout: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
