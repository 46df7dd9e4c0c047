"""Command-line driver: synth, denoise, decode, eval, delta, pipeline, compare-objectives.

Every option can also come from a plain-text config file of ``key = value``
lines passed via ``--config``; explicit flags win over the file, and a key
that no option of any command reads is an error.  All randomized commands
are deterministic for a fixed ``--seed``: reruns produce byte-identical
reports, matrices, and Newick files.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields
from pathlib import Path

from .data import (
    MatrixFormatError,
    add_noise_edges,
    cosine_dissimilarity,
    graph_leaf_shortest_paths,
    load_features,
    load_matrix,
    random_binary_tree,
    save_edge_list,
    save_matrix,
)
from .decoders import write_dendrogram
from .embedding import (
    EmbeddingResult,
    EncoderConfig,
    EncodingError,
    denoised_metric,
    train_embedding,
    write_embedding,
    write_loss_trace,
)
from .metrics import DistanceMatrix, lp_cost
from .newick import parse_newick, write_newick
from .pipeline import (
    ALL_DECODERS,
    DecodeOutcome,
    compare_objectives,
    decode_and_score,
    measure_delta,
    run_pipeline,
)
from .trees import TreeStructureError, dasgupta_cost, leaf_distance_matrix


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MatrixFormatError(f"{path}: line {lineno}: expected 'key = value'")
        key, val = line.split("=", 1)
        out[key.strip().replace("-", "_")] = val.strip()
    return out


class _Defaults:
    """Hard defaults overridable from the config file, with type conversion."""

    def __init__(self, config: dict[str, str]):
        self.config = config
        self.used: set[str] = set()

    def get(self, key: str, hard, conv):
        self.used.add(key)
        if key in self.config:
            return conv(self.config[key])
        return hard


def _load_input(args) -> DistanceMatrix:
    if args.features:
        return cosine_dissimilarity(load_features(args.input))
    return load_matrix(args.input)


#: Flag names of the EncoderConfig fields whose flag is spelled differently.
#: Every other field except ``seed`` (a per-command option) is exposed as
#: ``--<field>``, and every default comes from EncoderConfig itself.
_ENCODER_FLAG_NAMES = {"dimension": "dim", "total_epochs": "epochs"}


def _encoder_fields():
    """(EncoderConfig field, argparse dest) pairs of the encoder options."""
    return [
        (f, _ENCODER_FLAG_NAMES.get(f.name, f.name))
        for f in fields(EncoderConfig)
        if f.name != "seed"
    ]


def _encoder_config(args) -> EncoderConfig:
    return EncoderConfig(
        seed=args.seed,
        **{f.name: getattr(args, dest) for f, dest in _encoder_fields()},
    )


def _add_encoder_args(sp, d: _Defaults) -> None:
    for f, dest in _encoder_fields():
        conv = float if f.default is None else type(f.default)
        sp.add_argument(
            "--" + dest.replace("_", "-"),
            type=conv,
            default=d.get(dest, f.default, conv),
            help=(
                "input rescale during optimization; default picks max * s = 2"
                if f.name == "scaling_factor" else None
            ),
        )


def _add_delta_args(sp, d: _Defaults) -> None:
    sp.add_argument(
        "--delta-mode",
        choices=("auto", "exact", "sampled"),
        default=d.get("delta_mode", "auto", str),
    )
    sp.add_argument(
        "--delta-samples", type=int, default=d.get("delta_samples", 10**6, int)
    )


def _write_outcome(outdir: Path, name: str, outcome: DecodeOutcome) -> list[Path]:
    paths = []
    nwk = outdir / f"{name}.nwk"
    nwk.write_text(write_newick(outcome.tree) + "\n", encoding="utf-8")
    paths.append(nwk)
    if outcome.dendrogram is not None:
        dpath = outdir / f"{name}.dendro"
        write_dendrogram(outcome.dendrogram, dpath)
        paths.append(dpath)
    return paths


def _write_encoder_outputs(outdir: Path, result: EmbeddingResult,
                           denoised: DistanceMatrix) -> None:
    save_matrix(denoised, outdir / "denoised.txt")
    write_embedding(result, outdir / "embedding.txt")
    write_loss_trace(result, outdir / "loss_trace.txt")


def _print_boundary(result: EmbeddingResult) -> None:
    print(f"boundary: rescales = {result.boundary_rescales}, "
          f"points_at_limit = {result.points_at_limit}", file=sys.stderr)


def _cmd_synth(args) -> int:
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    tree = random_binary_tree(args.n, args.seed)
    graph = add_noise_edges(tree, args.noise_rate, args.seed + 1)
    dm = graph_leaf_shortest_paths(graph)
    (outdir / "tree.nwk").write_text(write_newick(tree) + "\n", encoding="utf-8")
    save_edge_list(graph, outdir / "graph.tsv")
    save_matrix(dm, outdir / "matrix.txt")
    print(f"wrote {outdir / 'tree.nwk'}")
    print(f"wrote {outdir / 'graph.tsv'}")
    print(f"wrote {outdir / 'matrix.txt'}")
    return 0


def _cmd_denoise(args) -> int:
    dm = _load_input(args)
    cfg = _encoder_config(args)
    t0 = time.perf_counter()
    result = train_embedding(dm, cfg)
    print(f"timing: encoder = {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    _print_boundary(result)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_encoder_outputs(outdir, result, denoised_metric(result))
    print(f"encoder_loss = {result.final_loss!r}")
    print(f"wrote {outdir / 'denoised.txt'}")
    return 0


def _cmd_decode(args) -> int:
    dm = load_matrix(args.input)
    outcome = decode_and_score(dm, dm, args.method, p=args.p)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for path in _write_outcome(outdir, args.method, outcome):
        print(f"wrote {path}")
    print(f"loss = {outcome.loss!r}")
    if outcome.clamps is not None:
        print(f"clamped_negative_weights = {outcome.clamps}")
    return 0


def _cmd_eval(args) -> int:
    dm = load_matrix(args.input)
    tree = parse_newick(Path(args.tree).read_text(encoding="utf-8"))
    if args.cost == "dasgupta":
        print(f"dasgupta_cost = {dasgupta_cost(tree, dm)!r}")
        return 0
    fitted = leaf_distance_matrix(tree)
    loss = lp_cost(fitted.reordered(dm.labels), dm, args.p)
    print(f"lp_cost = {loss!r}")
    return 0


def _cmd_delta(args) -> int:
    dm = load_matrix(args.input)
    rep = measure_delta(dm, args.delta_mode, args.delta_samples, args.seed)
    print(f"delta = {rep.delta!r}")
    print(f"method = {rep.method}")
    print(f"quadruples = {rep.quadruples_evaluated}")
    return 0


def _cmd_pipeline(args) -> int:
    dm = _load_input(args)
    cfg = _encoder_config(args)
    decoders = tuple(x.strip() for x in args.decoders.split(",") if x.strip())
    report, artifacts = run_pipeline(
        dm,
        cfg,
        decoders,
        dataset=args.dataset_name,
        delta_mode=args.delta_mode,
        delta_samples=args.delta_samples,
        delta_seed=args.delta_seed,
    )
    for stage, secs in report.wall_times.items():
        print(f"timing: {stage} = {secs:.2f}s", file=sys.stderr)
    _print_boundary(artifacts["embedding"])
    text = report.to_text()
    if args.output_dir:
        outdir = Path(args.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report.txt").write_text(text, encoding="utf-8")
        _write_encoder_outputs(outdir, artifacts["embedding"], artifacts["denoised"])
        for name in decoders:
            for which in ("direct", "denoised"):
                key = f"{name}_{which}"
                if key in artifacts:
                    _write_outcome(outdir, key, artifacts[key])
    sys.stdout.write(text)
    return 0


def _cmd_compare(args) -> int:
    result = compare_objectives(args.n, args.trials, args.pool_size, args.seed)
    text = result.to_text()
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


def _build_parser(d: _Defaults) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyptree",
        description="Denoise dissimilarity matrices in hyperbolic space and fit trees.",
    )
    parser.add_argument(
        "--config", help="key = value file of option defaults", default=None
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a noisy synthetic benchmark")
    sp.add_argument("--n", type=int, required=True, help="number of leaves")
    sp.add_argument("--noise-rate", type=float, default=d.get("noise_rate", 0.1, float))
    sp.add_argument("--seed", type=int, default=d.get("seed", 0, int))
    sp.add_argument("--output-dir", required=True)
    sp.set_defaults(func=_cmd_synth)

    sp = sub.add_parser("denoise", help="learn a hyperbolic metric for a matrix")
    sp.add_argument("--input", required=True)
    sp.add_argument("--features", action="store_true", help="input is a feature table")
    sp.add_argument("--seed", type=int, default=d.get("seed", 0, int))
    sp.add_argument("--output-dir", required=True)
    _add_encoder_args(sp, d)
    sp.set_defaults(func=_cmd_denoise)

    sp = sub.add_parser("decode", help="fit a tree or dendrogram to a matrix")
    sp.add_argument("--input", required=True)
    sp.add_argument("--method", choices=ALL_DECODERS, required=True)
    sp.add_argument("--p", type=float, default=d.get("p", 2.0, float))
    sp.add_argument("--output-dir", required=True)
    sp.set_defaults(func=_cmd_decode)

    sp = sub.add_parser("eval", help="score a Newick tree against a matrix")
    sp.add_argument("--tree", required=True)
    sp.add_argument("--input", required=True)
    sp.add_argument("--cost", choices=("lp", "dasgupta"), default="lp")
    sp.add_argument("--p", type=float, default=d.get("p", 2.0, float))
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("delta", help="measure four-point hyperbolicity")
    sp.add_argument("--input", required=True)
    sp.add_argument("--seed", type=int, default=d.get("seed", 0, int))
    _add_delta_args(sp, d)
    sp.set_defaults(func=_cmd_delta)

    sp = sub.add_parser("pipeline", help="denoise, decode both versions, report")
    sp.add_argument("--input", required=True)
    sp.add_argument("--features", action="store_true", help="input is a feature table")
    sp.add_argument("--seed", type=int, default=d.get("seed", 0, int))
    sp.add_argument("--dataset-name", default=d.get("dataset_name", "input", str))
    sp.add_argument(
        "--decoders", default=d.get("decoders", ",".join(ALL_DECODERS), str)
    )
    sp.add_argument("--delta-seed", type=int, default=d.get("delta_seed", 0, int))
    sp.add_argument("--output-dir", default=None)
    _add_encoder_args(sp, d)
    _add_delta_args(sp, d)
    sp.set_defaults(func=_cmd_pipeline)

    sp = sub.add_parser(
        "compare-objectives", help="distance-fit vs clan-size objective study"
    )
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--trials", type=int, default=d.get("trials", 20, int))
    sp.add_argument("--pool-size", type=int, default=d.get("pool_size", 1000, int))
    sp.add_argument("--seed", type=int, default=d.get("seed", 0, int))
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    config: dict[str, str] = {}
    if "--config" in argv:
        idx = argv.index("--config")
        if idx + 1 >= len(argv):
            print("error: --config needs a file path", file=sys.stderr)
            return 2
        try:
            config = _read_config(argv[idx + 1])
        except (OSError, MatrixFormatError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        del argv[idx : idx + 2]
    defaults = _Defaults(config)
    parser = _build_parser(defaults)
    unknown = sorted(set(config) - defaults.used)
    if unknown:
        print(f"error: unknown config key(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (
        MatrixFormatError,
        TreeStructureError,
        EncodingError,
        NotImplementedError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
