"""Command-line driver: synth, denoise, decode, eval, delta, pipeline, compare-objectives.

Option defaults can also come from a plain-text config file of
``key = value`` lines passed via ``--config``.  A key may name any option of
any command that takes a value and is not required; ``--features``,
``--config`` and the required options come only from flags, and any other
key is an error.  Explicit flags win over the file.  Every option named by a
key checks its value, so a malformed one is a usage error (exit status 2)
whatever the command.  All randomized commands are deterministic for a fixed
``--seed``: reruns produce byte-identical reports, matrices, and Newick files.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields
from pathlib import Path

from .data import (
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
from .metrics import DistanceMatrix, check_exponent, lp_cost
from .newick import parse_newick, write_newick
from .pipeline import (
    ALL_DECODERS,
    DELTA_DEFAULT_SAMPLES,
    DELTA_MODES,
    DecodeOutcome,
    compare_objectives,
    decode_and_score,
    measure_delta,
    run_pipeline,
)
from .trees import dasgupta_cost, leaf_distance_matrix


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
        key, val = line.split("=", 1)
        out[key.strip().replace("-", "_")] = val.strip()
    return out


def _exponent(text: str) -> float:
    """Type of every ``--p``: a float that ``check_exponent`` accepts."""
    try:
        return check_exponent(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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


def _add_encoder_args(sp) -> None:
    for f, dest in _encoder_fields():
        sp.add_argument(
            "--" + dest.replace("_", "-"),
            type=_exponent if f.name == "p" else type(f.default),
            default=f.default,
            help="cap on the encoder's L-BFGS iterations" if f.name == "total_epochs" else None,
        )


def _add_delta_args(sp) -> None:
    sp.add_argument("--delta-mode", choices=DELTA_MODES, default="auto")
    sp.add_argument("--delta-samples", type=int, default=DELTA_DEFAULT_SAMPLES)


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


def _print_encoder_outcome(result: EmbeddingResult) -> None:
    print(f"boundary: rescales = {result.boundary_rescales}, "
          f"points_at_limit = {result.points_at_limit}", file=sys.stderr)
    print(f"solver: iterations = {result.iterations}, "
          f"stop_reason = {result.stop_reason}", file=sys.stderr)


def _cmd_synth(args) -> int:
    tree = random_binary_tree(args.n, args.seed)
    graph = add_noise_edges(tree, args.noise_rate, args.seed + 1)
    dm = graph_leaf_shortest_paths(graph)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
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
    _print_encoder_outcome(result)
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
    _print_encoder_outcome(artifacts["embedding"])
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


def _set_config_defaults(commands: dict[str, argparse.ArgumentParser],
                         config: dict[str, str]) -> None:
    """Make each config value the default of the commands' options of that name.

    A key may name any option that takes a value and is not required.  Every
    option of that name converts it and checks its choices, whichever command runs.
    """
    options = [
        (sp, {a.dest: a for a in sp._actions
              if a.option_strings and a.nargs != 0 and not a.required})
        for sp in commands.values()
    ]
    unknown = sorted(config.keys() - {key for _, opts in options for key in opts})
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    for sp, opts in options:
        for key in sorted(config.keys() & opts.keys()):
            action, text = opts[key], config[key]
            try:
                value = action.type(text) if action.type else text
                if action.choices and value not in action.choices:
                    raise ValueError(f"not one of {action.choices}")
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"config {key} = {text!r}: bad {action.option_strings[0]}: {exc}")
            sp.set_defaults(**{key: value})


def _build_parser(config: dict[str, str] | None = None) -> argparse.ArgumentParser:
    """The hyptree parser, with ``config`` values as option defaults."""
    parser = argparse.ArgumentParser(
        prog="hyptree",
        description="Denoise dissimilarity matrices in hyperbolic space and fit trees.",
    )
    parser.add_argument("--config", help="key = value file of option defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a noisy synthetic benchmark")
    sp.add_argument("--n", type=int, required=True, help="number of leaves")
    sp.add_argument("--noise-rate", type=float, default=0.1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output-dir", required=True)
    sp.set_defaults(func=_cmd_synth)

    sp = sub.add_parser("denoise", help="learn a hyperbolic metric for a matrix")
    sp.add_argument("--input", required=True)
    sp.add_argument("--features", action="store_true", help="input is a feature table")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output-dir", required=True)
    _add_encoder_args(sp)
    sp.set_defaults(func=_cmd_denoise)

    sp = sub.add_parser("decode", help="fit a tree or dendrogram to a matrix")
    sp.add_argument("--input", required=True)
    sp.add_argument("--method", choices=ALL_DECODERS, required=True)
    sp.add_argument("--p", type=_exponent, default=2.0)
    sp.add_argument("--output-dir", required=True)
    sp.set_defaults(func=_cmd_decode)

    sp = sub.add_parser("eval", help="score a Newick tree against a matrix")
    sp.add_argument("--tree", required=True)
    sp.add_argument("--input", required=True)
    sp.add_argument("--cost", choices=("lp", "dasgupta"), default="lp")
    sp.add_argument("--p", type=_exponent, default=2.0)
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("delta", help="measure four-point hyperbolicity")
    sp.add_argument("--input", required=True)
    sp.add_argument("--seed", type=int, default=0)
    _add_delta_args(sp)
    sp.set_defaults(func=_cmd_delta)

    sp = sub.add_parser("pipeline", help="denoise, decode both versions, report")
    sp.add_argument("--input", required=True)
    sp.add_argument("--features", action="store_true", help="input is a feature table")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--dataset-name", default="input")
    sp.add_argument("--decoders", default=",".join(ALL_DECODERS))
    sp.add_argument("--delta-seed", type=int, default=0)
    sp.add_argument("--output-dir", default=None)
    _add_encoder_args(sp)
    _add_delta_args(sp)
    sp.set_defaults(func=_cmd_pipeline)

    sp = sub.add_parser("compare-objectives", help="distance-fit vs clan-size objective study")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--pool-size", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=_cmd_compare)

    _set_config_defaults(sub.choices, config or {})
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    config: dict[str, str] = {}
    try:
        if "--config" in argv:
            idx = argv.index("--config")
            if idx + 1 >= len(argv):
                raise ValueError("--config needs a file path")
            config = _read_config(argv.pop(idx + 1))
            del argv[idx]
        parser = _build_parser(config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (EncodingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
