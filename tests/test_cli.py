"""CLI surface: subcommands, files, exit codes, composition, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hyptree import cli
from hyptree.cli import main
from hyptree.data import load_matrix, save_matrix
from hyptree.metrics import DistanceMatrix
from hyptree.newick import parse_newick
from hyptree.report import parse_report
from hyptree.trees import leaf_distance_matrix

FAST = ["--epochs", "120"]


def synth(tmp_path, n=12, rate="0.3", seed="0"):
    out = tmp_path / "synth"
    rc = main([
        "synth", "--n", str(n), "--noise-rate", rate, "--seed", seed,
        "--output-dir", str(out),
    ])
    assert rc == 0
    return out


def tree_metric_file(tmp_path):
    from hyptree.data import random_binary_tree

    dm = leaf_distance_matrix(random_binary_tree(8, 5))
    path = tmp_path / "tree_metric.txt"
    save_matrix(dm, path)
    return path


class TestSynth:
    def test_writes_files(self, tmp_path):
        out = synth(tmp_path)
        assert (out / "tree.nwk").exists()
        assert (out / "graph.tsv").exists()
        matrix = load_matrix(out / "matrix.txt")
        assert matrix.n == 12

    def test_deterministic_bytes(self, tmp_path):
        a = synth(tmp_path / "a")
        b = synth(tmp_path / "b")
        for name in ("tree.nwk", "graph.tsv", "matrix.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_non_finite_rate_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["synth", "--n", "8", "--noise-rate", "inf",
                     "--output-dir", str(out)]) == 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text("noise_rate = inf\n")
        assert main(["--config", str(cfg), "synth", "--n", "8",
                     "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.count("noise rate") == 2
        assert not out.exists()

    def test_zero_rate_four_point(self, tmp_path):
        out = tmp_path / "clean"
        main(["synth", "--n", "8", "--noise-rate", "0", "--output-dir", str(out)])
        from hyptree.metrics import four_point_check

        assert four_point_check(load_matrix(out / "matrix.txt"), 1e-9)


class TestDelta:
    def test_tree_metric_zero(self, tmp_path, capsys):
        path = tree_metric_file(tmp_path)
        assert main(["delta", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        value = float(out.splitlines()[0].split("=")[1])
        assert value <= 1e-12

    def test_four_cycle_is_one(self, tmp_path, capsys):
        dm = DistanceMatrix(
            ["w", "x", "y", "z"],
            [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]],
        )
        path = tmp_path / "cycle.txt"
        save_matrix(dm, path)
        main(["delta", "--input", str(path)])
        out = capsys.readouterr().out
        assert float(out.splitlines()[0].split("=")[1]) == 1.0

    def test_sampled_below_exact(self, tmp_path, capsys):
        out = synth(tmp_path, n=14)
        capsys.readouterr()
        main(["delta", "--input", str(out / "matrix.txt"), "--delta-mode", "exact"])
        exact = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        main([
            "delta", "--input", str(out / "matrix.txt"),
            "--delta-mode", "sampled", "--delta-samples", "400", "--seed", "3",
        ])
        sampled = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        assert sampled <= exact


class TestDecodeAndEval:
    def test_unknown_method_usage_error(self, tmp_path, capsys):
        path = tree_metric_file(tmp_path)
        rc = main([
            "decode", "--input", str(path), "--method", "median",
            "--output-dir", str(tmp_path / "d"),
        ])
        assert rc != 0
        assert "usage" in capsys.readouterr().err

    def test_decode_then_eval_zero_on_tree_metric(self, tmp_path, capsys):
        path = tree_metric_file(tmp_path)
        out = tmp_path / "decoded"
        assert main([
            "decode", "--input", str(path), "--method", "nj", "--output-dir", str(out)
        ]) == 0
        capsys.readouterr()
        assert main([
            "eval", "--tree", str(out / "nj.nwk"), "--input", str(path)
        ]) == 0
        loss = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        assert loss <= 1e-6

    def test_linkage_decode_writes_dendrogram(self, tmp_path):
        path = tree_metric_file(tmp_path)
        out = tmp_path / "link"
        main(["decode", "--input", str(path), "--method", "average", "--output-dir", str(out)])
        rows = (out / "average.dendro").read_text().splitlines()
        assert len(rows) == 7  # n - 1 merges
        assert (out / "average.nwk").exists()

    def test_eval_dasgupta(self, tmp_path, capsys):
        path = tree_metric_file(tmp_path)
        out = tmp_path / "t"
        main(["decode", "--input", str(path), "--method", "nj", "--output-dir", str(out)])
        capsys.readouterr()
        assert main([
            "eval", "--tree", str(out / "nj.nwk"), "--input", str(path),
            "--cost", "dasgupta",
        ]) == 0
        value = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        assert value > 0.0

    def test_bad_exponent_rejected_at_parse_time(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("decode_and_score ran on a bad --p")

        monkeypatch.setattr(cli, "decode_and_score", fail)
        path = str(tree_metric_file(tmp_path))
        out = str(tmp_path / "out")
        commands = [
            ["decode", "--input", path, "--method", "nj", "--output-dir", out],
            ["eval", "--tree", "missing.nwk", "--input", path],
            ["denoise", "--input", path, "--output-dir", out],
            ["pipeline", "--input", path, "--output-dir", out],
        ]
        for argv in commands:
            for p in ("inf", "nan", "0.5", "abc"):
                assert main([*argv, "--p", p]) == 2, (argv[0], p)
                assert "--p" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_file_errors(self, tmp_path, capsys):
        rc = main(["delta", "--input", str(tmp_path / "nope.txt")])
        assert rc == 2
        assert "nope.txt" in capsys.readouterr().err

    def test_bad_matrix_names_file(self, tmp_path, capsys):
        path = tmp_path / "asym.txt"
        path.write_text("a\tb\n0\t1.0\n0.5\t0\n")
        rc = main(["delta", "--input", str(path)])
        assert rc == 2
        assert "asym.txt" in capsys.readouterr().err


class TestPipelineCommand:
    def test_report_and_files(self, tmp_path, capsys):
        src = synth(tmp_path)
        out = tmp_path / "run"
        capsys.readouterr()
        rc = main([
            "pipeline", "--input", str(src / "matrix.txt"), "--seed", "0",
            "--decoders", "nj,average", "--output-dir", str(out),
            "--dataset-name", "toy", *FAST,
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        report = parse_report(stdout)
        assert report["dataset"] == "toy"
        assert (out / "report.txt").read_text() == stdout
        for name in (
            "denoised.txt", "embedding.txt", "loss_trace.txt",
            "nj_direct.nwk", "nj_denoised.nwk",
            "average_direct.nwk", "average_direct.dendro",
        ):
            assert (out / name).exists(), name
        gain = float(report["nj.gain"])
        direct = float(report["nj.loss_direct"])
        denoised = float(report["nj.loss_denoised"])
        assert abs(gain - (direct / denoised - 1.0)) <= 1e-12

    def test_rerun_byte_identical(self, tmp_path, capsys):
        src = synth(tmp_path)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            main([
                "pipeline", "--input", str(src / "matrix.txt"), "--seed", "1",
                "--decoders", "nj,single", "--output-dir", str(out), *FAST,
            ])
            outs.append(out)
        capsys.readouterr()
        for name in ("report.txt", "denoised.txt", "nj_denoised.nwk", "single_direct.dendro"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_denoise_bytes_independent_of_blas_threads(self, tmp_path, capsys):
        # From n of about 256 a threaded BLAS rounds the fit's products by
        # its thread count; the encoder runs every OpenBLAS pool on one
        # thread, so a run in this process matches one limited to a single
        # BLAS thread from start-up.
        src = synth(tmp_path, n=256, seed="3")
        args = ["denoise", "--input", str(src / "matrix.txt"), "--epochs", "20"]
        assert main([*args, "--output-dir", str(tmp_path / "here")]) == 0
        capsys.readouterr()
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "hyptree.cli", *args, "--output-dir", str(tmp_path / "one")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        for name in ("denoised.txt", "embedding.txt", "loss_trace.txt"):
            assert (tmp_path / "here" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()

    def test_stage_composition_matches_pipeline(self, tmp_path, capsys):
        src = synth(tmp_path)
        pipe_out = tmp_path / "pipe"
        main([
            "pipeline", "--input", str(src / "matrix.txt"), "--seed", "2",
            "--decoders", "nj", "--output-dir", str(pipe_out), *FAST,
        ])
        den_out = tmp_path / "stage_denoise"
        main([
            "denoise", "--input", str(src / "matrix.txt"), "--seed", "2",
            "--output-dir", str(den_out), *FAST,
        ])
        dec_out = tmp_path / "stage_decode"
        main([
            "decode", "--input", str(den_out / "denoised.txt"), "--method", "nj",
            "--output-dir", str(dec_out),
        ])
        capsys.readouterr()
        assert (den_out / "denoised.txt").read_bytes() == (
            pipe_out / "denoised.txt"
        ).read_bytes()
        assert (dec_out / "nj.nwk").read_bytes() == (
            pipe_out / "nj_denoised.nwk"
        ).read_bytes()
        # eval of the denoised tree against the original matrix agrees with
        # the pipeline's reported loss.  The pipeline scores the unrooted NJ
        # tree and eval the midpoint-rooted one it wrote; splitting the root
        # edge can move a path sum by an ulp (see midpoint_root_and_metric).
        main([
            "eval", "--tree", str(dec_out / "nj.nwk"),
            "--input", str(src / "matrix.txt"),
        ])
        loss = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        report = parse_report((pipe_out / "report.txt").read_text())
        assert loss == pytest.approx(float(report["nj.loss_denoised"]), rel=1e-12, abs=0.0)

    def test_feature_input(self, tmp_path, capsys):
        feats = tmp_path / "feats.txt"
        rng = np.random.default_rng(8)
        rows = ["label\t" + "\t".join(f"f{k}" for k in range(3))]
        for i in range(10):
            rows.append(f"s{i}\t" + "\t".join(repr(float(x)) for x in rng.random(3) + 0.1))
        feats.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        rc = main([
            "pipeline", "--input", str(feats), "--features",
            "--decoders", "nj,single,complete,average,weighted", *FAST,
        ])
        assert rc == 0
        report = parse_report(capsys.readouterr().out)
        assert report["decoders"] == "nj,single,complete,average,weighted"


class TestEncoderOptions:
    def test_parsed_defaults_equal_encoder_config(self):
        from hyptree.cli import _build_parser, _encoder_config
        from hyptree.embedding import EncoderConfig

        parser = _build_parser()
        for command in ("pipeline", "denoise"):
            args = parser.parse_args([command, "--input", "m.txt", "--output-dir", "out"])
            assert _encoder_config(args) == EncoderConfig()

    def test_flags_reach_encoder_config(self):
        from hyptree.cli import _build_parser, _encoder_config

        parser = _build_parser({"curvature": "10"})
        args = parser.parse_args([
            "pipeline", "--input", "m.txt", "--dim", "3", "--epochs", "50", "--seed", "4",
        ])
        cfg = _encoder_config(args)
        assert (cfg.dimension, cfg.total_epochs) == (3, 50)
        assert (cfg.seed, cfg.curvature) == (4, 10.0)


    def test_fixed_settings_have_no_flag(self, tmp_path, capsys):
        src = synth(tmp_path)
        for command in ("denoise", "pipeline"):
            for flag in ("--boundary-margin", "--burnin-factor", "--learning-rate",
                         "--burnin-epochs", "--scaling-factor"):
                rc = main([
                    command, "--input", str(src / "matrix.txt"), "--output-dir",
                    str(tmp_path / command), flag, "1e-4", *FAST,
                ])
                assert rc == 2
                assert flag in capsys.readouterr().err
                assert not (tmp_path / command).exists()

    def test_boundary_counts_on_stderr(self, tmp_path, capsys):
        src = synth(tmp_path)
        capsys.readouterr()
        # Curvature 100 at the input's own spread, not the automatic 2.
        curvature = 100.0 * (float(load_matrix(src / "matrix.txt").values.max()) / 2.0) ** 2
        for command in ("denoise", "pipeline"):
            rc = main([
                command, "--input", str(src / "matrix.txt"), "--output-dir",
                str(tmp_path / command), "--curvature", repr(curvature), *FAST,
            ])
            assert rc == 0
            err = capsys.readouterr().err
            line = [ln for ln in err.splitlines() if ln.startswith("boundary:")]
            assert len(line) == 1
            counts = dict(kv.strip().split(" = ") for kv in line[0][9:].split(","))
            assert int(counts["rescales"]) > 0
            assert 0 < int(counts["points_at_limit"]) <= 12
        report = (tmp_path / "pipeline" / "report.txt").read_text()
        assert "boundary" not in report and "rescales" not in report

    def test_targets_too_large_to_square_exit_2(self, tmp_path, capsys):
        # Squaring 1e200 overflows, but the automatic factor maps it to 2 first.
        values = np.ones((3, 3)) - np.eye(3)
        values[0, 1] = values[1, 0] = 1e200
        save_matrix(DistanceMatrix(list("abc"), values), tmp_path / "huge.txt")
        rc = main(["pipeline", "--input", str(tmp_path / "huge.txt"), "--output-dir",
                   str(tmp_path / "out"), *FAST])
        assert rc == 0
        assert np.isfinite(float(parse_report(capsys.readouterr().out)["encoder_loss"]))

    def test_subnormal_largest_entry_exit_2(self, tmp_path, capsys):
        save_matrix(DistanceMatrix(list("abc"), 1e-310 * (np.ones((3, 3)) - np.eye(3))),
                    tmp_path / "tiny.txt")
        for command in ("denoise", "pipeline"):
            rc = main([command, "--input", str(tmp_path / "tiny.txt"), "--output-dir",
                       str(tmp_path / command), *FAST])
            assert rc == 2
            assert "largest entry 1e-310 is too small to rescale" in capsys.readouterr().err
            assert not (tmp_path / command).exists()

    def test_solver_outcome_on_stderr(self, tmp_path, capsys):
        src = synth(tmp_path)
        capsys.readouterr()
        for command, epochs, reason in (("denoise", "7", "ITERATIONS REACHED LIMIT"),
                                        ("pipeline", "2000", None)):
            rc = main([command, "--input", str(src / "matrix.txt"), "--output-dir",
                       str(tmp_path / command), "--epochs", epochs])
            assert rc == 0
            err = capsys.readouterr().err.splitlines()
            line = [ln for ln in err if ln.startswith("solver:")]
            assert len(line) == 1
            assert err.index(line[0]) == err.index(next(
                ln for ln in err if ln.startswith("boundary:"))) + 1
            iterations, reason_text = line[0][len("solver: "):].split(", ", 1)
            count = int(iterations.removeprefix("iterations = "))
            assert reason_text.startswith("stop_reason = ")
            if reason:
                assert count == int(epochs) and reason in reason_text
            else:  # this 12-leaf fit stops before the cap
                assert 0 < count < int(epochs) and "LIMIT" not in reason_text


class TestConfigFile:
    def test_defaults_from_config(self, tmp_path, capsys):
        src = synth(tmp_path)
        capsys.readouterr()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 60\ndataset-name = fromcfg\n")
        rc = main([
            "--config", str(cfg), "pipeline", "--input", str(src / "matrix.txt"),
            "--decoders", "nj",
        ])
        assert rc == 0
        report = parse_report(capsys.readouterr().out)
        assert report["dataset"] == "fromcfg"

    def test_flags_override_config(self, tmp_path, capsys):
        src = synth(tmp_path)
        capsys.readouterr()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dataset-name = fromcfg\nepochs = 60\n")
        main([
            "--config", str(cfg), "pipeline", "--input", str(src / "matrix.txt"),
            "--decoders", "nj", "--dataset-name", "flagged",
        ])
        report = parse_report(capsys.readouterr().out)
        assert report["dataset"] == "flagged"

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this has no equals sign\n")
        rc = main(["--config", str(cfg), "delta", "--input", "x"])
        assert rc == 2

    def test_unknown_config_keys_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(
            "epochs = 60\npairs-per-step = 3\nlerning_rate = 0.1\ninit-radius = 1e-6\n"
            "boundary-margin = 1e-4\nburnin_factor = 5\n")
        rc = main(["--config", str(cfg), "delta", "--input", "x"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "pairs_per_step" in err and "lerning_rate" in err and "init_radius" in err
        assert "boundary_margin" in err and "burnin_factor" in err
        assert "epochs" not in err

    def test_removed_encoder_keys_rejected(self, tmp_path, capsys):
        src = synth(tmp_path)
        capsys.readouterr()
        for text in ("burnin-epochs = 5\n", "learning_rate = 0.01\n", "scaling-factor = 2\n"):
            cfg = tmp_path / "old.cfg"
            cfg.write_text("epochs = 60\n" + text)
            assert main(["--config", str(cfg), "pipeline", "--input", str(src / "matrix.txt"),
                         "--output-dir", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert "unknown config key" in err and text.split(" =")[0].replace("-", "_") in err
            assert not (tmp_path / "out").exists()

    def test_malformed_value_is_usage_error(self, tmp_path, capsys):
        src = synth(tmp_path)
        capsys.readouterr()
        cases = [
            ("noise_rate = abc\n", "--noise-rate", [
                "synth", "--n", "6", "--output-dir", str(tmp_path / "out")]),
            ("epochs = 1.5\n", "--epochs", [
                "pipeline", "--input", str(src / "matrix.txt"),
                "--output-dir", str(tmp_path / "out")]),
            ("delta-mode = fast\n", "delta_mode", [
                "delta", "--input", str(src / "matrix.txt")]),
            # Neither synth nor delta has the option; the commands that do
            # still reject the value.
            ("epochs = 1.5\n", "--epochs", [
                "synth", "--n", "6", "--output-dir", str(tmp_path / "out")]),
            ("p = inf\n", "--p", ["delta", "--input", str(src / "matrix.txt")]),
        ]
        for text, option, argv in cases:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(text)
            assert main(["--config", str(cfg), *argv]) == 2
            assert option in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_config_sets_cost(self, tmp_path, capsys):
        path = tree_metric_file(tmp_path)
        out = tmp_path / "t"
        main(["decode", "--input", str(path), "--method", "nj", "--output-dir", str(out)])
        capsys.readouterr()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("cost = dasgupta\n")
        rc = main(["--config", str(cfg), "eval", "--tree", str(out / "nj.nwk"),
                   "--input", str(path)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("dasgupta_cost = ")

    def test_flag_only_options_rejected(self, tmp_path, capsys):
        for text in ("features = true\n", "input = m.txt\n", "config = other.cfg\n"):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(text)
            assert main(["--config", str(cfg), "delta", "--input", "x"]) == 2
            assert "unknown config key" in capsys.readouterr().err


class TestCompareObjectivesCommand:
    def test_runs_and_deterministic(self, tmp_path, capsys):
        args = [
            "compare-objectives", "--n", "6", "--trials", "2",
            "--pool-size", "15", "--seed", "5",
            "--output", str(tmp_path / "study.txt"),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        assert (tmp_path / "study.txt").read_text() == first


class TestNewickOutput:
    def test_decoded_tree_parses(self, tmp_path):
        src = synth(tmp_path)
        out = tmp_path / "d"
        main(["decode", "--input", str(src / "matrix.txt"), "--method", "nj",
              "--output-dir", str(out)])
        tree = parse_newick((out / "nj.nwk").read_text())
        assert tree.root is not None
        assert tree.n_leaves == 12


#: Imports the package, runs each argv of ``sys.argv[1]`` (a JSON list)
#: through ``cli.main`` and prints the scipy modules then loaded.
SCIPY_PROBE = """
import json, sys
import hyptree, hyptree.cli
for argv in json.loads(sys.argv[1]):
    assert hyptree.cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def scipy_modules_loaded(*commands):
    """Scipy modules a fresh interpreter holds after ``SCIPY_PROBE``; this
    one imported scipy long ago."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestStartUp:
    def test_import_loads_no_scipy(self):
        assert scipy_modules_loaded() == []

    def test_delta_eval_and_nj_decode_load_no_scipy(self, tmp_path):
        path = str(tree_metric_file(tmp_path))
        out = tmp_path / "d"
        assert scipy_modules_loaded(
            ["delta", "--input", path],
            ["decode", "--input", path, "--method", "nj", "--output-dir", str(out)],
            ["eval", "--tree", str(out / "nj.nwk"), "--input", path],
        ) == []

    def test_denoise_loads_scipy_optimize(self, tmp_path):
        path = str(tree_metric_file(tmp_path))
        loaded = scipy_modules_loaded(
            ["denoise", "--input", path, "--epochs", "5", "--output-dir", str(tmp_path)])
        assert "scipy.optimize" in loaded and "scipy.cluster" not in loaded

    def test_linkage_decode_loads_scipy_cluster(self, tmp_path):
        path = str(tree_metric_file(tmp_path))
        loaded = scipy_modules_loaded(
            ["decode", "--input", path, "--method", "average", "--output-dir", str(tmp_path)])
        assert "scipy.cluster.hierarchy" in loaded and "scipy.optimize" not in loaded
