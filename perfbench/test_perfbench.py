"""Smoke test of the benchmark harness: tiny sizes, every workload, both modes.

Run from the repository root with ``python3 -m pytest -q perfbench/test_perfbench.py``.
"""

import contextlib
import importlib.util
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


run = _load_run()


def _result(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    assert code == 0
    lines = buf.getvalue().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    info, result = _result(["--workload", workload, "--seed", "5", "--seconds", "0",
                            "--trace", str(trace), "--smoke"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, info["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 3
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert info["environment"]["numpy"] and info["environment"]["cores"] >= 1


def test_quality_repeats_for_a_seed():
    argv = ["--workload", "decode-n512", "--seed", "9", "--seconds", "0", "--smoke"]
    first = _result(argv)[1]["metrics"]
    second = _result(argv)[1]["metrics"]
    for name in ("fit_nj", "fit_single", "fit_weighted"):
        assert first[name]["value"] == second[name]["value"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "delta-n192", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
