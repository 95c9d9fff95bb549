"""Tests of the benchmark itself, at tiny sizes and with no timing bounds.

Run from the repository root with ``python -m pytest bench/test_smoke.py``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
from sclmetric import evaluation, reporting  # noqa: E402


def _run(args, cwd, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def test_smoke_runs_every_workload_and_check():
    proc = _run(["--smoke"], ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3 * 3  # per workload: 2 untraced + 1 traced, at least


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "train-hard", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path,
                tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


TRAIN_CHILDREN = (
    "mining.build.s", "mining.make_batches.s", "model.forward.s", "losses.s", "model.backward.s",
    "model.add_gradients.s", "training.adam_step.s",
)


def test_metrics_match_benchmark_json_and_layers_add_up(tmp_path):
    import harness

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {group: {(m["name"], m["unit"]) for m in spec[group]} for group in ("end_to_end", "per_layer")}
    for name, workload in harness.workloads.WORKLOADS.items():
        plain = harness.untraced(workload, tmp_path / name, ROOT / "src", 2, 0.0, smoke=True)
        traced = harness.traced(workload, tmp_path / name, 2, 0.0, smoke=True)
        assert plain["failed"] == traced["failed"] == 0, plain["problems"] + traced["problems"]
        assert {(k, unit) for k, (_, unit) in plain["metrics"].items()} == declared["end_to_end"]
        assert {(k, unit) for k, (_, unit) in traced["metrics"].items()} == declared["per_layer"]
        figures = {k: value for k, (value, _) in traced["metrics"].items()}
        assert abs(figures["trace.unaccounted_frac"]) < 0.01
        if name == "train-hard":
            children = sum(figures[k] for k in TRAIN_CHILDREN)
            assert abs(figures["training.train.s"] - figures["training.train.self_s"] - children) < 1e-6


def _scores(rng, n):
    # Coarse values so that genuine and imposter scores share grid points.
    return [rng.randrange(40) / 8 for _ in range(n)]


def test_far_gar_recomputation_matches_the_library(tmp_path):
    rng = random.Random(5)
    for _ in range(20):
        genuine, imposter = _scores(rng, rng.randrange(1, 30)), _scores(rng, rng.randrange(1, 30))
        report = evaluation.VerificationReport(tuple(genuine), tuple(imposter))
        reporting.write_far_gar_csv(report, tmp_path / "far_gar.csv")
        assert (tmp_path / "far_gar.csv").read_bytes() == oracle.far_gar_csv_bytes(genuine, imposter)
        for target in (0.01, 0.1, 0.5, 1.0):
            (entry,) = evaluation.gar_at_far(report, (target,)).gar_at_far
            assert oracle.gar_at_far(genuine, imposter, target) == vars(entry)


def test_eval_check_rejects_a_wrong_cmc(tmp_path):
    import workloads
    from sclmetric import cli

    workload = workloads.WORKLOADS["eval-gallery"]
    prepared = workload.prepare(cli.main, workloads.fresh_dir(tmp_path / "inputs"), 3, smoke=True)
    assert cli.main(prepared.argv) == 0
    problems, quality = workload.check(prepared)
    assert problems == [] and 0.0 < quality["rank1"] <= 1.0
    cmc = prepared.out_dir / "cmc.csv"
    lines = cmc.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = "1,0.0\n" if lines[1] != "1,0.0\n" else "1,1.0\n"
    cmc.write_text("".join(lines), encoding="utf-8")
    problems, _ = workload.check(prepared)
    assert problems == ["cmc.csv differs from the oracle CMC"]
