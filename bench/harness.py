"""Set-up, timed iterations, traced iterations and the environment record.

One process runs one workload through ``sclmetric.cli.main(argv)``,
in-process and single-threaded.  Untraced iterations give the end-to-end
metrics; traced iterations, with the wrappers of :mod:`layers` installed,
give the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
import workloads
from sclmetric import cli
from tracer import Tracer

SETUP_REPEATS = 5
MIN_ITERATIONS = 2  # the byte-identity check needs a second iteration


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": blas_threads()},
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
    }


def import_seconds(src: Path) -> float:
    """Wall time of a fresh interpreter importing the CLI."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import sclmetric.cli"], env=env, check=True)
    return time.perf_counter() - start


@dataclass
class Iteration:
    wall_s: float
    problems: list
    quality: dict = field(default_factory=dict)


def run_iteration(workload, p: workloads.Prepared, reference: dict | None) -> tuple[Iteration, dict]:
    """One timed ``cli.main`` call, then the output checks.

    The first iteration (``reference`` None) gets the workload's full check;
    later ones must reproduce its stable outputs byte for byte.
    """
    shutil.rmtree(p.out_dir, ignore_errors=True)
    # cli.main is looked up at call time, so the traced run sees its wrapper.
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(p.argv)
        except Exception as exc:  # a crash is a failed iteration, not a dead benchmark
            code = f"{type(exc).__name__}: {exc}"
        wall_s = time.perf_counter() - start
    if code != 0:
        return Iteration(wall_s, [f"cli exited with {code}"]), reference
    outputs = {}
    problems = []
    for name in p.stable_files:
        path = p.out_dir / name
        if path.is_file():
            outputs[name] = path.read_bytes()
        else:
            problems.append(f"missing output {name}")
    if reference is None:
        try:
            found, quality = workload.check(p)
        except (KeyError, IndexError, TypeError, ValueError) as exc:  # outputs of an unexpected shape
            found, quality = [f"output check raised {type(exc).__name__}: {exc}"], {}
        return Iteration(wall_s, problems + found, quality), outputs
    problems += [
        f"{name} differs from the first iteration" for name in p.stable_files if outputs.get(name) != reference[name]
    ]
    return Iteration(wall_s, problems), reference


def write_inputs(workload, work: Path, seed: int, smoke: bool) -> workloads.Prepared:
    return workload.prepare(cli.main, workloads.fresh_dir(work / "inputs"), seed, smoke)


def warm_up(workload, work: Path, seed: int) -> None:
    """One run of the command on smoke-size inputs of its own."""
    warm = workload.prepare(cli.main, workloads.fresh_dir(work / "warmup"), seed, smoke=True)
    run_iteration(workload, warm, None)


def _more(runs: list, started: float, seconds: float, min_iterations: int) -> bool:
    """Whether to start another iteration: until ``min_iterations`` ran, then
    while it would end nearer ``seconds`` than stopping now would."""
    if len(runs) < min_iterations:
        return True
    typical = statistics.median(r.wall_s for r in runs)
    return time.perf_counter() - started + typical / 2 < seconds


def measure(workload, p, seconds: float, reference, min_iterations: int):
    """Iterate for about ``seconds``, and at least ``min_iterations`` times."""
    runs = []
    started = time.perf_counter()
    while _more(runs, started, seconds, min_iterations):
        it, reference = run_iteration(workload, p, reference)
        runs.append(it)
    return runs, reference


def _outcome(runs: list) -> dict:
    failed = sum(1 for r in runs if r.problems)
    problems = sorted({msg for r in runs for msg in r.problems})
    return {"attempted": len(runs), "failed": failed, "problems": problems}


def untraced(workload, work: Path, src: Path, seed: int, seconds: float, smoke: bool = False) -> dict:
    setups = []
    for _ in range(1 if smoke else SETUP_REPEATS):
        start = time.perf_counter()
        p = write_inputs(workload, work, seed, smoke)
        warm_up(workload, work, seed)
        setups.append(import_seconds(src) + time.perf_counter() - start)
    runs, _ = measure(workload, p, seconds, None, MIN_ITERATIONS)
    run_s = statistics.median(r.wall_s for r in runs)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (run_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    detail = {
        "setup_s_samples": setups,
        "run_s_samples": [r.wall_s for r in runs],
        "work_units": p.units,
        "work_units_per_s": p.units / run_s,
        "quality": runs[0].quality,
        "inputs": p.sizes,
    }
    return {"metrics": metrics, "detail": detail, **_outcome(runs)}


def traced(workload, work: Path, seed: int, seconds: float, smoke: bool = False) -> dict:
    """Half the time untraced, half traced; per-layer figures come from the
    traced iteration with the median wall time."""
    tracer = Tracer()
    layers.install(tracer, {})
    try:
        p = write_inputs(workload, work, seed, smoke)
    finally:
        tracer.uninstall()
    save_s = tracer.seconds("dataset.save_embeddings")
    tracer.reset()
    warm_up(workload, work, seed)
    plain, reference = measure(workload, p, seconds / 2, None, 1)

    layers.install(tracer, p.csv_rows)
    samples = []
    try:
        started = time.perf_counter()
        while _more([it for it, _, _ in samples], started, seconds / 2, 1):
            it, _ = run_iteration(workload, p, reference)
            figures = layers.metrics(tracer)
            figures["trace.unaccounted_frac"] = (it.wall_s - tracer.accounted_seconds()) / it.wall_s
            samples.append((it, figures, list(tracer.spans)))
            tracer.reset()
    finally:
        tracer.uninstall()

    samples.sort(key=lambda sample: sample[0].wall_s)
    median_it, figures, spans = samples[(len(samples) - 1) // 2]
    plain_s = statistics.median(r.wall_s for r in plain)
    figures["dataset.save_embeddings.s"] = save_s
    figures["trace.run_s"] = median_it.wall_s
    figures["trace.overhead_frac"] = (median_it.wall_s - plain_s) / plain_s
    quality = plain[0].quality
    for name in ("genuine_loss_ratio", "rank1", "rank1_scl", "rank1_cl", "rank1_tl"):
        figures[f"quality.{name}"] = quality.get(name, 0.0)
    detail = {
        "untraced_run_s_samples": [r.wall_s for r in plain],
        "traced_run_s_samples": [it.wall_s for it, _, _ in samples],
        "spans": [vars(s) for s in spans],
    }
    runs = plain + [it for it, _, _ in samples]
    return {"metrics": {k: (v, unit_of(k)) for k, v in figures.items()}, "detail": detail, **_outcome(runs)}


def unit_of(name: str) -> str:
    if name.endswith("rows_per_s"):
        return "rows/s"
    if name.endswith((".s", ".self_s", "run_s")):
        return "s"
    if name.endswith("_frac") or name.startswith("quality."):
        return "ratio"
    if name.endswith(".bytes"):
        return "B"
    return "count"


def write_record(work: Path, record: dict) -> None:
    (work / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
