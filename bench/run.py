"""Benchmark of the sclmetric CLI: end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 bench/run.py --workload train-hard --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

``--trace 0`` reports the end-to-end metrics of untraced iterations;
``--trace 1`` reports the per-layer metrics of a traced run and its
overhead.  ``--smoke`` runs every workload at tiny sizes, traced and
untraced, with every output check and no timing bounds.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The line before it records the environment, the input
sizes and the raw samples; ``.bench_work/<workload>/record.json`` keeps the
same record plus the traced spans.
"""

import os

# One BLAS thread, set before numpy is first imported: on 2 cores it was
# both faster and steadier than the default.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("train-hard", "eval-gallery", "compare-hard")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="all workloads at tiny sizes, no timing")
    args = parser.parse_args(argv)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def result_line(outcome: dict) -> str:
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in outcome["metrics"].items()}
    return json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sclmetric" / "__init__.py").is_file():
        print(f"error: no sclmetric sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness  # numpy and sclmetric load here, after the BLAS pin
    import sclmetric

    if Path(sclmetric.__file__).resolve().parent != SRC / "sclmetric":
        print(f"error: imported sclmetric from {sclmetric.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = harness.environment()
    if args.smoke:
        outcomes = {}
        for name in WORKLOAD_NAMES:
            workload = harness.workloads.WORKLOADS[name]
            outcomes[name] = [
                harness.untraced(workload, WORK / name, SRC, args.seed, 0.0, smoke=True),
                harness.traced(workload, WORK / name, args.seed, 0.0, smoke=True),
            ]
        runs = [o for pair in outcomes.values() for o in pair]
        problems = {name: [p for o in pair for p in o["problems"]] for name, pair in outcomes.items()}
        print(json.dumps({"env": env, "problems": problems}))
        print(json.dumps({
            "correct": all(o["failed"] == 0 for o in runs),
            "attempted": sum(o["attempted"] for o in runs),
            "failed": sum(o["failed"] for o in runs),
            "metrics": {},
        }))
        return 0 if all(o["failed"] == 0 for o in runs) else 1

    workload = harness.workloads.WORKLOADS[args.workload]
    work = WORK / args.workload
    if args.trace:
        outcome = harness.traced(workload, work, args.seed, args.seconds)
    else:
        outcome = harness.untraced(workload, work, SRC, args.seed, args.seconds)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "problems": outcome["problems"], **outcome["detail"],
    }
    harness.write_record(work, record)
    record.pop("spans", None)
    print(json.dumps(record))
    print(result_line(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
