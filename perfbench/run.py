"""forrlab benchmark: one workload, measured for a fixed time.

Usage, from the repository root:

    python3 perfbench/run.py --workload prop-n64 --seed 1 --seconds 20 --trace 0

Workloads: prop-n64, dense-exit, exact-routes (see workloads.py).  With
``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it give the provenance and every metric by name and unit.
Every failed check is printed to standard error and makes the exit code 1.

The benchmark measures the forrlab under ``src/`` next to this directory,
on the numpy backend, with BLAS and OpenMP pools pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("prop-n64", "dense-exit", "exact-routes")


def parse_args(argv):
    p = argparse.ArgumentParser(description="forrlab benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "toy"), default="full",
                   help="toy shrinks every workload, for the self-tests")
    p.add_argument("--setup-probe", action="store_true",
                   help="time the workload's set-up in this fresh interpreter and exit")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def format_value(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "forrlab" / "__init__.py").is_file():
        print(f"forrlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    toy = args.size == "toy"

    started = time.perf_counter()
    import driver  # imports numpy and forrlab: part of the timed set-up

    driver.check_forrlab_source(SRC)
    if args.setup_probe:
        print(json.dumps(driver.setup_probe(args.workload, args.seed, toy, started)))
        return 0

    metrics, checks, notes = driver.run(
        args.workload, args.seed, args.seconds, bool(args.trace), toy
    )
    print("provenance " + json.dumps(notes.pop("provenance"), sort_keys=True))
    lists = {k: v for k, v in notes.items() if isinstance(v, list)}
    print(" ".join(f"{k}={json.dumps(v, separators=(',', ':'))}" for k, v in lists.items()))
    rows = dict(metrics)
    rows.update((k, v) for k, v in notes.items() if k not in lists)
    rows["failed_share"] = checks.failed / checks.attempted
    width = max(map(len, rows))
    for name, value in rows.items():
        print(f"{name:<{width}}  {format_value(value):>14}  {driver.unit_of(name)}")
    for failure in checks.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": driver.unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
