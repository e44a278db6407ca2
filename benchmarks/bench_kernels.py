"""Benchmark the hot kernels of forrlab._kernels at fixed shapes.

Runs each kernel --repeat times and prints its best and median per-call
wall time.  Path kernels also report path-steps (one Euler step of one
path) and nanoseconds per path-step of the best call.  The --json record
holds, for every kernel, the tracemalloc peak of one call in MiB
(``peak_traced_mb``).

--cli also times the canonical end-to-end CLI runs once each, through
forrlab.cli.main with default settings and --no-timestamp: verify-prop
--n 64 --samples 100000, verify-dynkin, verify-main and advantage
--rounded (several minutes in all).  Their wall times and exit codes go
under "cli" in the --json record.

--perfbench WORKLOAD (repeatable) also runs that workload of the perfbench
benchmark next to the imported forrlab's ``src/`` for its default 20 s and
stores its end-to-end metrics under "perfbench" in the --json record.

--json PATH stores the run under --label in a JSON file (other labels
already in the file are kept), so a before/after pair can share one file:

    PYTHONPATH=<parent checkout>/src python3 benchmarks/bench_kernels.py \
        --json BENCH_<date>_<sha>.json --label before
    PYTHONPATH=src python3 benchmarks/bench_kernels.py \
        --json BENCH_<date>_<sha>.json --label after

--against PARENT_SRC compares two trees in one interpreter instead: it loads
PARENT_SRC/forrlab/_kernels.py (which imports only numpy and the standard
library) next to the imported forrlab's, and runs every kernel shape's
calls alternately, parent first in odd rounds and second in even ones, so
that both see the same drift in the host's speed.  The rows are stored
under "before" (the parent) and "after"; the shapes that call the
library's other modules, and --cli, run only without --against.  Each
--perfbench workload then runs once on each tree, the parent's first, from
the perfbench/ next to each src/:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py \
        --against <parent checkout>/src --json BENCH_<date>_<sha>.json

Usage:
    python3 benchmarks/bench_kernels.py [--samples 2000] [--repeat 5] [--cli]
        [--perfbench WORKLOAD ...] [--against PARENT_SRC]
        [--json PATH --label NAME]
"""

import argparse
import datetime
import importlib.util
import json
import math
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np

import forrlab
from forrlab import _kernels, boolean_fourier, cli, forrelation, verifier

# the canonical end-to-end runs, each with default settings otherwise
CLI_RUNS = [
    ("verify-prop --n 64 --samples 100000", ["verify-prop", "--n", "64", "--samples", "100000"]),
    ("verify-dynkin", ["verify-dynkin"]),
    ("verify-main", ["verify-main"]),
    ("advantage --rounded", ["advantage", "--rounded"]),
]


def wall_times(repeat, fn):
    """Wall time of each of ``repeat`` calls, in seconds."""
    times = []
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return times


def bench_wht(args, kern):
    rows = np.random.default_rng(args.seed).normal(size=(4096, 128))

    def run():
        kern.wht_batch_numpy(rows.copy())

    return "batched WHT 4096x128", run, None


def bench_wht_rows(args, kern):
    # one chunk of the uniform phi null at n = 1024: a 32 MB batch of long
    # rows.  In place: each call scales the rows by 1024, far from overflow.
    rows = np.random.default_rng(args.seed).normal(size=(4096, 1024))

    def run():
        kern.wht_batch_numpy(rows)

    return "wht_rows_4096x1024", run, None


def bench_wht_rows_short(args, kern):
    # the sampler's phi rows at n = 64 for one stream block; the copy keeps
    # the input fixed
    rows = np.random.default_rng(args.seed).normal(size=(1024, 64))

    def run():
        kern.wht_batch_numpy(rows.copy())

    return "wht_rows_1024x64", run, None


def bench_uniform_null(args):
    # perfbench exact-routes' null: one whole call, its draws included

    def run():
        forrelation.uniform_phi_null(1024, 4096, np.random.default_rng(args.seed))

    return "uniform_null_n1024x4096", run, None


def bench_level2_scan(args):
    # the exhaustive 3^11 restriction scan of perfbench's exact-routes
    f = boolean_fourier.random_sign_function(11, np.random.default_rng(args.seed))

    def run():
        boolean_fourier.max_restricted_level2_mass(f)

    return "level2_scan_n11", run, None


def bench_level2_scan_mc(args):
    # the Monte Carlo scan of perfbench's exact-routes: 200 restrictions at N = 11
    f = boolean_fourier.random_sign_function(11, np.random.default_rng(args.seed))

    def run():
        boolean_fourier.max_restricted_level2_mass(f, "monte_carlo", 200, np.random.default_rng(args.seed))

    return "level2_scan_mc_n11x200", run, None


def bench_restriction_identity_n4(args):
    # perfbench exact-routes' identity calls: 10 N = 4 functions x 25 anchors
    rng = np.random.default_rng(args.seed)
    fs = [boolean_fourier.random_sign_function(4, rng) for _ in range(10)]
    anchors = rng.uniform(-0.5, 0.5, size=(25, 4))

    def run():
        for f in fs:
            for x in anchors:
                verifier.verify_restriction_identity(f, x)

    return "restriction_identity_n4x250", run, None


def bench_restriction_identity_n8(args):
    # one call over the 3^8 restrictions of an N = 8 function
    rng = np.random.default_rng(args.seed)
    f = boolean_fourier.random_sign_function(8, rng)
    x = rng.uniform(-0.5, 0.5, size=8)

    def run():
        verifier.verify_restriction_identity(f, x)

    return "restriction_identity_n8", run, None


def bench_eval(args, kern):
    rng = np.random.default_rng(args.seed)
    coeffs = rng.normal(size=2**10)
    points = rng.uniform(-0.5, 0.5, size=(args.samples, 10))

    def run():
        kern.eval_multilinear_batch_numpy(coeffs, points)

    return f"multilinear eval {args.samples}x2^10", run, None


def bench_structured(args, kern):
    n = 64
    epsilon = 1.0 / (8.0 * math.log(2 * n))
    dt = epsilon / 256

    def run():
        return kern.run_paths_structured_numpy(
            args.seed, args.samples, n, dt, epsilon, store=False, want_phi=True
        )

    return f"structured paths n=64, {args.samples} paths", run, dt


def bench_structured_groups(args, kern):
    # four one-stream groups at n = 64, each drawing its normals ahead on a
    # worker thread that starts and stops with the group: criterion 06's
    # shape in miniature
    n = 64
    epsilon = 1.0 / (8.0 * math.log(2 * n))
    dt = epsilon / 256
    paths = 4 * kern.STREAM_BLOCK

    def run():
        return kern.run_paths_structured_numpy(args.seed, paths, n, dt, epsilon, store=False, want_phi=True)

    return f"structured paths n=64, {paths} paths", run, dt


def bench_structured_n16(args, kern):
    # two stream blocks at n = 16 in one group (the seeded sample-n16 run's
    # shape): 1500 paths, dt = epsilon/256
    n = 16
    epsilon = 1.0 / (8.0 * math.log(2 * n))
    dt = epsilon / 256

    def run():
        return kern.run_paths_structured_numpy(args.seed, 1500, n, dt, epsilon, store=False, want_phi=True)

    return "structured paths n=16, 1500 paths", run, dt


def bench_structured_bridge(args, kern):
    # one stream block at n = 64 with the bridge test, dt = epsilon/1024
    n = 64
    epsilon = 1.0 / (8.0 * math.log(2 * n))
    dt = epsilon / 1024

    def run():
        return kern.run_paths_structured_numpy(
            args.seed, kern.STREAM_BLOCK, n, dt, epsilon, bridge=True, store=False
        )

    return f"structured bridge n=64, {kern.STREAM_BLOCK} paths", run, dt


def bench_dense(args, kern):
    dim = 4
    sigma = np.full((dim, dim), 0.2)
    np.fill_diagonal(sigma, 1.0)
    vals, vecs = np.linalg.eigh(sigma)
    sig_sqrt = (vecs * np.sqrt(vals)) @ vecs.T
    diag = np.ones(dim)
    epsilon = 1.0 / (8.0 * math.log(dim))
    dt = epsilon / 256

    def run():
        return kern.run_paths_dense_numpy(
            args.seed, args.samples, sig_sqrt, diag, dt, epsilon, store=False
        )

    return f"dense paths dim=4, {args.samples} paths", run, dt


def bench_dense_dynkin(args, kern):
    # verify-dynkin's bare instance: dim 2, gamma 0.5, epsilon 0.05, dt = epsilon/1024
    sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
    vals, vecs = np.linalg.eigh(sigma)
    sig_sqrt = (vecs * np.sqrt(vals)) @ vecs.T
    gen = np.array([0.0, 0.0, 0.0, 0.5])
    epsilon = 0.05
    dt = epsilon / 1024
    kw = dict(gen_coeffs=gen, store=True)

    def run():
        return kern.run_paths_dense_numpy(args.seed, args.samples, sig_sqrt, np.ones(2), dt, epsilon, **kw)

    return f"dense Dynkin dim=2, {args.samples} paths", run, dt


def bench_dense_bridge(args, kern):
    # the one-coordinate run of exit_probability_report at epsilon 0.5, bridge on
    epsilon = 0.25
    dt = epsilon / 512
    kw = dict(bridge=True, store=False)

    def run():
        return kern.run_paths_dense_numpy(args.seed, args.samples, np.eye(1), np.ones(1), dt, epsilon, **kw)

    return f"dense bridge dim=1, {args.samples} paths", run, dt


def bench_dense_tiny(args, kern):
    # a tiny dim-2 run, 64 paths of 64 steps: the worker must not start for it
    sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
    vals, vecs = np.linalg.eigh(sigma)
    sig_sqrt = (vecs * np.sqrt(vals)) @ vecs.T
    epsilon = 0.05
    dt = epsilon / 64

    def run():
        return kern.run_paths_dense_numpy(args.seed, 64, sig_sqrt, np.ones(2), dt, epsilon, store=False)

    return "dense tiny dim=2, 64 paths", run, dt


def bench_perfbench(workload, root):
    """End-to-end metrics of one perfbench workload on the tree at ``root``.

    Runs ``perfbench/run.py --seed 1 --seconds 20 --trace 0`` of that tree
    (which measures the ``src/`` next to it), in a fresh interpreter, and
    returns the metric values of its last output line with its check counts.
    The child's ``peak_rss_mb`` (``ru_maxrss``) starts from this process's
    own high-water mark, so main runs the workloads before any kernel input
    is allocated.
    """
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload]
    done = subprocess.run(
        argv + ["--seed", "1", "--seconds", "20", "--trace", "0"],
        capture_output=True, text=True, check=False,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    row = {name: metric["value"] for name, metric in result["metrics"].items()}
    row.update(failed=result["failed"], attempted=result["attempted"])
    wall, failed = row["wall_norm_s"], row["failed"]
    print(f"perfbench {workload} ({root}): wall_norm_s {wall:.4f}, failed {failed}", flush=True)
    return row


def path_steps(out, dt):
    """Euler steps taken, summed over paths: ceil(tau / dt) per path."""
    return int(np.ceil(out["tau"] / dt - 1e-9).sum())


def bench_cli():
    """Wall time and exit code of each canonical CLI run, one run each."""
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        for name, argv in CLI_RUNS:
            started = time.perf_counter()
            code = cli.main(argv + ["--no-timestamp", "--out", out])
            wall = time.perf_counter() - started
            rows[name] = {"wall_s": wall, "exit_code": code}
            print(f"cli {name}: {wall:.2f}s, exit code {code}", flush=True)
    return rows


def load_kernels(src):
    """The ``forrlab/_kernels.py`` under ``src`` as a module of its own."""
    path = pathlib.Path(src) / "forrlab" / "_kernels.py"
    spec = importlib.util.spec_from_file_location("parent_kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measure(calls, dt, repeat):
    """Time each of ``calls`` (one per tree) ``repeat`` times, alternating
    which goes first; returns one row per call."""
    times = [[] for _ in calls]
    for r in range(repeat):
        order = range(len(calls)) if r % 2 == 0 else reversed(range(len(calls)))
        for i in order:
            times[i] += wall_times(1, calls[i])
    rows = []
    for run, ts in zip(calls, times):
        best = min(ts)
        row = {"best_s": best, "median_s": statistics.median(ts)}
        # one more, untimed call gives the peak of the memory numpy and
        # Python report to tracemalloc, and counts a path kernel's path-steps
        tracemalloc.start()
        try:
            out = run()
            row["peak_traced_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        if dt is not None:
            row["path_steps"] = path_steps(out, dt)
            row["ns_per_path_step"] = 1e9 * best / row["path_steps"]
        rows.append(row)
    return rows


def store_json(path, label, args, rows, cli_rows=None, perf_rows=None):
    record = {
        "date": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "argv": sys.argv[1:],
        "samples": args.samples,
        "repeat": args.repeat,
        "seed": args.seed,
        "kernels": rows,
    }
    if cli_rows is not None:
        record["cli"] = cli_rows
    if perf_rows:
        record["perfbench"] = perf_rows
    data = {"runs": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    data["runs"][label] = record
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


# shapes that call the kernels module they are given
KERNEL_BENCHES = [
    bench_wht, bench_eval, bench_structured, bench_structured_groups, bench_structured_n16, bench_dense,
    bench_dense_dynkin, bench_dense_tiny, bench_dense_bridge, bench_structured_bridge, bench_wht_rows,
    bench_wht_rows_short,
]
# shapes that go through the library's other modules
LIBRARY_BENCHES = [
    bench_uniform_null, bench_level2_scan, bench_level2_scan_mc, bench_restriction_identity_n4,
    bench_restriction_identity_n8,
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=2000, help="paths per sampling benchmark")
    parser.add_argument("--repeat", type=int, default=5, help="timed calls per kernel")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", metavar="PATH", help="store the timings in a JSON file")
    parser.add_argument("--label", default="run", help="key of this run inside the --json file")
    parser.add_argument("--cli", action="store_true", help="also time the canonical CLI runs")
    parser.add_argument(
        "--perfbench", metavar="WORKLOAD", action="append", default=[],
        help="also run this perfbench workload end to end (repeatable)",
    )
    parser.add_argument(
        "--against", metavar="PARENT_SRC",
        help="alternate every kernel shape with the _kernels.py under this src directory",
    )
    args = parser.parse_args()
    if args.against and args.cli:
        parser.error("--cli runs only without --against")

    root = pathlib.Path(forrlab.__file__).resolve().parents[2]
    trees = [root]
    kernels = [_kernels]
    if args.against:
        trees.insert(0, pathlib.Path(args.against).resolve().parent)
        kernels.insert(0, load_kernels(args.against))
    perf_rows = [{} for _ in trees]
    for name in args.perfbench:
        for rows, tree in zip(perf_rows, trees):
            rows[name] = bench_perfbench(name, tree)

    benches = [[bench(args, kern) for kern in kernels] for bench in KERNEL_BENCHES]
    if not args.against:
        benches += [[bench(args)] for bench in LIBRARY_BENCHES]

    width = max(len(b[0][0]) for b in benches) + (len(" (before)") if args.against else 0)
    header = f"{'kernel':<{width}}  {'best':>10}  {'median':>10}  {'ns/step':>8}"
    print(header)
    print("-" * len(header))
    rows = [{} for _ in kernels]
    for shape in benches:
        name, dt = shape[0][0], shape[0][2]
        measured = measure([run for _, run, _ in shape], dt, args.repeat)
        tags = [" (before)", " (after)"] if len(shape) == 2 else [""]
        for tree_rows, row, tag in zip(rows, measured, tags):
            tree_rows[name] = row
            label = name + tag
            per_step = f"{row['ns_per_path_step']:>8.0f}" if dt is not None else f"{'':>8}"
            print(f"{label:<{width}}  {row['best_s']:>9.4f}s  {row['median_s']:>9.4f}s  {per_step}")
    cli_rows = bench_cli() if args.cli else None
    if args.json:
        if args.against:
            store_json(args.json, "before", args, rows[0], None, perf_rows[0])
            store_json(args.json, "after", args, rows[1], None, perf_rows[1])
        else:
            store_json(args.json, args.label, args, rows[0], cli_rows, perf_rows[0])


if __name__ == "__main__":
    main()
