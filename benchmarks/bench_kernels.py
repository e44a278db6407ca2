"""Benchmark forrlab's hot kernels and library routes at fixed shapes.

Runs each shape --repeat times and prints its best and median per-call
wall time.  Path kernels also report path-steps (one Euler step of one
path) and nanoseconds per path-step of the best call.  The --json record
holds, for every shape, the tracemalloc peak of one call in MiB
(``peak_traced_mb``), and for each tree the CPUs this process may run on
(``allowed_cpus``, the count its kernels gate draw-ahead on; ``cpus`` is
the host's count), and ``second_cpu_speedup``: how much faster two
Generators fill 2^16 normals each on two threads than one after the other.
Near 2 the second CPU was free and draw-ahead could overlap the step; near
1 it was busy, and draw-ahead rows read as if drawn inline.  Both are
printed before the rows.

--against PARENT_SRC compares two trees in one interpreter: it imports the
whole ``forrlab`` package under PARENT_SRC as modules of its own next to
the imported forrlab, and runs every row's calls alternately, the parent
first in odd rounds and second in even ones, so that both see the same
drift in the host's speed.  Every row then runs an even number of rounds,
so each tree goes first in half of them: an odd --repeat is raised by one,
and --cli and --perfbench run each tree twice a row.  The rows are stored
under "before" (the parent) and "after"; a run of one tree is stored under
"run".

--cli also times the canonical end-to-end CLI runs on each tree, each in
a fresh interpreter (``python -m forrlab.cli`` with that tree's src/ first
on PYTHONPATH; the time includes its start-up and imports) with default
settings and --no-timestamp: verify-prop --n 64 --samples 100000,
verify-dynkin, verify-main and advantage --rounded (several minutes a run).
Each run's median wall time, its wall times and its largest exit code go
under "cli" in the --json record.

--perfbench WORKLOAD (repeatable) also runs that workload of the perfbench
benchmark on each tree, from the perfbench/ next to each src/, for its
default 20 s, and stores the median of each end-to-end metric over the
tree's runs, with the runs themselves, under "perfbench" in the --json
record, which --json PATH writes:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py \
        --against <parent checkout>/src --json BENCH_<date>_<sha>.json

Usage:
    python3 benchmarks/bench_kernels.py [--samples 2000] [--repeat 5] [--cli]
        [--perfbench WORKLOAD ...] [--against PARENT_SRC] [--json PATH]
"""

import argparse
import datetime
import functools
import importlib
import json
import os
import pathlib
import pkgutil
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc

import numpy as np

import forrlab

# the canonical end-to-end runs, each with default settings otherwise
CLI_RUNS = [
    ("verify-prop --n 64 --samples 100000", ["verify-prop", "--n", "64", "--samples", "100000"]),
    ("verify-dynkin", ["verify-dynkin"]),
    ("verify-main", ["verify-main"]),
    ("advantage --rounded", ["advantage", "--rounded"]),
]


def timed(fn):
    """The wall time of ``fn()`` in seconds, and its result."""
    started = time.perf_counter()
    out = fn()
    return time.perf_counter() - started, out


# row-transform rows: (name, rows, row length, copy).  Each call transforms
# seeded normal rows in place, a fresh copy of them when copy is set; without
# it (a 32 MB batch at n = 1024) each call scales the rows by the length, far
# from overflow.  1024x64 is the sampler's phi rows at n = 64 for one stream
# block.
WHT_ROWS = [
    ("batched WHT 4096x128", 4096, 128, True),
    ("wht_rows_4096x1024", 4096, 1024, False),
    ("wht_rows_1024x64", 1024, 64, True),
]


def bench_wht(name, m, n, copy, args, pkg):
    rows = np.random.default_rng(args.seed).normal(size=(m, n))

    def run():
        pkg._kernels.wht_inplace_np(rows.copy() if copy else rows)

    return name, run, None


def bench_uniform_null(args, pkg):
    # perfbench exact-routes' null: one whole call, its draws included

    def run():
        pkg.forrelation.uniform_phi_null(1024, 4096, np.random.default_rng(args.seed))

    return "uniform_null_n1024x4096", run, None


# +-1 row phi rows: (rows, row length).  100000x64 is advantage --rounded's
# phi of the rounded halves, int8 bits of 1e5 stopped points at n = 64; at
# n = 128 and 16384 the row route's Kronecker factors differ with the
# largest factor order it allows
SIGN_ROWS = [(100_000, 64), (50_000, 128), (400, 16384)]


def bench_sign_rows_phi(m, n, args, pkg):
    bits = np.random.default_rng(args.seed).choice(np.array([-1, 1], dtype=np.int8), size=(m, 2 * n))

    def run():
        pkg._kernels._phi_rows(bits[:, :n], bits[:, n:])

    return f"sign_rows_phi_{m}x{n}", run, None


def bench_boolean_round(args, pkg):
    # advantage --rounded's rounding of stopped points at a quarter of its
    # canonical 1e5 x 128 size
    x = np.random.default_rng(args.seed).uniform(-0.5, 0.5, size=(25_000, 128))

    def run():
        pkg.diffusion.boolean_round(x, np.random.default_rng(args.seed))

    return "boolean_round_25000x128", run, None


def bench_level2_scan(n_vars, args, pkg):
    # the exhaustive 3^N restriction scan: N = 11 in perfbench's exact-routes,
    # N = 12 at EXHAUSTIVE_VAR_LIMIT
    f = pkg.boolean_fourier.random_sign_function(n_vars, np.random.default_rng(args.seed))

    def run():
        return pkg.boolean_fourier.max_restricted_level2_mass(f)

    return f"level2_scan_n{n_vars}", run, None


def bench_level2_scan_mc(args, pkg):
    # the Monte Carlo scan of perfbench's exact-routes: 200 restrictions at N = 11
    f = pkg.boolean_fourier.random_sign_function(11, np.random.default_rng(args.seed))

    def run():
        rng = np.random.default_rng(args.seed)
        return pkg.boolean_fourier.max_restricted_level2_mass(f, "monte_carlo", 200, rng)

    return "level2_scan_mc_n11x200", run, None


def bench_restriction_identity_n4(args, pkg):
    # perfbench exact-routes' identity calls: 10 N = 4 functions x 25 anchors
    rng = np.random.default_rng(args.seed)
    fs = [pkg.boolean_fourier.random_sign_function(4, rng) for _ in range(10)]
    anchors = rng.uniform(-0.5, 0.5, size=(25, 4))

    def run():
        for f in fs:
            for x in anchors:
                pkg.verifier.verify_restriction_identity(f, x)

    return "restriction_identity_n4x250", run, None


def bench_restriction_identity(n_vars, args, pkg):
    # one call over the 3^N restrictions of an N-variable function; N = 10 is
    # ENUMERATION_VAR_LIMIT, the size of verify-lemma --vars 10
    rng = np.random.default_rng(args.seed)
    f = pkg.boolean_fourier.random_sign_function(n_vars, rng)
    x = rng.uniform(-0.5, 0.5, size=n_vars)

    def run():
        pkg.verifier.verify_restriction_identity(f, x)

    return f"restriction_identity_n{n_vars}", run, None


def bench_eval(args, pkg):
    rng = np.random.default_rng(args.seed)
    coeffs = rng.normal(size=2**10)
    points = rng.uniform(-0.5, 0.5, size=(args.samples, 10))

    def run():
        pkg._kernels.eval_multilinear_batch_numpy(coeffs, points)

    return f"multilinear eval {args.samples}x2^10", run, None


# path-kernel rows: (name, family, paths, epsilon, dt divisor, keywords).  The
# family is a structured n (N = 2n coordinates) or a dense (dim, gamma)
# equicorrelated covariance; paths None is --samples and epsilon None the
# canonical horizon 1/(8 ln N).  The name gets ", <paths> paths".
PATH_ROWS = [
    ("structured paths n=64", 64, None, None, 256, dict(store=False, want_phi=True)),
    # four one-stream groups of STREAM_BLOCK = 1024 paths, each drawing its
    # normals ahead on a worker thread that starts and stops with the group:
    # criterion 06's shape in miniature
    ("structured paths n=64", 64, 4096, None, 256, dict(store=False, want_phi=True)),
    # two stream blocks in one group: the seeded sample-n16 run's shape
    ("structured paths n=16", 16, 1500, None, 256, dict(store=False, want_phi=True)),
    # one stream block of 16 steps, the per-layer probes' larger shapes: the
    # column transform's two factors are 16 x 16 and 32 x 32 there
    ("structured paths n=256", 256, 1024, None, 16, dict(store=False, want_phi=True)),
    ("structured paths n=1024", 1024, 1024, None, 16, dict(store=False, want_phi=True)),
    ("dense paths dim=4", (4, 0.2), None, None, 256, dict(store=False)),
    # verify-dynkin's bare instance
    ("dense Dynkin dim=2", (2, 0.5), None, 0.05, 1024,
     dict(gen_coeffs=np.array([0.0, 0.0, 0.0, 0.5]), store=True)),
    # 64 paths of 64 steps: the worker must not start for it
    ("dense tiny dim=2", (2, 0.5), 64, 0.05, 64, dict(store=False)),
    # the one-coordinate run of exit_probability_report at epsilon 0.5, to epsilon/2
    ("dense bridge dim=1", (1, 0.0), None, 0.25, 512, dict(bridge=True, store=False)),
    # one stream block with the bridge test
    ("structured bridge n=64", 64, 1024, None, 1024, dict(bridge=True, store=False)),
]


def bench_paths(name, family, paths, epsilon, dt_div, kw, args, pkg):
    paths = paths or args.samples
    if isinstance(family, int):
        coords, kernel, inputs = 2 * family, pkg._kernels.run_paths_structured_numpy, (family,)
    else:
        cov = pkg.diffusion.equicorrelated_covariance(*family)
        inputs = (cov.sqrt_matrix, np.ones(cov.dim))
        coords, kernel = cov.dim, pkg._kernels.run_paths_dense_numpy
    epsilon = epsilon or pkg.diffusion.canonical_epsilon(coords)
    dt = epsilon / dt_div

    def run():
        return kernel(args.seed, paths, *inputs, dt, epsilon, **kw)

    return f"{name}, {paths} paths", run, dt


def bench_perfbench(workload, root):
    """End-to-end metrics of one perfbench workload run on the tree at ``root``.

    Runs ``perfbench/run.py --seed 1 --seconds 20 --trace 0`` of that tree
    (which measures the ``src/`` next to it), in a fresh interpreter, and
    returns the metric values of its last output line with its check counts.
    The child's ``peak_rss_mb`` (``ru_maxrss``) starts from this process's
    own high-water mark, so main runs the workloads before any benchmark
    input is allocated.
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


def even_rounds(count, rounds):
    """``rounds`` raised to an even number when ``count`` > 1 trees alternate,
    so that each tree goes first equally often."""
    return rounds + rounds % 2 if count > 1 else rounds


def alternate(calls, rounds):
    """Call each of ``calls`` (one per tree) in ``rounds`` rounds, the first
    tree first in even rounds and last in odd ones; returns each call's
    results in order."""
    results = [[] for _ in calls]
    for r in range(rounds):
        for i in range(len(calls)) if r % 2 == 0 else reversed(range(len(calls))):
            results[i].append(calls[i]())
    return results


def bench_perfbench_rows(workload, roots):
    """Each end-to-end metric's median over the runs of one perfbench workload on each tree."""
    calls = [lambda root=root: bench_perfbench(workload, root) for root in roots]
    rows = []
    for runs in alternate(calls, even_rounds(len(roots), 1)):
        row = {name: statistics.median(run[name] for run in runs) for name in runs[0]}
        row.update(failed=sum(run["failed"] for run in runs), attempted=sum(run["attempted"] for run in runs))
        rows.append({**row, "runs": runs})
    return rows


def bench_cli(srcs, tags):
    """Median wall time, wall times and largest exit code of each canonical CLI run on each tree.

    Each run is a fresh interpreter in a scratch directory that imports the
    forrlab package under its tree's ``srcs`` entry, so no run inherits
    another's modules or heap.
    """
    rows = [{} for _ in srcs]
    paths = [os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])) for src in srcs]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        for name, argv in CLI_RUNS:

            def call(i):
                cmd = [sys.executable, "-m", "forrlab.cli", *argv, "--no-timestamp", "--out", out]
                env = {**os.environ, "PYTHONPATH": paths[i]}
                wall, done = timed(lambda: subprocess.run(cmd, env=env, cwd=tmp, check=False))
                print(f"cli {name}{tags[i]}: {wall:.2f}s, exit code {done.returncode}", flush=True)
                return wall, done.returncode

            calls = [lambda i=i: call(i) for i in range(len(srcs))]
            for row, runs in zip(rows, alternate(calls, even_rounds(len(srcs), 1))):
                walls = [wall for wall, _ in runs]
                row[name] = {"wall_s": statistics.median(walls), "runs_s": walls,
                             "exit_code": max(code for _, code in runs)}
    return rows


def _pop_forrlab():
    """Take every ``forrlab`` module out of ``sys.modules``; returns them by name."""
    return {name: sys.modules.pop(name) for name in list(sys.modules) if name.partition(".")[0] == "forrlab"}


def with_submodules(package):
    """``package`` with every submodule imported, each an attribute of it."""
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"{package.__name__}.{info.name}")
    return package


def load_package(src):
    """The ``forrlab`` package under ``src``, imported as module objects of its own.

    This interpreter's ``forrlab`` modules are set aside while the package
    and every submodule import from ``src``, so that their absolute imports
    (``from forrlab._kernels import ...``) resolve there too; then they are
    put back.  The submodules are attributes of the returned package.
    """
    path = str(pathlib.Path(src).resolve())
    own = _pop_forrlab()
    sys.path.insert(0, path)
    try:
        package = with_submodules(importlib.import_module("forrlab"))
    finally:
        sys.path.remove(path)
        _pop_forrlab()
        sys.modules.update(own)
    return package


def measure(calls, dt, repeat):
    """Time each of ``calls`` (one per tree) ``repeat`` times, alternating
    which goes first; returns one row per call."""
    times = alternate([lambda call=call: timed(call)[0] for call in calls], repeat)
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
            # Euler steps taken, summed over paths: ceil(tau / dt) per path
            row["path_steps"] = int(np.ceil(out["tau"] / dt - 1e-9).sum())
            row["ns_per_path_step"] = 1e9 * best / row["path_steps"]
        rows.append(row)
    return rows


def second_cpu_speedup(size=1 << 16, repeat=15):
    """Median time of two Generators filling ``size`` normals each one after
    the other, over the median time of the same fills on two threads."""
    rngs = [np.random.default_rng(k) for k in range(2)]
    bufs = np.empty((2, size))

    def fill(k):
        rngs[k].standard_normal(out=bufs[k])

    def in_turn():
        fill(0)
        fill(1)

    def on_two_threads():
        threads = [threading.Thread(target=fill, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    times = alternate([lambda call=call: timed(call)[0] for call in (in_turn, on_two_threads)], repeat)
    return statistics.median(times[0]) / statistics.median(times[1])


def store_json(path, args, runs):
    """Write ``runs`` (label -> rows) to ``path``, each with the run's settings."""
    settings = {
        "date": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "argv": sys.argv[1:],
        "samples": args.samples,
        "repeat": args.repeat,
        "seed": args.seed,
    }
    data = {"runs": {label: {**settings, **rows} for label, rows in runs.items()}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


BENCHES = [
    *(functools.partial(bench_wht, *row) for row in WHT_ROWS), bench_eval,
    *(functools.partial(bench_paths, *row) for row in PATH_ROWS), bench_uniform_null,
    *(functools.partial(bench_sign_rows_phi, *row) for row in SIGN_ROWS),
    bench_boolean_round, functools.partial(bench_level2_scan, 11), functools.partial(bench_level2_scan, 12),
    bench_level2_scan_mc, bench_restriction_identity_n4, functools.partial(bench_restriction_identity, 8),
    functools.partial(bench_restriction_identity, 10),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=2000, help="paths per sampling benchmark")
    parser.add_argument(
        "--repeat", type=int, default=5,
        help="timed calls per shape and tree; with --against an odd count is raised by one",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", metavar="PATH", help="store the timings in a JSON file")
    parser.add_argument(
        "--cli", action="store_true",
        help="also time the canonical CLI runs, each in a fresh interpreter of its tree (twice a tree"
        " with --against, each tree first once)",
    )
    parser.add_argument(
        "--perfbench", metavar="WORKLOAD", action="append", default=[],
        help="also run this perfbench workload end to end (repeatable; twice a tree with --against,"
        " each tree first once)",
    )
    parser.add_argument(
        "--against", metavar="PARENT_SRC",
        help="alternate every row with the forrlab package under this src directory, each tree"
        " going first in half of the row's rounds",
    )
    args = parser.parse_args()

    packages, labels, tags = [with_submodules(forrlab)], ["run"], [""]
    if args.against:
        packages, labels = [load_package(args.against), packages[0]], ["before", "after"]
        tags = [" (before)", " (after)"]
    args.repeat = even_rounds(len(packages), args.repeat)
    speedup = second_cpu_speedup()
    runs = [
        {"kernels": {}, "allowed_cpus": package._kernels._cpus(), "second_cpu_speedup": speedup}
        for package in packages
    ]
    for run, tag in zip(runs, tags):
        print(f"allowed_cpus{tag}: {run['allowed_cpus']}, second_cpu_speedup: {speedup:.2f}")
    srcs = [pathlib.Path(package.__file__).resolve().parents[1] for package in packages]
    roots = [src.parent for src in srcs]
    for name in args.perfbench:
        for run, row in zip(runs, bench_perfbench_rows(name, roots)):
            run.setdefault("perfbench", {})[name] = row

    benches = [[bench(args, package) for package in packages] for bench in BENCHES]
    width = max(len(shape[0][0]) for shape in benches) + max(map(len, tags))
    header = f"{'kernel':<{width}}  {'best':>10}  {'median':>10}  {'ns/step':>8}"
    print(header)
    print("-" * len(header))
    for shape in benches:
        name, dt = shape[0][0], shape[0][2]
        for run, row, tag in zip(runs, measure([call for _, call, _ in shape], dt, args.repeat), tags):
            run["kernels"][name] = row
            per_step = f"{row['ns_per_path_step']:>8.0f}" if dt is not None else f"{'':>8}"
            print(f"{name + tag:<{width}}  {row['best_s']:>9.4f}s  {row['median_s']:>9.4f}s  {per_step}")
    if args.cli:
        for run, rows in zip(runs, bench_cli(srcs, tags)):
            run["cli"] = rows
    if args.json:
        store_json(args.json, args, dict(zip(labels, runs)))


if __name__ == "__main__":
    main()
