"""benchmarks/bench_kernels.py on a copy of this tree (package loader, CLI runs) and its round order."""

import argparse
import importlib.util
import inspect
import math
import pathlib
import re
import shutil
import subprocess
import sys
import types

import numpy as np

import forrlab

SRC = pathlib.Path(forrlab.__file__).resolve().parent
SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_load_package_imports_the_copy_beside_this_tree(tmp_path):
    bench = load_script()
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy / "forrlab", ignore=shutil.ignore_patterns("__pycache__"))
    own = bench.with_submodules(forrlab)
    before = dict(sys.modules)

    parent = bench.load_package(copy)

    assert sys.modules["forrlab"] is own
    assert {name: sys.modules.get(name) for name in before} == before
    modules = [parent] + [m for m in vars(parent).values() if isinstance(m, types.ModuleType)]
    assert {m.__name__ for m in modules} >= {"forrlab", "forrlab._kernels", "forrlab.boolean_fourier"}
    for module in modules:
        assert pathlib.Path(module.__file__).is_relative_to(copy), module.__name__
        assert module is not sys.modules[module.__name__]
    # boolean_fourier's absolute import of the kernels went to the copy's
    wht = parent.boolean_fourier.wht_inplace_np
    assert wht is parent._kernels.wht_inplace_np
    assert pathlib.Path(inspect.getfile(wht)).is_relative_to(copy)

    args = argparse.Namespace(seed=3, samples=200)
    values = [bench.bench_level2_scan_mc(args, package)[1]() for package in (parent, own)]
    assert type(values[0]) is float
    assert values[0] == values[1]


def test_each_tree_goes_first_in_half_of_a_rows_rounds():
    bench = load_script()
    order = []
    calls = [lambda k=k: order.append(k) or 10 * k for k in range(2)]
    for repeat, rounds in ((1, 2), (5, 6), (6, 6)):
        order.clear()
        assert bench.even_rounds(len(calls), repeat) == rounds
        assert bench.alternate(calls, rounds) == [[0] * rounds, [10] * rounds]
        firsts = order[0::2]
        assert firsts.count(0) == firsts.count(1) == rounds // 2
    assert bench.even_rounds(1, 5) == 5


def test_cli_runs_import_their_own_trees_forrlab(tmp_path, monkeypatch):
    # one short run on this tree and on a copy; each child reports, through
    # Python's verbose imports, the forrlab/cli.py it ran
    bench = load_script()
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy / "forrlab", ignore=shutil.ignore_patterns("__pycache__"))
    short_run = ("sample", ["sample", "--n", "4", "--samples", "500", "--seed", "3"])
    monkeypatch.setattr(bench, "CLI_RUNS", [short_run])
    loaded = []
    run = subprocess.run

    def verbose_run(cmd, env, **kwargs):
        done = run(cmd, env={**env, "PYTHONVERBOSE": "1"}, stderr=subprocess.PIPE, text=True, **kwargs)
        loaded.append({pathlib.Path(p) for p in re.findall(r"(/[^\s']*)/forrlab/cli\.py\b", done.stderr)})
        return done

    monkeypatch.setattr(bench.subprocess, "run", verbose_run)
    rows = bench.bench_cli([copy, SRC.parent], [" (copy)", " (tree)"])

    assert [row["sample"]["exit_code"] for row in rows] == [0, 0]
    assert [len(row["sample"]["runs_s"]) for row in rows] == [2, 2]
    # the copy ran first in the first round and last in the second
    assert loaded == [{copy}, {SRC.parent}, {SRC.parent}, {copy}]


ROW_NAMES = [
    "batched WHT 4096x128", "wht_rows_4096x1024", "wht_rows_1024x64", "multilinear eval 200x2^10",
    "structured paths n=64, 200 paths", "structured paths n=64, 4096 paths",
    "structured paths n=16, 1500 paths", "structured paths n=256, 1024 paths", "structured paths n=1024, 1024 paths",
    "dense paths dim=4, 200 paths", "dense Dynkin dim=2, 200 paths", "dense tiny dim=2, 64 paths",
    "dense bridge dim=1, 200 paths", "structured bridge n=64, 1024 paths", "uniform_null_n1024x4096",
    "sign_rows_phi_100000x64", "sign_rows_phi_50000x128", "sign_rows_phi_400x16384", "boolean_round_25000x128",
    "level2_scan_n11", "level2_scan_n12",
    "level2_scan_mc_n11x200", "restriction_identity_n4x250", "restriction_identity_n8", "restriction_identity_n10",
]


def eigh_root(dim, gamma):
    sigma = np.full((dim, dim), gamma)
    np.fill_diagonal(sigma, 1.0)
    vals, vecs = np.linalg.eigh(sigma)
    return (vecs * np.sqrt(vals)) @ vecs.T


def bound(kernel, *args, **kwargs):
    """Every parameter of a call of ``kernel``, defaults included, by name."""
    call = inspect.signature(kernel).bind(*args, **kwargs)
    call.apply_defaults()
    return dict(call.arguments)


def same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return type(a) is type(b) and a == b


def test_path_rows_call_the_kernels_with_hand_built_inputs(monkeypatch):
    # recording stubs stand in for the two path kernels; each row's call must
    # equal the row written out by hand: eigh roots, np.eye(1) and the
    # literal horizon 1/(8 ln N)
    bench = load_script()
    K = bench.with_submodules(forrlab)._kernels
    structured, dense = K.run_paths_structured_numpy, K.run_paths_dense_numpy
    calls = []

    def recorder(kernel):
        return lambda *a, **kw: calls.append(bound(kernel, *a, **kw))

    for kernel in (structured, dense):
        monkeypatch.setattr(K, kernel.__name__, recorder(kernel))
    args = argparse.Namespace(seed=3, samples=200)
    rows = [row(args, forrlab) for row in bench.BENCHES]
    assert [name for name, _, _ in rows] == ROW_NAMES

    e64, e16, e4, e256, e1024 = (1.0 / (8.0 * math.log(N)) for N in (128, 32, 4, 512, 2048))
    phi = dict(store=False, want_phi=True)
    expected = {
        "structured paths n=64, 200 paths": bound(structured, 3, 200, 64, e64 / 256, e64, **phi),
        "structured paths n=64, 4096 paths": bound(
            structured, 3, 4 * K.STREAM_BLOCK, 64, e64 / 256, e64, **phi
        ),
        "structured paths n=16, 1500 paths": bound(structured, 3, 1500, 16, e16 / 256, e16, **phi),
        "structured paths n=256, 1024 paths": bound(structured, 3, 1024, 256, e256 / 16, e256, **phi),
        "structured paths n=1024, 1024 paths": bound(structured, 3, 1024, 1024, e1024 / 16, e1024, **phi),
        "dense paths dim=4, 200 paths": bound(
            dense, 3, 200, eigh_root(4, 0.2), np.ones(4), e4 / 256, e4, store=False
        ),
        "dense Dynkin dim=2, 200 paths": bound(
            dense, 3, 200, eigh_root(2, 0.5), np.ones(2), 0.05 / 1024, 0.05,
            gen_coeffs=np.array([0.0, 0.0, 0.0, 0.5]), store=True,
        ),
        "dense tiny dim=2, 64 paths": bound(
            dense, 3, 64, eigh_root(2, 0.5), np.ones(2), 0.05 / 64, 0.05, store=False
        ),
        "dense bridge dim=1, 200 paths": bound(
            dense, 3, 200, np.eye(1), np.ones(1), 0.25 / 512, 0.25, bridge=True, store=False
        ),
        "structured bridge n=64, 1024 paths": bound(
            structured, 3, K.STREAM_BLOCK, 64, e64 / 1024, e64, bridge=True, store=False
        ),
    }
    path_rows = [(name, run, dt) for name, run, dt in rows if dt is not None]
    assert [name for name, _, _ in path_rows] == list(expected)
    for name, run, dt in path_rows:
        calls.clear()
        run()
        assert len(calls) == 1, name
        for key, value in expected[name].items():
            assert same(calls[0][key], value), (name, key)
        assert dt == calls[0]["dt"], name


def test_second_cpu_speedup_times_both_fills_of_both_streams(monkeypatch):
    # a tiny fill: the ratio of in-turn to two-thread medians, finite and
    # positive, and each Generator drew every round's values
    bench = load_script()
    made = []
    default_rng = np.random.default_rng

    def recording_rng(seed):
        made.append(default_rng(seed))
        return made[-1]

    monkeypatch.setattr(bench.np.random, "default_rng", recording_rng)
    speedup = bench.second_cpu_speedup(size=64, repeat=3)
    assert math.isfinite(speedup) and speedup > 0.0
    # three rounds of each mode: each stream filled 64 values six times
    assert len(made) == 2
    for k, rng in enumerate(made):
        fresh = default_rng(k)
        fresh.standard_normal(6 * 64)
        assert rng.bit_generator.state == fresh.bit_generator.state
