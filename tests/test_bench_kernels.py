"""benchmarks/bench_kernels.py on a copy of this tree (package loader, CLI runs) and its round order."""

import argparse
import importlib.util
import inspect
import pathlib
import re
import shutil
import subprocess
import sys
import types

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
