"""The package loader of benchmarks/bench_kernels.py, on a copy of this tree, and its round order."""

import argparse
import importlib.util
import inspect
import pathlib
import shutil
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
