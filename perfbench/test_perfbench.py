"""Self-tests for the benchmark, at toy size.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import driver  # noqa: E402
import run  # noqa: E402
from forrlab import forrelation  # noqa: E402
from tracing import NullTracer, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(RUN), "--seed", "5", "--seconds", "1", "--size", "toy", *extra],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def test_spec_names_the_workloads():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(WORKLOADS) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_toy_run_prints_every_metric_with_its_unit(workload, trace, section):
    out = _run("--workload", workload, "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    # the human-readable table names every metric with its unit too
    table = {line.split()[0]: line.split()[-1] for line in lines[2:-1]}
    assert all(table[name] == unit for name, unit in expected.items())
    assert "failed_share" in table
    if section == "end_to_end":
        assert all(result["metrics"][m]["value"] > 0 for m in expected)


def test_broken_check_raises_failed_share(monkeypatch):
    real = forrelation.statevector_amplitude
    monkeypatch.setattr(
        forrelation, "statevector_amplitude", lambda x, y: real(x, y) + 1e-9
    )
    _, checks, _ = driver.run("exact-routes", 5, 1, trace=False, toy=True)
    assert checks.failed >= 1
    assert checks.failed / checks.attempted > 0
    assert all(f.startswith("statevector.verdict") for f in checks.failures)


def test_changed_output_between_passes_is_a_failure():
    w = WORKLOADS["prop-n64"]
    checks = Checks()
    first = w.run_pass(w.setup(5, w.toy, NullTracer()), NullTracer(), checks)
    second = w.run_pass(w.setup(6, w.toy, NullTracer()), NullTracer(), checks)
    before = checks.failed
    driver._same_as_first(first, second, checks)
    assert checks.failed - before == 2


def test_traced_self_times_add_up_to_traced_wall():
    w = WORKLOADS["prop-n64"]
    inputs = w.setup(5, w.toy, NullTracer())
    tracer = Tracer()
    tracer.begin_trace("pass")
    started = time.perf_counter()
    with tracer.span("driver.pass"):
        w.run_pass(inputs, tracer, Checks())
    wall = time.perf_counter() - started
    spans = tracer.trace_spans("pass")
    own = self_times(spans)
    assert len(spans) > 1 and all(v >= 0.0 for v in own.values())
    assert sum(own.values()) == pytest.approx(spans[0].duration, rel=1e-9)
    assert 0.99 * wall <= sum(own.values()) <= wall


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "prop-n64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
