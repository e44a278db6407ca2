"""Run one workload for a fixed time and turn what it observed into metrics.

Untraced run (``trace=False``), the end-to-end numbers.  Times are scaled to
the nominal host speed with the reference block (see reference.py), because
a shared host's speed can drift by more than the bounds within a minute:

- ``setup_s``: median over ``SETUP_REPEATS`` fresh interpreters of the time
  from before ``import forrlab`` (and so numpy) to the end of the workload's
  set-up, each scaled by a reference block timed right after it;
- ``wall_norm_s``: median over the run's passes of the pass wall time, each
  scaled by the mean of the reference blocks timed just before and after it;
- ``peak_rss_mb``: the process's resident-memory high-water mark.

The raw median pass time ``wall_s`` and the reference time are printed too.

Traced run (``trace=True``), the per-layer numbers, unscaled: passes
alternate untraced and traced; the traced pass with the median wall time is
the representative one.  Layer metrics add the spans of the set-up, of that
pass and of one calibration pass of every workload at toy size, so that each
named layer is measured on every workload.  The kernel probes run last.

Every pass of one seed must reproduce the first pass's report digest and
counts exactly; each comparison is one check.
"""

from __future__ import annotations

import collections
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import forrlab
from forrlab import _kernels

import probes
from reference import NOMINAL_S, Reference
from tracing import NullTracer, Tracer, self_times
from workloads import SAMPLE, SCAN, STATEVECTOR, WORKLOADS, Checks

RUN_SCRIPT = Path(__file__).with_name("run.py")
SETUP_REPEATS = 7
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
LAYER_MODULES = ("diffusion", "forrelation", "boolean_fourier", "verifier", "report", "cli")
BUSY_FUNCTIONS = (
    SAMPLE,
    "diffusion.exit_probability_report",
    "forrelation.advantage_experiment",
    "forrelation.uniform_phi_null",
    STATEVECTOR,
    "forrelation.phi",
    SCAN,
    "verifier.verify_restriction_identity",
    "verifier.verify_dynkin",
    "verifier.verify_stopped_mean_bound",
    "verifier.verify_advantage_bound",
    "report.ExperimentReport.to_json",
    "cli.build_parser",
)
NULL = NullTracer()


def unit_of(name: str) -> str:
    """Unit of a metric, from its name."""
    if name.startswith("ns_per_") or ".ns_per_" in name:
        return "ns"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("ops_per_byte_computed"):
        return "flop/B"
    if name.endswith(("_fraction", "_share")):
        return "ratio"
    return "count"


def check_forrlab_source(src: Path) -> None:
    """Refuse to measure a forrlab other than the one under ``src``."""
    if Path(forrlab.__file__).resolve().parent != (src / "forrlab").resolve():
        raise RuntimeError(f"forrlab imported from {forrlab.__file__}, not from {src}")


def provenance(workload: str, seed: int, seconds: int, trace: bool, toy: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": "toy" if toy else "full",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "thread_pools": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "blas": "{name} {version}".format(**blas),
        "numba_enabled": numba_enabled(),
        "stream_block": _kernels.STREAM_BLOCK,
    }


def numba_enabled() -> bool:
    """The kernels' backend switch; a forrlab without numba support has none."""
    return getattr(_kernels, "NUMBA_ENABLED", False)


def check_backend(checks: Checks) -> None:
    """A run on any backend but numpy is a failure: its numbers are not comparable."""
    checks.expect("backend.numpy", not numba_enabled(), "kernels run on the numba backend")


def setup_probe(workload: str, seed: int, toy: bool, started: float) -> dict:
    """Finish the set-up a fresh interpreter began at ``started``, then gauge the host."""
    w = WORKLOADS[workload]
    w.setup(seed, w.toy if toy else w.full, NULL)
    setup_s = time.perf_counter() - started
    return {"setup_s": setup_s, "reference_s": Reference()()}


def _setup_seconds(workload: str, seed: int, toy: bool) -> float:
    """Set-up time of a fresh interpreter, scaled to the nominal host speed."""
    cmd = [sys.executable, str(RUN_SCRIPT), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "0", "--setup-probe"]
    if toy:
        cmd += ["--size", "toy"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    probe = json.loads(out.stdout.strip().splitlines()[-1])
    return probe["setup_s"] * NOMINAL_S / probe["reference_s"]


def _same_as_first(first, result, checks: Checks):
    if first is None:
        return result
    checks.expect("determinism.digest", result.digest == first.digest,
                  f"{result.digest} != {first.digest}")
    changed = {k: (first.counts.get(k), v) for k, v in result.counts.items()
               if first.counts.get(k) != v}
    checks.expect("determinism.counts", result.counts == first.counts, f"changed: {changed}")
    return first


def _timed_pass(workload, inputs, tracer, checks):
    started = time.perf_counter()
    with tracer.span("driver.pass"):
        result = workload.run_pass(inputs, tracer, checks)
    return time.perf_counter() - started, result


def _passes(workload, inputs, seconds, checks, tracer):
    """Run passes for ``seconds``; with a tracer, alternate untraced and traced.

    Times the reference block before the first pass and after each pass.
    Returns the untraced walls, the traced (wall, trace id) pairs, the
    reference times and the first pass's result.
    """
    reference = Reference()
    refs = [reference()]
    untraced, traced, first = [], [], None
    deadline = time.perf_counter() + seconds
    while True:
        if tracer.enabled and len(traced) < len(untraced):
            trace_id = f"pass{len(traced)}"
            tracer.begin_trace(trace_id)
            wall, result = _timed_pass(workload, inputs, tracer, checks)
            traced.append((wall, trace_id))
        else:
            wall, result = _timed_pass(workload, inputs, NULL, checks)
            untraced.append(wall)
        refs.append(reference())
        first = _same_as_first(first, result, checks)
        if tracer.enabled:
            enough = min(len(untraced), len(traced)) >= MIN_TRACED_PASSES
        else:
            enough = len(untraced) >= MIN_PASSES
        walls = untraced + [w for w, _ in traced]
        if enough and time.perf_counter() + statistics.median(walls) > deadline:
            return untraced, traced, refs, first


def measure_untraced(workload, seed, seconds, toy, checks):
    size = workload.toy if toy else workload.full
    setup = [_setup_seconds(workload.name, seed, toy) for _ in range(SETUP_REPEATS)]
    inputs = workload.setup(seed, size, NULL)
    walls, _, refs, first = _passes(workload, inputs, seconds, checks, NULL)
    wall_s = statistics.median(walls)
    # each pass scaled to the host speed gauged just before and after it
    scaled = [w * 2.0 * NOMINAL_S / (a + b) for w, a, b in zip(walls, refs, refs[1:])]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_norm_s": statistics.median(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    steps = first.counts[(SAMPLE, "path_steps")]
    notes = {
        "wall_s": wall_s,
        "reference_s": statistics.median(refs),
        "path_steps_per_s": steps / wall_s if steps else None,
        "pass_walls_s": [round(w, 4) for w in walls],
        "reference_walls_s": [round(r, 4) for r in refs],
    }
    return metrics, notes


def measure_traced(workload, seed, seconds, toy, checks):
    size = workload.toy if toy else workload.full
    tracer = Tracer()
    tracer.begin_trace("setup")
    inputs = workload.setup(seed, size, tracer)
    untraced, traced, refs, first = _passes(workload, inputs, seconds, checks, tracer)

    wall, rep = sorted(traced)[(len(traced) - 1) // 2]
    tracer.begin_trace("calibration")
    calibration_counts = collections.Counter()
    for w in WORKLOADS.values():
        with tracer.span("driver.calibration"):
            calibration_counts += w.run_pass(w.setup(seed, w.toy, tracer), tracer, checks).counts

    metrics = layer_metrics(tracer, rep, first.counts + calibration_counts)
    metrics.update(workload_counts(first.counts))
    rep_spans = tracer.trace_spans(rep)
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = (
        statistics.median(w for w, _ in traced) - statistics.median(untraced)
    )
    metrics["trace.self_share"] = sum(self_times(rep_spans).values()) / wall
    metrics["trace.spans"] = len(rep_spans)
    metrics["trace.reference_s"] = statistics.median(refs)
    metrics.update(probes.kernel_metrics(seed, toy))
    notes = {
        "untraced_walls_s": [round(w, 4) for w in untraced],
        "traced_walls_s": [round(w, 4) for w, _ in traced],
    }
    return metrics, notes


def layer_metrics(tracer: Tracer, rep: str, counts) -> dict:
    """Busy and self time per layer function and module, plus work counts."""
    spans = tracer.trace_spans("setup", rep, "calibration")
    own = self_times(spans)
    busy = collections.Counter()
    module_busy = collections.Counter()
    module_self = collections.Counter()
    for s in spans:
        busy[s.name] += s.duration
        module_self[s.module] += own[s.index]
        if s.module != "driver":
            module_busy[s.module] += s.duration

    m = {f"{name}.busy_s": busy[name] for name in BUSY_FUNCTIONS}
    for module in LAYER_MODULES:
        m[f"{module}.busy_s"] = module_busy[module]
        m[f"{module}.self_s"] = module_self[module]
    m["driver.self_s"] = module_self["driver"]

    steps = counts[(SAMPLE, "path_steps")]
    m[f"{SAMPLE}.path_steps"] = steps
    m[f"{SAMPLE}.ns_per_path_step"] = busy[SAMPLE] / steps * 1e9
    m[f"{SAMPLE}.exit_fraction"] = counts[(SAMPLE, "exits")] / counts[(SAMPLE, "paths")]
    m[f"{SCAN}.leaves"] = counts[(SCAN, "leaves")]
    m["verifier.verify_restriction_identity.calls"] = counts[
        ("verifier.verify_restriction_identity", "calls")
    ]
    null = "forrelation.uniform_phi_null"
    m[f"{null}.ns_per_sign"] = busy[null] / counts[(null, "signs")] * 1e9
    return m


def workload_counts(counts) -> dict:
    """The workload's own deterministic counts, from one pass."""
    paths = counts[(SAMPLE, "paths")]
    return {
        "workload.paths": paths,
        "workload.path_steps": counts[(SAMPLE, "path_steps")],
        "workload.exits": counts[(SAMPLE, "exits")],
        "workload.exit_fraction": counts[(SAMPLE, "exits")] / paths if paths else 0.0,
        "workload.early_exits": sum(v for (_, key), v in counts.items() if key == "early_exits"),
        "workload.restriction_leaves": counts[(SCAN, "leaves")],
        "workload.statevector_amplitudes": counts[(STATEVECTOR, "amplitudes")],
    }


def run(workload_name: str, seed: int, seconds: int, trace: bool, toy: bool):
    """Measure one workload; returns (metrics, checks, notes)."""
    workload = WORKLOADS[workload_name]
    checks = Checks()
    check_backend(checks)
    measure = measure_traced if trace else measure_untraced
    metrics, notes = measure(workload, seed, seconds, toy, checks)
    notes["provenance"] = provenance(workload_name, seed, seconds, trace, toy)
    return metrics, checks, notes
