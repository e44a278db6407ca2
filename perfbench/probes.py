"""Kernel probes: ``forrlab._kernels`` timed at fixed shapes.

The probes run in every traced run, whatever the workload, so each kernel
number has one definition across workloads.  Shapes:

- ``wht_batch_numpy`` at m1024xn64 (one sampler step at n = 64) and
  m4096xn1024 (one 32 MB chunk of the uniform null at n = 1024);
- ``eval_multilinear_batch_numpy`` at the dynkin step (1024 rows, the dim-2
  generator table) and the dim-4 endpoints (4096 rows, a 2^4 table);
- ``run_paths_structured_numpy`` on one stream block of 1024 paths at
  n in {64, 256, 1024}; n = 256 and 1024 are the layer sizes the roadmap
  tracks and guard against a layout tuned only at n = 64;
- ``run_paths_dense_numpy`` at dim 1 with the bridge test and at dim 4.

The ``legacy.*`` entries repeat ``benchmarks/bench_kernels.py``'s four
shapes and its best-of timing, including its per-call input copy, so the
figures stay comparable with the baseline recorded there.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from forrlab import _kernels
from forrlab import boolean_fourier as bf
from forrlab import diffusion as diff
from forrlab import verifier as ver

from workloads import path_steps

PROBE_BUDGET_S = 0.6
PROBE_MAX_CALLS = 5


def time_calls(fn, budget: float = PROBE_BUDGET_S, max_calls: int = PROBE_MAX_CALLS):
    """Wall seconds of repeated calls: at least one, more while within budget."""
    times = []
    while True:
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
        if len(times) >= max_calls or sum(times) + times[-1] > budget:
            return times


def _wht(metrics, rng, m, n):
    rows = rng.normal(size=(m, n))
    # in place and repeated: values grow by at most n per call, far from overflow
    seconds = statistics.median(time_calls(lambda: _kernels.wht_batch_numpy(rows)))
    butterflies = m * (n // 2) * int(math.log2(n))
    key = f"kernels.wht_batch_numpy.m{m}xn{n}"
    metrics[f"{key}.ns_per_butterfly"] = seconds / butterflies * 1e9
    # one add or subtract per element per level, over the array read and written once
    metrics[f"{key}.ops_per_byte_computed"] = (m * n * math.log2(n)) / (16.0 * m * n)


def _eval(metrics, rng, label, coeffs, rows):
    points = rng.uniform(-0.5, 0.5, size=(rows, int(math.log2(coeffs.size))))
    seconds = statistics.median(
        time_calls(lambda: _kernels.eval_multilinear_batch_numpy(coeffs, points))
    )
    metrics[f"kernels.eval_multilinear_batch_numpy.{label}.ns_per_row"] = seconds / rows * 1e9


def _per_path_step(run, dt):
    out = {}

    def call():
        out["raw"] = run()

    seconds = statistics.median(time_calls(call))
    return seconds / path_steps(out["raw"]["tau"], dt) * 1e9


def kernel_metrics(seed: int, toy: bool) -> dict:
    """Per-layer kernel metrics; toy shortens the path probes, not their shapes."""
    rng = np.random.default_rng([seed, 9])
    div = 4 if toy else 16
    metrics = {}

    _wht(metrics, rng, 1024, 64)
    _wht(metrics, rng, 4096, 1024)

    product = bf.from_coeffs(2, [0.0, 0.0, 0.0, 1.0])
    dynkin_gen = ver.generator_table(product, diff.equicorrelated_covariance(2, 0.5).matrix)
    _eval(metrics, rng, "dynkin_step", dynkin_gen, 1024)
    _eval(metrics, rng, "dim4_endpoints", bf.random_sign_function(4, rng).coeffs, 4096)

    block = _kernels.STREAM_BLOCK
    for n in (64, 256, 1024):
        eps = 1.0 / (8.0 * math.log(2 * n))
        metrics[f"kernels.run_paths_structured_numpy.n{n}.ns_per_path_step"] = _per_path_step(
            lambda: _kernels.run_paths_structured_numpy(
                seed, block, n, eps / div, eps, store=False, want_phi=True
            ),
            eps / div,
        )

    dt1 = 0.5 / (64 if toy else 1024)
    metrics["kernels.run_paths_dense_numpy.dim1_bridge.ns_per_path_step"] = _per_path_step(
        lambda: _kernels.run_paths_dense_numpy(
            seed, block, np.eye(1), np.ones(1), dt1, 0.5, bridge=True, store=False
        ),
        dt1,
    )
    cov4 = diff.equicorrelated_covariance(4, 0.2)
    eps4 = 1.0 / (8.0 * math.log(4))
    metrics["kernels.run_paths_dense_numpy.dim4.ns_per_path_step"] = _per_path_step(
        lambda: _kernels.run_paths_dense_numpy(
            seed, block, cov4.sqrt_matrix, np.ones(4), eps4 / 1024, eps4, store=False
        ),
        eps4 / 1024,
    )

    metrics.update(_legacy(seed, rng, 200 if toy else 2000))
    return metrics


def _legacy(seed, rng, samples) -> dict:
    rows = rng.normal(size=(4096, 128))
    coeffs = rng.normal(size=2**10)
    points = rng.uniform(-0.5, 0.5, size=(2000, 10))
    eps64 = 1.0 / (8.0 * math.log(128))
    eps4 = 1.0 / (8.0 * math.log(4))
    sigma4 = diff.equicorrelated_covariance(4, 0.2).sqrt_matrix
    calls = {
        "legacy.wht_4096x128.best_s": lambda: _kernels.wht_batch_numpy(rows.copy()),
        "legacy.eval_2000x2p10.best_s": lambda: _kernels.eval_multilinear_batch_numpy(
            coeffs, points
        ),
        "legacy.structured_n64.best_s": lambda: _kernels.run_paths_structured_numpy(
            seed, samples, 64, eps64 / 256, eps64, store=False, want_phi=True
        ),
        "legacy.dense_dim4.best_s": lambda: _kernels.run_paths_dense_numpy(
            seed, samples, sigma4, np.ones(4), eps4 / 256, eps4, store=False
        ),
    }
    return {name: min(time_calls(fn)) for name, fn in calls.items()}
