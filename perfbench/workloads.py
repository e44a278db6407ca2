"""The three benchmark workloads: set-up, one timed pass, and its checks.

Each workload builds every input from the seed in ``setup`` (forrlab
imports, ``cli.build_parser()``, covariances, configs, functions and sign
vectors) and then runs ``run_pass`` any number of times.  A pass calls only
public forrlab functions, each through ``tracer.call`` under the layer name
``<module>.<function>`` so that a traced pass has one span per call.  A pass
returns the sha256 of its reports' ``to_json(no_timing=True)`` text and the
deterministic counts it observed, keyed by (layer function, counter); both
must repeat exactly on every pass of one seed.

Why these three:

- ``prop-n64`` is the canonical ``verify-prop`` / ``advantage --rounded``
  chain at n = 64.  Nearly all of its time is the structured path loop (RNG
  fill, transform mixing on (1024, 64) rows, exit test, gather/scatter).
- ``dense-exit`` runs the small-dimension dense routes, where per-step
  arrays are at most 1024 x 4: interpreter overhead per step, the per-step
  generator accumulator, the bridge test and live-path compaction dominate,
  and the transform does no work.
- ``exact-routes`` samples no paths.  It measures the restriction identity,
  the exhaustive level-2 scan, the state-vector route and the uniform null,
  whose transform runs on long rows in a 32 MB chunk.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
from types import SimpleNamespace
from typing import Callable

import numpy as np

from forrlab import boolean_fourier as bf
from forrlab import cli
from forrlab import diffusion as diff
from forrlab import forrelation as forr
from forrlab import verifier as ver
from forrlab.report import FAIL, PASS, Estimate, ExperimentReport, check_equal

RESTRICTION_TOL = 1e-9
STATEVECTOR_TOL = 1e-12
SAMPLE = "diffusion.sample_stopped_paths"
SCAN = "boolean_fourier.max_restricted_level2_mass"
STATEVECTOR = "forrelation.statevector_amplitude"


class Checks:
    """Counts every correctness check; keeps a line for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclasses.dataclass(frozen=True)
class PassResult:
    digest: str
    counts: collections.Counter


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    run_pass: Callable
    full: dict
    toy: dict


def path_steps(tau: np.ndarray, dt: float) -> int:
    """Sum over paths of ceil(tau/dt): Euler steps taken, last partial step included."""
    return int(np.ceil(tau / dt - 1e-6).sum())


def _count_batch(counts, batch, config) -> None:
    counts[(SAMPLE, "paths")] += len(batch)
    counts[(SAMPLE, "path_steps")] += path_steps(batch.tau, config.dt)
    counts[(SAMPLE, "exits")] += int(batch.exited.sum())
    early = batch.tau <= 0.5 * config.epsilon * (1.0 + 1e-9)
    counts[(SAMPLE, "early_exits")] += int(early.sum())


def _finish(tracer, checks: Checks, counts, reports) -> PassResult:
    """Gate every verdict and hash the reports' timing-free JSON."""
    digest = hashlib.sha256()
    for report in reports:
        text = tracer.call("report.ExperimentReport.to_json", report.to_json, no_timing=True)
        checks.expect(f"{report.name}.verdict", report.verdict == PASS, text)
        digest.update(text.encode())
    return PassResult(digest.hexdigest(), counts)


# ---------------------------------------------------------------------------
# prop-n64
# ---------------------------------------------------------------------------


def _setup_prop(seed: int, size: dict, tracer):
    tracer.call("cli.build_parser", cli.build_parser)
    cov = diff.build_sigma(size["n"])
    config = diff.default_sampler_config(cov.dim, dt_divisor=size["dt_divisor"], seed=seed)
    return SimpleNamespace(cov=cov, config=config, paths=size["paths"])


def _run_prop(inp, tracer, checks: Checks) -> PassResult:
    counts = collections.Counter()
    batch = tracer.call(
        SAMPLE, diff.sample_stopped_paths, inp.cov, inp.config, inp.paths,
        store_paths=True, want_phi=True,
    )
    _count_batch(counts, batch, inp.config)
    bound = tracer.call(
        "verifier.verify_advantage_bound", ver.verify_advantage_bound,
        inp.cov, inp.config, inp.paths, paths=batch,
    )
    advantage = tracer.call(
        "forrelation.advantage_experiment", forr.advantage_experiment,
        inp.cov, inp.config, inp.paths, include_rounded=True, paths=batch,
    )
    return _finish(tracer, checks, counts, [bound, advantage])


# ---------------------------------------------------------------------------
# dense-exit
# ---------------------------------------------------------------------------


def _setup_dense(seed: int, size: dict, tracer):
    tracer.call("cli.build_parser", cli.build_parser)
    div = size["dt_divisor"]
    # sampler seeds 8s, 8s+2 and 8s+4: verify_dynkin and exit_probability_report
    # also draw from their seed plus one
    cov2 = diff.equicorrelated_covariance(2, 0.5)
    cov4 = diff.equicorrelated_covariance(4, 0.2)
    cov1 = diff.equicorrelated_covariance(1, 0.0)
    return SimpleNamespace(
        samples=size["samples"],
        cov2=cov2,
        f2=bf.from_coeffs(2, [0.0, 0.0, 0.0, 1.0]),
        config2=diff.SamplerConfig(0.05, 0.05 / div, False, 8 * seed),
        cov4=cov4,
        f4=bf.random_sign_function(4, np.random.default_rng([seed, 1])),
        config4=diff.default_sampler_config(cov4.dim, dt_divisor=div, seed=8 * seed + 2),
        cov1=cov1,
        config1=diff.SamplerConfig(0.5, 0.5 / div, True, 8 * seed + 4),
    )


def _run_dense(inp, tracer, checks: Checks) -> PassResult:
    counts = collections.Counter()
    dynkin = tracer.call(
        "verifier.verify_dynkin", ver.verify_dynkin, inp.f2, inp.cov2, inp.config2, inp.samples
    )

    batch = tracer.call(SAMPLE, diff.sample_stopped_paths, inp.cov4, inp.config4, inp.samples)
    _count_batch(counts, batch, inp.config4)
    t = tracer.call(SCAN, bf.max_restricted_level2_mass, inp.f4)
    counts[(SCAN, "leaves")] += 3**inp.f4.n_vars
    main = tracer.call(
        "verifier.verify_stopped_mean_bound", ver.verify_stopped_mean_bound,
        inp.f4, inp.cov4, inp.config4, inp.samples, t=t, paths=batch,
    )

    exit_report = tracer.call(
        "diffusion.exit_probability_report", diff.exit_probability_report,
        inp.cov1, inp.config1, inp.samples,
    )
    p = exit_report.payload
    gap = abs(p["p_exit_one_dim"] - p["analytic_one_dim"])
    checks.expect(
        "exit_probability.loose_gap",
        gap <= 4.0 * p["se_exit_one_dim"],
        f"|p - series| = {gap:.3e} > 4 SE = {4.0 * p['se_exit_one_dim']:.3e}",
    )
    counts[("diffusion.exit_probability_report", "early_exits")] += round(
        p["p_exit_half"] * inp.samples
    )
    return _finish(tracer, checks, counts, [dynkin, main, exit_report])


# ---------------------------------------------------------------------------
# exact-routes
# ---------------------------------------------------------------------------


def _setup_exact(seed: int, size: dict, tracer):
    tracer.call("cli.build_parser", cli.build_parser)
    rng = np.random.default_rng([seed, 2])
    functions = [bf.random_sign_function(4, rng) for _ in range(size["functions"])]
    anchors = rng.uniform(-0.5, 0.5, size=(size["functions"], size["anchors"], 4))
    scan_f = bf.random_sign_function(size["scan_vars"], rng)
    pairs = [
        (rng.choice((-1.0, 1.0), 2**m), rng.choice((-1.0, 1.0), 2**m)) for m in size["sv_log2"]
    ]
    return SimpleNamespace(
        seed=seed,
        functions=functions,
        anchors=anchors,
        scan_f=scan_f,
        mc_samples=size["mc_samples"],
        pairs=pairs,
        null_n=size["null_n"],
        null_samples=size["null_samples"],
    )


def _run_exact(inp, tracer, checks: Checks) -> PassResult:
    counts = collections.Counter()
    reports = []

    worst = 0.0
    for f, anchors in zip(inp.functions, inp.anchors):
        for anchor in anchors:
            residual = tracer.call(
                "verifier.verify_restriction_identity", ver.verify_restriction_identity, f, anchor
            )
            worst = max(worst, residual)
    calls = inp.anchors.shape[0] * inp.anchors.shape[1]
    counts[("verifier.verify_restriction_identity", "calls")] += calls
    reports.append(
        ExperimentReport(
            "restriction_identity",
            PASS if worst < RESTRICTION_TOL else FAIL,
            calls,
            {"vars": 4, "max_residual": worst, "tolerance": RESTRICTION_TOL},
        )
    )

    exhaustive = tracer.call(SCAN, bf.max_restricted_level2_mass, inp.scan_f)
    sampled = tracer.call(
        SCAN, bf.max_restricted_level2_mass, inp.scan_f, "monte_carlo", inp.mc_samples,
        np.random.default_rng([inp.seed, 3]),
    )
    counts[(SCAN, "leaves")] += 3**inp.scan_f.n_vars + inp.mc_samples
    reports.append(
        ExperimentReport(
            "level2_scan",
            PASS if sampled <= exhaustive + 1e-12 else FAIL,
            inp.mc_samples,
            {"vars": inp.scan_f.n_vars, "exhaustive": exhaustive, "monte_carlo": sampled},
        )
    )

    worst = 0.0
    for x, y in inp.pairs:
        amplitude = tracer.call(STATEVECTOR, forr.statevector_amplitude, x, y)
        value = tracer.call("forrelation.phi", forr.phi, x, y)
        worst = max(worst, abs(amplitude - value))
        counts[(STATEVECTOR, "amplitudes")] += x.size
    reports.append(
        ExperimentReport(
            "statevector",
            PASS if worst < STATEVECTOR_TOL else FAIL,
            len(inp.pairs),
            {"sizes": [x.size for x, _ in inp.pairs], "max_residual": worst,
             "tolerance": STATEVECTOR_TOL},
        )
    )

    null = tracer.call(
        "forrelation.uniform_phi_null", forr.uniform_phi_null, inp.null_n, inp.null_samples,
        np.random.default_rng([inp.seed, 4]),
    )
    counts[("forrelation.uniform_phi_null", "signs")] += 2 * inp.null_n * inp.null_samples
    reports.append(
        ExperimentReport(
            "uniform_null",
            check_equal(null, Estimate(0.0, 0.0)),
            inp.null_samples,
            {"n": inp.null_n, "mean_phi": null.value, "se_phi": null.se},
        )
    )
    return _finish(tracer, checks, counts, reports)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "prop-n64",
            _setup_prop,
            _run_prop,
            full={"n": 64, "paths": 1024, "dt_divisor": 1024},
            toy={"n": 64, "paths": 256, "dt_divisor": 64},
        ),
        Workload(
            "dense-exit",
            _setup_dense,
            _run_dense,
            full={"samples": 2048, "dt_divisor": 1024},
            toy={"samples": 512, "dt_divisor": 64},
        ),
        Workload(
            "exact-routes",
            _setup_exact,
            _run_exact,
            full={"functions": 10, "anchors": 25, "scan_vars": 11, "mc_samples": 200,
                  "sv_log2": (10, 12, 14), "null_n": 1024, "null_samples": 4096},
            toy={"functions": 2, "anchors": 3, "scan_vars": 6, "mc_samples": 20,
                 "sv_log2": (4, 6), "null_n": 64, "null_samples": 512},
        ),
    )
}
