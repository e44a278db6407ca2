"""Executable checks for the identities and bounds behind the sampler.

Each verifier turns one mathematical statement into a check: exact
enumeration where feasible, Monte Carlo with reported standard errors
otherwise.  Statistical verdicts use 4-sigma margins, so "fail" means
violation beyond noise and marginal cases come back "inconclusive".

The statements covered:

- the mixed-derivative identity d_ij f(x) = 4 E[d_ij f_rho(0)] over the
  anchored restriction family (exact enumeration);
- Dynkin's identity E[f(X_tau)] - f(0) = E[integral of Af over [0, tau]]
  for the stopped diffusion, with Af = (1/2) sum_{i != j} Sigma_ij d_ij f
  accumulated by the trapezoid rule along each path;
- the stopped-mean bound |E[f(X_tau)] - f(0)| <= 2 epsilon gamma t, where
  t is the largest restricted level-2 coefficient mass of f;
- the advantage bound: mean phi >= epsilon/4 on half-split stopped points,
  the equality of mean phi and mean tau, and the early-exit probability
  guard Pr[tau <= epsilon/2] <= 1/2;
- a purely arithmetic level-mass profile (c (ln N)^ell)^((d-1) k) used as a
  caller-supplied t for polylog-regime reports.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import _kernels
from .boolean_fourier import (
    EXHAUSTIVE_VAR_LIMIT,
    BooleanFunction,
    RestrictionDistribution,
    enumerate_restrictions,
    max_restricted_level2_mass,
    partial_derivative,
    restrict,
    subset_index,
)
from .diffusion import CovarianceSpec, SamplerConfig, StoppedBatch, sample_stopped_paths
from .errors import CapacityError
from .forrelation import _advantage_chain
from .report import (
    Estimate,
    ExperimentReport,
    check_equal,
    check_upper,
    mean_estimate,
    proportion_estimate,
)


def verify_restriction_identity(f: BooleanFunction, x) -> float:
    """Max residual of d_ij f(x) = 4 E[d_ij f_rho(0)] over all pairs i < j.

    The expectation runs over the full ternary restriction family anchored
    at x (3^N terms), so this is exact up to floating point; callers should
    see residuals below 1e-9.  Anchors must lie in [-1/2, 1/2]^N.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (f.n_vars,):
        raise ValueError(f"anchor must have length {f.n_vars}")
    if (np.abs(x) > 0.5).any():
        raise ValueError("anchor must lie in [-1/2, 1/2] per coordinate")
    dist = RestrictionDistribution(x)
    nv = f.n_vars
    pairs = list(itertools.combinations(range(nv), 2))
    # d_ij f_rho(0) is the {i,j} coefficient of the restricted function
    rhs = {pair: 0.0 for pair in pairs}
    for rho, p in enumerate_restrictions(dist):
        coeffs = restrict(f, rho).coeffs
        for pair in pairs:
            rhs[pair] += p * coeffs[subset_index(pair)]
    worst = 0.0
    for pair in pairs:
        lhs = partial_derivative(f, pair, x)
        worst = max(worst, abs(lhs - 4.0 * rhs[pair]))
    return worst


def generator_table(f: BooleanFunction, sigma: np.ndarray) -> np.ndarray:
    """Coefficient table of Af = (1/2) sum_{i != j} Sigma_ij d_ij f.

    Diagonal terms vanish because the representation is multilinear (each
    variable enters every term at most once), so only i < j pairs appear.
    """
    nv = f.n_vars
    if sigma.shape != (nv, nv):
        raise ValueError("covariance dimension must match the function")
    gen = np.zeros(2**nv)
    all_masks = np.arange(2**nv)
    for i in range(nv):
        for j in range(i + 1, nv):
            s = float(sigma[i, j])
            if s == 0.0:
                continue
            pair = (1 << i) | (1 << j)
            free = all_masks[(all_masks & pair) == 0]
            gen[free] += s * f.coeffs[free | pair]
    return gen


def verify_dynkin(
    f: BooleanFunction,
    cov,
    config: SamplerConfig,
    samples: int,
    dump_csv=None,
) -> ExperimentReport:
    """Monte Carlo check of E[f(X_tau)] - f(0) = E[int_0^tau Af(X_s) ds].

    Runs the sampler twice, at dt and dt/2 (the second run independent, on
    seed config.seed + 1), accumulating the generator integral by the
    trapezoid rule along each path.  The two-sided verdict compares the
    dt-run estimates within 4 combined standard errors plus a
    discretization allowance C*dt, with C estimated from the Richardson
    comparison of the (LHS - RHS) gap between the two runs.  dump_csv, when
    given, receives one row per path of the dt run: tau, f(X_tau),
    accumulator.
    """
    if f.n_vars != cov.dim:
        raise ValueError("function dimension must match the covariance")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    sigma = cov.dense_sigma() if isinstance(cov, CovarianceSpec) else cov.matrix
    gen = generator_table(f, sigma)
    f_zero = f.coefficient(())

    def run(cfg: SamplerConfig):
        batch = sample_stopped_paths(cov, cfg, samples, store_paths=True, gen_coeffs=gen)
        values = _kernels.eval_multilinear_batch_numpy(f.coeffs, batch.x_tau)
        lhs = mean_estimate(values - f_zero)
        rhs = mean_estimate(batch.accumulator)
        return batch, values, lhs, rhs

    half = SamplerConfig(config.epsilon, config.dt / 2.0, config.bridge_correction, config.seed + 1)
    batch, values, lhs, rhs = run(config)
    _, _, lhs_h, rhs_h = run(half)

    gap = lhs.value - rhs.value
    gap_half = lhs_h.value - rhs_h.value
    richardson_c = 2.0 * abs(gap - gap_half) / config.dt
    allowance = richardson_c * config.dt
    est_tau = mean_estimate(batch.tau)
    verdict = check_equal(lhs, rhs, allowance)

    if dump_csv is not None:
        _dump_triples(dump_csv, batch, values)

    payload = {
        "dim": cov.dim,
        "epsilon": config.epsilon,
        "dt": config.dt,
        "f_zero": f_zero,
        "lhs_mean": lhs.value,
        "lhs_se": lhs.se,
        "rhs_mean": rhs.value,
        "rhs_se": rhs.se,
        "lhs_mean_half_dt": lhs_h.value,
        "rhs_mean_half_dt": rhs_h.value,
        "allowance": allowance,
        "mean_tau": est_tau.value,
        "se_tau": est_tau.se,
    }
    return ExperimentReport("dynkin", verdict, samples, payload)


def _dump_triples(fileobj, batch: StoppedBatch, values: np.ndarray) -> None:
    if isinstance(fileobj, str):
        with open(fileobj, "w", encoding="utf-8", newline="") as fh:
            _dump_triples(fh, batch, values)
            return
    fileobj.write("tau,f_x_tau,accumulator\n")
    for k in range(len(batch)):
        fileobj.write(
            f"{float(batch.tau[k])!r},{float(values[k])!r},{float(batch.accumulator[k])!r}\n"
        )


def verify_stopped_mean_bound(
    f: BooleanFunction,
    cov,
    config: SamplerConfig,
    samples: int,
    t: float | None = None,
    paths: StoppedBatch | None = None,
) -> ExperimentReport:
    """Check |mean f(X_tau) - f(0)| <= 2 epsilon gamma t at 4 SE.

    t is the largest level-2 coefficient mass over all restrictions of f,
    computed exhaustively when the dimension allows it and not supplied.
    The uniform-input mean of f equals its empty coefficient f(0), which is
    the comparison point.  A precomputed stored batch may be supplied via
    paths, in which case its length supersedes samples.
    """
    if f.n_vars != cov.dim:
        raise ValueError("function dimension must match the covariance")
    if t is None:
        if f.n_vars > EXHAUSTIVE_VAR_LIMIT:
            raise CapacityError(
                f"exhaustive level-2 search capped at {EXHAUSTIVE_VAR_LIMIT} variables; supply t"
            )
        t = max_restricted_level2_mass(f)
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if paths is None:
        paths = sample_stopped_paths(cov, config, samples, store_paths=True)
    if paths.x_tau is None:
        raise ValueError("paths batch must carry stored endpoints")
    samples = len(paths)

    values = _kernels.eval_multilinear_batch_numpy(f.coeffs, paths.x_tau)
    est = mean_estimate(values)
    est_tau = mean_estimate(paths.tau)
    f_zero = f.coefficient(())
    deviation = Estimate(abs(est.value - f_zero), est.se)
    bound = 2.0 * config.epsilon * cov.gamma * t
    verdict = check_upper(deviation, bound)

    payload = {
        "dim": cov.dim,
        "epsilon": config.epsilon,
        "gamma": cov.gamma,
        "dt": config.dt,
        "t_level2": t,
        "bound": bound,
        "mean_f": est.value,
        "se_f": est.se,
        "f_zero": f_zero,
        "deviation": deviation.value,
        "mean_tau": est_tau.value,
        "se_tau": est_tau.se,
    }
    return ExperimentReport("stopped_mean_bound", verdict, samples, payload)


def verify_advantage_bound(
    cov: CovarianceSpec,
    config: SamplerConfig,
    samples: int,
    paths: StoppedBatch | None = None,
) -> ExperimentReport:
    """Check mean phi >= epsilon/4 with its supporting chain.

    Reports mean phi (3-way verdict against epsilon/4), mean tau and its
    equality with mean phi (4 combined SE), the early-exit probability
    Pr[tau <= epsilon/2] against 1/2, and the pathwise Markov lower bound
    (epsilon/2) Pr[tau > epsilon/2] on mean tau.

    ``ref_two_over_N`` (2/N) is reported only; it is not a prediction of
    Pr[tau <= epsilon/2].  At n = 64, dt = epsilon/1024 the observed value
    is about 0.002, well below 2/N = 0.0156.
    """

    def early_exit(paths, payload):
        half = 0.5 * config.epsilon
        early = int((paths.tau <= half * (1.0 + 1e-9)).sum())
        p_half = proportion_estimate(early, len(paths))
        payload.update(
            {
                "p_exit_half": p_half.value,
                "se_exit_half": p_half.se,
                "bound_half": 0.5,
                "ref_two_over_N": 2.0 / cov.dim,
                "markov_lower_bound": half * (1.0 - p_half.value),
            }
        )
        return [check_upper(p_half, 0.5)]

    return _advantage_chain("advantage_bound", cov, config, samples, paths, False, early_exit)


def ac0_level_mass_bound(ell: float, depth: int, n_inputs: int, c: float = 1.0, k: int = 1) -> float:
    """Arithmetic value of (c (ln N)^ell)^((depth - 1) k).

    A polylog level-mass profile for bounded-depth circuit regimes, used as
    a caller-supplied t for verify_stopped_mean_bound; purely arithmetic.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if n_inputs <= 1:
        raise ValueError("n_inputs must be > 1")
    return float((c * math.log(n_inputs) ** ell) ** ((depth - 1) * k))


def stopped_bound_profile(
    n_values, ell: float = 1.0, depth: int = 2, c: float = 1.0, k: int = 1
) -> list:
    """Arithmetic sweep of the stopped-mean bound 2 epsilon gamma t.

    For each half-dimension n: N = 2n, epsilon = 1/(8 ln N), gamma =
    1/sqrt(n), t from ac0_level_mass_bound at N inputs.  Returns one dict
    per n; with the default parameters the bound is (c/4)/sqrt(n), strictly
    decreasing in n.
    """
    rows = []
    for n in n_values:
        if n < 1:
            raise ValueError("n values must be >= 1")
        big_n = 2 * n
        epsilon = 1.0 / (8.0 * math.log(big_n))
        gamma = 1.0 / math.sqrt(n)
        t = ac0_level_mass_bound(ell, depth, big_n, c, k)
        rows.append(
            {
                "n": int(n),
                "N": int(big_n),
                "epsilon": epsilon,
                "gamma": gamma,
                "t_ac0": t,
                "bound": 2.0 * epsilon * gamma * t,
            }
        )
    return rows
