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
  accumulated by the trapezoid rule along each path: exactly on the grid
  before the clamp, and within the measured clamp term after it;
- the stopped-mean bound |E[f(X_tau)] - f(0)| <= 2 epsilon gamma t, where
  t is the largest restricted level-2 coefficient mass of f;
- the advantage bound: mean phi >= epsilon/4 on half-split stopped points,
  the equality of mean phi and mean tau (exactly on the grid before the
  clamp), and the early-exit probability guards Pr[tau <= epsilon/2] <= 1/2
  and <= N * 2 exp(-1/(4 epsilon));
- a purely arithmetic level-mass profile (c (ln N)^ell)^((d-1) k) used as a
  caller-supplied t for polylog-regime reports.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .boolean_fourier import (
    EXHAUSTIVE_VAR_LIMIT,
    BooleanFunction,
    RestrictionDistribution,
    _pair_derivatives,
    max_restricted_level2_mass,
    restricted_mean,
    subset_sizes,
)
from .diffusion import CovarianceSpec, SamplerConfig, StoppedBatch, sample_stopped_paths
from .diffusion import canonical_epsilon, early_exit_estimate
from .errors import CapacityError
from .forrelation import _advantage_chain
from .report import (
    Estimate,
    ExperimentReport,
    check_equal,
    check_upper,
    combine_verdicts,
    mean_estimate,
)


def verify_restriction_identity(f: BooleanFunction, x) -> float:
    """Max residual of d_ij f(x) = 4 E[d_ij f_rho(0)] over all pairs i < j.

    The expectation runs over the full ternary restriction family anchored
    at x (3^N terms), so this is exact up to floating point; callers should
    see residuals below 1e-9.  ``RestrictionDistribution`` refuses an
    anchor that is not finite or leaves [-1/2, 1/2]^N.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (f.n_vars,):
        raise ValueError(f"anchor must have length {f.n_vars}")
    # d_ij f_rho(0) is the {i,j} coefficient of the restricted function
    expected = restricted_mean(f, RestrictionDistribution(x))
    pair_masks, lhs = _pair_derivatives(f, x)
    return float(np.abs(lhs - 4.0 * expected[pair_masks]).max(initial=0.0))


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


def trapezoid_wick_allowance(f: BooleanFunction, sigma: np.ndarray, epsilon: float, dt: float) -> float:
    """Bound on the drift the trapezoid accumulator leaves in Dynkin's identity.

    On the Euler grid, E[f(X + dX) - f(X) | X] is the sum over even sets S
    of h^k haf(Sigma_S) d_S f(X) with |S| = 2k (Isserlis), while the
    trapezoid step (h/2)(Af(X) + Af(X + dX)) has expectation (k/2) h^k
    haf(Sigma_S) d_S f(X) at every level 2k >= 4.  Levels 2 and 4 agree, so
    f(X_k) - f(0) - acc_k is a martingale when deg f <= 5 and the bound is
    exactly 0.  From level 6 on, the steps (total time at most epsilon) add
    at most

        epsilon sum_{k >= 3} (k/2 - 1) dt^(k-1) (2k-1)!! s^k
                sum_{|S| = 2k} sum_{T >= S} |c_T| 2^-(|T| - |S|),

    with s the largest off-diagonal |Sigma_ij| (|haf(Sigma_S)| <= (2k-1)!!
    s^k) and the inner sum bounding |d_S f| on the cube.
    """
    nv = f.n_vars
    # level_mass[m] = sum of |c_T| over |T| = m
    level_mass = np.bincount(subset_sizes(nv), weights=np.abs(f.coeffs), minlength=nv + 1)
    off = np.abs(sigma - np.diag(np.diagonal(sigma)))
    s = float(off.max())
    total = 0.0
    for k in range(3, nv // 2 + 1):
        cube_sup = sum(
            level_mass[m] * math.comb(m, 2 * k) * 0.5 ** (m - 2 * k) for m in range(2 * k, nv + 1)
        )
        double_fact = math.prod(range(1, 2 * k, 2))
        total += (k / 2.0 - 1.0) * dt ** (k - 1) * double_fact * s**k * cube_sup
    return epsilon * total


def verify_dynkin(
    f: BooleanFunction,
    cov,
    config: SamplerConfig,
    samples: int,
    dump_csv=None,
) -> ExperimentReport:
    """Monte Carlo check of E[f(X_tau)] - f(0) = E[int_0^tau Af(X_s) ds].

    One sampler run accumulates the generator integral by the trapezoid
    rule along each path and returns both the reported stopped point x_tau
    and the grid endpoint x_raw before the clamp.  Euler increments are
    exact in law, so f(x_raw) - f(0) - acc is a martingale on the grid: its
    mean (``exact_gap``) is gated at 4 SE plus the deterministic bound of
    trapezoid_wick_allowance (0 when deg f <= 5).  The clamp term
    f(x_tau) - f(x_raw), measured on the same paths, carries all of the
    discretization error, so the two-sided verdict on the reported estimates
    compares them within 4 combined SE plus |clamp term| + 4 SE(clamp term).
    dump_csv, when given, receives one row per path: tau, f(X_tau),
    accumulator.
    """
    if f.n_vars != cov.dim:
        raise ValueError(f"function has {f.n_vars} variables but the covariance has dimension {cov.dim}")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    sigma = cov.dense_sigma() if isinstance(cov, CovarianceSpec) else cov.matrix
    gen = generator_table(f, sigma)
    f_zero = f.coefficient(())

    batch = sample_stopped_paths(cov, config, samples, store_paths=True, gen_coeffs=gen)
    values = _kernels.eval_multilinear_batch_numpy(f.coeffs, batch.x_tau)
    raw_values = _kernels.eval_multilinear_batch_numpy(f.coeffs, batch.x_raw)
    lhs = mean_estimate(values - f_zero)
    rhs = mean_estimate(batch.accumulator)
    exact = mean_estimate(raw_values - f_zero - batch.accumulator)
    clamp = mean_estimate(values - raw_values)
    allowance = abs(clamp.value) + 4.0 * clamp.se
    exact_allowance = trapezoid_wick_allowance(f, sigma, config.epsilon, config.dt)
    est_tau = mean_estimate(batch.tau)
    verdict = combine_verdicts(
        check_equal(lhs, rhs, allowance),
        check_equal(exact, Estimate(0.0, 0.0), exact_allowance),
    )

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
        "exact_gap": exact.value,
        "exact_se": exact.se,
        "exact_allowance": exact_allowance,
        "clamp_term": clamp.value,
        "clamp_se": clamp.se,
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
        raise ValueError(f"function has {f.n_vars} variables but the covariance has dimension {cov.dim}")
    if paths is None and samples < 2:
        raise ValueError("samples must be >= 2")
    if paths is not None and paths.x_tau is None:
        raise ValueError("paths batch must carry stored endpoints")
    if t is None:
        if f.n_vars > EXHAUSTIVE_VAR_LIMIT:
            raise CapacityError(
                f"exhaustive level-2 search capped at {EXHAUSTIVE_VAR_LIMIT} variables; supply t"
            )
        t = max_restricted_level2_mass(f)
    if not t >= 0.0:
        raise ValueError("t must be nonnegative")
    if paths is None:
        paths = sample_stopped_paths(cov, config, samples, store_paths=True)
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
    equality with mean phi (4 combined SE), the exact grid identity
    mean |u|^2/n = mean tau before the clamp, the early-exit probability
    Pr[tau <= epsilon/2] against 1/2 and against the union bound
    N * 2 exp(-1/(4 epsilon)) (``bound_union``), each at 4 SE, and the
    pathwise Markov lower bound (epsilon/2) Pr[tau > epsilon/2] on mean tau.
    At the canonical epsilon = 1/(8 ln N) the union bound (see
    early_exit_estimate) equals ``ref_two_over_N`` = 2/N; at n = 64,
    dt = epsilon/1024 the observed value is about 0.002, against 0.0156.
    """

    def early_exit(paths, payload):
        p_half, bound_union = early_exit_estimate(paths.tau, cov.dim, config.epsilon)
        payload.update(
            {
                "p_exit_half": p_half.value,
                "se_exit_half": p_half.se,
                "bound_half": 0.5,
                "bound_union": bound_union,
                "ref_two_over_N": 2.0 / cov.dim,
                "markov_lower_bound": 0.5 * config.epsilon * (1.0 - p_half.value),
            }
        )
        return [check_upper(p_half, 0.5), check_upper(p_half, bound_union)]

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
        epsilon = canonical_epsilon(big_n)
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
