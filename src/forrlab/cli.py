"""Command line front end for sampling, verification, and the distinguisher demo.

Every subcommand prints one JSON report (stdout or ``--out``) and exits with
the verdict code: 0 pass, 1 fail, 2 inconclusive, 64 usage error.  Runs are
reproducible: the master seed comes from ``--seed`` or the ``FORRLAB_SEED``
environment variable, and ``--no-timestamp`` drops the timing fields so a
rerun with the same arguments is byte-identical.

Subcommands:

- ``sample``        draw stopped diffusion paths, report stopping statistics,
                    optionally dump one CSV row per path;
- ``phi``           the correlation functional (1/n) x^T H y of two vectors;
- ``accept``        the acceptance law (1 + phi)/2 on sign inputs;
- ``verify-lemma``  exact check of d_ij f(x) = 4 E[d_ij f_rho(0)] over the
                    anchored restriction family;
- ``verify-dynkin`` Monte Carlo check of E[f(X_tau)] - f(0) = E[int Af];
- ``verify-main``   the stopped-mean bound |E[f(X_tau)] - f(0)| <= 2 eps gamma t;
- ``verify-prop``   the advantage chain: mean phi >= eps/4, mean phi = mean tau,
                    early-exit probability <= 1/2;
- ``advantage``     end-to-end distinguisher demo against the uniform null;
- ``sweep``         bound profile and sampled mean phi across a size range.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import boolean_fourier as bf
from . import diffusion as diff
from . import forrelation as forr
from . import verifier as ver
from .errors import CapacityError
from .report import (
    EXIT_USAGE,
    FAIL,
    PASS,
    ExperimentReport,
    check_lower,
    combine_verdicts,
    mean_estimate,
    verdict_exit_code,
)

TRUTH_TABLE_VAR_LIMIT = 16


class _UsageError(Exception):
    """Bad arguments discovered after argparse; maps to exit code 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def finite(text: str) -> float:
    """argparse type for real-valued flags; nan and inf are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _env_seed() -> int:
    raw = os.environ.get("FORRLAB_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(f"FORRLAB_SEED must be an integer, got {raw!r}")


def _master_seed(args) -> int:
    return args.seed if args.seed is not None else _env_seed()


def _parse_vector(text: str, name: str) -> np.ndarray:
    parts = [p for p in text.replace(",", " ").split() if p]
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise _UsageError(f"{name} must be a comma separated list of numbers, got {text!r}")


def _parse_n_range(text: str) -> list:
    """'64' -> [64]; '16..1024' -> the powers of two from 16 to 1024."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise _UsageError(f"--n must be an integer or a range A..B, got {text!r}")
    if lo < 1 or hi < lo:
        raise _UsageError(f"--n range must satisfy 1 <= A <= B, got {text!r}")
    for v in (lo, hi):
        if v & (v - 1):
            raise _UsageError(f"--n endpoints must be powers of two, got {v}")
    out = []
    n = lo
    while n <= hi:
        out.append(n)
        n *= 2
    return out


def _build_covariance(args):
    if args.n is not None and args.dim is not None:
        raise _UsageError("give either --n (structured) or --dim (dense), not both")
    if args.n is not None:
        if args.gamma is not None:
            raise _UsageError("--gamma applies only to --dim (the structured value is 1/sqrt(n))")
        return diff.build_sigma(args.n)
    if args.dim is None:
        raise _UsageError("one of --n or --dim is required")
    if args.gamma is None:
        raise _UsageError("--dim needs --gamma")
    return diff.equicorrelated_covariance(args.dim, args.gamma)


def _build_config(args, cov, seed: int, epsilon: float | None = None) -> diff.SamplerConfig:
    if epsilon is None:
        epsilon = args.epsilon
    if epsilon is None:
        if cov.dim < 2:
            raise _UsageError("the default horizon 1/(8 ln N) needs dimension >= 2; give --epsilon")
        epsilon = diff.canonical_epsilon(cov.dim)
    if epsilon <= 0.0:
        raise _UsageError("--epsilon must be positive")
    if args.dt_div < 1:
        raise _UsageError("--dt-div must be >= 1")
    return diff.SamplerConfig(epsilon, epsilon / args.dt_div, args.bridge, seed)


def _resolve_function(args, n_vars: int, rng) -> bf.BooleanFunction:
    if args.function is not None:
        try:
            f = bf.load_function(args.function)
        except OSError as exc:
            raise _UsageError(f"cannot read function file: {exc}")
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            raise _UsageError(f"bad function file: {exc}")
    elif args.truth_table is not None:
        table = _parse_vector(args.truth_table, "--truth-table")
        if table.size > 2**TRUTH_TABLE_VAR_LIMIT:
            raise _UsageError(f"inline truth tables are capped at {TRUTH_TABLE_VAR_LIMIT} variables")
        f = bf.from_truth_table(table)
    elif args.random_function:
        f = bf.random_sign_function(n_vars, rng)
    else:
        # default: the product of the first two coordinates
        coeffs = np.zeros(2**n_vars)
        coeffs[0b11] = 1.0
        f = bf.from_coeffs(n_vars, coeffs)
    if f.n_vars != n_vars:
        raise _UsageError(f"function has {f.n_vars} variables but the process has {n_vars}")
    return f


def _emit(args, report: ExperimentReport, started: float) -> int:
    report.wall_time_s = time.perf_counter() - started
    text = report.to_json(no_timing=args.no_timestamp) + "\n"
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return verdict_exit_code(report.verdict)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_sample(args) -> int:
    started = time.perf_counter()
    seed = _master_seed(args)
    cov = _build_covariance(args)
    config = _build_config(args, cov, seed)
    structured = isinstance(cov, diff.CovarianceSpec)
    batch = diff.sample_stopped_paths(
        cov, config, args.samples, store_paths=True, want_phi=structured
    )
    est_tau = mean_estimate(batch.tau)
    payload = {
        "dim": cov.dim,
        "epsilon": config.epsilon,
        "dt": config.dt,
        "bridge": config.bridge_correction,
        "seed": seed,
        "mean_tau": est_tau.value,
        "se_tau": est_tau.se,
        "exit_fraction": float(batch.exited.mean()),
    }
    if structured:
        est_phi = mean_estimate(batch.phi)
        payload["mean_phi"] = est_phi.value
        payload["se_phi"] = est_phi.se
    if args.dump_paths is not None:
        bits = None
        if args.bits:
            bits = diff.boolean_round(batch.x_tau, np.random.default_rng([seed, 2]))
        header = {
            "dim": cov.dim,
            "epsilon": config.epsilon,
            "dt": config.dt,
            "bridge": config.bridge_correction,
            "seed": seed,
            "samples": args.samples,
        }
        diff.dump_paths_csv(batch, args.dump_paths, header=header, bits=bits)
    return _emit(args, ExperimentReport("sample", PASS, args.samples, payload), started)


def _parse_pair(args) -> tuple[np.ndarray, np.ndarray]:
    """The --x and --y vectors, of length --n when it is given."""
    x = _parse_vector(args.x, "--x")
    y = _parse_vector(args.y, "--y")
    if args.n is not None and (x.size != args.n or y.size != args.n):
        raise _UsageError(f"--x and --y must have length --n = {args.n}")
    return x, y


def _cmd_phi(args) -> int:
    x, y = _parse_pair(args)
    value = forr.phi(x, y)
    sys.stdout.write(json.dumps({"phi": value}) + "\n")
    return 0


def _cmd_accept(args) -> int:
    x, y = _parse_pair(args)
    out = {"phi": forr.phi(x, y), "accept_probability": forr.accept_probability(x, y)}
    if args.shots is not None:
        rng = np.random.default_rng(_master_seed(args))
        est = forr.sample_acceptance(x, y, args.shots, rng)
        out["sampled_acceptance"] = est.value
        out["sampled_se"] = est.se
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


def _cmd_verify_lemma(args) -> int:
    started = time.perf_counter()
    if args.vars < 2:
        raise _UsageError("--vars must be >= 2 (the identity quantifies over pairs)")
    if args.functions < 1 or args.anchors < 1:
        raise _UsageError("--functions and --anchors must be >= 1")
    seed = _master_seed(args)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(args.functions):
        f = bf.random_sign_function(args.vars, rng)
        for _ in range(args.anchors):
            anchor = rng.uniform(-0.5, 0.5, size=args.vars)
            worst = max(worst, ver.verify_restriction_identity(f, anchor))
    verdict = PASS if worst < args.tol else FAIL
    payload = {
        "vars": args.vars,
        "functions": args.functions,
        "anchors": args.anchors,
        "max_residual": worst,
        "tolerance": args.tol,
        "seed": seed,
    }
    report = ExperimentReport(
        "restriction_identity", verdict, args.functions * args.anchors, payload
    )
    return _emit(args, report, started)


def _cmd_verify_dynkin(args) -> int:
    started = time.perf_counter()
    seed = _master_seed(args)
    # bare invocation reproduces the dimension-2 closed-form instance
    if args.n is None and args.dim is None:
        args.dim, args.gamma = 2, 0.5
    cov = _build_covariance(args)
    epsilon = None
    if args.epsilon is None and args.n is None and cov.dim == 2:
        epsilon = 0.05
    config = _build_config(args, cov, seed, epsilon=epsilon)
    f = _resolve_function(args, cov.dim, np.random.default_rng([seed, 5]))
    report = ver.verify_dynkin(f, cov, config, args.samples, dump_csv=args.dump_triples)
    return _emit(args, report, started)


def _cmd_verify_main(args) -> int:
    started = time.perf_counter()
    seed = _master_seed(args)
    # bare invocation uses the dense dimension-4, gamma 0.2 reference family
    if args.n is None and args.dim is None:
        args.dim, args.gamma = 4, 0.2
    cov = _build_covariance(args)
    config = _build_config(args, cov, seed)
    f = _resolve_function(args, cov.dim, np.random.default_rng([seed, 5]))
    report = ver.verify_stopped_mean_bound(f, cov, config, args.samples, t=args.t)
    return _emit(args, report, started)


def _cmd_verify_prop(args) -> int:
    started = time.perf_counter()
    seed = _master_seed(args)
    cov = diff.build_sigma(args.n)
    config = _build_config(args, cov, seed)
    report = ver.verify_advantage_bound(cov, config, args.samples)
    return _emit(args, report, started)


def _cmd_advantage(args) -> int:
    started = time.perf_counter()
    seed = _master_seed(args)
    cov = diff.build_sigma(args.n)
    config = _build_config(args, cov, seed)
    report = forr.advantage_experiment(
        cov, config, args.samples, include_rounded=args.rounded
    )
    return _emit(args, report, started)


def _cmd_sweep(args) -> int:
    started = time.perf_counter()
    seed = _master_seed(args)
    ns = _parse_n_range(args.n)
    if args.samples < 0:
        raise _UsageError("--samples must be >= 0 (0 skips sampling)")
    if args.dt_div < 1:
        raise _UsageError("--dt-div must be >= 1")
    try:
        rows = ver.stopped_bound_profile(ns, ell=args.ell, depth=args.depth, c=args.c, k=args.k)
    except ValueError as exc:
        raise _UsageError(str(exc))
    verdicts = []
    for row in rows:
        if args.samples == 0:
            continue
        cov = diff.build_sigma(row["n"])
        config = diff.SamplerConfig(
            row["epsilon"], row["epsilon"] / args.dt_div, args.bridge, seed + row["n"]
        )
        batch = diff.sample_stopped_paths(
            cov, config, args.samples, store_paths=False, want_phi=True
        )
        est = mean_estimate(batch.phi)
        row["mean_phi"] = est.value
        row["se_phi"] = est.se
        row["bound_eps_over_4"] = row["epsilon"] / 4.0
        verdicts.append(check_lower(est, row["bound_eps_over_4"]))
    verdict = combine_verdicts(*verdicts) if verdicts else PASS
    payload = {
        "ell": args.ell,
        "depth": args.depth,
        "c": args.c,
        "k": args.k,
        "seed": seed,
        "rows": rows,
    }
    report = ExperimentReport("sweep", verdict, args.samples * len(ns), payload)
    return _emit(args, report, started)


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def _add_output_flags(p) -> None:
    p.add_argument("--out", metavar="FILE", help="write the JSON report to FILE instead of stdout")
    p.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the timestamp and wall time so identical reruns are byte-identical",
    )


def _add_seed_flag(p) -> None:
    p.add_argument(
        "--seed",
        type=int,
        help="master RNG seed (default: the FORRLAB_SEED environment variable, else 0)",
    )


def _add_sampling_flags(p, default_samples: int) -> None:
    p.add_argument(
        "--samples", type=int, default=default_samples, help="number of Monte Carlo paths"
    )
    p.add_argument(
        "--epsilon", type=finite, help="time horizon (default: 1/(8 ln N) for the process dimension N)"
    )
    p.add_argument(
        "--dt-div", type=int, default=1024, help="grid steps per horizon; dt = epsilon/dt-div"
    )
    p.add_argument(
        "--bridge",
        action="store_true",
        help="apply the per-coordinate bridge correction to exit detection",
    )


def _add_model_flags(p, n_help: str) -> None:
    p.add_argument("--n", type=int, help=n_help)
    p.add_argument(
        "--dim", type=int, help="dimension of a dense equicorrelated covariance (alternative to --n)"
    )
    p.add_argument("--gamma", type=finite, help="off-diagonal correlation used with --dim")


def _add_function_flags(p) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument(
        "--function",
        metavar="FILE",
        help='JSON function file {"n": N, "coeffs": [...]} with coefficients in bitmask order',
    )
    g.add_argument(
        "--truth-table",
        metavar="VALUES",
        help="comma separated +-1 truth table of length 2^N (N <= 16)",
    )
    g.add_argument(
        "--random-function",
        action="store_true",
        help="draw a uniformly random sign function from the seed",
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="forrlab",
        description=(
            "Sampling and verification for the stopped correlated diffusion on the "
            "solid cube and the correlation functional it feeds."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    sub.required = True

    p = sub.add_parser(
        "sample",
        help="draw stopped diffusion paths and report stopping statistics",
        description=(
            "Draw stopped paths of the correlated diffusion on [-1/2, 1/2]^N and "
            "report mean stopping time, exit fraction, and (structured case) the "
            "mean correlation functional.  --dump-paths writes one CSV row per "
            "path: stream id, tau, exited, coordinates, optional rounded bits."
        ),
    )
    _add_model_flags(p, "half dimension of the structured covariance (power of two, N = 2n)")
    _add_sampling_flags(p, default_samples=1000)
    p.add_argument("--dump-paths", metavar="FILE", help="write the per-path CSV dump to FILE")
    p.add_argument(
        "--bits",
        action="store_true",
        help="append independently rounded +-1 bits to the CSV dump",
    )
    _add_seed_flag(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser(
        "phi",
        help="the correlation functional (1/n) x^T H y",
        description=(
            "Compute (1/n) x^T H y for two length-n vectors, with H the symmetric "
            "orthonormal +-1/sqrt(n) transform; prints {\"phi\": value}."
        ),
    )
    p.add_argument("--n", type=int, help="expected vector length (power of two)")
    p.add_argument("--x", required=True, help="comma separated first vector")
    p.add_argument("--y", required=True, help="comma separated second vector")
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser(
        "accept",
        help="acceptance probability (1 + phi)/2 on sign inputs",
        description=(
            "Compute the single-query circuit's acceptance probability (1 + phi)/2 "
            "for +-1 vectors, optionally estimating it with Bernoulli shots."
        ),
    )
    p.add_argument("--n", type=int, help="expected vector length (power of two)")
    p.add_argument("--x", required=True, help="comma separated +-1 vector")
    p.add_argument("--y", required=True, help="comma separated +-1 vector")
    p.add_argument("--shots", type=int, help="also estimate the probability from this many draws")
    _add_seed_flag(p)
    p.set_defaults(func=_cmd_accept)

    p = sub.add_parser(
        "verify-lemma",
        help="exact check of the mixed-derivative restriction identity",
        description=(
            "Check d_ij f(x) = 4 E[d_ij f_rho(0)] exactly, enumerating all 3^N "
            "anchored restrictions for random sign functions and random anchors "
            "in [-1/2, 1/2]^N; passes when the worst residual stays below the "
            "tolerance."
        ),
    )
    p.add_argument("--vars", type=int, default=4, help="number of variables N (default 4)")
    p.add_argument("--functions", type=int, default=100, help="random functions to test")
    p.add_argument("--anchors", type=int, default=25, help="random anchors per function")
    p.add_argument("--tol", type=finite, default=1e-9, help="residual tolerance")
    _add_seed_flag(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_verify_lemma)

    p = sub.add_parser(
        "verify-dynkin",
        help="Monte Carlo check of Dynkin's identity for the stopped diffusion",
        description=(
            "Check E[f(X_tau)] - f(0) = E[integral of Af over [0, tau]] with "
            "Af = (1/2) sum_{i != j} Sigma_ij d_ij f, on one run: exactly on "
            "the Euler grid before the clamp, and within the clamp term measured "
            "on the same paths after it.  Bare invocation uses the "
            "dimension-2 closed-form instance (f = x0 x1, gamma 0.5, epsilon 0.05)."
        ),
    )
    _add_model_flags(p, "half dimension of the structured covariance (power of two, N = 2n)")
    _add_function_flags(p)
    _add_sampling_flags(p, default_samples=100_000)
    p.add_argument(
        "--dump-triples",
        metavar="FILE",
        help="write per-path tau, f(X_tau), generator integral rows to FILE",
    )
    _add_seed_flag(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_verify_dynkin)

    p = sub.add_parser(
        "verify-main",
        help="check the stopped-mean bound |E[f(X_tau)] - f(0)| <= 2 eps gamma t",
        description=(
            "Check that the stopped mean of f deviates from its centered value "
            "f(0) by at most 2 epsilon gamma t, where t is the largest restricted "
            "level-2 coefficient mass (computed exhaustively unless --t is given). "
            "Bare invocation uses the dense dimension-4 family with gamma 0.2."
        ),
    )
    _add_model_flags(p, "half dimension of the structured covariance (power of two, N = 2n)")
    _add_function_flags(p)
    p.add_argument("--t", type=finite, help="override the level-2 mass bound t")
    _add_sampling_flags(p, default_samples=100_000)
    _add_seed_flag(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_verify_main)

    p = sub.add_parser(
        "verify-prop",
        help="check mean phi >= epsilon/4 with its supporting identities",
        description=(
            "Sample the structured process at half dimension n, split endpoints "
            "into the two halves (x, y), and check mean phi >= epsilon/4, "
            "mean phi = mean tau (exactly on the grid before the clamp), and "
            "Pr[tau <= epsilon/2] against 1/2 and the union bound 2N exp(-1/(4 epsilon))."
        ),
    )
    p.add_argument("--n", type=int, default=64, help="half dimension (power of two, default 64)")
    _add_sampling_flags(p, default_samples=100_000)
    _add_seed_flag(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_verify_prop)

    p = sub.add_parser(
        "advantage",
        help="end-to-end distinguisher demo against the uniform null",
        description=(
            "Estimate mean phi on stopped-diffusion inputs (checked against "
            "epsilon/4 and mean tau) and on uniform +-1 inputs (analytically "
            "zero); the acceptance-probability gap between "
            "the two is half the phi gap.  --rounded also scores phi on "
            "independently rounded +-1 bits."
        ),
    )
    p.add_argument("--n", type=int, default=64, help="half dimension (power of two, default 64)")
    p.add_argument(
        "--rounded",
        action="store_true",
        help="also report mean phi over rounded +-1 bits (mean-preserving)",
    )
    _add_sampling_flags(p, default_samples=100_000)
    _add_seed_flag(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_advantage)

    p = sub.add_parser(
        "sweep",
        help="bound profile and sampled mean phi across a size range",
        description=(
            "For each half dimension n in a power-of-two range, report epsilon = "
            "1/(8 ln 2n), gamma = 1/sqrt(n), the polylog level-mass value t, the "
            "bound 2 epsilon gamma t, and (with --samples > 0) the sampled mean "
            "phi against epsilon/4."
        ),
    )
    p.add_argument(
        "--n",
        default="16..256",
        help="half dimension or inclusive range A..B of powers of two (default 16..256)",
    )
    p.add_argument("--samples", type=int, default=20_000, help="paths per size; 0 skips sampling")
    p.add_argument("--dt-div", type=int, default=1024, help="grid steps per horizon")
    p.add_argument("--bridge", action="store_true", help="bridge-corrected exit detection")
    p.add_argument("--ell", type=finite, default=1.0, help="log exponent of the level-mass profile")
    p.add_argument("--depth", type=int, default=2, help="depth parameter of the level-mass profile")
    p.add_argument("--c", type=finite, default=1.0, help="constant of the level-mass profile")
    p.add_argument("--k", type=int, default=1, help="level exponent of the level-mass profile")
    _add_seed_flag(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_UsageError, ValueError, CapacityError, OSError) as exc:
        sys.stderr.write(f"forrlab {args.subcommand}: error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
