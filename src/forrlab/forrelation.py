"""Half-correlation statistic and the one-query acceptance law.

phi(x, y) = (1/n) x^T H y, where H is the symmetric +-1/sqrt(n) transform
matrix of order n.  It is computed in O(n log n) with the fast transform and
satisfies |phi| <= 1 on [-1,1]^n inputs.  The associated one-query decision
procedure accepts sign inputs with probability (1 + phi)/2; the same number
phi is, independently, the all-zeros amplitude of a three-transform-layer,
two-phase-layer state-vector circuit, simulated gate by gate per qubit as a
cross-check on the fast-transform route.

advantage_experiment ties the statistic to the stopped-diffusion sampler: the
two halves of a stopped point form an input pair whose mean statistic equals
the mean stopping time and clears the epsilon/4 threshold, while uniform sign
inputs give mean zero.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .diffusion import CovarianceSpec, SamplerConfig, StoppedBatch, boolean_round, sample_stopped_paths
from .errors import CapacityError
from .report import (
    PASS,
    Estimate,
    ExperimentReport,
    check_equal,
    check_lower,
    combine_verdicts,
    mean_estimate,
    proportion_estimate,
)

STATEVECTOR_QUBIT_LIMIT = 20


def _as_instance_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1 or arr.size & (arr.size - 1):
        raise ValueError(f"{name} must be a 1-d vector with power-of-two length")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _require_signs(arr: np.ndarray, name: str) -> None:
    if not np.isin(arr, (-1.0, 1.0)).all():
        raise ValueError(f"{name} entries must be exactly +1 or -1")


def phi(x, y) -> float:
    """(1/n) x^T H y via one fast transform: one row of phi_batch.

    Computed as a one-row batch.  For n > 8192 the row's dot product alone
    may differ in the last bit from the same row inside a taller phi_batch.
    """
    x = _as_instance_vector(x, "x")
    y = _as_instance_vector(y, "y")
    if x.size != y.size:
        raise ValueError("x and y must have the same length")
    return float(_kernels._phi_rows(x[None], y[None])[0])


def phi_batch(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Row-wise phi for matched (m, n) batches of inputs."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 2:
        raise ValueError("xs and ys must be matched 2-d arrays")
    n = xs.shape[1]
    if n < 1 or n & (n - 1):
        raise ValueError("row length must be a power of two")
    return _kernels._phi_rows(xs, ys)


def accept_probability(x, y) -> float:
    """(1 + phi)/2, the acceptance law on exact sign inputs."""
    x = _as_instance_vector(x, "x")
    y = _as_instance_vector(y, "y")
    _require_signs(x, "x")
    _require_signs(y, "y")
    return (1.0 + phi(x, y)) / 2.0


def sample_acceptance(x, y, shots: int, rng) -> Estimate:
    """Bernoulli draws of the accept/reject outcome; returns the proportion.

    The acceptance law is exact, so sampling only adds noise; this exists for
    end-to-end demos of the distinguisher as an actual coin.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p = accept_probability(x, y)
    hits = int((rng.random(shots) < p).sum())
    return proportion_estimate(hits, shots)


def statevector_amplitude(x, y) -> float:
    """All-zeros amplitude of the 3-transform-layer, 2-phase-layer circuit.

    The state starts at the all-zeros basis vector; each transform layer
    applies the 2x2 normalized butterfly to every qubit in sequence, and the
    phase layers multiply by the sign vectors y then x.  The returned real
    amplitude equals phi(x, y); the circuit route shares no code with the
    fast transform used by phi.
    """
    x = _as_instance_vector(x, "x")
    y = _as_instance_vector(y, "y")
    if x.size != y.size:
        raise ValueError("x and y must have the same length")
    _require_signs(x, "x")
    _require_signs(y, "y")
    m = x.size.bit_length() - 1
    if m > STATEVECTOR_QUBIT_LIMIT:
        raise CapacityError(f"state vector capped at {STATEVECTOR_QUBIT_LIMIT} qubits")

    state = np.zeros(x.size)
    state[0] = 1.0

    def transform_layer(s):
        inv = 1.0 / math.sqrt(2.0)
        for q in range(m):
            view = s.reshape(-1, 2, 2**q)
            a = view[:, 0, :].copy()
            b = view[:, 1, :]
            view[:, 0, :] = (a + b) * inv
            view[:, 1, :] = (a - b) * inv
        return s

    state = transform_layer(state)
    state *= y
    state = transform_layer(state)
    state *= x
    state = transform_layer(state)
    return float(state[0])


def _uniform_signs(rng, m: int, n: int) -> np.ndarray:
    """(m, n) uniform +-1 as float32, from the stream rng.choice((-1.0, 1.0)) consumes."""
    signs = rng.integers(0, 2, size=(m, n), dtype=np.int32).astype(np.float32)
    signs *= 2.0
    signs -= 1.0
    return signs


def uniform_phi_null(n: int, samples: int, rng, chunk: int = 4096) -> Estimate:
    """Mean phi over independent uniform sign pairs (analytically zero).

    Each chunk of rows draws x's signs, then y's, and takes phi on the exact
    sign-row route.  Arguments are checked before any draw.
    """
    if n < 1 or n & (n - 1):
        raise ValueError("n must be a power of two >= 1")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        xs = _uniform_signs(rng, m, n)
        vals = _kernels._phi_sign_rows(xs, _uniform_signs(rng, m, n))
        total += float(vals.sum())
        total_sq += float((vals**2).sum())
        done += m
    mean = total / samples
    var = (total_sq - samples * mean**2) / (samples - 1)
    return Estimate(mean, math.sqrt(max(var, 0.0) / samples))


def _advantage_chain(
    name: str,
    cov,
    config: SamplerConfig,
    samples: int,
    paths: StoppedBatch | None,
    store_paths: bool,
    own_part,
) -> ExperimentReport:
    """The checks verify_advantage_bound and advantage_experiment share.

    Takes the given batch, or samples one carrying phi (and the stopped
    points when store_paths), and checks mean phi >= epsilon/4 (three-way)
    and mean phi = mean tau (4 combined SE).  |u_k|^2/n - t_k is a
    martingale on the grid, so mean(phi_raw - tau) = 0 is gated at 4 SE with
    no allowance (``exact_gap``); the clamp term mean(phi - phi_raw) is
    reported with its SE.  own_part(paths, payload) adds the caller's
    payload entries and returns its further verdicts; the report's verdict
    is the worst of all of them.
    """
    if not isinstance(cov, CovarianceSpec):
        raise ValueError("the advantage chain needs the structured covariance")
    if paths is None:
        paths = sample_stopped_paths(cov, config, samples, store_paths=store_paths, want_phi=True)
    if paths.phi is None or paths.phi_raw is None:
        raise ValueError("paths batch must carry the phi functional")

    est_phi = mean_estimate(paths.phi)
    est_tau = mean_estimate(paths.tau)
    exact = mean_estimate(paths.phi_raw - paths.tau)
    clamp = mean_estimate(paths.phi - paths.phi_raw)
    bound = config.epsilon / 4.0
    payload = {
        "n": cov.n,
        "N": cov.dim,
        "epsilon": config.epsilon,
        "dt": config.dt,
        "mean_phi": est_phi.value,
        "se_phi": est_phi.se,
        "mean_tau": est_tau.value,
        "se_tau": est_tau.se,
        "exact_gap": exact.value,
        "exact_se": exact.se,
        "clamp_term": clamp.value,
        "clamp_se": clamp.se,
        "bound_eps_over_4": bound,
    }
    verdict = combine_verdicts(
        check_lower(est_phi, bound),
        check_equal(est_phi, est_tau),
        check_equal(exact, Estimate(0.0, 0.0)),
        *own_part(paths, payload),
    )
    payload["pass"] = verdict == PASS
    return ExperimentReport(name, verdict, len(paths), payload)


def advantage_experiment(
    cov: CovarianceSpec,
    config: SamplerConfig,
    samples: int,
    include_rounded: bool = False,
    paths: StoppedBatch | None = None,
) -> ExperimentReport:
    """Estimate the distinguishing advantage of the acceptance statistic.

    Draws stopped points, splits each into its two halves as an input pair,
    and checks mean phi against its epsilon/4 lower bound (three-way
    verdict) and against mean tau, and the uniform-input null estimate
    against zero, each at 4 SE.  include_rounded also rounds the halves to
    independent signs, which preserves mean phi.  A precomputed batch
    carrying the phi functional can be supplied via paths, in which case
    its length supersedes samples.
    """

    def null_and_rounding(paths, payload):
        null = uniform_phi_null(cov.n, len(paths), np.random.default_rng([config.seed, 1]))
        payload.update(
            {
                "mean_phi_uniform": null.value,
                "se_phi_uniform": null.se,
                "advantage_estimate": (payload["mean_phi"] - null.value) / 2.0,
            }
        )
        if include_rounded:
            if paths.x_tau is None:
                raise ValueError("rounding needs stored endpoints in the paths batch")
            bits = boolean_round(paths.x_tau, np.random.default_rng([config.seed, 2]))
            est_rounded = mean_estimate(_kernels._phi_sign_rows(bits[:, : cov.n], bits[:, cov.n :]))
            payload["mean_phi_rounded"] = est_rounded.value
            payload["se_phi_rounded"] = est_rounded.se
        return [check_equal(null, Estimate(0.0, 0.0))]

    return _advantage_chain(
        "advantage", cov, config, samples, paths, include_rounded, null_and_rounding
    )
