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
from .diffusion import (
    STORED_PATHS_BYTE_LIMIT,
    CovarianceSpec,
    SamplerConfig,
    StoppedBatch,
    boolean_round,
    sample_stopped_paths,
)
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

# rows per chunk of uniform_phi_null, and raw 64-bit words per block of
# _uniform_signs (256 KiB)
_NULL_CHUNK = 4096
_SIGN_WORDS = 1 << 15


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
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("xs and ys must be finite")
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
    end-to-end demos of the distinguisher as an actual coin.  The shots are
    drawn at once, 9 bytes each, so a count whose draws would exceed
    STORED_PATHS_BYTE_LIMIT bytes raises CapacityError before any draw.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if 9 * shots > STORED_PATHS_BYTE_LIMIT:
        raise CapacityError(
            f"{shots} shots hold {9 * shots} bytes of draws, over the {STORED_PATHS_BYTE_LIMIT} byte limit"
        )
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
    """(m, n) uniform +-1 int8, from the stream rng.choice((-1.0, 1.0)) consumes.

    That stream is rng.integers(0, 2, dtype=np.int32) mapped to 2b - 1.
    Lemire's method never rejects on a range of 2 and returns the top bit
    of each 32-bit draw, and a bit generator whose state has ``has_uint32``
    (PCG64 and numpy's other 64-bit ones) serves its 32-bit draws low half
    first from one raw 64-bit word, keeping the high half in its state.  So
    the signs are bits 31 and 63 of ``random_raw`` words, read
    ``_SIGN_WORDS`` words at a time.  A half-word buffered at entry gives
    the first sign and the last two or three signs are drawn by
    ``integers`` itself, so the Generator ends in the state of one
    ``integers`` call.  Other bit generators draw every sign by
    ``integers``, a block at a time.
    """
    out = np.empty(m * n, np.int8)
    state = rng.bit_generator.state
    head = min(out.size, int(state.get("has_uint32", 0)))
    body = (max(0, out.size - head - 2) & ~1) if "has_uint32" in state else 0

    def drawn(seg):
        for s in range(0, seg.size, 2 * _SIGN_WORDS):
            part = seg[s : s + 2 * _SIGN_WORDS]
            part[:] = 2 * rng.integers(0, 2, size=part.size, dtype=np.int32) - 1

    drawn(out[:head])
    for s in range(head, head + body, 2 * _SIGN_WORDS):
        words = rng.bit_generator.random_raw(min(_SIGN_WORDS, (head + body - s) // 2))
        # the top byte of each 32-bit half, low half first, holds b in its
        # sign bit; inverted and shifted it is -1 where b = 0 and 0 where
        # b = 1, and | 1 makes that 2b - 1
        top = words.astype("<u8", copy=False).view(np.int8)[3::4]
        seg = out[s : s + top.size]
        np.invert(top, out=seg)
        seg >>= 7
        seg |= 1
    drawn(out[head + body :])
    return out.reshape(m, n)


def uniform_phi_null(n: int, samples: int, rng) -> Estimate:
    """Mean phi over independent uniform sign pairs (analytically zero).

    Each chunk of ``_NULL_CHUNK`` rows draws x's signs as int8
    (``_uniform_signs``), then y's one ``_kernels._sign_layout`` block of
    rows at a time, each just before its phi
    ``_kernels._phi_rows(ys, xs[s : s + step])``, which transforms x by
    BLAS and dots it with y, exactly; H is symmetric, so that is x^T H y.
    Consecutive draws continue one stream, so a chunk's y equals one draw
    of all its rows.  Arguments are checked before any draw, and a chunk
    whose x signs, one block of y signs and the transform blocks would
    exceed STORED_PATHS_BYTE_LIMIT bytes raises CapacityError.
    """
    if n < 1 or n & (n - 1):
        raise ValueError("n must be a power of two >= 1")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    rows = min(_NULL_CHUNK, samples)
    step, dtype = _kernels._sign_layout(rows, n)
    chunk = rows * n + step * n + 2 * step * n * dtype.itemsize
    if chunk > STORED_PATHS_BYTE_LIMIT:
        raise CapacityError(
            f"uniform null chunks of n = {n} hold {chunk} bytes of signs and transform blocks, over the "
            f"{STORED_PATHS_BYTE_LIMIT} byte limit; use fewer samples or a smaller n"
        )
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        m = min(_NULL_CHUNK, samples - done)
        xs = _uniform_signs(rng, m, n)
        vals = np.empty(m)
        for s in range(0, m, step):
            ys = _uniform_signs(rng, min(step, m - s), n)
            vals[s : s + step] = _kernels._phi_rows(ys, xs[s : s + step])
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
        if samples < 2:
            raise ValueError("samples must be >= 2")
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
        if include_rounded and paths.x_tau is None:
            raise ValueError("rounding needs stored endpoints in the paths batch")
        null = uniform_phi_null(cov.n, len(paths), np.random.default_rng([config.seed, 1]))
        payload.update(
            {
                "mean_phi_uniform": null.value,
                "se_phi_uniform": null.se,
                "advantage_estimate": (payload["mean_phi"] - null.value) / 2.0,
            }
        )
        if include_rounded:
            bits = boolean_round(paths.x_tau, np.random.default_rng([config.seed, 2]))
            est_rounded = mean_estimate(_kernels._phi_rows(bits[:, : cov.n], bits[:, cov.n :]))
            payload["mean_phi_rounded"] = est_rounded.value
            payload["se_phi_rounded"] = est_rounded.se
        return [check_equal(null, Estimate(0.0, 0.0))]

    return _advantage_chain(
        "advantage", cov, config, samples, paths, include_rounded, null_and_rounding
    )
