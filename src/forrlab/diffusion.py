"""Stopped correlated Brownian motion on the solid cube.

The process starts at the origin and evolves as dX_t = sigma dB_t, where
sigma is the square root of a covariance matrix with unit diagonal.  It is
stopped at tau = min(epsilon, first time any coordinate leaves
[-1/2, 1/2]), so the stopped point always lies inside the closed cube.

Two covariance families are supported.  The structured family is the
two-block matrix [[I, H], [H, I]] where H is the symmetric orthogonal
+-1/sqrt(n) transform matrix; it satisfies Sigma^2 = 2 Sigma, so its square
root is Sigma/sqrt(2) and can be applied in O(N log N) per step with fast
transforms.  The dense family accepts an arbitrary symmetric positive
semidefinite matrix with unit diagonal and uses an eigendecomposition square
root; it is intended for small dimensions.

Batch sampling runs the paths-minor path loop of _kernels, one RNG stream
per block of paths.  sample_stopped_path is a single-path readable
reference with the same stepping and exit semantics, useful for auditing
the kernels.  Exit detection is discrete-time threshold crossing,
optionally sharpened by a per-coordinate Brownian-bridge crossing test
between grid points.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from . import _kernels
from .errors import CapacityError
from .report import ExperimentReport, check_upper, combine_verdicts, proportion_estimate

BARRIER = 0.5

# dense covariance construction is quadratic in memory; keep it modest
DENSE_DIM_LIMIT = 4096

# a sampling request is refused when the batch it returns or the working set
# of one group of stream blocks would exceed 1 GiB, ten times the largest
# batch the acceptance criteria store (1e5 paths at dim 128).  The working
# set counts the group's dim x paths state 4x, or 8x with the bridge test
# (tracemalloc on 1024 paths at n = 1024 put it at 3.19x and 4.38x), plus
# the generator fold's 2^dim x paths table.
STORED_PATHS_BYTE_LIMIT = 2**30


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclasses.dataclass(frozen=True)
class CovarianceSpec:
    """Structured covariance [[I, H], [H, I]] over N = 2n coordinates.

    H is the symmetric +-1/sqrt(n) transform matrix with H^2 = I, so the
    full matrix has unit diagonal, off-diagonal magnitudes at most
    1/sqrt(n), and satisfies Sigma^2 = 2 Sigma (eigenvalues 0 and 2).
    """

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or not _is_power_of_two(int(self.n)):
            raise ValueError("n must be a power of two >= 1")
        object.__setattr__(self, "n", int(self.n))

    @property
    def dim(self) -> int:
        return 2 * self.n

    @property
    def gamma(self) -> float:
        """Largest off-diagonal magnitude, 1/sqrt(n)."""
        return 1.0 / math.sqrt(self.n)

    def dense_sigma(self) -> np.ndarray:
        """Materialize the full matrix; quadratic memory, for checks only."""
        if self.dim > DENSE_DIM_LIMIT:
            raise CapacityError(f"dense matrix capped at dim {DENSE_DIM_LIMIT}")
        h = hadamard_matrix(self.n)
        eye = np.eye(self.n)
        return np.block([[eye, h], [h, eye]])


def hadamard_matrix(n: int) -> np.ndarray:
    """Dense symmetric +-1/sqrt(n) transform matrix of order n."""
    if not _is_power_of_two(n):
        raise ValueError("n must be a power of two >= 1")
    if n > DENSE_DIM_LIMIT:
        raise CapacityError(f"dense matrix capped at order {DENSE_DIM_LIMIT}")
    h = _kernels.wht_inplace_np(np.eye(n))
    return h / math.sqrt(n)


def build_sigma(n: int) -> CovarianceSpec:
    """Structured covariance over 2n coordinates; n must be a power of two."""
    return CovarianceSpec(n)


class DenseCovariance:
    """Explicit covariance matrix with unit diagonal, for small dimensions.

    The square root is precomputed by symmetric eigendecomposition with
    negative eigenvalues (roundoff) clipped to zero.
    """

    def __init__(self, matrix):
        m = np.array(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError("covariance must be a square matrix")
        if m.shape[0] > DENSE_DIM_LIMIT:
            raise CapacityError(f"dense covariance capped at dim {DENSE_DIM_LIMIT}")
        if not np.isfinite(m).all():
            raise ValueError("covariance entries must be finite")
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-10):
            raise ValueError("covariance must be symmetric")
        if not np.allclose(np.diagonal(m), 1.0, rtol=0.0, atol=1e-12):
            raise ValueError("covariance must have unit diagonal")
        w, q = np.linalg.eigh(m)
        if w.min() < -1e-8:
            raise ValueError("covariance must be positive semidefinite")
        m.setflags(write=False)
        self.matrix = m
        # eigenvalues at roundoff scale are exact zeros; sqrt would blow
        # their noise up to ~1e-8
        w[w < 1e-12] = 0.0
        self.sqrt_matrix = (q * np.sqrt(w)) @ q.T

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def gamma(self) -> float:
        """Largest off-diagonal magnitude."""
        off = self.matrix - np.diag(np.diagonal(self.matrix))
        return float(np.abs(off).max())


def equicorrelated_covariance(dim: int, gamma: float) -> DenseCovariance:
    """Dense covariance with every off-diagonal entry equal to gamma."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if dim > 1 and not -1.0 / (dim - 1) <= gamma <= 1.0:
        raise ValueError("gamma outside the positive semidefinite range")
    m = np.full((dim, dim), float(gamma))
    np.fill_diagonal(m, 1.0)
    return DenseCovariance(m)


def apply_sigma_sqrt(cov, v) -> np.ndarray:
    """Apply the covariance square root to a vector.

    For the structured family this is Sigma v / sqrt(2), computed with one
    fast transform per half in O(N log N); for a dense covariance it is a
    matrix-vector product with the precomputed eigendecomposition root.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (cov.dim,):
        raise ValueError(f"expected a vector of length {cov.dim}")
    if isinstance(cov, CovarianceSpec):
        n = cov.n
        inv = 1.0 / math.sqrt(n)
        ht = _kernels.wht_inplace_np(v[:n].copy()) * inv
        hb = _kernels.wht_inplace_np(v[n:].copy()) * inv
        out = np.concatenate([v[:n] + hb, ht + v[n:]])
        out /= math.sqrt(2.0)
        return out
    return cov.sqrt_matrix @ v


@dataclasses.dataclass(frozen=True)
class SamplerConfig:
    """Time horizon, step size, exit-test policy, and master seed."""

    epsilon: float
    dt: float
    bridge_correction: bool = False
    seed: int = 0

    def __post_init__(self):
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ValueError("epsilon must be a positive finite real")
        if not (0.0 < self.dt <= self.epsilon):
            raise ValueError("dt must satisfy 0 < dt <= epsilon")


def canonical_epsilon(dim: int) -> float:
    """The paper's horizon 1/(8 ln dim) for a process of dimension dim >= 2."""
    return 1.0 / (8.0 * math.log(dim))


def default_sampler_config(
    dim: int, dt_divisor: int = 1024, bridge_correction: bool = False, seed: int = 0
) -> SamplerConfig:
    """Config with horizon 1/(8 ln dim) and dt = horizon/dt_divisor."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if dt_divisor < 1:
        raise ValueError("dt_divisor must be >= 1")
    epsilon = canonical_epsilon(dim)
    return SamplerConfig(epsilon, epsilon / dt_divisor, bridge_correction, seed)


@dataclasses.dataclass(frozen=True)
class StoppedSample:
    """One stopped path: final point, stopping time, exit flag."""

    x_tau: np.ndarray
    tau: float
    exited: bool
    path_accumulator: float | None = None


@dataclasses.dataclass(frozen=True)
class StoppedBatch:
    """Vectorized batch of stopped paths.

    x_tau has shape (samples, dim) or is None when storage was disabled;
    phi and accumulator are None unless requested.  x_raw (with the
    accumulator) is the grid endpoint before the clamp and the bridge
    placement, and phi_raw (with phi) is |u|^2 / n of its top half.
    stream_ids records which RNG stream produced each path.
    """

    tau: np.ndarray
    exited: np.ndarray
    stream_ids: np.ndarray
    x_tau: np.ndarray | None = None
    phi: np.ndarray | None = None
    accumulator: np.ndarray | None = None
    x_raw: np.ndarray | None = None
    phi_raw: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.tau.size)


def _bridge_crossing(rng, prev: float, new: float, step_var: float) -> int:
    # crossing probability of barrier a over one step with endpoint values
    # prev, new and step variance step_var is exp(-2 (a-prev)(a-new)/step_var)
    a = BARRIER
    p_up = math.exp(-2.0 * (a - prev) * (a - new) / step_var)
    p_dn = math.exp(-2.0 * (a + prev) * (a + new) / step_var)
    p = p_up + p_dn - p_up * p_dn
    r = rng.random()
    if r < p:
        return 1 if r < p_up else -1
    return 0


def _generator_table(gen_coeffs, dim: int) -> np.ndarray | None:
    """The table as float64 (None stays None); refused unless it has 2**dim finite entries."""
    if gen_coeffs is None:
        return None
    table = np.asarray(gen_coeffs, dtype=np.float64)
    if table.size != 2**dim:
        raise ValueError("generator table must have 2**dim entries")
    if not np.isfinite(table).all():
        raise ValueError("generator table entries must be finite")
    return table


def sample_stopped_path(cov, config: SamplerConfig, rng, gen_coeffs=None) -> StoppedSample:
    """Readable single-path reference sampler.

    Implements the same stepping, exit, bridge, and clamping semantics as
    the batch kernels, with an explicit Euler loop: X <- X + sqrt(h) sigma g.
    Draws come from the supplied generator, so it does not reproduce batch
    output bit for bit; use it to audit distributional behavior.
    """
    dim = cov.dim
    diag = np.diagonal(cov.matrix) if isinstance(cov, DenseCovariance) else np.ones(dim)
    gen_coeffs = _generator_table(gen_coeffs, dim)
    want_acc = gen_coeffs is not None

    x = np.zeros(dim)
    direction = np.zeros(dim, dtype=np.int8)
    t = 0.0
    acc = 0.0
    f_prev = float(gen_coeffs[0]) if want_acc else 0.0
    exited = False
    tiny = 1e-12 * config.epsilon

    while t < config.epsilon - tiny:
        h = min(config.dt, config.epsilon - t)
        g = rng.standard_normal(dim)
        new = x + math.sqrt(h) * apply_sigma_sqrt(cov, g)
        stop = bool((np.abs(new) > BARRIER).any())
        if config.bridge_correction:
            direction[:] = 0
            for i in range(dim):
                if -BARRIER <= new[i] <= BARRIER:
                    d = _bridge_crossing(rng, x[i], new[i], h * diag[i])
                    if d != 0:
                        direction[i] = d
                        stop = True
        t += h
        if want_acc:
            f_new = float(_kernels.eval_multilinear_batch_numpy(gen_coeffs, new[None, :])[0])
            acc += 0.5 * h * (f_prev + f_new)
            f_prev = f_new
        x = new
        if stop:
            exited = True
            break

    if t > config.epsilon:
        t = config.epsilon
    if config.bridge_correction:
        x[direction == 1] = BARRIER
        x[direction == -1] = -BARRIER
    np.clip(x, -BARRIER, BARRIER, out=x)
    tau = t if exited else config.epsilon
    return StoppedSample(x, tau, exited, acc if want_acc else None)


def sample_stopped_paths(
    cov,
    config: SamplerConfig,
    n_samples: int,
    store_paths: bool = True,
    want_phi: bool = False,
    gen_coeffs=None,
) -> StoppedBatch:
    """Sample a batch of stopped paths with the batch kernels.

    The master seed config.seed is split into one independent stream per
    block of 1024 paths, so results are reproducible for a fixed seed and
    path count.  want_phi asks the structured sampler to also return the
    correlation functional of the two halves of each stopped point.
    gen_coeffs adds the generator accumulator and the pre-clamp endpoints
    x_raw, which are stored like x_tau.  A request whose returned batch or
    whose working set would exceed STORED_PATHS_BYTE_LIMIT bytes raises
    CapacityError before anything is sampled.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    dim = cov.dim
    gen_coeffs = _generator_table(gen_coeffs, dim)
    want_acc = gen_coeffs is not None
    # per path: tau, exited, stream id; phi, phi_raw; accumulator; x_tau, x_raw
    batch = n_samples * (17 + 16 * bool(want_phi) + 8 * want_acc + 8 * dim * (bool(store_paths) + want_acc))
    group = min(n_samples, _kernels.group_streams(dim) * _kernels.STREAM_BLOCK)
    working = group * 8 * (dim * (8 if config.bridge_correction else 4) + (2**dim if want_acc else 0))
    if max(batch, working) > STORED_PATHS_BYTE_LIMIT:
        raise CapacityError(
            f"{n_samples} paths of dim {dim} hold {batch} bytes of output and a {working} byte working set, "
            f"over the {STORED_PATHS_BYTE_LIMIT} byte limit; sample without path storage, fewer paths or "
            "a smaller dimension"
        )
    if isinstance(cov, CovarianceSpec):
        raw = _kernels.run_paths_structured_numpy(
            config.seed,
            n_samples,
            cov.n,
            config.dt,
            config.epsilon,
            bridge=config.bridge_correction,
            gen_coeffs=gen_coeffs,
            store=store_paths,
            want_phi=want_phi,
        )
    else:
        if want_phi:
            raise ValueError("the half-correlation functional needs the structured covariance")
        raw = _kernels.run_paths_dense_numpy(
            config.seed,
            n_samples,
            cov.sqrt_matrix,
            np.diagonal(cov.matrix).copy(),
            config.dt,
            config.epsilon,
            bridge=config.bridge_correction,
            gen_coeffs=gen_coeffs,
            store=store_paths,
        )
    return StoppedBatch(**raw)


def boolean_round(x, rng) -> np.ndarray:
    """Round cube points to independent signs, +1 with probability (1+x_i)/2.

    Accepts one point or a batch of rows; preserves each coordinate mean and,
    by independence across coordinates, every pairwise product mean.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("input must be finite")
    if (np.abs(x) > 1.0).any():
        raise ValueError("input must lie in [-1, 1] per coordinate")
    u = rng.random(x.shape)
    return np.where(u < (1.0 + x) / 2.0, 1, -1).astype(np.int8)


def exit_probability_one_dim(barrier: float, horizon: float) -> float:
    """Pr[sup over [0,horizon] of |B_t| >= barrier] for standard 1-D BM.

    Reflection-principle series 2 * sum_j (-1)^j erfc((2j+1) a / sqrt(2u)),
    truncated once terms fall below 1e-17.
    """
    if barrier <= 0.0 or horizon <= 0.0:
        raise ValueError("barrier and horizon must be positive")
    theta = barrier / math.sqrt(horizon)
    total = 0.0
    for j in range(400):
        term = math.erfc((2 * j + 1) * theta / math.sqrt(2.0))
        total += term if j % 2 == 0 else -term
        if term < 1e-17:
            break
    return min(1.0, 2.0 * total)


def early_exit_estimate(tau: np.ndarray, dim: int, epsilon: float):
    """(estimate of Pr[tau <= epsilon/2], union bound dim * 2 exp(-1/(4 epsilon))).

    Each standard coordinate leaves [-1/2, 1/2] by epsilon/2 with
    probability at most 2 exp(-1/(4 epsilon)), and the grid and bridge
    tests only miss exits.  Grid times within 1e-9 (relative) of epsilon/2
    count as early.
    """
    half = 0.5 * epsilon
    early = int((tau <= half * (1.0 + 1e-9)).sum())
    bound_union = dim * (2.0 * math.exp(-1.0 / (4.0 * epsilon)))
    return proportion_estimate(early, tau.size), bound_union


def exit_probability_report(cov, config: SamplerConfig, samples: int) -> ExperimentReport:
    """Estimate early-exit probabilities and compare against closed-form bounds.

    Estimates Pr[tau <= epsilon/2] on the full process and the per-coordinate
    exit probability of a single standard coordinate at horizon epsilon/2.
    The per-coordinate estimate is checked against 2 exp(-1/(4 epsilon)) and
    the full-process estimate against dim times that union bound.  When
    dim >= 4 and the horizon is at most the canonical 1/(8 ln dim), the
    full-process estimate is additionally checked against 1/2; for looser
    horizons that inequality carries no guarantee and is only reported.  The
    single-coordinate run draws from its own seed, config.seed + 1.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    dim = cov.dim
    half = 0.5 * config.epsilon

    batch = sample_stopped_paths(cov, config, samples, store_paths=False)
    p_half, bound_union = early_exit_estimate(batch.tau, dim, config.epsilon)

    one_cfg = SamplerConfig(half, min(config.dt, half), config.bridge_correction, config.seed + 1)
    one = sample_stopped_paths(equicorrelated_covariance(1, 0.0), one_cfg, samples, store_paths=False)
    p_one = proportion_estimate(int(one.exited.sum()), samples)

    bound_one = 2.0 * math.exp(-1.0 / (4.0 * config.epsilon))
    checks = [check_upper(p_one, bound_one), check_upper(p_half, bound_union)]
    canonical = dim >= 4 and config.epsilon <= canonical_epsilon(dim) + 1e-12
    if canonical:
        checks.append(check_upper(p_half, 0.5))
    verdict = combine_verdicts(*checks)

    payload = {
        "dim": dim,
        "epsilon": config.epsilon,
        "dt": config.dt,
        "bridge_correction": config.bridge_correction,
        "p_exit_half": p_half.value,
        "se_exit_half": p_half.se,
        "p_exit_one_dim": p_one.value,
        "se_exit_one_dim": p_one.se,
        "bound_one_dim": bound_one,
        "bound_union": bound_union,
        "bound_half": 0.5,
        "analytic_one_dim": exit_probability_one_dim(BARRIER, half),
    }
    return ExperimentReport("exit_probability", verdict, samples, payload)


def dump_paths_csv(batch: StoppedBatch, fileobj, header: dict | None = None, bits=None) -> None:
    """Write one CSV row per path: stream_id, tau, exited, coordinates, bits.

    An optional header dict is echoed first as a single '# '-prefixed JSON
    line.  bits, when given, must be a (samples, dim) sign array whose
    columns are appended after the coordinates.  Floats are written with
    repr so identical batches serialize byte-identically.
    """
    if isinstance(fileobj, str):
        with open(fileobj, "w", encoding="utf-8", newline="") as fh:
            dump_paths_csv(batch, fh, header=header, bits=bits)
            return
    if batch.x_tau is None:
        raise ValueError("batch was sampled without path storage")
    dim = batch.x_tau.shape[1]
    if bits is not None:
        bits = np.asarray(bits)
        if bits.shape != batch.x_tau.shape:
            raise ValueError("bits must match the shape of x_tau")
    if header is not None:
        fileobj.write("# " + json.dumps(header, sort_keys=True) + "\n")
    cols = ["stream_id", "tau", "exited"] + [f"x_{i}" for i in range(dim)]
    if bits is not None:
        cols += [f"bit_{i}" for i in range(dim)]
    fileobj.write(",".join(cols) + "\n")
    for k in range(len(batch)):
        row = [str(int(batch.stream_ids[k])), repr(float(batch.tau[k])), str(int(batch.exited[k]))]
        row += [repr(float(v)) for v in batch.x_tau[k]]
        if bits is not None:
            row += [str(int(v)) for v in bits[k]]
        fileobj.write(",".join(row) + "\n")


def load_paths_csv(fileobj) -> tuple[dict | None, StoppedBatch, np.ndarray | None]:
    """Inverse of dump_paths_csv; returns (header, batch, bits-or-None)."""
    if isinstance(fileobj, str):
        with open(fileobj, "r", encoding="utf-8") as fh:
            return load_paths_csv(fh)
    first = fileobj.readline()
    header = None
    if first.startswith("#"):
        header = json.loads(first[1:])
        first = fileobj.readline()
    names = first.strip().split(",")
    dim = sum(1 for c in names if c.startswith("x_"))
    has_bits = any(c.startswith("bit_") for c in names)
    data = np.loadtxt(fileobj, delimiter=",", ndmin=2)
    batch = StoppedBatch(
        tau=data[:, 1].copy(),
        exited=data[:, 2].astype(bool),
        stream_ids=data[:, 0].astype(np.int64),
        x_tau=data[:, 3 : 3 + dim].copy(),
    )
    bits = data[:, 3 + dim :].astype(np.int8) if has_bits else None
    return header, batch, bits
