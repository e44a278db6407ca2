"""Hot numerical kernels, in numba and pure-numpy variants.

Two families of kernels live here:

* fast Walsh-Hadamard butterflies (unnormalized; callers rescale), and
* Euler-Maruyama path loops for the stopped diffusion dX_t = sigma dB_t
  on the solid cube [-1/2, 1/2]^N, with grid-time exit detection, an
  optional per-coordinate Brownian-bridge crossing test, and optional
  per-path accumulators (trapezoid time-integral of a multilinear
  observable, and the forrelation statistic of the stopped point).

The numba backend has one per-path stream kernel per covariance family.
The numpy backend has a single path loop over a paths-minor ``(dim, live)``
state for both families; a family only supplies the mixer that adds one
step's increment (n normals through a WHT for the structured covariance,
a matrix product with the square root for a dense one).

Backend selection: the numba variants are used when numba imports and the
environment variable FORRLAB_DISABLE_NUMBA is not set to a truthy value;
otherwise the numpy variants are used.  Both variants are always defined
so they can be benchmarked against each other in one process.

Randomness: batch kernels consume one independent RNG stream per block of
``STREAM_BLOCK`` paths.  Stream seeds are derived from the master seed via
``numpy.random.SeedSequence.spawn``, so results are reproducible for a
fixed (seed, config) pair and independent of worker-thread count.  The
numba and numpy backends use different generator families and therefore
produce different (equally valid) sample streams for the same seed.

Exit semantics, identical in both backends: a path stops at the first grid
time where any coordinate lies strictly outside [-1/2, 1/2], or where the
bridge test (when enabled) reports a within-step crossing.  The reported
point clamps direct offenders to the cube and places bridge-crossed
coordinates on the barrier they crossed.  Paths that never stop report
tau = epsilon exactly.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "NUMBA_AVAILABLE",
    "NUMBA_ENABLED",
    "STREAM_BLOCK",
    "stream_seeds",
    "set_worker_threads",
    "wht_inplace_np",
    "wht_batch_numpy",
    "wht_batch_numba",
    "eval_multilinear_batch_numpy",
    "eval_multilinear_batch_numba",
    "eval_multilinear_batch",
    "run_paths_structured",
    "run_paths_structured_numpy",
    "run_paths_structured_numba",
    "run_paths_dense",
    "run_paths_dense_numpy",
    "run_paths_dense_numba",
]

# number of paths served by one RNG stream; fixed so that a (seed, samples)
# pair always maps to the same stream layout regardless of worker count
STREAM_BLOCK = 1024

_BARRIER = 0.5


def _truthy(value: str | None) -> bool:
    return value is not None and value.strip().lower() in {"1", "true", "yes", "on"}


try:
    import numba
    from numba import njit, prange

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised via FORRLAB_DISABLE_NUMBA
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):  # type: ignore[misc]
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap

    prange = range  # type: ignore[assignment]

NUMBA_ENABLED = NUMBA_AVAILABLE and not _truthy(os.environ.get("FORRLAB_DISABLE_NUMBA"))


def set_worker_threads(workers: int) -> int:
    """Set the numba thread count, clamped to the allowed range.

    Returns the effective worker count (always 1 on the numpy backend,
    where the stream loop is sequential).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not NUMBA_ENABLED:
        return 1
    limit = numba.config.NUMBA_NUM_THREADS
    effective = min(workers, limit)
    numba.set_num_threads(effective)
    return effective


def stream_seeds(master_seed: int, n_streams: int) -> tuple[list, np.ndarray]:
    """Spawn per-stream seeds from a master seed.

    Returns (children, words): the spawned SeedSequence children for the
    numpy backend and one uint32 word per child for the numba backend.
    """
    children = np.random.SeedSequence(master_seed).spawn(n_streams)
    words = np.array(
        [int(c.generate_state(1, np.uint32)[0]) for c in children], dtype=np.int64
    )
    return children, words


# ---------------------------------------------------------------------------
# Walsh-Hadamard butterflies
# ---------------------------------------------------------------------------


def wht_inplace_np(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard butterflies over the last axis, in place.

    The last-axis length must be a power of two (not validated here).
    Applying this twice multiplies the input by the axis length.
    """
    m = a.shape[-1]
    h = 1
    while h < m:
        v = a.reshape(a.shape[:-1] + (m // (2 * h), 2, h))
        lo = v[..., 0, :].copy()
        hi = v[..., 1, :]
        v[..., 0, :] = lo + hi
        v[..., 1, :] = lo - hi
        h *= 2
    return a


@njit(cache=True)
def _wht_inplace_nb(v):
    m = v.shape[0]
    h = 1
    while h < m:
        for i in range(0, m, 2 * h):
            for j in range(i, i + h):
                a = v[j]
                b = v[j + h]
                v[j] = a + b
                v[j + h] = a - b
        h *= 2


@njit(cache=True)
def _wht_batch_nb(a):
    for r in range(a.shape[0]):
        _wht_inplace_nb(a[r])


def wht_batch_numpy(a: np.ndarray) -> np.ndarray:
    """Unnormalized WHT of each row of a 2-D array, in place."""
    return wht_inplace_np(a)


def wht_batch_numba(a: np.ndarray) -> np.ndarray:
    """Numba twin of :func:`wht_batch_numpy`."""
    _wht_batch_nb(a)
    return a


# ---------------------------------------------------------------------------
# Batched multilinear evaluation
# ---------------------------------------------------------------------------


def eval_multilinear_batch_numpy(
    coeffs: np.ndarray, points: np.ndarray, chunk: int = 4096
) -> np.ndarray:
    """Evaluate sum_S c[S] prod_{i in S} x_i at each row of ``points``.

    ``coeffs`` has length 2^N with bit i of the index marking variable i.
    Work is chunked over rows to cap the (2^N x rows) scratch table.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    out = np.empty(points.shape[0])
    for start in range(0, points.shape[0], chunk):
        out[start : start + chunk] = _eval_multilinear_cols_np(coeffs, points[start : start + chunk].T)
    return out


def _eval_multilinear_cols_np(coeffs, cols):
    """Multilinear evaluation at each column of a ``(N, points)`` array.

    Folds the table down the first axis: variable i pairs entries 2j and
    2j+1 as ``c[2j] + x_i * c[2j+1]``, so a paths-minor state needs no
    transpose or tiled copy of the table.
    """
    tab = coeffs[:, None]
    for x in cols:
        tab = tab[0::2] + x * tab[1::2]
    return tab[0]


@njit(cache=True)
def _eval_multilinear_nb(coeffs, x, buf):
    size = coeffs.shape[0]
    for i in range(size):
        buf[i] = coeffs[i]
    for i in range(x.shape[0]):
        half = size // 2
        for j in range(half):
            buf[j] = buf[2 * j] + x[i] * buf[2 * j + 1]
        size = half
    return buf[0]


@njit(cache=True)
def _eval_multilinear_batch_nb(coeffs, points, out):
    buf = np.empty(coeffs.shape[0])
    for r in range(points.shape[0]):
        out[r] = _eval_multilinear_nb(coeffs, points[r], buf)


def eval_multilinear_batch_numba(coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Numba twin of :func:`eval_multilinear_batch_numpy`."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    out = np.empty(points.shape[0])
    _eval_multilinear_batch_nb(np.ascontiguousarray(coeffs, dtype=np.float64), points, out)
    return out


# ---------------------------------------------------------------------------
# Brownian-bridge crossing test (one coordinate, one step)
# ---------------------------------------------------------------------------


@njit(cache=True, inline="always")
def _bridge_direction_nb(prev, new, hvar):
    # crossing probability of barrier a over a step with variance hvar is
    # exp(-2 (a - x0)(a - x1) / hvar) when both endpoints are below a
    a = _BARRIER
    p_up = np.exp(-2.0 * (a - prev) * (a - new) / hvar)
    p_dn = np.exp(-2.0 * (a + prev) * (a + new) / hvar)
    p = p_up + p_dn - p_up * p_dn
    r = np.random.random()
    if r < p:
        if r < p_up:
            return 1
        return -1
    return 0


# ---------------------------------------------------------------------------
# Structured path kernel: state (u, Hu) driven by a standard n-dim BM u
# ---------------------------------------------------------------------------
#
# For the block covariance [[I, H], [H, I]] with orthonormal symmetric H,
# sigma B_t equals (u_t, H u_t) in distribution where u_t is a standard
# n-dimensional Brownian motion, so only the top half is simulated (n
# gaussians per step) and the bottom half is one WHT away.  The numpy twin
# is the structured mixer of the shared loop below.


@njit(cache=True)
def _paths_structured_stream_nb(
    seed,
    count,
    n,
    dt,
    epsilon,
    bridge,
    gen_coeffs,
    store,
    want_phi,
    x_out,
    tau_out,
    exited_out,
    phi_out,
    acc_out,
    offset,
):
    np.random.seed(seed)
    inv = 1.0 / np.sqrt(n)
    want_acc = gen_coeffs.shape[0] > 0
    big = 2 * n
    u = np.empty(n)
    ys = np.empty(n)
    pu = np.empty(n)
    pys = np.empty(n)
    yw = np.empty(n)
    state = np.empty(big)
    bdir = np.zeros(big, dtype=np.int8)
    buf = np.empty(gen_coeffs.shape[0])
    tiny = 1e-12 * epsilon

    for p in range(count):
        for i in range(n):
            u[i] = 0.0
            ys[i] = 0.0
        t = 0.0
        acc = 0.0
        af_prev = gen_coeffs[0] if want_acc else 0.0
        exited = False
        while t < epsilon - tiny:
            h = epsilon - t
            if h > dt:
                h = dt
            sq = np.sqrt(h)
            g = np.random.standard_normal(n)
            for i in range(n):
                pu[i] = u[i]
                pys[i] = ys[i]
                u[i] = u[i] + g[i] * sq
                yw[i] = u[i]
            _wht_inplace_nb(yw)
            for i in range(n):
                ys[i] = yw[i] * inv
            stop = False
            for i in range(n):
                if u[i] > _BARRIER or u[i] < -_BARRIER:
                    stop = True
                if ys[i] > _BARRIER or ys[i] < -_BARRIER:
                    stop = True
            if bridge:
                for i in range(big):
                    bdir[i] = 0
                for i in range(n):
                    if -_BARRIER <= u[i] <= _BARRIER:
                        d = _bridge_direction_nb(pu[i], u[i], h)
                        if d != 0:
                            bdir[i] = d
                            stop = True
                for i in range(n):
                    if -_BARRIER <= ys[i] <= _BARRIER:
                        d = _bridge_direction_nb(pys[i], ys[i], h)
                        if d != 0:
                            bdir[n + i] = d
                            stop = True
            t += h
            if want_acc:
                for i in range(n):
                    state[i] = u[i]
                    state[n + i] = ys[i]
                af_new = _eval_multilinear_nb(gen_coeffs, state, buf)
                acc += 0.5 * (af_prev + af_new) * h
                af_prev = af_new
            if stop:
                exited = True
                break
        idx = offset + p
        if t > epsilon:
            t = epsilon  # guard against one-ulp overshoot of the final step
        tau_out[idx] = t if exited else epsilon
        exited_out[idx] = 1 if exited else 0
        for i in range(n):
            if bdir[i] != 0:
                u[i] = _BARRIER if bdir[i] == 1 else -_BARRIER
            elif u[i] > _BARRIER:
                u[i] = _BARRIER
            elif u[i] < -_BARRIER:
                u[i] = -_BARRIER
            if bdir[n + i] != 0:
                ys[i] = _BARRIER if bdir[n + i] == 1 else -_BARRIER
            elif ys[i] > _BARRIER:
                ys[i] = _BARRIER
            elif ys[i] < -_BARRIER:
                ys[i] = -_BARRIER
        if store:
            for i in range(n):
                x_out[idx, i] = u[i]
                x_out[idx, n + i] = ys[i]
        if want_phi:
            for i in range(n):
                yw[i] = ys[i]
            _wht_inplace_nb(yw)
            s = 0.0
            for i in range(n):
                s += u[i] * yw[i]
            phi_out[idx] = s * inv / n
        if want_acc:
            acc_out[idx] = acc


@njit(cache=True, parallel=True)
def _paths_structured_nb(
    seeds, block, total, n, dt, epsilon, bridge, gen_coeffs, store, want_phi
):
    n_streams = seeds.shape[0]
    x_out = np.empty((total if store else 0, 2 * n))
    tau_out = np.empty(total)
    exited_out = np.zeros(total, dtype=np.uint8)
    phi_out = np.empty(total if want_phi else 0)
    acc_out = np.empty(total if gen_coeffs.shape[0] > 0 else 0)
    for k in prange(n_streams):
        offset = k * block
        count = total - offset
        if count > block:
            count = block
        _paths_structured_stream_nb(
            seeds[k],
            count,
            n,
            dt,
            epsilon,
            bridge,
            gen_coeffs,
            store,
            want_phi,
            x_out,
            tau_out,
            exited_out,
            phi_out,
            acc_out,
            offset,
        )
    return x_out, tau_out, exited_out, phi_out, acc_out


# ---------------------------------------------------------------------------
# Dense path kernel: increments sig_sqrt @ g for an explicit matrix sig_sqrt
# ---------------------------------------------------------------------------
#
# The numba kernel steps one path at a time; on the numpy backend this family
# is the dense mixer of the paths-minor loop below, shared with the structured one.


@njit(cache=True)
def _paths_dense_stream_nb(
    seed,
    count,
    sig_sqrt,
    diag,
    dt,
    epsilon,
    bridge,
    gen_coeffs,
    store,
    x_out,
    tau_out,
    exited_out,
    acc_out,
    offset,
):
    np.random.seed(seed)
    dim = sig_sqrt.shape[0]
    want_acc = gen_coeffs.shape[0] > 0
    x = np.empty(dim)
    px = np.empty(dim)
    bdir = np.zeros(dim, dtype=np.int8)
    buf = np.empty(gen_coeffs.shape[0])
    tiny = 1e-12 * epsilon

    for p in range(count):
        for i in range(dim):
            x[i] = 0.0
        t = 0.0
        acc = 0.0
        af_prev = gen_coeffs[0] if want_acc else 0.0
        exited = False
        while t < epsilon - tiny:
            h = epsilon - t
            if h > dt:
                h = dt
            sq = np.sqrt(h)
            g = np.random.standard_normal(dim)
            for i in range(dim):
                inc = 0.0
                for j in range(dim):
                    inc += sig_sqrt[i, j] * g[j]
                px[i] = x[i]
                x[i] = x[i] + inc * sq
            stop = False
            for i in range(dim):
                if x[i] > _BARRIER or x[i] < -_BARRIER:
                    stop = True
            if bridge:
                for i in range(dim):
                    bdir[i] = 0
                for i in range(dim):
                    if -_BARRIER <= x[i] <= _BARRIER:
                        d = _bridge_direction_nb(px[i], x[i], h * diag[i])
                        if d != 0:
                            bdir[i] = d
                            stop = True
            t += h
            if want_acc:
                af_new = _eval_multilinear_nb(gen_coeffs, x, buf)
                acc += 0.5 * (af_prev + af_new) * h
                af_prev = af_new
            if stop:
                exited = True
                break
        idx = offset + p
        if t > epsilon:
            t = epsilon  # guard against one-ulp overshoot of the final step
        tau_out[idx] = t if exited else epsilon
        exited_out[idx] = 1 if exited else 0
        for i in range(dim):
            if bdir[i] != 0:
                x[i] = _BARRIER if bdir[i] == 1 else -_BARRIER
            elif x[i] > _BARRIER:
                x[i] = _BARRIER
            elif x[i] < -_BARRIER:
                x[i] = -_BARRIER
        if store:
            for i in range(dim):
                x_out[idx, i] = x[i]
        if want_acc:
            acc_out[idx] = acc


@njit(cache=True, parallel=True)
def _paths_dense_nb(seeds, block, total, sig_sqrt, diag, dt, epsilon, bridge, gen_coeffs, store):
    n_streams = seeds.shape[0]
    dim = sig_sqrt.shape[0]
    x_out = np.empty((total if store else 0, dim))
    tau_out = np.empty(total)
    exited_out = np.zeros(total, dtype=np.uint8)
    acc_out = np.empty(total if gen_coeffs.shape[0] > 0 else 0)
    for k in prange(n_streams):
        offset = k * block
        count = total - offset
        if count > block:
            count = block
        _paths_dense_stream_nb(
            seeds[k],
            count,
            sig_sqrt,
            diag,
            dt,
            epsilon,
            bridge,
            gen_coeffs,
            store,
            x_out,
            tau_out,
            exited_out,
            acc_out,
            offset,
        )
    return x_out, tau_out, exited_out, acc_out


# ---------------------------------------------------------------------------
# Numpy path loop: one paths-minor loop, two mixers
# ---------------------------------------------------------------------------
#
# Both covariance families step one (dim, live) state array whose column j
# holds live path alive[j], and differ only in the mixer that adds a step's
# increment in place: the structured mixer turns n normals per path into
# (u, Hu/sqrt(n)), the dense mixer multiplies dim normals by sig_sqrt.  The
# exit and bridge tests, the trapezoid accumulator, compaction of exited
# paths and finalize are shared.  Normals and bridge uniforms are drawn as
# (live, k) arrays, i.e. in (path, coordinate) order.


def _bridge_masks_np(rng, prev, new, hvar, inside):
    """Vectorized bridge test; returns (crossed_up, crossed_down) masks.

    ``inside`` marks coordinates whose endpoints are both in the cube.
    Uniforms are drawn for the full array shape (vectorization); only the
    ``inside`` entries take effect.
    """
    a = _BARRIER
    with np.errstate(over="ignore"):
        p_up = np.exp(-2.0 * (a - prev) * (a - new) / hvar)
        p_dn = np.exp(-2.0 * (a + prev) * (a + new) / hvar)
    p = p_up + p_dn - p_up * p_dn
    r = rng.random(prev.shape)
    crossed = inside & (r < p)
    up = crossed & (r < p_up)
    return up, crossed & ~up


def _wht_first_axis_np(src, dst, scratch):
    """Unnormalized WHT down the first axis of ``src``, written to ``dst``.

    Paths-minor twin of :func:`wht_inplace_np` for ``(n, paths)`` arrays:
    each butterfly level is one add and one subtract over contiguous blocks
    of paths, alternating between ``dst`` and ``scratch`` so the last level
    lands in ``dst``.  Every output element sees the same adds in the same
    order as the row-major butterflies, so results are bit-identical.
    """
    n = src.shape[0]
    if n == 1:
        dst[...] = src
        return
    levels = n.bit_length() - 1
    bufs = (dst, scratch) if levels % 2 else (scratch, dst)
    a = src
    h = 1
    while h < n:
        b = bufs[0]
        bufs = bufs[::-1]
        s = a.reshape(n // (2 * h), 2, h, -1)
        d = b.reshape(n // (2 * h), 2, h, -1)
        np.add(s[:, 0], s[:, 1], out=d[:, 0])
        np.subtract(s[:, 0], s[:, 1], out=d[:, 1])
        a = b
        h *= 2


def _structured_mixer(n):
    """Mixer for [[I, H], [H, I]]: rows :n are u, rows n: are Hu / sqrt(n)."""
    inv = 1.0 / np.sqrt(n)
    scratch = np.empty((n, 0))

    def mix(rng, st, h):
        nonlocal scratch
        m = st.shape[1]
        if scratch.shape[1] != m:
            scratch = np.empty((n, m))
        g = rng.standard_normal((m, n))
        g *= np.sqrt(h)
        top, bot = st[:n], st[n:]
        top += g.T
        _wht_first_axis_np(top, bot, scratch)
        bot *= inv

    return mix


def _dense_mixer(sig_sqrt):
    """Mixer for an explicit square root: increments sig_sqrt @ g."""
    dim = sig_sqrt.shape[0]

    def mix(rng, st, h):
        inc = rng.standard_normal((st.shape[1], dim)) @ sig_sqrt.T
        inc *= np.sqrt(h)
        st += inc.T

    return mix


def _paths_block_np(
    rng, count, dim, mix, diag, dt, epsilon, bridge, gen_coeffs, store, want_phi=False
):
    """Step ``count`` paths from the origin on one RNG stream.

    ``mix(rng, st, h)`` adds one step's increment to the ``(dim, live)``
    state in place.  ``diag`` (scalar or per coordinate) is the variance rate
    of each coordinate, so the bridge test uses step variance ``h * diag``.
    ``want_phi`` (structured family) adds the forrelation statistic of the
    two halves of each stopped point.
    """
    want_acc = gen_coeffs.size > 0
    x_fin = np.empty((count if store else 0, dim))
    tau = np.full(count, epsilon)
    exited = np.zeros(count, dtype=bool)
    phi = np.empty(count if want_phi else 0)
    acc_fin = np.empty(count if want_acc else 0)

    st = np.zeros((dim, count))
    alive = np.arange(count)
    acc = np.zeros(count) if want_acc else None
    af_prev = np.full(count, gen_coeffs[0]) if want_acc else None
    t = 0.0
    tiny = 1e-12 * epsilon

    def finalize(rows, cols, up_mask=None, dn_mask=None):
        # back to one C-ordered row per path: einsum over the transposed
        # layout would change phi in the last bit
        pt = np.ascontiguousarray(cols.T)
        np.clip(pt, -_BARRIER, _BARRIER, out=pt)
        if up_mask is not None:
            pt[up_mask.T] = _BARRIER
            pt[dn_mask.T] = -_BARRIER
        if store:
            x_fin[rows] = pt
        if want_phi:
            n = dim // 2
            yw = pt[:, n:].copy()
            wht_inplace_np(yw)
            phi[rows] = np.einsum("ij,ij->i", pt[:, :n], yw) * (1.0 / np.sqrt(n) / n)

    while t < epsilon - tiny and alive.size:
        h = min(dt, epsilon - t)
        prev = st.copy() if bridge else None
        mix(rng, st, h)
        t += h

        up_mask = dn_mask = None
        if bridge:
            outside = np.abs(st) > _BARRIER
            stop = outside.any(axis=0)
            inside = ~outside & (np.abs(prev) <= _BARRIER)
            # transposed views draw the uniforms in (path, coordinate) order
            up_t, dn_t = _bridge_masks_np(rng, prev.T, st.T, h * diag, inside.T)
            up_mask, dn_mask = up_t.T, dn_t.T
            stop |= up_mask.any(axis=0) | dn_mask.any(axis=0)
        else:
            stop = (st.max(axis=0) > _BARRIER) | (st.min(axis=0) < -_BARRIER)

        if want_acc:
            af_new = _eval_multilinear_cols_np(gen_coeffs, st)
            acc += 0.5 * (af_prev + af_new) * h
            af_prev = af_new

        if stop.any():
            rows = alive[stop]
            tau[rows] = min(t, epsilon)
            exited[rows] = True
            finalize(
                rows,
                st[:, stop],
                up_mask[:, stop] if bridge else None,
                dn_mask[:, stop] if bridge else None,
            )
            keep = ~stop
            if want_acc:
                acc_fin[rows] = acc[stop]
                acc = acc[keep]
                af_prev = af_prev[keep]
            alive = alive[keep]
            st = st.compress(keep, axis=1)

    if alive.size:
        finalize(alive, st)
        if want_acc:
            acc_fin[alive] = acc
    return x_fin, tau, exited, phi, acc_fin


# ---------------------------------------------------------------------------
# Public wrappers: stream splitting plus backend dispatch
# ---------------------------------------------------------------------------


def _norm_outputs(x, tau, exited, phi, acc, store, want_phi, want_acc, n_streams, total):
    ids = np.repeat(np.arange(n_streams), STREAM_BLOCK)[:total]
    return {
        "x_tau": x if store else None,
        "tau": tau,
        "exited": exited.astype(bool),
        "phi": phi if want_phi else None,
        "accumulator": acc if want_acc else None,
        "stream_ids": ids,
    }


def _gen_arr(gen_coeffs):
    if gen_coeffs is None:
        return np.empty(0)
    return np.ascontiguousarray(gen_coeffs, dtype=np.float64)


def run_paths_structured_numba(
    master_seed, n_samples, n, dt, epsilon, bridge=False, gen_coeffs=None, store=True, want_phi=False
):
    gen = _gen_arr(gen_coeffs)
    n_streams = -(-n_samples // STREAM_BLOCK)
    _, words = stream_seeds(master_seed, n_streams)
    x, tau, exited, phi, acc = _paths_structured_nb(
        words, STREAM_BLOCK, n_samples, n, dt, epsilon, bridge, gen, store, want_phi
    )
    return _norm_outputs(x, tau, exited, phi, acc, store, want_phi, gen.size > 0, n_streams, n_samples)


def _run_blocks_np(master_seed, n_samples, step_block):
    """Run ``step_block(rng, count)`` once per stream; concatenate its outputs."""
    n_streams = -(-n_samples // STREAM_BLOCK)
    children, _ = stream_seeds(master_seed, n_streams)
    parts = [
        step_block(np.random.default_rng(child), min(STREAM_BLOCK, n_samples - k * STREAM_BLOCK))
        for k, child in enumerate(children)
    ]
    return n_streams, [np.concatenate(col) for col in zip(*parts)]


def run_paths_structured_numpy(
    master_seed, n_samples, n, dt, epsilon, bridge=False, gen_coeffs=None, store=True, want_phi=False
):
    gen = _gen_arr(gen_coeffs)
    n_streams, (x, tau, exited, phi, acc) = _run_blocks_np(
        master_seed,
        n_samples,
        lambda rng, count: _paths_block_np(
            rng, count, 2 * n, _structured_mixer(n), 1.0, dt, epsilon, bridge, gen, store, want_phi
        ),
    )
    return _norm_outputs(x, tau, exited, phi, acc, store, want_phi, gen.size > 0, n_streams, n_samples)


def run_paths_dense_numba(
    master_seed, n_samples, sig_sqrt, diag, dt, epsilon, bridge=False, gen_coeffs=None, store=True
):
    gen = _gen_arr(gen_coeffs)
    n_streams = -(-n_samples // STREAM_BLOCK)
    _, words = stream_seeds(master_seed, n_streams)
    x, tau, exited, acc = _paths_dense_nb(
        words,
        STREAM_BLOCK,
        n_samples,
        np.ascontiguousarray(sig_sqrt, dtype=np.float64),
        np.ascontiguousarray(diag, dtype=np.float64),
        dt,
        epsilon,
        bridge,
        gen,
        store,
    )
    return _norm_outputs(x, tau, exited, None, acc, store, False, gen.size > 0, n_streams, n_samples)


def run_paths_dense_numpy(
    master_seed, n_samples, sig_sqrt, diag, dt, epsilon, bridge=False, gen_coeffs=None, store=True
):
    gen = _gen_arr(gen_coeffs)
    n_streams, (x, tau, exited, _, acc) = _run_blocks_np(
        master_seed,
        n_samples,
        lambda rng, count: _paths_block_np(
            rng, count, sig_sqrt.shape[0], _dense_mixer(sig_sqrt), diag, dt, epsilon, bridge, gen, store
        ),
    )
    return _norm_outputs(x, tau, exited, None, acc, store, False, gen.size > 0, n_streams, n_samples)


if NUMBA_ENABLED:
    run_paths_structured = run_paths_structured_numba
    run_paths_dense = run_paths_dense_numba
    eval_multilinear_batch = eval_multilinear_batch_numba
else:
    run_paths_structured = run_paths_structured_numpy
    run_paths_dense = run_paths_dense_numpy
    eval_multilinear_batch = eval_multilinear_batch_numpy
