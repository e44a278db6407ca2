"""Hot numerical kernels: transform butterflies and the stopped-path loop.

Two families of kernels live here:

* one fast Walsh-Hadamard butterfly routine (unnormalized; callers
  rescale) that serves both rows and the sampler's paths-minor columns, and
* Euler-Maruyama path loops for the stopped diffusion dX_t = sigma dB_t
  on the solid cube [-1/2, 1/2]^N, with grid-time exit detection, an
  optional per-coordinate Brownian-bridge crossing test, and optional
  per-path accumulators (trapezoid time-integral of a multilinear
  observable, and the forrelation statistic of the stopped point).

A single path loop over a paths-minor ``(dim, live)`` state serves both
covariance families; a family only supplies the mixer that adds one step's
increment (n normals through a WHT for the structured covariance, a matrix
product with the square root for a dense one).

Randomness: batch kernels consume one independent RNG stream per block of
``STREAM_BLOCK`` paths.  Stream seeds are derived from the master seed via
``numpy.random.SeedSequence.spawn``, so results are reproducible for a
fixed (seed, config) pair.  The batch's per-path record (one named array
per output) is allocated once, and each block writes its own rows through
views, so a stored batch is held once.

Exit semantics: a path stops at the first grid time where any coordinate
lies strictly outside [-1/2, 1/2], or where the bridge test (when enabled)
reports a within-step crossing.  The reported point clamps direct offenders
to the cube and places bridge-crossed coordinates on the barrier they
crossed.  Paths that never stop report tau = epsilon exactly.  The grid
endpoint before that clamp (``x_raw``, with the generator accumulator) and
its ``|u|^2 / n`` (``phi_raw``, with phi) are returned too: identities that
are martingales on the grid hold exactly there, so the clamp alone carries
the discretization error.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "STREAM_BLOCK",
    "stream_seeds",
    "wht_inplace_np",
    "wht_batch_numpy",
    "eval_multilinear_batch_numpy",
    "run_paths_structured_numpy",
    "run_paths_dense_numpy",
]

# number of paths served by one RNG stream; fixed so that a (seed, samples)
# pair always maps to the same stream layout
STREAM_BLOCK = 1024

_BARRIER = 0.5


def stream_seeds(master_seed: int, n_streams: int) -> list:
    """Spawn one SeedSequence child per stream from a master seed."""
    return np.random.SeedSequence(master_seed).spawn(n_streams)


# ---------------------------------------------------------------------------
# Walsh-Hadamard butterflies
# ---------------------------------------------------------------------------


def _wht_axis_np(src, dst, scratch):
    """Unnormalized WHT along axis 1 of a ``(pre, n, post)`` array, into ``dst``.

    Each butterfly level is one add and one subtract over contiguous blocks,
    written to the other of ``dst`` and ``scratch`` (both shaped like
    ``src``), so no level allocates.  ``src`` may be ``dst``: the first level
    then goes to ``scratch``, and an odd level count ends with one copy back.
    Every output element sees the same adds in the same order at every
    layout, so rows (``post == 1``) and paths-minor columns (``pre == 1``)
    give bit-identical transforms.  With ``post > 1`` each ``(n, post)``
    plane must be C-contiguous, so that the per-level reshapes are views.
    """
    pre, n, post = src.shape
    levels = n.bit_length() - 1
    bufs = [dst, scratch] if levels % 2 and src is not dst else [scratch, dst]
    a = src
    h = 1
    while h < n:
        b = bufs[0]
        bufs.reverse()
        shape = (pre, n // (2 * h), 2, h * post)
        s, d = a.reshape(shape), b.reshape(shape)
        np.add(s[:, :, 0], s[:, :, 1], out=d[:, :, 0])
        np.subtract(s[:, :, 0], s[:, :, 1], out=d[:, :, 1])
        a = b
        h *= 2
    if a is not dst:
        dst[...] = a


def wht_inplace_np(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard butterflies over the last axis, in place.

    ``a`` is 1-D or 2-D (one transform per row); the last-axis length must
    be a power of two (not validated here).
    Applying this twice multiplies the input by the axis length.
    """
    rows = a.reshape(-1, a.shape[-1], 1)
    _wht_axis_np(rows, rows, np.empty_like(rows))
    return a


# the row-batch name the benchmark probes call
wht_batch_numpy = wht_inplace_np


def _phi_rows(x, y):
    """Row-wise (1/n) x^T H y for matched ``(m, n)`` arrays; y is copied, not changed."""
    n = x.shape[1]
    hy = wht_inplace_np(np.array(y, dtype=np.float64, order="C"))
    return np.einsum("ij,ij->i", x, hy) * (1.0 / np.sqrt(n) / n)


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


# ---------------------------------------------------------------------------
# Path loop: one paths-minor loop, two mixers
# ---------------------------------------------------------------------------
#
# Both covariance families step one (dim, live) state array whose column j
# holds live path alive[j], and differ only in the mixer that adds a step's
# increment in place: the structured mixer turns n normals per path into
# (u, Hu/sqrt(n)), the dense mixer multiplies dim normals by sig_sqrt.  The
# exit and bridge tests, the trapezoid accumulator, compaction of exited
# paths and finalize are shared.  Normals and bridge uniforms are drawn as
# (live, k) arrays, i.e. in (path, coordinate) order.
#
# For the block covariance [[I, H], [H, I]] with orthonormal symmetric H,
# sigma B_t equals (u_t, H u_t) in distribution where u_t is a standard
# n-dimensional Brownian motion, so only the top half is simulated (n
# gaussians per step) and the bottom half is one WHT away.


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
        _wht_axis_np(top[None], bot[None], scratch[None])
        bot *= inv

    mix.dim = 2 * n
    return mix


def _dense_mixer(sig_sqrt):
    """Mixer for an explicit square root: increments sig_sqrt @ g."""
    dim = sig_sqrt.shape[0]

    def mix(rng, st, h):
        inc = rng.standard_normal((st.shape[1], dim)) @ sig_sqrt.T
        inc *= np.sqrt(h)
        st += inc.T

    mix.dim = dim
    return mix


def _paths_block_np(rng, out, mix, diag, dt, epsilon, bridge, gen_coeffs):
    """Step one block of paths from the origin on one RNG stream.

    The block writes its results into ``out``, its rows of the batch record
    (views; None for an output not asked for).  ``mix(rng, st, h)`` adds one
    step's increment to the ``(mix.dim, live)`` state in place.  ``diag``
    (scalar or per coordinate) is the variance rate of each coordinate, so
    the bridge test uses step variance ``h * diag``.  ``phi_raw`` is
    ``|u|^2 / n`` of the top half u of the grid endpoint before the clamp;
    ``x_raw`` is that endpoint before the clamp and before bridge-crossed
    coordinates are put on the barrier.
    """
    count, dim = out["tau"].size, mix.dim
    store = out["x_tau"] is not None
    want_phi = out["phi"] is not None
    want_acc = gen_coeffs is not None

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
        n = dim // 2
        if want_acc:
            out["x_raw"][rows] = pt
        if want_phi:
            out["phi_raw"][rows] = np.einsum("ij,ij->i", pt[:, :n], pt[:, :n]) * (1.0 / n)
        np.clip(pt, -_BARRIER, _BARRIER, out=pt)
        if up_mask is not None:
            pt[up_mask.T] = _BARRIER
            pt[dn_mask.T] = -_BARRIER
        if store:
            out["x_tau"][rows] = pt
        if want_phi:
            out["phi"][rows] = _phi_rows(pt[:, :n], pt[:, n:])

    while t < epsilon - tiny and alive.size:
        h = min(dt, epsilon - t)
        prev = st.copy() if bridge else None
        mix(rng, st, h)
        t += h

        up_mask = dn_mask = None
        if bridge:
            outside = np.abs(st) > _BARRIER
            stop = outside.any(axis=0)
            # a live column passed the exit test at the previous grid time,
            # so |prev| <= 1/2 everywhere and only the new endpoint decides
            inside = ~outside
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
            out["tau"][rows] = min(t, epsilon)
            out["exited"][rows] = True
            finalize(
                rows,
                st[:, stop],
                up_mask[:, stop] if bridge else None,
                dn_mask[:, stop] if bridge else None,
            )
            keep = ~stop
            if want_acc:
                out["accumulator"][rows] = acc[stop]
                acc = acc[keep]
                af_prev = af_prev[keep]
            alive = alive[keep]
            st = st.compress(keep, axis=1)

    if alive.size:
        finalize(alive, st)
        if want_acc:
            out["accumulator"][alive] = acc


# ---------------------------------------------------------------------------
# Public wrappers: one RNG stream per block of STREAM_BLOCK paths
# ---------------------------------------------------------------------------


def _run_blocks_np(master_seed, n_samples, mix, diag, dt, epsilon, bridge, gen_coeffs, store, want_phi):
    """Allocate the per-path record once (None where not asked for); each block fills its rows."""
    if gen_coeffs is not None:
        gen_coeffs = np.ascontiguousarray(gen_coeffs, dtype=np.float64)
    want_acc = gen_coeffs is not None
    out = {
        "tau": np.full(n_samples, epsilon),
        "exited": np.zeros(n_samples, dtype=bool),
        "x_tau": np.empty((n_samples, mix.dim)) if store else None,
        "phi": np.empty(n_samples) if want_phi else None,
        "phi_raw": np.empty(n_samples) if want_phi else None,
        "accumulator": np.empty(n_samples) if want_acc else None,
        "x_raw": np.empty((n_samples, mix.dim)) if want_acc else None,
    }
    children = stream_seeds(master_seed, -(-n_samples // STREAM_BLOCK))
    for k, child in enumerate(children):
        rows = slice(k * STREAM_BLOCK, (k + 1) * STREAM_BLOCK)
        block = {key: None if col is None else col[rows] for key, col in out.items()}
        _paths_block_np(np.random.default_rng(child), block, mix, diag, dt, epsilon, bridge, gen_coeffs)
    out["stream_ids"] = np.repeat(np.arange(len(children)), STREAM_BLOCK)[:n_samples]
    return out


def run_paths_structured_numpy(
    master_seed, n_samples, n, dt, epsilon, bridge=False, gen_coeffs=None, store=True, want_phi=False
):
    return _run_blocks_np(
        master_seed, n_samples, _structured_mixer(n), 1.0, dt, epsilon, bridge, gen_coeffs, store, want_phi
    )


def run_paths_dense_numpy(
    master_seed, n_samples, sig_sqrt, diag, dt, epsilon, bridge=False, gen_coeffs=None, store=True
):
    return _run_blocks_np(
        master_seed, n_samples, _dense_mixer(sig_sqrt), diag, dt, epsilon, bridge, gen_coeffs, store, False
    )
