"""Hot numerical kernels: transform butterflies and the stopped-path loop.

Two families of kernels live here:

* one fast Walsh-Hadamard butterfly routine (unnormalized; callers
  rescale) that serves both rows and the sampler's paths-minor columns;
  its short levels (contiguous runs under ``_SHORT_RUN``, such as h = 1 to 8
  on rows) iterate with the block index innermost.  Rows of +-1
  entries take phi in float32, which is exact: every transform
  intermediate is an integer of magnitude at most n <= 2^24 (float64
  above); and
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
fixed (seed, config) pair.  The blocks are stepped in groups: while dim x
live fits the n = 64 block's state, a group's blocks share one state and
step in lockstep, each drawing from its own stream in the same (path,
coordinate) order as when it ran alone, so the stream layout and every
bit are those of one block at a time.  A group of one stream under the
grid test draws nothing but normals; from ``_AHEAD_MIN`` normals a step
(a structured group of 128 or more paths at n >= 64) a worker thread
draws them ahead while the step mixes and tests: two whole buffers pass
between them on two queues, empty to the worker and filled back, and
each step copies its next values of that flat sequence; a process
allowed only one CPU draws inline.
A Generator's normals carry no state from one call to the next, so any
split of the sequence gives the same values; draws past the group's last
step are dropped with its Generator.  The bridge test draws inline, since
its uniforms share the stream with the normals.  The batch's per-path
record (one named array per output) is allocated once, and each group
writes its own rows through views, so a stored batch is held once.

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

import os
import queue
import threading

import numpy as np

__all__ = [
    "STREAM_BLOCK",
    "group_streams",
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
_WHT_BLOCK = 1 << 15  # entries per row block of wht_inplace_np (256 KiB)
# butterfly levels whose contiguous run h * post is shorter than this run
# with the block index innermost (runs of 16 to 128 timed alike)
_SHORT_RUN = 16
# the longest +-1 rows whose transform is exact in float32: every
# intermediate is an integer of magnitude at most n
_F32_EXACT = 1 << 24


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
    give bit-identical transforms.  A level whose contiguous run ``h * post``
    is shorter than ``_SHORT_RUN`` iterates over transposed views in C order,
    with the block index innermost; each element still gets its one add or
    subtract.  With ``post > 1`` each ``(n, post)`` plane must be
    C-contiguous, so that the per-level reshapes are views.
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
        order = "K"
        if h * post < _SHORT_RUN:
            # a short run makes a short inner loop: put the block index innermost
            s, d, order = s.transpose(0, 3, 2, 1), d.transpose(0, 3, 2, 1), "C"
        np.add(s[:, :, 0], s[:, :, 1], out=d[:, :, 0], order=order)
        np.subtract(s[:, :, 0], s[:, :, 1], out=d[:, :, 1], order=order)
        a = b
        h *= 2
    if a is not dst:
        dst[...] = a


def wht_inplace_np(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard butterflies over the last axis, in place.

    ``a`` is 1-D or 2-D (one transform per row); the last-axis length must
    be a power of two (not validated here).
    Applying this twice multiplies the input by the axis length.  Blocks of
    rows (``_WHT_BLOCK`` entries, at least one row) run through one block of
    scratch in cache; each row's adds are those of the row alone.
    """
    rows = a.reshape(-1, a.shape[-1], 1)
    step = max(1, _WHT_BLOCK // rows.shape[1])
    scratch = np.empty_like(rows[:step])
    for i in range(0, len(rows), step):
        block = rows[i : i + step]
        _wht_axis_np(block, block, scratch[: len(block)])
    return a


# the row-batch name the benchmark probes call
wht_batch_numpy = wht_inplace_np


def _phi_rows(x, y):
    """Row-wise (1/n) x^T H y for matched ``(m, n)`` arrays; y is copied, not changed."""
    n = x.shape[1]
    hy = wht_inplace_np(np.array(y, dtype=np.float64, order="C"))
    return np.einsum("ij,ij->i", x, hy) * (1.0 / np.sqrt(n) / n)


def _phi_sign_rows(x, y):
    """``_phi_rows`` to the bit for matched ``(m, n)`` rows of +-1 entries.

    Both halves are built as float32 (float64 for n > ``_F32_EXACT``) and
    y's build is transformed in place, so a C-ordered y of that dtype is
    overwritten.  Exact: every transform intermediate is an integer of
    magnitude at most n, and the float64 dot sums integers of magnitude at
    most n^1.5, so every route and summation order gives the same value.
    """
    n = x.shape[1]
    dtype = np.float32 if n <= _F32_EXACT else np.float64
    hy = wht_inplace_np(np.asarray(y, dtype=dtype, order="C"))
    dots = np.einsum("ij,ij->i", np.asarray(x, dtype=dtype), hy, dtype=np.float64)
    return dots * (1.0 / np.sqrt(n) / n)


# ---------------------------------------------------------------------------
# Batched multilinear evaluation
# ---------------------------------------------------------------------------


# rows per chunk of eval_multilinear_batch_numpy
_EVAL_CHUNK = 4096


def eval_multilinear_batch_numpy(coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate sum_S c[S] prod_{i in S} x_i at each row of ``points``.

    ``coeffs`` has length 2^N with bit i of the index marking variable i.
    Work is chunked over ``_EVAL_CHUNK`` rows to cap the (2^N x rows)
    scratch table.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    out = np.empty(points.shape[0])
    for start in range(0, points.shape[0], _EVAL_CHUNK):
        rows = slice(start, start + _EVAL_CHUNK)
        out[rows] = _eval_multilinear_cols_np(coeffs, points[rows].T)
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
# paths and finalize are shared.  Each block of a group draws its normals
# and bridge uniforms as (live, k) arrays into its rows of one buffer.
#
# For the block covariance [[I, H], [H, I]] with orthonormal symmetric H,
# sigma B_t equals (u_t, H u_t) in distribution where u_t is a standard
# n-dimensional Brownian motion, so only the top half is simulated (n
# gaussians per step) and the bottom half is one WHT away.

# a group keeps dim x live at or below the n = 64 block's state: the
# structured n >= 64 route steps one block at a time
_GROUP_ENTRIES = 128 * STREAM_BLOCK


def group_streams(dim):
    """Stream blocks stepped in lockstep as one group at state dimension dim."""
    return max(1, _GROUP_ENTRIES // (dim * STREAM_BLOCK))


# normals per step from which a one-stream group draws them ahead: below
# this the handoffs to the worker cost more than the draws they overlap (a
# 32-path n = 64 group and a 1024-path dense dim-2 group, 2048 normals a
# step, ran 1.2-1.9x slower drawn ahead; 128 paths at n = 64, 8192, ran
# about as fast; 512 paths, 32768, ran 20-40% faster)
_AHEAD_MIN = 1 << 13


def _cpus():
    """CPUs this process may run on; the worker overlaps the step only on a second one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _rows(buf, m, k):
    """The first m * k entries of a flat buffer as a C-contiguous (m, k) array."""
    return buf[: m * k].reshape(m, k)


class _NormalsAhead:
    """One Generator's standard normals, drawn ahead on a worker thread.

    Two buffers of ``size`` values pass between the caller and the worker
    on two queues, so each has one owner at a time.  The worker fills each
    empty buffer from ``todo`` with ``standard_normal(out=...)`` (numpy
    releases the GIL while it fills) and puts it on ``done``, or puts its
    exception there instead, which ``fill`` raises.  ``fill(out)`` copies
    the next ``out.size`` values of that flat sequence into ``out``,
    crossing buffer boundaries, and puts each used-up buffer back on
    ``todo``.  ``close`` puts None on ``todo`` to stop the worker and joins
    it; it must run on every exit, and nothing else may draw from the
    Generator until then.
    """

    def __init__(self, rng, size):
        self._todo, self._done = queue.SimpleQueue(), queue.SimpleQueue()
        self._todo.put(np.empty(size))
        self._todo.put(np.empty(size))
        self._head, self._pos = None, 0
        self._thread = threading.Thread(target=self._work, args=(rng, self._todo, self._done), daemon=True)
        self._thread.start()

    @staticmethod
    def _work(rng, todo, done):
        try:
            while (buf := todo.get()) is not None:
                done.put(rng.standard_normal(out=buf))
        except BaseException as exc:  # raised again in the caller's fill
            done.put(exc)

    def fill(self, out):
        """Copy the next ``out.size`` normals into the C-contiguous ``out``."""
        flat = out.reshape(-1)
        done = 0
        while done < flat.size:
            if self._head is None:
                head = self._done.get()
                if isinstance(head, BaseException):
                    raise head
                self._head, self._pos = head, 0
            take = min(flat.size - done, self._head.size - self._pos)
            flat[done : done + take] = self._head[self._pos : self._pos + take]
            done += take
            self._pos += take
            if self._pos == self._head.size:
                self._todo.put(self._head)
                self._head = None

    def close(self):
        self._todo.put(None)
        self._thread.join()


def _bridge_crossings_np(r, prev, new, hvar, work):
    """Bridge test on ``(dim, live)`` arrays; returns the crossed entries.

    ``r`` holds the step's uniforms, ``hvar`` each coordinate's step
    variance, and ``work`` is float scratch of the state's shape.
    The result is (i, j, up): coordinate i of column j crossed, upwards
    where ``up``.  A live path has ``|prev| <= 1/2``, so a coordinate can
    cross only if ``|new| <= 1/2``.  exp is evaluated only at candidates:
    such coordinates with max(|prev|, |new|) > 1/2 - sqrt(20 max(hvar)), and
    any whose uniform is exactly 0.  Elsewhere both exponents are at most
    -40, so p < 2 e^-40 < 2^-53, below every nonzero uniform, and the
    result is that of the full-array formula.
    """
    a = _BARRIER
    near = a - np.sqrt(20.0 * hvar.max())
    cand = np.abs(prev, out=work) > near
    inside = np.abs(new, out=work) <= a
    cand |= work > near
    if not r.all():
        cand |= r == 0.0
    cand &= inside
    i, j = np.nonzero(cand)
    pv, nv, rv, hv = prev[i, j], new[i, j], r[i, j], hvar[i]
    p_up = np.exp(-2.0 * (a - pv) * (a - nv) / hv)
    p_dn = np.exp(-2.0 * (a + pv) * (a + nv) / hv)
    crossed = rv < p_up + p_dn - p_up * p_dn
    return i[crossed], j[crossed], (rv < p_up)[crossed]


def _structured_mixer(n):
    """Mixer for [[I, H], [H, I]]: rows :n are u, rows n: are Hu / sqrt(n).

    Once added, the normals ``g`` serve as the transform's scratch.
    """
    inv = 1.0 / np.sqrt(n)

    def mix(g, st, h, solo=()):
        g *= np.sqrt(h)
        top, bot = st[:n], st[n:]
        top += g.T
        _wht_axis_np(top[None], bot[None], g.reshape(1, n, -1))
        bot *= inv

    mix.dim, mix.width = 2 * n, n
    return mix


def _dense_mixer(sig_sqrt):
    """Mixer for an explicit square root: increments sig_sqrt @ g.

    At dim 1 the product is one multiply, one rounding as in the matmul.  A
    one-row matmul takes another BLAS route than a taller one, so rows alone
    in their stream block (``solo``) are redone as one-row products.
    """
    dim = sig_sqrt.shape[0]
    sig_t = sig_sqrt.T
    buf = np.empty(0)

    def mix(g, st, h, solo=()):
        nonlocal buf
        if dim == 1:
            inc = np.multiply(g, sig_t[0, 0], out=g)
        else:
            if buf.size < g.size:
                buf = np.empty(g.size)
            inc = np.matmul(g, sig_t, out=_rows(buf, *g.shape))
            for a in solo:
                np.matmul(g[a : a + 1], sig_t, out=inc[a : a + 1])
        inc *= np.sqrt(h)
        st += inc.T

    mix.dim = mix.width = dim
    return mix


def _paths_block_np(rngs, out, mix, diag, dt, epsilon, bridge, gen_coeffs):
    """Step a group of stream blocks from the origin, in lockstep.

    Block k is rows k * STREAM_BLOCK onward of ``out``, the group's rows of
    the batch record (views; None for an output not asked for), and draws
    from ``rngs[k]``.  ``mix(g, st, h, solo)`` adds one step's increment to
    the ``(mix.dim, live)`` state in place from the ``(live, mix.width)``
    normals ``g``.  ``diag`` holds the variance rate of each coordinate, so
    the bridge test uses step variances ``h * diag``.
    ``phi_raw`` is ``|u|^2 / n`` of the top half u of the grid endpoint
    before the clamp; ``x_raw`` is that endpoint before the clamp and before
    bridge-crossed coordinates are put on the barrier.  State-sized arrays
    live in buffers allocated once per group: the state, a spare that takes
    the step's draws and then the compacted state (the two swap), and for
    the bridge test the previous state and the test's scratch.  Normals
    drawn ahead fill two more buffers of one full step's draws.
    """
    count, dim, width = out["tau"].size, mix.dim, mix.width
    store = out["x_tau"] is not None
    want_phi = out["phi"] is not None
    want_acc = gen_coeffs is not None

    st_buf, spare = np.zeros(dim * count), np.empty(dim * count)
    prev_buf, work_buf = (np.empty(dim * count) for _ in range(2)) if bridge else (None, None)
    st = _rows(st_buf, dim, count)
    alive = np.arange(count)
    acc = np.zeros(count) if want_acc else None
    af_prev = np.full(count, gen_coeffs[0]) if want_acc else None
    t = 0.0
    tiny = 1e-12 * epsilon

    def spans():
        # alive stays sorted, so each block's live columns are contiguous
        edges = np.searchsorted(alive, np.arange(len(rngs) + 1) * STREAM_BLOCK).tolist()
        blocks = list(zip(rngs, edges[:-1], edges[1:]))
        return blocks, [a for _, a, b in blocks if b - a == 1]

    blocks, solo = spans()

    def finalize(rows, cols, crossed=None):
        # back to one C-ordered row per path: einsum over the transposed
        # layout would change phi in the last bit
        pt = np.ascontiguousarray(cols.T)
        n = dim // 2
        if want_acc:
            out["x_raw"][rows] = pt
        if want_phi:
            out["phi_raw"][rows] = np.einsum("ij,ij->i", pt[:, :n], pt[:, :n]) * (1.0 / n)
        np.clip(pt, -_BARRIER, _BARRIER, out=pt)
        if crossed is not None:
            # (row in pt, coordinate, up) of each bridge crossing
            k, i, up = crossed
            pt[k, i] = np.where(up, _BARRIER, -_BARRIER)
        if store:
            out["x_tau"][rows] = pt
        if want_phi:
            out["phi"][rows] = _phi_rows(pt[:, :n], pt[:, n:])

    # a one-stream group under the grid test draws only normals: they are
    # drawn ahead on a worker thread while the step mixes and tests.  On one
    # CPU the two only take turns (prop-n64 pinned to one CPU ran 4% slower)
    ahead = None
    if len(rngs) == 1 and not bridge and count * width >= _AHEAD_MIN and _cpus() > 1:
        ahead = _NormalsAhead(rngs[0], count * width)
    try:
        while t < epsilon - tiny and alive.size:
            h = min(dt, epsilon - t)
            live = alive.size
            if bridge:
                prev = _rows(prev_buf, dim, live)
                np.copyto(prev, st)
            g = _rows(spare, live, width)
            if ahead is None:
                for rng, a, b in blocks:
                    rng.standard_normal(out=g[a:b])
            else:
                ahead.fill(g)
            mix(g, st, h, solo)
            t += h

            stop = (st.max(axis=0) > _BARRIER) | (st.min(axis=0) < -_BARRIER)
            if bridge:
                r = _rows(spare, live, dim)
                for rng, a, b in blocks:
                    rng.random(out=r[a:b])
                work = _rows(work_buf, dim, live)
                ci, cj, up = _bridge_crossings_np(r.T, prev, st, h * diag, work)
                stop[cj] = True

            if want_acc:
                af_new = _eval_multilinear_cols_np(gen_coeffs, st)
                acc += 0.5 * (af_prev + af_new) * h
                af_prev = af_new

            if stop.any():
                rows = alive[stop]
                out["tau"][rows] = min(t, epsilon)
                out["exited"][rows] = True
                crossed = (np.cumsum(stop)[cj] - 1, ci, up) if bridge else None
                finalize(rows, st[:, stop], crossed)
                keep = ~stop
                if want_acc:
                    out["accumulator"][rows] = acc[stop]
                    acc = acc[keep]
                    af_prev = af_prev[keep]
                alive = alive[keep]
                # compact into the spare buffer and swap; take's clip mode
                # writes out= directly, where compress would copy it first
                nxt = _rows(spare, dim, alive.size)
                np.take(st, np.flatnonzero(keep), axis=1, out=nxt, mode="clip")
                st_buf, spare, st = spare, st_buf, nxt
                blocks, solo = spans()
    finally:
        if ahead is not None:
            ahead.close()

    # the last finalize copies every survivor; free the scratch for it
    spare = prev_buf = work_buf = ahead = None
    if alive.size:
        finalize(alive, st)
        if want_acc:
            out["accumulator"][alive] = acc


# ---------------------------------------------------------------------------
# Public wrappers: one RNG stream per block of STREAM_BLOCK paths
# ---------------------------------------------------------------------------


def _run_blocks_np(master_seed, n_samples, mix, diag, dt, epsilon, bridge, gen_coeffs, store, want_phi):
    """Allocate the per-path record once (None where not asked for); each group fills its rows."""
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
    diag = np.broadcast_to(np.asarray(diag, dtype=np.float64), (mix.dim,))
    children = stream_seeds(master_seed, -(-n_samples // STREAM_BLOCK))
    per_group = group_streams(mix.dim)
    for first in range(0, len(children), per_group):
        rows = slice(first * STREAM_BLOCK, (first + per_group) * STREAM_BLOCK)
        group = {key: None if col is None else col[rows] for key, col in out.items()}
        rngs = [np.random.default_rng(child) for child in children[first : first + per_group]]
        _paths_block_np(rngs, group, mix, diag, dt, epsilon, bridge, gen_coeffs)
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
