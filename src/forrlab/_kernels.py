"""Hot numerical kernels: transforms, phi on rows and the stopped-path loop.

Two families of kernels live here:

* two Walsh-Hadamard transforms (unnormalized; callers rescale), each
  serving both rows and the sampler's paths-minor columns: the float64
  butterflies, whose short levels (contiguous runs under ``_SHORT_RUN``,
  such as h = 1 to 8 on rows) iterate with the block index innermost, and
  BLAS, one matmul per Kronecker factor of H (order at most 2^5, left
  products of at most ``_GEMM`` multiply-adds).  phi = (1/n) x^T H y
  transforms y: a float64 copy through the butterflies, or, for +-1
  integer rows, blocks of y through BLAS in float32 up to 2^16 entries a
  row (float64 above), which is exact: every intermediate is an integer
  of magnitude at most n, and every partial sum of the dot one of at most
  n^1.5; and
* Euler-Maruyama path loops for the stopped diffusion dX_t = sigma dB_t
  on the solid cube [-1/2, 1/2]^N, with grid-time exit detection, an
  optional per-coordinate Brownian-bridge crossing test, and optional
  per-path accumulators (trapezoid time-integral of a multilinear
  observable, and the forrelation statistic of the stopped point).

A single path loop over a paths-minor ``(dim, live)`` state serves both
covariance families; a family only supplies its mixer (``_paths_block_np``
has the interface): n normals and a WHT for the structured covariance, a
matrix product with the square root for a dense one.  A structured run under
the grid test without an accumulator reads the bottom half Hu/sqrt(n)
only to decide exits and in finalize, so from n = 16 on its exit test
rounds the tops to float32 and transforms them by the BLAS route.  Those
bottoms are within a proven m(n) of the butterflies'; a column with a
coordinate beyond 1/2 - m(n) gets the butterflies' bottom, which decides
its stop, and the survivors get theirs before finalize, so every output
keeps the butterflies' bits (``_structured_mixer`` has the bound).

Randomness: batch kernels consume one independent RNG stream per block of
``STREAM_BLOCK`` paths.  Stream seeds are derived from the master seed via
``numpy.random.SeedSequence.spawn``, so results are reproducible for a
fixed (seed, config) pair.  The blocks are stepped in groups: while dim x
live fits the n = 64 block's state, a group's blocks share one state and
step in lockstep, each drawing from its own stream in the same (path,
coordinate) order as when it ran alone, so the stream layout and every
bit are those of one block at a time.  Under the grid test a group draws
nothing but normals; from ``_AHEAD_MIN`` normals a step and
``_AHEAD_TOTAL`` over its steps, one worker thread draws every stream's
normals ahead while the step mixes and tests.  Each stream has two
buffers of its own, of one step of its block or its share of 2^16 values
when that is more; they pass between the step and the worker on queues,
empty to the worker and filled back, and each step copies each block's
next values of its stream's flat sequence.  A process allowed only one
CPU draws inline.
A Generator's normals carry no state from one call to the next, so any
split of the sequence gives the same values; draws past the group's last
step are dropped with its Generators.  The bridge test draws inline, since
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
the discretization error.  A run that records none of these (no stored
point, phi or accumulator) keeps only tau and exited: its exit steps and
survivors skip the gather, clamp and crossing placement.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import queue
import threading

import numpy as np

from .errors import CapacityError

__all__ = [
    "STREAM_BLOCK",
    "StoppedBatch",
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
# bridge candidates per block of the crossing probabilities, and state
# entries per block of finalize's gather: each caps the temporaries of an
# exit step whose every coordinate is a candidate or whose every path exits
_CANDIDATE_BLOCK = 1 << 12
_GATHER_BLOCK = 1 << 12
_WHT_BLOCK = 1 << 15  # entries per row block of wht_inplace_np (256 KiB)
# butterfly levels whose contiguous run h * post is shorter than this run
# with the block index innermost (runs of 16 to 128 timed alike)
_SHORT_RUN = 16
# entries per row block of the +-1 row transform (256 KiB of float32)
_SIGN_BLOCK = 1 << 16
# multiply-adds per left product of the BLAS transform at most.  OpenBLAS
# (0.3.31 on 2 vCPUs) ran products of up to 2^19 on the calling thread and
# woke its second thread from 2^20, which then spun beside the draw-ahead
# worker: n = 1024 runs took 1.2x the butterflies' time.  2^18 keeps a
# factor of 2
_GEMM = 1 << 18
# the smallest n whose grid runs take the certified exit test: below it a
# step's butterflies are at most three levels, which the column matmuls
# undercut by less than the flagged columns' refinement costs
_CERTIFIED_MIN_N = 16
# the longest +-1 rows whose transform and dot are exact in float32: their
# partial sums are integers of magnitude at most n^1.5 = 2^24
_FLOAT32_EXACT = 1 << 16


def stream_seeds(master_seed: int, n_streams: int) -> list:
    """Spawn one SeedSequence child per stream from a master seed."""
    return np.random.SeedSequence(master_seed).spawn(n_streams)


# ---------------------------------------------------------------------------
# Walsh-Hadamard transforms: butterflies, and BLAS by Kronecker factors
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


@functools.cache
def _hadamard_factor(order, dtype):
    """The read-only +-1 Sylvester matrix of ``order`` in ``dtype`` (cached)."""
    h = np.eye(order)[None]
    # H I = H by the butterflies, not through wht_inplace_np: the BLAS route never calls it
    _wht_axis_np(h, h, np.empty_like(h))
    h = h[0].astype(dtype)
    h.flags.writeable = False
    return h


@functools.cache
def _factor_orders(n):
    """Orders of the Kronecker factors of H_n: as few as orders of at most 2^5 allow, near equal.

    On 1024 float32 columns 8 x 8 took 49 us at n = 64 against 82 us for
    one factor of 64 (float64: 77 against 175 us, and 8 x 16 206 us at
    n = 128 against 342 us for 128).  ``_phi_rows`` on +-1 rows took 0.79
    ms against 1.40 ms with factors of up to 2^7 on 16 x 16384 rows, 13.1
    against 16.4 on 50000 x 128 and 1.59 against 1.89 on 2 x 131072; at
    n = 64 it took 1.25x the time of one factor of 64, a product OpenBLAS
    splits over two threads (on one thread 8 x 8 was as fast).
    """
    k = n.bit_length() - 1
    count = max(1, -(-k // 5))
    return tuple(1 << (k * (i + 1) // count - k * i // count) for i in range(count))


def _hadamard_blas(src, dst, scratch, scale=1.0):
    """scale times the unnormalized WHT along axis 1 of a ``(pre, n, post)`` array, by BLAS.

    H_n is the Kronecker product of the Sylvester factors H_b of
    ``_factor_orders(n)``.  They apply slowest index first, each as
    ``H_b @ v.reshape(-1, b, inner)``, inner being post times the orders
    after it, so nothing is transposed; where inner is 1 (the last factor
    of rows), as ``v.reshape(-1, b) @ H_b``, H being symmetric.  The last
    factor is scale H_b.  A left product runs in runs of its last axis of
    at most ``_GEMM`` multiply-adds a matmul (stacked over the first axis),
    which OpenBLAS keeps on the calling thread beside the sampler's
    draw-ahead worker.  The right product is the one uncapped: it serves
    rows only, which transform after sampling, beside no such worker.

    The products alternate between ``dst`` and ``scratch`` (both shaped
    like ``src``, their planes C-contiguous) and end in dst, except in
    place (``src`` is dst) with an odd factor count, where they end in
    scratch rather than copy back; returns the array that holds the result.
    On +-1 integer values with scale 1 every product is +-1 times an
    integer and every partial sum an integer of magnitude at most n, so
    the result is exact in float32 for n up to 2^24, the butterflies' for
    any blocking, summation order or thread count.  Otherwise it is not
    the butterflies' bits: ``_structured_mixer`` bounds the difference.
    """
    n, post = src.shape[1:]
    orders = _factor_orders(n)
    bufs = [dst, scratch] if len(orders) % 2 and src is not dst else [scratch, dst]
    v, inner = src, n * post
    for i, order in enumerate(orders):
        out, inner = bufs[i % 2], inner // order
        h = _hadamard_factor(order, v.dtype)
        if i == len(orders) - 1 and scale != 1.0:
            h = h * scale
        if inner == 1:
            np.matmul(v.reshape(-1, order), h, out=out.reshape(-1, order))
        else:
            s, d = v.reshape(-1, order, inner), out.reshape(-1, order, inner)
            step = max(1, _GEMM // (order * order))
            for j in range(0, inner, step):
                np.matmul(h, s[:, :, j : j + step], out=d[:, :, j : j + step])
        v = out
    return v


# ---------------------------------------------------------------------------
# phi on rows
# ---------------------------------------------------------------------------


def _sign_layout(m, n):
    """Rows per block and float dtype of ``_phi_rows`` on ``(m, n)`` integer rows."""
    dtype = np.dtype(np.float32 if n <= _FLOAT32_EXACT else np.float64)
    return max(1, min(m, _SIGN_BLOCK // n)), dtype


def _phi_dot(x, hy):
    """Row-wise phi = (1/n) x^T H y from x and hy, the unnormalized transform of y.

    Summed in hy's dtype and scaled in float64.  hy is float64, or float32
    from ``_hadamard_blas`` on rows of at most ``_FLOAT32_EXACT`` entries,
    whose x is +-1 integers (cast exactly, whatever their width).  On +-1
    rows the sum is exact: the partial sums are integers of magnitude at
    most n^1.5, at most 2^24 in float32, so every route and summation order
    gives the same value.
    """
    n = x.shape[1]
    dots = np.einsum("ij,ij->i", x, hy, dtype=hy.dtype, casting="same_kind")
    return np.multiply(dots, 1.0 / np.sqrt(n) / n, dtype=np.float64)


def _phi_rows(x, y):
    """Row-wise (1/n) x^T H y for matched ``(m, n)`` arrays; neither is changed.

    When x and y are both integer arrays, of +-1 entries, y's rows transform
    by BLAS a block at a time (``_hadamard_blas`` in place on a copy in one
    of two flat ``_sign_layout`` buffers, ``_SIGN_BLOCK`` entries, at least
    one row) and each block is dotted with x's rows at once, all exactly.
    Otherwise a float64 copy of y goes through the butterflies.
    """
    if not (np.issubdtype(x.dtype, np.integer) and np.issubdtype(y.dtype, np.integer)):
        return _phi_dot(x, wht_inplace_np(np.array(y, dtype=np.float64, order="C")))
    m, n = y.shape
    step, dtype = _sign_layout(m, n)
    bufs = np.empty((2, step * n), dtype)
    out = np.empty(m)
    for s in range(0, m, step):
        rows = y[s : s + step]
        v, spare = (buf[: rows.size].reshape(-1, n, 1) for buf in bufs)
        np.copyto(v[:, :, 0], rows)
        out[s : s + step] = _phi_dot(x[s : s + step], _hadamard_blas(v, v, spare)[:, :, 0])
    return out


# ---------------------------------------------------------------------------
# Batched multilinear evaluation
# ---------------------------------------------------------------------------


# rows per chunk of eval_multilinear_batch_numpy, and entries per chunk of
# each temporary of its first fold (2^22 doubles, 32 MiB): 4096 rows up to
# N = 11 variables, fewer above
_EVAL_CHUNK = 4096
_EVAL_ENTRIES = 1 << 22


def eval_multilinear_batch_numpy(coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate sum_S c[S] prod_{i in S} x_i at each row of ``points``.

    ``coeffs`` has length 2^N with bit i of the index marking variable i.
    Work is chunked over rows so that the first fold's two (2^(N-1) x rows)
    temporaries hold at most ``_EVAL_ENTRIES`` entries each (at least one
    row a chunk); each row folds alone, so chunking moves no bit.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    out = np.empty(points.shape[0])
    chunk = max(1, min(_EVAL_CHUNK, 2 * _EVAL_ENTRIES // coeffs.size))
    for start in range(0, points.shape[0], chunk):
        rows = slice(start, start + chunk)
        out[rows] = _eval_multilinear_cols_np(coeffs, points[rows].T)
    return out


def _eval_multilinear_cols_np(coeffs, cols):
    """Multilinear evaluation at each column of a ``(N, points)`` array.

    ``coeffs`` is one table of 2^N entries, or a ``(2^N, points)`` array of
    one table per column.  Folds the table down the first axis: variable i
    pairs entries 2j and 2j+1 as ``c[2j] + x_i * c[2j+1]``, so a paths-minor
    state needs no transpose or tiled copy of the table.
    """
    tab = coeffs.reshape(len(coeffs), -1)
    for x in cols:
        tab = tab[0::2] + x * tab[1::2]
    return tab[0]


# ---------------------------------------------------------------------------
# Path loop: one paths-minor loop, two mixers
# ---------------------------------------------------------------------------
#
# Both covariance families step one (dim, live) state array whose column j
# holds live path alive[j], and differ only in the mixer that adds a step's
# increment in place: the structured mixer adds n normals per path to u,
# then settles Hu/sqrt(n); the dense mixer multiplies dim normals by sig_sqrt.
# The exit and bridge tests, the trapezoid accumulator, compaction of exited
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

# a group draws its normals ahead from _AHEAD_MIN normals a step and
# _AHEAD_TOTAL over all its steps; below either the worker's start, join and
# handoffs cost about as much as the draws they overlap (CHANGES.md has the
# size table that set both)
_AHEAD_MIN = 1 << 9
_AHEAD_TOTAL = 1 << 19
# values a round of draw-ahead buffers (one buffer per stream) holds at
# least, so that each handoff overlaps about a millisecond of draws
_AHEAD_ROUND = 1 << 16


def _ahead_sizes(count, width, dt, epsilon, bridge):
    """Values in each of the two draw-ahead buffers of each stream of a group.

    The group holds count paths and draws width normals a path a step, for
    at most ceil(epsilon / dt) steps of dt.  Each stream's buffer holds one
    step of its block, or its share of ``_AHEAD_ROUND`` when that is more.
    Empty when the group draws inline: under the bridge test, whose uniforms
    share the stream, and below ``_AHEAD_MIN`` or ``_AHEAD_TOTAL``.
    """
    if bridge or count * width < _AHEAD_MIN or count * width * math.ceil(epsilon / dt) < _AHEAD_TOTAL:
        return []
    streams = -(-count // STREAM_BLOCK)
    share = -(-_AHEAD_ROUND // streams)
    return [max(min(STREAM_BLOCK, count - k * STREAM_BLOCK) * width, share) for k in range(streams)]


def working_set_bytes(count, dim, width, dt, epsilon, bridge, fold=0):
    """Bytes a group of count paths holds while it steps, for the capacity rule.

    Per path: the state-sized arrays and the step's temporaries, 4 states (8
    with the bridge test); width more values for a step's normals or a
    dense mixer's product; with a generator table of ``fold`` entries, fold
    values for its fold and 4 for the trapezoid accumulator.  Then the two
    draw-ahead buffers of each stream.  Tracemalloc peaks, less the batch,
    of dense dim 1-64 and structured n = 1-1024 groups, with and without the
    bridge test and a generator, stayed within this count; one-step dense
    dim-64 runs of 2048 paths at dt 0.01 to 4, where most coordinates are
    bridge candidates or every path exits, peaked at 0.63-0.96 of it.
    """
    per_path = dim * (8 if bridge else 4) + width + (fold + 4 if fold else 0)
    return 8 * (count * per_path + 2 * sum(_ahead_sizes(count, width, dt, epsilon, bridge)))


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
    """A group's standard normals, drawn ahead on one worker thread.

    Stream k draws from ``rngs[k]`` into two buffers of ``sizes[k]`` values
    of its own.  Every buffer passes between the caller and the worker on
    queues, so each has one owner at a time: the worker takes ``(k, buffer)``
    jobs from the one ``todo`` queue, fills the buffer with
    ``standard_normal(out=...)`` (numpy releases the GIL while it fills) and
    puts it on stream k's ``done`` queue.  Its exception goes to every
    ``done`` queue instead, so ``fill`` raises it whichever stream waits.
    ``fill(k, out)`` copies the next ``out.size`` values of stream k's flat
    sequence into ``out``, crossing buffer boundaries, and puts each
    used-up buffer back on ``todo``.  ``close`` drops the queued refills,
    puts None on ``todo`` to stop the worker and joins it, so it waits only
    for the fill in progress; it must run on every exit, and nothing else may
    draw from the Generators until then.
    """

    def __init__(self, rngs, sizes):
        self._todo = queue.SimpleQueue()
        self._done = [queue.SimpleQueue() for _ in rngs]
        # the first round serves every stream's first buffer before any second one
        for _ in range(2):
            for k, size in enumerate(sizes):
                self._todo.put((k, np.empty(size)))
        # per stream: the buffer being read and the next value's index in it
        self._heads = [[None, 0] for _ in rngs]
        self._thread = threading.Thread(target=self._work, args=(rngs, self._todo, self._done), daemon=True)
        self._thread.start()

    @staticmethod
    def _work(rngs, todo, done):
        try:
            while (job := todo.get()) is not None:
                k, buf = job
                done[k].put(rngs[k].standard_normal(out=buf))
        except BaseException as exc:  # raised again in the caller's fill
            for queue_k in done:
                queue_k.put(exc)

    def fill(self, k, out):
        """Copy stream k's next ``out.size`` normals into the C-contiguous ``out``."""
        flat = out.reshape(-1)
        head = self._heads[k]
        done = 0
        while done < flat.size:
            if head[0] is None:
                buf = self._done[k].get()
                if isinstance(buf, BaseException):
                    raise buf
                head[:] = buf, 0
            buf, pos = head
            take = min(flat.size - done, buf.size - pos)
            flat[done : done + take] = buf[pos : pos + take]
            done += take
            head[1] = pos + take
            if head[1] == buf.size:
                self._todo.put((k, buf))
                head[0] = None

    def close(self):
        try:
            while True:
                self._todo.get_nowait()
        except queue.Empty:
            pass
        self._todo.put(None)
        self._thread.join()


def _bridge_crossings_np(r, prev, new, h, work):
    """Bridge test on ``(dim, live)`` arrays; returns the crossed entries.

    ``r`` holds the step's uniforms, ``h`` is every coordinate's step
    variance, and ``work`` is float scratch of the state's shape.
    The result is (i, j, up): coordinate i of column j crossed, upwards
    where ``up``.  A live path has ``|prev| <= 1/2``, so a coordinate can
    cross only if ``|new| <= 1/2``.  exp is evaluated only at candidates:
    such coordinates with max(|prev|, |new|) > 1/2 - sqrt(20 h), and any
    whose uniform is exactly 0, ``_CANDIDATE_BLOCK`` candidates at a time.
    Elsewhere both exponents are at most
    -40, so p < 2 e^-40 < 2^-53, below every nonzero uniform, and the
    result is that of the full-array formula.  Candidates are found as one
    flat index f = i * live + j, which reads ``prev`` and ``new`` by 1-D
    indexing; each block splits its share of f into (i, j) for the
    uniforms.  Only f is held from block to block.
    """
    a = _BARRIER
    live = prev.shape[1]
    near = a - np.sqrt(20.0 * h)
    cand = np.abs(prev, out=work) > near
    inside = np.abs(new, out=work) <= a
    cand |= work > near
    if not r.all():
        cand |= r == 0.0
    cand &= inside
    f = np.flatnonzero(cand)
    flat_prev, flat_new = prev.reshape(-1), new.reshape(-1)

    def crossings(fb):
        i, j = np.divmod(fb, live)
        pv, nv, rv = flat_prev[fb], flat_new[fb], r[i, j]
        p_up = np.exp(-2.0 * (a - pv) * (a - nv) / h)
        p_dn = np.exp(-2.0 * (a + pv) * (a + nv) / h)
        return i, j, rv < p_up + p_dn - p_up * p_dn, rv < p_up

    if f.size <= _CANDIDATE_BLOCK:
        i, j, crossed, up = crossings(f)
        return i[crossed], j[crossed], up[crossed]
    crossed, up = np.empty((2, f.size), dtype=bool)
    for s in range(0, f.size, _CANDIDATE_BLOCK):
        b = slice(s, s + _CANDIDATE_BLOCK)
        _, _, crossed[b], up[b] = crossings(f[b])
    i, j = np.divmod(f[crossed], live)
    return i, j, up[crossed]


def _beyond(x, a):
    """Columns of x with an entry strictly outside [-a, a]: the grid exit test."""
    return (x.max(axis=0) > a) | (x.min(axis=0) < -a)


def _exit_margin(n):
    """m(n): a float32 column whose tops and bottoms are within [-(a - m), a - m] stays inside a.

    The bound of ``_structured_mixer``'s docstring, for a = ``_BARRIER``.
    """
    k = n.bit_length() - 1
    terms = (sum(_factor_orders(n)) + 3) * 2.0**-24 + (k + 1) * 2.0**-53
    return (terms * (1.0 + 2.0**-10) * math.sqrt(n) + 2.0**-53) * _BARRIER + 2.0**-100


def _structured_mixer(n):
    """Mixer for [[I, H], [H, I]]: rows :n are u, rows n: are Hu / sqrt(n).

    ``mix`` adds the increment to the top only; ``settle(st, spare)`` gives
    every column its bottom: the butterflies' transform of the top times
    inv = 1/sqrt(n) in float64, with the spare buffer (the step's spent
    normals) as scratch.  From n = ``_CERTIFIED_MIN_N`` on,
    ``stops(st, spare)`` decides the grid exits without the butterflies,
    for runs that read the state only there and in finalize (no bridge
    test, no accumulator).  It rounds the tops to float32 in the spare
    buffer, computes their bottoms there by ``_hadamard_blas`` with
    float32 inv in the last factor, and flags the columns with a float32
    top or bottom beyond e, the largest float32 at most a - m(n) (a =
    ``_BARRIER``).  It gathers the flagged columns' float64 tops into the
    spare buffer ``_GATHER_BLOCK`` entries at a time, gives them the
    butterflies' bottoms (a block of columns transforms to the bits of the
    whole state's) and decides their stop from those, exactly as
    ``settle`` and the grid test would; the exact bottoms go back into the
    state for finalize.  The other columns' bottoms in the state are stale
    until ``settle``.  Every draw, tau, stopped point and phi is the
    butterflies'.

    m(n) = ((sum b + 3) v + (k + 1) u)(1 + 2^-10) sqrt(n) a + u a +
    2^-100, with u = 2^-53, v = 2^-24, k = log2 n and b the factor orders
    (``_exit_margin``).  Rounding is monotone and m >= v a, so a top
    beyond a rounds to a float32 beyond e: an unflagged column has its
    float64 top x in [-a, a], and S = sum |x_i| <= n a.  With gamma_j = j
    u / (1 - j u), and gamma'_j the same with v: each butterfly output is
    a k-level tree of adds and subtracts of the +-x_i, within gamma_k S
    of the exact Hx, and its product with the float64 inv is within
    gamma_{k+1} inv S of inv Hx.  The float32 tops are within v |x_i|.
    A matmul by H_b sums b exact products, in whatever order, blocking or
    FMA BLAS uses, within gamma'_b times the sum of their magnitudes;
    the last factor's entries are +-fl32(inv), within v inv of inv, one
    more rounding a product.  |H| is all ones, so the float32 bottom is
    within gamma'_{sum b + 3} (1 + v)^2 inv S of inv Hx.  The two bottoms
    differ by at most that plus gamma_{k+1} inv S, and inv <= (1 + u) /
    ((1 - u) sqrt(n)): within the first term of m(n) for sum b < 2^13
    (the factor also covers m's own roundings).  a - m rounds up by at
    most u a, and 2^-100 covers float32 underflow, whose absolute errors
    of at most 2^-150 an operation the gamma bound does not count.  A
    float32 bottom within [-e, e] thus has its butterfly bottom within
    [-a, a], and the column does not stop.
    """
    inv = 1.0 / np.sqrt(n)

    def butterflies(top, bot, scratch):
        # in place when bot is top: _wht_axis_np tells that by identity
        src = top[None]
        _wht_axis_np(src, src if bot is top else bot[None], scratch[None])
        bot *= inv

    def mix(g, st, h, solo=()):
        g *= np.sqrt(h)
        top = st[:n]
        top += g.T

    def settle(st, spare):
        butterflies(st[:n], st[n:], _rows(spare, n, st.shape[1]))

    mix.dim, mix.width, mix.settle = 2 * n, n, settle
    if n < _CERTIFIED_MIN_N:
        return mix
    inv32 = np.float32(inv)
    edge = np.float32(_BARRIER - _exit_margin(n))
    if float(edge) > _BARRIER - _exit_margin(n):
        edge = np.nextafter(edge, np.float32(0))

    def stops(st, spare):
        live = st.shape[1]
        flat32 = spare.view(np.float32)
        x = _rows(flat32, 2 * n, live)
        np.copyto(x[:n], st[:n], casting="same_kind")
        _hadamard_blas(x[None, :n], x[None, n:], _rows(flat32[x.size :], n, live)[None], inv32)
        # the float32 copy is spent after the test: one abs and one max
        stop = np.abs(x, out=x).max(axis=0) > edge
        flagged = stop.nonzero()[0]
        step = max(1, _GATHER_BLOCK // n)
        for s in range(0, flagged.size, step):
            cols = flagged[s : s + step]
            # the block's tops, then in place their bottoms; scratch after them
            v = _rows(spare, n, cols.size)
            np.take(st[:n], cols, axis=1, out=v, mode="clip")
            hit = _beyond(v, _BARRIER)
            butterflies(v, v, _rows(spare[v.size :], n, cols.size))
            stop[cols] = hit | _beyond(v, _BARRIER)
            st[n:, cols] = v
        return stop

    mix.stops = stops
    return mix


def _dense_mixer(sig_sqrt):
    """Mixer for an explicit square root: increments sig_sqrt @ g.

    At dim 1 the product is one multiply, one rounding as in the matmul.  A
    one-row matmul takes another BLAS route than a taller one, so rows alone
    in their stream block (``solo``) are redone as one-row products.  The
    product stays in the draws' ``(live, dim)`` layout and is added to the
    state through its transpose: sig_sqrt @ g.T, in the state's layout, is
    rounded otherwise by OpenBLAS at dims from 12 on.
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


def _paths_block_np(rngs, out, mix, dt, epsilon, bridge, gen_coeffs):
    """Step a group of stream blocks from the origin, in lockstep.

    Block k is rows k * STREAM_BLOCK onward of ``out``, the group's rows of
    the batch record (views; None for an output not asked for), and draws
    from ``rngs[k]``.  A covariance family is one mixer.
    ``mix(g, st, h, solo)`` adds a step's increment from the
    ``(live, mix.width)`` normals ``g`` to the ``(mix.dim, live)`` state, in
    place.  The structured mixer adds only the top; its ``settle(st, spare)``
    derives every column's bottom, and the loop settles after each step.  A
    run without the bridge test and the accumulator reads the state only at
    the grid test and in finalize, so where the mixer has ``stops(st,
    spare)``, a grid test that settles only the exits' columns, the loop
    calls it instead and settles the survivors once, before finalize.  The
    dense mixer has neither.  Every variance rate is 1 (every accepted
    covariance has unit diagonal): the bridge test's step variance is h.
    ``phi_raw`` is ``|u|^2 / n`` of the top half u of the grid endpoint
    before the clamp; ``x_raw`` is that endpoint before the clamp and before
    bridge-crossed coordinates are put on the barrier.  State-sized arrays
    live in buffers allocated once per group: the state, a spare that takes
    the step's draws, then the rows of the step's exiting paths (at the end,
    the survivors') for finalize, then the compacted state (the two swap),
    and for the bridge test the previous state and the test's scratch.
    Normals drawn ahead fill two more buffers a stream, sized by
    ``_ahead_sizes``.  With nothing recorded but tau and exited, exits and
    survivors skip finalize.
    """
    count, dim, width = out["tau"].size, mix.dim, mix.width
    store = out["x_tau"] is not None
    want_phi = out["phi"] is not None
    want_acc = gen_coeffs is not None
    record = store or want_phi or want_acc
    settle = getattr(mix, "settle", None)
    # the grid test alone reads the state only to decide exits and in
    # finalize, where stops and the last settle make it exact
    stops = None if bridge or want_acc else getattr(mix, "stops", None)

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

    gather = max(1, _GATHER_BLOCK // dim)

    def exiting_rows(gone):
        # columns gone of the state as one C-ordered row per path: einsum
        # over the transposed layout would change phi in the last bit.  They
        # are gathered into the spare buffer a block at a time, so no step
        # holds a second state
        pt = _rows(spare, gone.size, dim)
        for a in range(0, gone.size, gather):
            pt[a : a + gather] = st.T[gone[a : a + gather]]
        return pt

    def finalize(rows, pt, crossed=None):
        # pt holds one C-ordered row per path, scratch: phi transforms its bottom half last
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
            out["phi"][rows] = _phi_dot(pt[:, :n], wht_inplace_np(pt[:, n:]))

    # under the grid test a group draws only normals: they are drawn ahead
    # on a worker thread while the step mixes and tests.  On one CPU the two
    # only take turns (prop-n64 pinned to one CPU ran 4% slower).
    # draw(k, out) fills out with block k's next normals either way
    ahead = None
    sizes = _ahead_sizes(count, width, dt, epsilon, bridge)
    if sizes and _cpus() > 1:
        ahead = _NormalsAhead(rngs, sizes)
    draw = ahead.fill if ahead else lambda k, out: rngs[k].standard_normal(out=out)
    try:
        while t < epsilon - tiny and alive.size:
            h = min(dt, epsilon - t)
            live = alive.size
            if bridge:
                prev = _rows(prev_buf, dim, live)
                np.copyto(prev, st)
            g = _rows(spare, live, width)
            for k, (_, a, b) in enumerate(blocks):
                draw(k, g[a:b])
            mix(g, st, h, solo)
            t += h

            if stops is None and settle is not None:
                settle(st, spare)
            stop = _beyond(st, _BARRIER) if stops is None else stops(st, spare)
            if bridge:
                r = _rows(spare, live, dim)
                for rng, a, b in blocks:
                    rng.random(out=r[a:b])
                work = _rows(work_buf, dim, live)
                ci, cj, up = _bridge_crossings_np(r.T, prev, st, h, work)
                stop[cj] = True

            if want_acc:
                # 0.5 * (af_prev + af_new) * h, rounded in that order, over af_prev
                af_new = _eval_multilinear_cols_np(gen_coeffs, st)
                trap = np.add(af_prev, af_new, out=af_prev)
                trap *= 0.5
                trap *= h
                acc += trap
                af_prev = af_new

            if stop.any():
                # integer indices, found once: cheaper than each boolean index
                gone, keep = stop.nonzero()[0], (~stop).nonzero()[0]
                rows = alive[gone]
                out["tau"][rows] = min(t, epsilon)
                out["exited"][rows] = True
                if record:
                    crossed = (np.cumsum(stop)[cj] - 1, ci, up) if bridge else None
                    finalize(rows, exiting_rows(gone), crossed)
                if want_acc:
                    out["accumulator"][rows] = acc[gone]
                    acc = acc[keep]
                    af_prev = af_prev[keep]
                alive = alive[keep]
                # compact into the spare buffer and swap; take's clip mode
                # writes out= directly, where compress would copy it first
                nxt = _rows(spare, dim, alive.size)
                np.take(st, keep, axis=1, out=nxt, mode="clip")
                st_buf, spare, st = spare, st_buf, nxt
                blocks, solo = spans()
    finally:
        if ahead is not None:
            ahead.close()

    # the survivors leave as exits do, once the other scratch (views too) is free
    prev_buf = work_buf = prev = work = ahead = draw = None
    if record and alive.size:
        if stops is not None:
            settle(st, spare)
        finalize(alive, exiting_rows(np.arange(alive.size)))
        if want_acc:
            out["accumulator"][alive] = acc


# ---------------------------------------------------------------------------
# The batch and its one entry: one RNG stream per block of STREAM_BLOCK paths
# ---------------------------------------------------------------------------

# a sampling request is refused when the batch it returns or the working set
# of one group of stream blocks would exceed 1 GiB, ten times the largest
# batch the acceptance criteria store (1e5 paths at dim 128).  The working
# set is what working_set_bytes counts for the first group: its state-sized
# arrays, its draw-ahead buffers and the generator fold.
STORED_PATHS_BYTE_LIMIT = 2**30


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


def _run_blocks_np(master_seed, n_samples, mix, dt, epsilon, bridge, gen_coeffs, store, want_phi):
    """Sample n_samples stopped paths of the family's mixer into one StoppedBatch.

    A request whose batch or whose first group's working set would exceed
    STORED_PATHS_BYTE_LIMIT bytes raises CapacityError before any draw or
    allocation.  Then the per-path record (None where not asked for) is
    allocated once, and each group fills its rows.
    """
    dim, want_acc = mix.dim, gen_coeffs is not None
    # per path: tau, exited, stream id; phi, phi_raw; accumulator; x_tau, x_raw
    batch = n_samples * (17 + 16 * bool(want_phi) + 8 * want_acc + 8 * dim * (bool(store) + want_acc))
    per_group = max(1, _GROUP_ENTRIES // (dim * STREAM_BLOCK))
    working = working_set_bytes(
        min(n_samples, per_group * STREAM_BLOCK), dim, mix.width, dt, epsilon, bridge, 2**dim if want_acc else 0
    )
    if max(batch, working) > STORED_PATHS_BYTE_LIMIT:
        raise CapacityError(
            f"{n_samples} paths of dim {dim} hold {batch} bytes of output and a {working} byte working set, "
            f"over the {STORED_PATHS_BYTE_LIMIT} byte limit; sample without path storage, fewer paths or "
            "a smaller dimension"
        )
    children = stream_seeds(master_seed, -(-n_samples // STREAM_BLOCK))
    if want_acc:
        gen_coeffs = np.ascontiguousarray(gen_coeffs, dtype=np.float64)
    out = {
        "tau": np.full(n_samples, epsilon),
        "exited": np.zeros(n_samples, dtype=bool),
        "x_tau": np.empty((n_samples, dim)) if store else None,
        "phi": np.empty(n_samples) if want_phi else None,
        "phi_raw": np.empty(n_samples) if want_phi else None,
        "accumulator": np.empty(n_samples) if want_acc else None,
        "x_raw": np.empty((n_samples, dim)) if want_acc else None,
    }
    for first in range(0, len(children), per_group):
        rows = slice(first * STREAM_BLOCK, (first + per_group) * STREAM_BLOCK)
        group = {key: None if col is None else col[rows] for key, col in out.items()}
        rngs = [np.random.default_rng(child) for child in children[first : first + per_group]]
        _paths_block_np(rngs, group, mix, dt, epsilon, bridge, gen_coeffs)
    out["stream_ids"] = np.repeat(np.arange(len(children)), STREAM_BLOCK)[:n_samples]
    return StoppedBatch(**out)


def run_paths_structured_numpy(
    master_seed, n_samples, n, dt, epsilon, bridge=False, gen_coeffs=None, store=True, want_phi=False
):
    return vars(_run_blocks_np(
        master_seed, n_samples, _structured_mixer(n), dt, epsilon, bridge, gen_coeffs, store, want_phi
    ))


def run_paths_dense_numpy(
    master_seed, n_samples, sig_sqrt, diag, dt, epsilon, bridge=False, gen_coeffs=None, store=True
):
    """Dense paths of the root sig_sqrt.  The samplers take every variance rate
    as 1: ``diag`` must be ones, and stays for the benchmark's positional
    calls until ROADMAP item 5 deletes it."""
    if not (np.asarray(diag) == 1.0).all():
        raise ValueError("the samplers take every variance rate as 1")
    return vars(_run_blocks_np(
        master_seed, n_samples, _dense_mixer(sig_sqrt), dt, epsilon, bridge, gen_coeffs, store, False
    ))
