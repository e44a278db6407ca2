"""Kernel-level tests: transform oracles, pinned digests, path invariants."""

import dataclasses
import hashlib
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from forrlab import _kernels as K
from forrlab.diffusion import equicorrelated_covariance
from forrlab.errors import CapacityError
from oracles import direct_wht_oracle, naive_multilinear


class TestWalshHadamardKernels:
    def test_unnormalized_butterflies_match_direct_summation(self):
        rng = np.random.default_rng(42)
        for m in (1, 2, 8, 16):
            v = rng.standard_normal(m)
            got = K.wht_inplace_np(v.copy())
            npt.assert_allclose(got, direct_wht_oracle(v), atol=1e-12)

    def test_double_application_scales_by_length(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal(32)
        w = K.wht_inplace_np(K.wht_inplace_np(v.copy()))
        npt.assert_allclose(w, 32 * v, rtol=1e-12, atol=1e-12)

    def test_batch_rows_independent(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 8))
        got = K.wht_inplace_np(a.copy())
        for r in range(5):
            npt.assert_allclose(got[r], direct_wht_oracle(a[r]), atol=1e-12)


# sha256 of wht_inplace_np on seeded data at every length 2^k, k = 0..11,
# as a vector and as a (3, 2^k) batch of rows: odd and even level counts.
# Pinned from the butterflies that copied one half per level; one scratch
# buffer must not move a bit.
WHT_DIGESTS = {
    0: "83fa0c1fd8b7ce9144b664a15467c49e3f49e6fcb431e461c2300d54f179e7ad",
    1: "b9db62a55537212982ec0144ffe07a539c6ac93b03e1f8ed66cd9adb212b0377",
    2: "b65000c2acdec42bde19d9e09f83b2c05e9ed0a90ed637ace3d0fec7f5a592b6",
    3: "d8f01135fb260440adad801a99b5803af7f9c8d96ddb76b4b6fc4dc71fef210f",
    4: "e8b5f7ad38a821897ce5055d37387d113c337c652d5809260e41a5caa9236c63",
    5: "6561c2d31c0aee0dbbe2e3c150a0473e2ca6f4121e656b07ac8e26e456afaf98",
    6: "d4d9adf87e534cef2d1c0e9f6fd5c70375f335d3070b11b55f8fc7297681c711",
    7: "d74856dd604f7f6262af2882728f7b19ebdcd5d9c0649b6eda9985c1bacd3a19",
    8: "365c76f8a1e9d5a66f9305af69fbfe56f31a279477987549f3c519c2e052a9a3",
    9: "4045b4a4f7d09aad53f2fa8819e3d808d6010279495e2824d0552ae6a55d277e",
    10: "d325849c507050a8acb3134fd70d50bafafab555142a160483682583e856dd66",
    11: "b8c9ea2422b3307b13ffe3ba1673183699fb5d0ee57dba69f25f672a6d6b8571",
}


@pytest.mark.parametrize("k", list(WHT_DIGESTS))
def test_wht_outputs_match_pinned_digests(k):
    rng = np.random.default_rng(1000 + k)
    h = hashlib.sha256()
    for shape in ((2**k,), (3, 2**k)):
        a = rng.standard_normal(shape)
        out = K.wht_inplace_np(a)
        assert out is a
        h.update(a.tobytes())
    assert h.hexdigest() == WHT_DIGESTS[k]


@pytest.mark.parametrize("n", [1, 2, 1024, 2**14])
def test_blocked_rows_equal_each_row_alone(n):
    # two full row blocks and a partial one; each row, alone as a 1-D
    # vector, must come out bit for bit as inside the batch
    step = max(1, K._WHT_BLOCK // n)
    a = np.random.default_rng(n).standard_normal((2 * step + max(1, step // 2), n))
    want = np.stack([K.wht_inplace_np(row.copy()) for row in a])
    npt.assert_array_equal(K.wht_inplace_np(a), want)


def test_blocked_transform_memory():
    # one block of scratch, not a copy of the (4096, 1024) batch (32 MiB)
    a = np.random.default_rng(0).standard_normal((4096, 1024))
    tracemalloc.start()
    try:
        K.wht_inplace_np(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("shape", [(4096, 1024), (2 * (K._WHT_BLOCK // 64) + K._WHT_BLOCK // 128, 64)])
def test_row_transform_starts_no_thread(monkeypatch, shape):
    # a 32 MiB batch, and two full row blocks and a partial one, on the
    # caller alone even with a second CPU: any thread started would raise
    def no_thread(*args, **kwargs):
        raise AssertionError("the row transform started a thread")

    monkeypatch.setattr(K, "_cpus", lambda: 2)
    monkeypatch.setattr(threading, "Thread", no_thread)
    a = np.random.default_rng(list(shape)).standard_normal(shape)
    want = np.stack([K.wht_inplace_np(row.copy()) for row in a])
    assert (K.wht_inplace_np(a) == want).all()


def row_transform_shapes():
    # one row, two full row blocks and a partial one, and a 32 MB chunk at
    # n = 1024, in both dtypes
    for dtype in (np.float32, np.float64):
        for shape in ((1, 64), (2 * (K._WHT_BLOCK // 64) + 100, 64), (4096, 1024)):
            yield dtype, shape


@pytest.mark.parametrize("dtype, shape", list(row_transform_shapes()), ids=lambda v: getattr(v, "__name__", str(v)))
def test_row_transform_equals_each_row_alone_in_both_dtypes(dtype, shape):
    a = np.random.default_rng(list(shape)).choice((-1.0, 1.0), size=shape).astype(dtype)
    a[:, 1::3] *= 3.0  # entries other than +-1 too
    want = np.stack([K.wht_inplace_np(row.copy()) for row in a])
    out = K.wht_inplace_np(a)
    assert out is a and out.dtype == dtype
    assert out.tobytes() == want.tobytes()


def test_row_transform_returns_its_input_and_leaves_no_thread():
    before = threading.active_count()
    a = np.ones((4096, 64))
    assert K.wht_inplace_np(a) is a
    npt.assert_array_equal(a[:, 0], 64.0)
    npt.assert_array_equal(a[:, 1:], 0.0)
    assert threading.active_count() == before


def test_row_transform_error_reaches_the_caller(monkeypatch):
    # the second row block raises: the error leaves wht_inplace_np on the
    # caller's thread, after the first block and before the third
    blocks = []
    wht = K._wht_axis_np

    def failing_wht(*args):
        blocks.append(threading.get_ident())
        if len(blocks) == 2:
            raise MemoryError("block")
        return wht(*args)

    monkeypatch.setattr(K, "_wht_axis_np", failing_wht)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="block"):
        K.wht_inplace_np(np.ones((4096, 64)))
    assert blocks == [threading.get_ident()] * 2
    assert threading.active_count() == before


@pytest.mark.parametrize("post", [1, 2, 3, 5, 15])
def test_paths_minor_short_runs_equal_row_transform(post):
    # with post < _SHORT_RUN the first levels run with the block index
    # innermost; each column must still come out as its row transform
    for k in range(11):
        n = 2**k
        a = np.random.default_rng([k, post]).standard_normal((1, n, post))
        want = K.wht_inplace_np(a[0].T.copy()).T
        out, scratch = np.empty_like(a), np.empty_like(a)
        K._wht_axis_np(a, out, scratch)
        assert out[0].tobytes() == np.ascontiguousarray(want).tobytes()
        K._wht_axis_np(a, a, scratch)
        assert a.tobytes() == out.tobytes()


@pytest.mark.parametrize("k", range(12))
def test_structured_mixer_transform_matches_row_transform(k):
    # the paths-minor butterflies inside the sampler give the row transform
    # of the same data bit for bit
    n = 2**k
    mix = K._structured_mixer(n)
    for seed, paths in ((k, 5), (k + 100, 3)):
        st = np.zeros((2 * n, paths))
        mix(np.random.default_rng(seed).standard_normal((paths, n)), st, 1.0)
        mix.settle(st, np.empty(n * paths))
        want = K.wht_inplace_np(st[:n].T.copy()).T * (1.0 / np.sqrt(n))
        npt.assert_array_equal(st[n:], want)


# ---------------------------------------------------------------------------
# Certified exit test of structured grid runs
# ---------------------------------------------------------------------------


def mixed_states(mix, n, g, settle=True):
    """The ``(2n, live)`` state one step of ``mix`` makes from the origin with
    normals g at h = 1 (the step's scaling by sqrt(h) is then exact),
    settled, or with its bottoms left 0."""
    st = np.zeros((2 * n, len(g)))
    mix(g.copy(), st, 1.0)
    if settle:
        mix.settle(st, np.empty(st.size))
    return st


def float32_bottoms(n, g):
    """The certified test's float32 bottoms of the tops g.T, as float64."""
    x = np.ascontiguousarray(g.T, dtype=np.float32)[None]
    bot, scratch = np.empty_like(x), np.empty_like(x)
    K._hadamard_blas(x, bot, scratch, np.float32(1.0 / np.sqrt(n)))
    return bot[0].astype(np.float64)


@pytest.mark.parametrize("k", range(12))
def test_column_matmuls_stay_within_the_exit_margin(k):
    # tops in the cube, among them the +-1/2 rows of H, whose bottoms reach
    # sqrt(n)/2 and the largest rounding errors; the float32 route's
    # bottoms are within m(n), less its last two terms, of the
    # butterflies'.  Every n, also those whose runs keep the butterflies
    n = 2**k
    e = np.zeros((3, n))
    e[np.arange(3), [0, n // 3, n - 1]] = 1.0
    walsh = K.wht_inplace_np(e) * 0.5
    rng = np.random.default_rng(k)
    g = np.concatenate([walsh, -walsh, rng.uniform(-0.5, 0.5, (40, n))])
    exact = mixed_states(K._structured_mixer(n), n, g)
    npt.assert_array_equal(g.T, exact[:n])
    gap = np.abs(float32_bottoms(n, g) - exact[n:]).max()
    assert gap <= K._exit_margin(n) - 2.0**-53 * K._BARRIER - 2.0**-100
    if n >= 8:
        assert gap > 0  # the float32 route does not run the butterflies


@pytest.mark.parametrize("layout", ["columns", "rows"])
@pytest.mark.parametrize("n, live", [(2, 32768), (16, 4096), (64, 1024), (256, 1024), (1024, 1024)])
def test_column_matmuls_fit_the_calling_thread(monkeypatch, n, live, layout):
    # every left product of the BLAS transform, the only kind a group's
    # (1, n, live) columns take, stays within _GEMM multiply-adds, and the
    # runs cover every entry once a factor.  (live, n, 1) rows end in one
    # uncapped right product, the last factor's: rows transform after
    # sampling, beside no draw-ahead worker for BLAS's threads to spin by
    left, right = [], []
    matmul = np.matmul

    def spy(a, b, out):
        if a.ndim == 2 and b.ndim == 3:
            left.append((a.shape[0], b.shape))
        else:
            right.append(a.shape)
        return matmul(a, b, out=out)

    shape = (1, n, live) if layout == "columns" else (live, n, 1)
    src = np.random.default_rng(n).uniform(-0.5, 0.5, shape).astype(np.float32)
    dst, scratch = np.full_like(src, np.nan), np.empty_like(src)
    monkeypatch.setattr(np, "matmul", spy)
    assert K._hadamard_blas(src, dst, scratch) is dst
    monkeypatch.undo()
    orders = K._factor_orders(n)
    assert all(b * b * shape[-1] <= K._GEMM for b, shape in left)
    assert len(right) == (layout == "rows")
    entries = sum(np.prod(shape) for _, shape in left) + sum(np.prod(shape) for shape in right)
    assert entries == n * live * len(orders)
    assert np.isfinite(dst).all()


def last_bit_column(n):
    """A top u, the coordinate i of its largest float32 bottom, and that
    bottom, where the butterflies' bottom i is further from 0."""
    mix = K._structured_mixer(n)
    rng = np.random.default_rng(n)
    for _ in range(1000):
        g = rng.uniform(-0.5, 0.5, (1, n))
        exact, approx = mixed_states(mix, n, g), float32_bottoms(n, g)
        i = np.abs(approx[:, 0]).argmax()
        a = abs(approx[i, 0])
        if abs(exact[n + i, 0]) > a >= np.abs(g).max():
            return g[0], i, a
    raise AssertionError("no column found")


class OneTop:
    """A stand-in Generator whose normals are one fixed top, at every draw."""

    def __init__(self, top):
        self.top = top

    def standard_normal(self, out):
        out[...] = self.top
        return out


def test_certified_exit_follows_the_butterflies(monkeypatch):
    # the barrier sits on the float32 bottom, inside the butterflies'
    # bottom: the grid test must stop the path, as the butterflies do, and
    # record the butterflies' point
    n = 64
    top, i, a = last_bit_column(n)
    monkeypatch.setattr(K, "_BARRIER", a)
    mix = K._structured_mixer(n)
    exact = mixed_states(mix, n, top[None])
    assert not K._beyond(float32_bottoms(n, top[None]), a)[0] and K._beyond(exact, a)[0]
    st = mixed_states(mix, n, top[None], settle=False)
    assert mix.stops(st, np.empty(st.size)).tolist() == [True]
    npt.assert_array_equal(st, exact)
    # one path, one step of h = 1 through the sampler's loop
    out = {
        "tau": np.full(1, 1.0),
        "exited": np.zeros(1, dtype=bool),
        "x_tau": np.empty((1, 2 * n)),
        "phi": np.empty(1),
        "phi_raw": np.empty(1),
        "accumulator": None,
        "x_raw": None,
    }
    K._paths_block_np([OneTop(top)], out, mix, 1.0, 1.0, False, None)
    assert out["exited"].tolist() == [True]
    npt.assert_array_equal(out["x_tau"][0], np.clip(exact[:, 0], -a, a))
    # without the margin the float32 bottom alone would keep the path
    monkeypatch.setattr(K, "_exit_margin", lambda n: 0.0)
    mix = K._structured_mixer(n)
    st = mixed_states(mix, n, top[None], settle=False)
    assert mix.stops(st, np.empty(st.size)).tolist() == [False]


def test_grid_runs_send_only_flagged_columns_to_the_butterflies(monkeypatch):
    # an unrecorded grid run (no finalize, no settle): every column the
    # butterflies see has a top or butterfly bottom beyond a - 3 m(n), which
    # holds a float32 top or bottom beyond a - m(n) (m(64) is about 4.5e-6)
    n = 64
    eps = 1.0 / (8.0 * np.log(2 * n))
    for dtype in (np.float32, np.float64):
        K._hadamard_factor(8, np.dtype(dtype))  # built by the butterflies
    seen = []
    wht = K._wht_axis_np

    def spy(src, dst, scratch):
        top = src.copy()
        wht(src, dst, scratch)
        seen.append((top[0], dst[0] * (1.0 / np.sqrt(n))))

    monkeypatch.setattr(K, "_wht_axis_np", spy)
    out = K.run_paths_structured_numpy(5, 1024, n, eps / 64, eps, store=False)
    edge = K._BARRIER - 3 * K._exit_margin(n)
    assert sum(top.shape[1] for top, _ in seen) >= out["exited"].sum() > 0
    for top, bot in seen:
        assert top.shape[0] == n
        assert ((np.abs(top) > edge).any(axis=0) | (np.abs(bot) > edge).any(axis=0)).all()


@pytest.mark.parametrize(
    "bridge, generator", [(True, False), (False, True)], ids=["bridge", "generator"]
)
def test_bridge_and_generator_runs_transform_every_step_by_butterflies(monkeypatch, bridge, generator):
    # both read bottoms beyond the exit test: no step takes the matmuls.  A
    # generator table has 2^(2n) entries, so n = 2 is given stops.  The
    # dense mixer adds the whole increment: it has neither settle nor stops
    dense = K._dense_mixer(np.eye(2))
    assert not hasattr(dense, "settle") and not hasattr(dense, "stops")
    monkeypatch.setattr(K, "_CERTIFIED_MIN_N", 2)
    mix = K._structured_mixer(2)
    assert hasattr(mix, "settle") and hasattr(mix, "stops")
    calls = []
    blas = K._hadamard_blas
    monkeypatch.setattr(K, "_hadamard_blas", lambda *args: calls.append(args) or blas(*args))
    gen = np.random.default_rng(1).standard_normal(2**4) if generator else None
    eps = 0.09
    out = K.run_paths_structured_numpy(7, 300, 2, eps / 16, eps, bridge=bridge, gen_coeffs=gen)
    assert out["exited"].any() and not calls


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_small_grid_runs_keep_the_butterflies(monkeypatch, n):
    # below _CERTIFIED_MIN_N a step's butterflies cost no more than the
    # matmuls plus the flagged columns' refinement: settle, and no stops
    assert n < K._CERTIFIED_MIN_N
    mix, wide = K._structured_mixer(n), K._structured_mixer(K._CERTIFIED_MIN_N)
    assert hasattr(mix, "settle") and not hasattr(mix, "stops")
    assert hasattr(wide, "settle") and hasattr(wide, "stops")
    calls = []
    blas = K._hadamard_blas
    monkeypatch.setattr(K, "_hadamard_blas", lambda *args: calls.append(args) or blas(*args))
    eps = 1.0 / (8.0 * np.log(2 * n))
    out = K.run_paths_structured_numpy(7, 600, n, eps / 64, eps, store=False, want_phi=True)
    assert out["exited"].any() and not calls


class TestMultilinearEvalKernels:
    def test_matches_naive_sum(self):
        rng = np.random.default_rng(42)
        coeffs = rng.standard_normal(2**5)
        pts = rng.uniform(-1, 1, size=(20, 5))
        got = K.eval_multilinear_batch_numpy(coeffs, pts)
        want = [naive_multilinear(coeffs, p) for p in pts]
        npt.assert_allclose(got, want, atol=1e-12)

    def test_chunking_boundary(self, monkeypatch):
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal(4)
        pts = rng.uniform(-1, 1, size=(9, 2))
        whole = K.eval_multilinear_batch_numpy(coeffs, pts)
        monkeypatch.setattr(K, "_EVAL_CHUNK", 4)
        npt.assert_array_equal(K.eval_multilinear_batch_numpy(coeffs, pts), whole)

    @pytest.mark.parametrize("n_vars, entries", [(3, 8), (5, 8), (5, 40)])
    def test_entry_chunks_equal_one_unchunked_fold(self, monkeypatch, n_vars, entries):
        # chunks of 2, 1 and 2 rows; each row folds alone, so no bit moves
        rng = np.random.default_rng(n_vars)
        coeffs = rng.standard_normal(2**n_vars)
        pts = rng.uniform(-1, 1, size=(11, n_vars))
        whole = K._eval_multilinear_cols_np(coeffs, pts.T)
        monkeypatch.setattr(K, "_EVAL_ENTRIES", entries)
        npt.assert_array_equal(K.eval_multilinear_batch_numpy(coeffs, pts), whole)

    def test_scratch_is_capped_by_entries(self):
        # 4096-row chunks would hold two 2^13 x 1024 temporaries (128 MiB) at
        # N = 14; entry chunks keep each at _EVAL_ENTRIES doubles (32 MiB)
        rng = np.random.default_rng(14)
        coeffs = rng.standard_normal(2**14)
        pts = rng.uniform(-1, 1, size=(1024, 14))
        tracemalloc.start()
        try:
            K.eval_multilinear_batch_numpy(coeffs, pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * K._EVAL_ENTRIES + 2**20


# one kernel per family; the "numpy" id keeps the test names stable
@pytest.mark.parametrize("run", [K.run_paths_structured_numpy], ids=["numpy"])
class TestStructuredPathKernel:
    def test_cube_and_tau_invariants(self, run):
        eps = 0.05
        out = run(master_seed=1, n_samples=300, n=4, dt=eps / 64, epsilon=eps, store=True)
        assert np.abs(out["x_tau"]).max() <= 0.5 + 1e-15
        assert out["tau"].min() > 0
        assert out["tau"].max() <= eps
        surv = ~out["exited"]
        npt.assert_array_equal(out["tau"][surv], eps)

    def test_bottom_half_is_transform_of_top(self, run):
        eps = 0.02
        out = run(master_seed=2, n_samples=200, n=8, dt=eps / 32, epsilon=eps, store=True)
        keep = ~out["exited"]
        x = out["x_tau"][keep]
        want = np.stack([direct_wht_oracle(row) for row in x[:, :8]]) / np.sqrt(8)
        npt.assert_allclose(x[:, 8:], want, atol=1e-12)

    def test_phi_output_matches_stored_point(self, run):
        eps = 0.05
        out = run(
            master_seed=3,
            n_samples=150,
            n=4,
            dt=eps / 64,
            epsilon=eps,
            store=True,
            want_phi=True,
        )
        x = out["x_tau"]
        redo = np.array(
            [np.dot(r[:4], direct_wht_oracle(r[4:]) / 2.0) / 4.0 for r in x]
        )
        npt.assert_allclose(out["phi"], redo, atol=1e-12)

    def test_constant_generator_accumulates_c_times_tau(self, run):
        # trapezoid integral of a constant observable must equal c * tau
        eps = 0.04
        gen = np.zeros(2**8)
        gen[0] = 1.7
        out = run(
            master_seed=4,
            n_samples=100,
            n=4,
            dt=eps / 128,
            epsilon=eps,
            gen_coeffs=gen,
            store=False,
        )
        npt.assert_allclose(out["accumulator"], 1.7 * out["tau"], rtol=1e-12)

    def test_phi_raw_is_pre_clamp_top_norm(self, run):
        eps = 0.05
        kw = dict(master_seed=3, n_samples=400, n=4, dt=eps / 16, epsilon=eps, store=True)
        assert run(**kw)["phi_raw"] is None
        gen = np.zeros(2**8)
        gen[0b11] = 1.0
        out = run(want_phi=True, gen_coeffs=gen, **kw)
        x, raw = out["x_tau"], out["x_raw"]
        npt.assert_allclose(out["phi_raw"], (raw[:, :4] ** 2).sum(axis=1) / 4.0, rtol=1e-12)
        # the clamp pulls top coordinates in, so it lowers |u|^2 where it acts
        top_norm = (x[:, :4] ** 2).sum(axis=1) / 4.0
        clipped = (np.abs(raw[:, :4]) > 0.5).any(axis=1)
        assert clipped.any() and (~clipped).any()
        assert (out["phi_raw"][clipped] > top_norm[clipped]).all()
        npt.assert_allclose(out["phi_raw"][~clipped], top_norm[~clipped], rtol=1e-12)

    def test_determinism_and_partial_blocks(self, run):
        kw = dict(master_seed=5, n_samples=1100, n=2, dt=0.001, epsilon=0.01, store=True)
        a = run(**kw)
        b = run(**kw)
        npt.assert_array_equal(a["x_tau"], b["x_tau"])
        npt.assert_array_equal(a["tau"], b["tau"])
        assert a["stream_ids"].max() == 1  # two streams for 1100 paths

    def test_store_flag_does_not_change_draws(self, run):
        kw = dict(master_seed=6, n_samples=64, n=2, dt=0.001, epsilon=0.01)
        a = run(store=True, want_phi=True, **kw)
        b = run(store=False, want_phi=True, **kw)
        npt.assert_array_equal(a["tau"], b["tau"])
        npt.assert_array_equal(a["phi"], b["phi"])
        assert b["x_tau"] is None


# sha256 digests of run_paths_structured_numpy outputs, pinned from the
# row-major kernel that preceded the paths-minor loop.  The rewrite must not
# move a single bit: the acceptance criteria that share the seeded n=64 batch
# then still check the same draws.  A mismatch after a numpy upgrade or on
# other hardware means a float routine changed its rounding; confirm against
# a run of the reference kernel before pinning new digests.  The stream_ids
# digests pin the stream layout, i.e. which RNG stream serves each path.
STRUCTURED_DIGESTS = {
    # (name, seed, paths, n, dt divisor, bridge test, generator accumulator)
    ("n64-grid", 11, 1024, 64, 64, False, False): {
        "x_tau": "6bce6270c114727e894970145a26fb050d7c6e9954c0ce3f4b990ae14f63d451",
        "tau": "1a4d5b0223ec0cc8fdbbfcb0fd05577ecfa686a7edc6c81d1370e6261fbb9f25",
        "exited": "a0cc6e14e8b9898421d18cd8702998b0766a889a3e819fc4a5cc7c016bd89943",
        "phi": "eed01d8cc1cf31addfbdbbcbc75ba6fae1a64b3f67668cb457972407fbf06f5b",
        "stream_ids": "9f1dcbc35c350d6027f98be0f5c8b43b42ca52b7604459c0c42be3aa88913d47",
    },
    ("n64-bridge", 12, 256, 64, 64, True, False): {
        "x_tau": "201f6d62d3070465f50a07250ac1b18ced66930993fd44ff54213d97813c6055",
        "tau": "87e996ab44ddca3a9e63ff42d6045e9d29f75ec48f370eb65cbf0625f2452aa1",
        "exited": "09e0b66171c101688a43d428dfeb2eb55de9c9f1d42e2e7bf5540cb584584bb4",
        "phi": "30e61591295fa2a4f85f843957d24aed75d46747130a9aa64389d84d3c0fa926",
        "stream_ids": "e5a00aa9991ac8a5ee3109844d84a55583bd20572ad3ffcd42792f3c36b183ad",
    },
    ("n4-bridge-partial", 13, 1100, 4, 64, True, False): {
        "x_tau": "3e96ddfb4d75656b1c752d2b01912ad6b95e4ca8e7129e160a9b70b7d47aec6b",
        "tau": "54ae31bf6715dc8ff83b3a9a8884685896e6fd81aa97e732834f2e51c6b75702",
        "exited": "60070435a2cbc06a09e3ba15fa6e8b2d96361e7eca76da6d131df2d9a7bb5680",
        "phi": "93f33901cc0e319f773b72512656847b43d7f573d0dcc92aea261cfb9d5597ea",
        "stream_ids": "d401efd75b6033854f05e9a7a85ef672934502223a9b290d6a9a60e7174bd2e0",
    },
    ("n2-generator-partial", 14, 1100, 2, 64, False, True): {
        "x_tau": "bef36c40a0662402c8960195997da6916322ade22260e135e6e3865651db0d07",
        "tau": "6ce0e11441012a5650925986e942d305f2c5d4e2d6ff6e06e487875d4245eb49",
        "exited": "4942f3cee443df1c7dd06296b8226d01df95dd56f460ec582d6d08fa673b2a5c",
        "phi": "fbca09ce5419512043cd37f5c14dcefe21f57c1c7b99f986aa29cb46ce69dfda",
        "accumulator": "6970f25689d784f82c6cc78414a83d12462ece0907ef30b847f8d79b73db0165",
        "stream_ids": "d401efd75b6033854f05e9a7a85ef672934502223a9b290d6a9a60e7174bd2e0",
    },
    ("n2-generator-bridge", 15, 1100, 2, 64, True, True): {
        "x_tau": "a151f9c8ff4f3d40376ba926cafb23989ebb29bb0b9caa496d22d0eafd6b11d2",
        "tau": "ad53dabd3b03c3fb51375955999ac7a2923b973146c930929dd8cb23025b718e",
        "exited": "e76771262de69c1d86bbcf6ea9c31197cf19510acf455075fb143cf97915bd50",
        "phi": "053845140ea87a4472276f86a711e59d63aed10e443111e5c446c99516bc5f2a",
        "accumulator": "ca46e0983921dbc49d52fc302db311f863e34859458cc211188c91fb0690a0d3",
        "stream_ids": "d401efd75b6033854f05e9a7a85ef672934502223a9b290d6a9a60e7174bd2e0",
    },
    ("n1024-grid", 16, 128, 1024, 32, False, False): {
        "x_tau": "0d973e6db40a27acd32ff13fe17cc90bc1e71b9c7e7474916854d62bd8fe63a6",
        "tau": "5e2ea65dfccf6b470dbeb406079661a98daefc1568b3455d0ca586ef8bac92e0",
        "exited": "b63bfa5d879bfb50b9ef2c7fb0b2927b1c4efaa7a96dd403c1941ffcd1521c88",
        "phi": "9ceb5170c772bfa56726f9c0b06111db26f652cb4372b9e3156fa7cb40bffc10",
        "stream_ids": "5f70bf18a086007016e948b04aed3b82103a36bea41755b6cddfaf10ace3c6ef",
    },
    # grid runs whose Kronecker factors of H differ from n64's and n1024's,
    # pinned from the kernel that transformed every column by butterflies
    ("n2-grid", 17, 4096, 2, 64, False, False): {
        "x_tau": "e6409736cc41807336d9cc2700613206fc29ef8a3a7192722a0bdeea4ed35714",
        "tau": "f50e9ad0d71bfee8a0156bf1c6da2070b94b9fb2adec6bb69daf922e40e29c86",
        "exited": "5a9b51e9d82dab15e5f0cce0d4b9c92d5c4102b2eace9edd4094fb81ac4c26a5",
        "phi": "0c61ae2d2c8a8348cd0564757c494cf15cc65f52d185f55427054147fc8dac94",
        "stream_ids": "fca9dce19f407d8c610dab30dd18504584d07be73a3ae85a6f87bf90281507fc",
    },
    ("n16-grid", 18, 4096, 16, 64, False, False): {
        "x_tau": "97528de6aeb3a5a105b67816e5e126c76490de431afd67efc5129500f2703125",
        "tau": "5b17af8643e1840bdf51e976d466259da6657950ba6a9672064a32ad6101973f",
        "exited": "94c587e8b9b6605b66701b2b74630f09d000c8eeef348016258d4ad4c1a37a1c",
        "phi": "e01e14799c5c0a34b7dd7108f8fd56c07504f1cba7e4e4c9837f17d7df2fec57",
        "stream_ids": "fca9dce19f407d8c610dab30dd18504584d07be73a3ae85a6f87bf90281507fc",
    },
    ("n128-grid", 19, 1024, 128, 64, False, False): {
        "x_tau": "ff66ac7161ad5a7aab0425900fbc8f8eaf91cbb80cb77560a06c77742f8476e8",
        "tau": "d9ac8c6fd8ace39f48f08819a7bb16a18e63f6495ff030c26a55f6392a0267ff",
        "exited": "d5d27ff86e0ee810ff50432e1603f02fa27f07011f8bd1e242cd0505b8e78f7a",
        "phi": "fc16180a971efdde2ba5f5a9a5143156b5ecfb3e8b68aa2b3a01e18c3801dfdd",
        "stream_ids": "9f1dcbc35c350d6027f98be0f5c8b43b42ca52b7604459c0c42be3aa88913d47",
    },
    ("n256-grid", 20, 1024, 256, 32, False, False): {
        "x_tau": "69edb93a2f6f31032db51d857d235aad8360ceebd8f131ca2e270f2bdc3cdd7f",
        "tau": "52c8976b6c85131ccf0c28dadeef3469afb65c350920a9b1d8a92de26134e6d2",
        "exited": "018895d318a0c0f1c0207550da01a8f81c3f57be988f80d181650b7378b37442",
        "phi": "20c09cc3c5d5a8f609581eb2462d2b9478b7d8f0c1ced2c8b11e93e5e4397f59",
        "stream_ids": "9f1dcbc35c350d6027f98be0f5c8b43b42ca52b7604459c0c42be3aa88913d47",
    },
}


@pytest.mark.parametrize(
    "case", list(STRUCTURED_DIGESTS), ids=[c[0] for c in STRUCTURED_DIGESTS]
)
def test_structured_numpy_outputs_match_pinned_digests(case):
    _, seed, paths, n, divisor, bridge, generator = case
    eps = 1.0 / (8.0 * np.log(2 * n))
    gen = np.random.default_rng(99).standard_normal(2 ** (2 * n)) if generator else None
    out = K.run_paths_structured_numpy(
        seed, paths, n, eps / divisor, eps, bridge=bridge, gen_coeffs=gen, store=True, want_phi=True
    )
    got = {
        key: hashlib.sha256(out[key].tobytes()).hexdigest()
        for key in ("x_tau", "tau", "exited", "phi", "accumulator", "stream_ids")
        if out[key] is not None
    }
    assert got == STRUCTURED_DIGESTS[case]


# sha256 digests of run_paths_dense_numpy outputs, pinned from the row-major
# dense loop that preceded the shared paths-minor loop.  The dense routes
# (Dynkin's identity, the stopped-mean bound, the one-coordinate exit
# estimate) must see the same draws and the same bits; see the note on
# STRUCTURED_DIGESTS before pinning new values.
DENSE_DIGESTS = {
    # (name, seed, paths, dim, gamma, dt divisor, bridge test, generator accumulator)
    ("d1-bridge-partial", 21, 1100, 1, 0.0, 64, True, False): {
        "x_tau": "3f1e546f71fec208d5255734a0f3e7cd4fb39ac75fbd7a2fd69c65b84002a17a",
        "tau": "7526259888be7a5d3a8c49e6c96043f6bfa1e9afd6280167f6b8af16fb071a10",
        "exited": "d4fad92b5963a771614119d7f93af9d4dce6b8159cddc53162d73a1642908e95",
        "stream_ids": "d401efd75b6033854f05e9a7a85ef672934502223a9b290d6a9a60e7174bd2e0",
    },
    ("d2-dynkin", 22, 1100, 2, 0.5, 64, False, True): {
        "x_tau": "dadb2c1fcee1764bac91eb5d15138329bdd8b5e83ec1fd0d90991d47e56b2240",
        "tau": "27768ffebd29bdcc886532a84f234be6b7fe95410a48ec3b32132ecedd4d57ed",
        "exited": "5c5e478b1f28b17915a40c096feb1008fe93a3ffa3e278ad5443e8a982c658e0",
        "accumulator": "e5e2fd92e6a5e8bdb7b441e16ed04b96c9117c94d324b41da190113ce821ab72",
        "stream_ids": "d401efd75b6033854f05e9a7a85ef672934502223a9b290d6a9a60e7174bd2e0",
    },
    ("d4-grid", 23, 1024, 4, 0.2, 64, False, False): {
        "x_tau": "533b612271cc5f13887d6fa1498cce8d579fd512901f45181023ab94fc5ef5dd",
        "tau": "9f2fc0f68e05860f489ed8e7baa8e0a75873081c2c9ddfc64c42f658b2d4d5ae",
        "exited": "dd5ad6d8ec245ad2bc32affdc0fad0b198349adb0601f0a5e3cb27b21a0c37f3",
        "stream_ids": "9f1dcbc35c350d6027f98be0f5c8b43b42ca52b7604459c0c42be3aa88913d47",
    },
    ("d4-bridge-generator", 24, 1024, 4, 0.2, 64, True, True): {
        "x_tau": "c8e053d57cedb3ea398d0a6dbb404ef659f6ca19eade398f2e531ef3e6e4cf81",
        "tau": "aec9143ea863ca6e1995ccebbc865c8bd9f5ae17ed1a2fb307d9ed4e836dafec",
        "exited": "10342534d14b2eb7be76789e96726f9db6c2d45736f8d56a77ad8f5e2f325dea",
        "accumulator": "27d5e60cc95ac92431943324c9a9d5a13339d951fe4d4b6cea0ad1dacb2cd0b9",
        "stream_ids": "9f1dcbc35c350d6027f98be0f5c8b43b42ca52b7604459c0c42be3aa88913d47",
    },
    ("d8-bridge-partial", 25, 1100, 8, 0.1, 64, True, False): {
        "x_tau": "3c8604f0f8554572a2c1f8e886c8bafe318e55c0f718f4c4c9c4c8d6eeecdda5",
        "tau": "75df0acfea25b854c9e770b6cd5d4d41f57d3371253470242bcd2d8a3b475e20",
        "exited": "d1f417704425a83a1b753f9c8887110cc9206070fb9215fb26896f4585abbac6",
        "stream_ids": "d401efd75b6033854f05e9a7a85ef672934502223a9b290d6a9a60e7174bd2e0",
    },
    # pinned from the loop that stepped one stream block at a time: three
    # dim-1 blocks, the last serving 52 paths, now step as one group
    ("d1-bridge-3streams", 26, 2100, 1, 0.0, 64, True, False): {
        "x_tau": "f4e229298438b62739408f3b42d889e5bcf5744c0811ba63895a8ce311976cca",
        "tau": "bb7bfd0f918000a6666e2152b043eb5d0c60af5900589c7c14f1dc364992b3f1",
        "exited": "53757dfcf9db0a282613a87be814a7910b38439d780d4445cfaceaea1f37c4c8",
        "stream_ids": "dda3c1cf4664cd1e106fcc51109f2048ae30e920792571bbb49532daa1083550",
    },
}

# a dim-4 grid run over three blocks (the last partial), pinned from the
# loop that stepped one block at a time; run with two blocks per group, so
# that it spans two groups
TWO_GROUP_CASE = ("d4-grid-two-groups", 27, 3000, 4, 0.2, 64, False, False)
TWO_GROUP_DIGESTS = {
    "x_tau": "0e824e1372ddd3d5b940a9f96ebfd1c351cbed7463e62c1fb4009ccd526fa5bd",
    "tau": "29505f916f30ae195b149ff85ccb234903a4ce5569c6d347768acf47d05f9811",
    "exited": "9595b1f2dadcfafa6fb0da3a62a0e0f4cd5e5715425af29df429bf139fa820d9",
    "stream_ids": "73950e16f1ca9a550603600b81ad8906a825cc72d99169161627ba886a4d9644",
}


def dense_digests(case):
    _, seed, paths, dim, gamma, divisor, bridge, generator = case
    cov = equicorrelated_covariance(dim, gamma)
    eps = 1.0 / (8.0 * np.log(2 * dim))
    gen = np.random.default_rng(99).standard_normal(2**dim) if generator else None
    out = K.run_paths_dense_numpy(
        seed,
        paths,
        cov.sqrt_matrix,
        np.diagonal(cov.matrix).copy(),
        eps / divisor,
        eps,
        bridge=bridge,
        gen_coeffs=gen,
        store=True,
    )
    return {
        key: hashlib.sha256(out[key].tobytes()).hexdigest()
        for key in ("x_tau", "tau", "exited", "accumulator", "stream_ids")
        if out[key] is not None
    }


@pytest.mark.parametrize("case", list(DENSE_DIGESTS), ids=[c[0] for c in DENSE_DIGESTS])
def test_dense_numpy_outputs_match_pinned_digests(case):
    assert dense_digests(case) == DENSE_DIGESTS[case]


def test_dense_groups_match_pinned_digests(monkeypatch):
    monkeypatch.setattr(K, "_GROUP_ENTRIES", 2 * 4 * K.STREAM_BLOCK)
    assert dense_digests(TWO_GROUP_CASE) == TWO_GROUP_DIGESTS


# ---------------------------------------------------------------------------
# Normals drawn ahead on a worker thread
# ---------------------------------------------------------------------------


def recorded_ahead(monkeypatch, size=None):
    """Record every _NormalsAhead the kernels make; every grid group draws
    ahead, with ``size``, in buffers of ``size`` normals a stream."""
    made = []

    class Ahead(K._NormalsAhead):
        def __init__(self, rngs, sizes):
            super().__init__(rngs, sizes if size is None else [size] * len(sizes))
            self.streams = len(rngs)
            made.append(self)

    monkeypatch.setattr(K, "_NormalsAhead", Ahead)
    monkeypatch.setattr(K, "_cpus", lambda: 2)
    monkeypatch.setattr(K, "_AHEAD_MIN", 1)
    monkeypatch.setattr(K, "_AHEAD_TOTAL", 1)
    return made


def assert_workers_ended(made):
    for ahead in made:
        ahead._thread.join(timeout=5)
        assert not ahead._thread.is_alive()


def run_bounded(fn, *args):
    """fn(*args) on a daemon thread: a hang fails the test instead of stalling it."""
    result = {}

    def target():
        try:
            result["value"] = fn(*args)
        except BaseException as exc:  # raised again below, in the test's thread
            result["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive(), "the run did not end"
    if "error" in result:
        raise result["error"]
    return result["value"]


def drawn_ahead(seed, size):
    """Requests within a buffer, ending on a boundary, straddling one and
    spanning several, the last two-dimensional, filled by a _NormalsAhead;
    returns them as one flat array with the flat draw they must equal."""
    requests = [1, 5, size, size + 1, 3 * size + 2, 4097, 2]
    want = np.random.default_rng(seed).standard_normal(sum(requests) + 12)
    ahead = K._NormalsAhead([np.random.default_rng(seed)], [size])
    got = [np.empty(k) for k in requests] + [np.empty((3, 4))]
    try:
        for out in got:
            ahead.fill(0, out)
    finally:
        ahead.close()
    assert_workers_ended([ahead])
    return np.concatenate([g.reshape(-1) for g in got]), want


@pytest.mark.parametrize("size", [1, 7, 4096 + 3])
def test_normals_ahead_match_one_flat_draw(size):
    got, want = run_bounded(drawn_ahead, 5, size)
    assert got.tobytes() == want.tobytes()


def test_normals_ahead_under_fast_thread_switching():
    # four consumers, each with its own worker (more threads than cores),
    # switching every microsecond
    results = [None] * 4

    def consume(k):
        results[k] = drawn_ahead(k, 7 + k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=consume, args=(k,), daemon=True) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for got, want in results:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "case",
    [c for c in STRUCTURED_DIGESTS if not c[5]] + [c for c in DENSE_DIGESTS if not c[6]],
    ids=lambda c: c[0],
)
def test_pinned_digests_hold_with_small_ahead_buffers(case, monkeypatch):
    # buffers of an odd size put exits and step boundaries inside buffers
    made = recorded_ahead(monkeypatch, size=1001)
    if case in STRUCTURED_DIGESTS:
        test_structured_numpy_outputs_match_pinned_digests(case)
    else:
        test_dense_numpy_outputs_match_pinned_digests(case)
    # each case is one group, which draws ahead through one worker
    assert [ahead.streams for ahead in made] == [-(-case[2] // K.STREAM_BLOCK)]
    assert_workers_ended(made)


def test_two_group_digests_hold_with_small_ahead_buffers(monkeypatch):
    # the first group holds two streams and the second one (952 paths);
    # each draws ahead through its own worker
    made = recorded_ahead(monkeypatch, size=1001)
    test_dense_groups_match_pinned_digests(monkeypatch)
    assert [ahead.streams for ahead in made] == [2, 1]
    assert_workers_ended(made)


@pytest.mark.parametrize("bridge", [False, True], ids=["grid-ahead", "bridge"])
def test_survivors_finalize_after_the_scratch_is_dropped(bridge, monkeypatch):
    # the draw-ahead buffers (grid) and the bridge test's previous state and
    # scratch are dead when the survivors' phi is taken, so that their rows
    # do not add to the group's peak
    refs = []

    class RecordingRng:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, out):
            refs.append(weakref.ref(out))
            return self.rng.standard_normal(out=out)

    class Ahead(K._NormalsAhead):
        def __init__(self, rngs, sizes):
            super().__init__([RecordingRng(rng) for rng in rngs], sizes)

    crossings, phi_dot, dead = K._bridge_crossings_np, K._phi_dot, []

    def recorded_crossings(r, prev, new, hvar, work):
        refs.extend(weakref.ref(a.base) for a in (prev, work))
        return crossings(r, prev, new, hvar, work)

    def recorded_phi_dot(x, hy):
        dead.append(all(ref() is None for ref in refs))
        return phi_dot(x, hy)

    monkeypatch.setattr(K, "_NormalsAhead", Ahead)
    monkeypatch.setattr(K, "_cpus", lambda: 2)
    monkeypatch.setattr(K, "_bridge_crossings_np", recorded_crossings)
    monkeypatch.setattr(K, "_phi_dot", recorded_phi_dot)
    eps = 0.05
    out = K.run_paths_structured_numpy(3, K.STREAM_BLOCK, 64, eps / 16, eps, bridge=bridge, want_phi=True)
    assert refs and out["exited"].any() and not out["exited"].all()
    # the exit steps ran with the scratch alive; the survivors came last
    assert dead[0] is False and dead[-1] is True


def test_small_runs_and_bridge_runs_draw_inline():
    # the 64-path, 64-step dim-2 run, 2048 dim-2 paths of 16 steps and any
    # bridge run draw inline
    assert K._ahead_sizes(64, 2, 1 / 64, 1.0, False) == []
    assert K._ahead_sizes(2048, 2, 1 / 16, 1.0, False) == []
    assert K._ahead_sizes(2048, 2, 1 / 1024, 1.0, True) == []
    # a round of buffers holds 2^16 values, or one step of every block
    assert K._ahead_sizes(2048, 2, 1 / 1024, 1.0, False) == [32768, 32768]
    assert K._ahead_sizes(1100, 2, 1 / 1024, 1.0, False) == [32768, 32768]
    assert K._ahead_sizes(1024, 64, 1 / 1024, 1.0, False) == [65536]
    assert K._ahead_sizes(32 * 1024, 4, 1 / 256, 1.0, False) == [4096] * 32


def streams_drawn_ahead(seed):
    """Three streams with buffers of different sizes, filled in block order
    with some blocks empty, as after all of a block's paths have exited;
    returns each stream's values with the flat draw they must equal."""
    sizes = [7, 1001, 64]
    requests = [(5, 3, 0), (5, 0, 1), (0, 0, 700), (9, 0, 1300), (3000, 0, 2)]
    seeds = [[seed, k] for k in range(3)]
    ahead = K._NormalsAhead([np.random.default_rng(s) for s in seeds], sizes)
    got = [[], [], []]
    try:
        for step in requests:
            for k, size in enumerate(step):
                out = np.empty(size)
                ahead.fill(k, out)
                got[k].append(out)
    finally:
        ahead.close()
    assert_workers_ended([ahead])
    values = [np.concatenate(g) for g in got]
    return values, [np.random.default_rng(s).standard_normal(v.size) for s, v in zip(seeds, values)]


def test_streams_drawn_ahead_match_their_flat_draws():
    # four consumers, each with a three-stream worker (more threads than
    # cores), switching every microsecond
    results = [None] * 4

    def consume(k):
        results[k] = streams_drawn_ahead(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=consume, args=(k,), daemon=True) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for got, want in results:
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_every_block_fills_in_order_each_step(monkeypatch):
    # three dim-2 streams in one group, the last serving one path: once it
    # exits, its block fills nothing each step but is still called, in order
    made = recorded_ahead(monkeypatch)
    calls = []
    fill = K._NormalsAhead.fill

    def recorded_fill(self, k, out):
        calls.append((k, out.size))
        fill(self, k, out)

    monkeypatch.setattr(K._NormalsAhead, "fill", recorded_fill)
    cov = equicorrelated_covariance(2, 0.5)
    eps = 0.25
    out = run_bounded(K.run_paths_dense_numpy, 31, 2049, cov.sqrt_matrix, np.ones(2), eps / 64, eps)
    assert [ahead.streams for ahead in made] == [3]
    assert [k for k, _ in calls] == [0, 1, 2] * (len(calls) // 3)
    emptied = [size for k, size in calls if k == 2].index(0)
    # the one path exited while the group ran on
    assert out["exited"][2048] and emptied > 0 and calls[3 * emptied][1] > 0
    assert_workers_ended(made)


def structured_n64(paths=256):
    eps = 1.0 / (8.0 * np.log(128))
    return K.run_paths_structured_numpy(1, paths, 64, eps / 16, eps, store=False)


def test_worker_ends_with_the_run(monkeypatch):
    before = threading.active_count()
    made = recorded_ahead(monkeypatch)
    run_bounded(structured_n64, K.STREAM_BLOCK + 256)
    assert len(made) == 2
    assert_workers_ended(made)
    assert threading.active_count() == before


def test_one_cpu_draws_inline(monkeypatch):
    made = recorded_ahead(monkeypatch)
    monkeypatch.setattr(K, "_cpus", lambda: 1)
    test_structured_numpy_outputs_match_pinned_digests(next(iter(STRUCTURED_DIGESTS)))
    assert made == []


def test_worker_ends_when_the_step_raises(monkeypatch):
    before = threading.active_count()
    made = recorded_ahead(monkeypatch)
    calls = []
    wht = K._wht_axis_np

    def failing_wht(*args):
        calls.append(1)
        if len(calls) == 3:
            raise FloatingPointError("third transform")
        return wht(*args)

    monkeypatch.setattr(K, "_wht_axis_np", failing_wht)
    with pytest.raises(FloatingPointError, match="third transform"):
        run_bounded(structured_n64)
    assert len(made) == 1
    assert_workers_ended(made)
    assert threading.active_count() == before


def test_worker_error_reaches_the_caller(monkeypatch):
    class FailingGenerator:
        def standard_normal(self, out):
            raise MemoryError("stub draw")

    before = threading.active_count()
    made = recorded_ahead(monkeypatch)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: FailingGenerator())
    with pytest.raises(MemoryError, match="stub draw"):
        run_bounded(structured_n64)
    assert len(made) == 1
    assert_workers_ended(made)
    assert threading.active_count() == before


def dense_d2(paths=2100):
    cov = equicorrelated_covariance(2, 0.5)
    return K.run_paths_dense_numpy(6, paths, cov.sqrt_matrix, np.ones(2), 0.25 / 64, 0.25, store=False)


def test_one_cpu_draws_a_two_stream_group_inline(monkeypatch):
    made = recorded_ahead(monkeypatch)
    monkeypatch.setattr(K, "_cpus", lambda: 1)
    case = next(c for c in DENSE_DIGESTS if c[2] > K.STREAM_BLOCK and not c[6])
    test_dense_numpy_outputs_match_pinned_digests(case)
    assert made == []


def test_worker_of_many_streams_ends_when_the_step_raises(monkeypatch):
    before = threading.active_count()
    made = recorded_ahead(monkeypatch)
    mixer = K._dense_mixer

    def failing_mixer(sig_sqrt):
        mix = mixer(sig_sqrt)
        calls = []

        def failing(*args):
            calls.append(1)
            if len(calls) == 3:
                raise FloatingPointError("third step")
            return mix(*args)

        failing.dim, failing.width = mix.dim, mix.width
        return failing

    monkeypatch.setattr(K, "_dense_mixer", failing_mixer)
    with pytest.raises(FloatingPointError, match="third step"):
        run_bounded(dense_d2)
    assert [ahead.streams for ahead in made] == [3]
    assert_workers_ended(made)
    assert threading.active_count() == before


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_worker_error_reaches_the_caller_from_any_stream(monkeypatch, failing):
    class FailingGenerator:
        def standard_normal(self, out):
            raise MemoryError("stub draw")

    before = threading.active_count()
    made = recorded_ahead(monkeypatch)
    default_rng = np.random.default_rng
    streams = []

    def rng(seed):
        streams.append(seed)
        return FailingGenerator() if len(streams) == failing + 1 else default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", rng)
    with pytest.raises(MemoryError, match="stub draw"):
        run_bounded(dense_d2)
    assert [ahead.streams for ahead in made] == [3]
    assert_workers_ended(made)
    assert threading.active_count() == before


def test_close_waits_only_for_the_fill_in_progress():
    # 64 streams queue 127 refills behind the first; each fill takes 20 ms
    class SlowGenerator:
        def __init__(self):
            self.fills = 0

        def standard_normal(self, out):
            self.fills += 1
            time.sleep(0.02)
            return out

    rngs = [SlowGenerator() for _ in range(64)]

    def fill_one_then_close():
        ahead = K._NormalsAhead(rngs, [8] * 64)
        try:
            ahead.fill(0, np.empty(8))
        finally:
            ahead.close()
        return ahead

    assert_workers_ended([run_bounded(fill_one_then_close)])
    assert sum(rng.fills for rng in rngs) <= 3


# ---------------------------------------------------------------------------
# BLAS transform: exact on +-1 values
# ---------------------------------------------------------------------------


def test_factor_orders():
    # one rule for rows and columns: as few factors of at most 2^5 as
    # multiply to n, near equal, slowest index first
    orders = {2**k: K._factor_orders(2**k) for k in range(18)}
    assert orders == {
        1: (1,), 2: (2,), 4: (4,), 8: (8,), 16: (16,), 32: (32,), 64: (8, 8), 128: (8, 16), 256: (16, 16),
        512: (16, 32), 1024: (32, 32), 2048: (8, 16, 16), 4096: (16, 16, 16), 8192: (16, 16, 32),
        16384: (16, 32, 32), 32768: (32, 32, 32), 65536: (16, 16, 16, 16), 131072: (16, 16, 16, 32),
    }
    for n, factors in orders.items():
        assert np.prod(factors) == n and max(factors) <= 32 and max(factors) <= 2 * min(factors)


def extreme_sign_rows(n):
    """+-1 int8 rows whose transform reaches magnitude n (the constant rows
    and a row of H itself, each with its negation) and two random rows."""
    e = np.zeros(n)
    e[n // 3] = 1.0
    walsh = K.wht_inplace_np(e)
    rng = np.random.default_rng(n)
    rows = np.stack([np.ones(n), -np.ones(n), walsh, -walsh, *rng.choice((-1.0, 1.0), size=(2, n))])
    return rows.astype(np.int8)


@pytest.mark.parametrize("cut", ["float32", "float64"])
@pytest.mark.parametrize("n", [1, 2, 16, 32, 2**6, 2**7, 2**8, 2**9, 2**11, 2**14, 2**15])
def test_sign_transform_equals_the_butterflies(monkeypatch, n, cut):
    # one block of every row, in place, in float32 and, under a lowered
    # cut, float64; n = 2^9 has unequal factors, 16 and 32.  With an odd
    # factor count (here n = 1 to 32, 2^11, 2^14 and 2^15) the last product
    # lands in the scratch, which is returned, rather than copy back
    if cut == "float64":
        monkeypatch.setattr(K, "_FLOAT32_EXACT", 0)
    rows = extreme_sign_rows(n)
    want = K.wht_inplace_np(rows.astype(np.float64))
    assert np.abs(want).max() == n
    _, dtype = K._sign_layout(len(rows), n)
    assert dtype == cut
    v, spare = np.empty((2, len(rows), n, 1), dtype)
    np.copyto(v[:, :, 0], rows)
    res = K._hadamard_blas(v, v, spare)
    assert res is (spare if len(K._factor_orders(n)) % 2 else v)
    got = res[:, :, 0]
    assert got.dtype == dtype
    npt.assert_array_equal(got, want)
    # phi of every pair of rows, a block at a time, to the float route's bit
    xs, ys = np.repeat(rows, len(rows), axis=0), np.tile(rows, (len(rows), 1))
    want_phi = K._phi_rows(xs.astype(np.float64), ys.astype(np.float64))
    assert K._phi_rows(xs, ys).tobytes() == want_phi.tobytes()


@pytest.mark.parametrize("n", [8, 64, 2**11])
def test_hadamard_blas_transforms_axis_1_of_pre_n_post_blocks(monkeypatch, n):
    # +-1 values of a (pre, n, post) array with pre and post > 1, into dst
    # and left unchanged: each line (i, :, j) transforms exactly, as the
    # butterflies transform it.  A lowered _GEMM splits the left products'
    # last axis into runs
    monkeypatch.setattr(K, "_GEMM", 2**10)
    src = np.random.default_rng(n).choice((-1.0, 1.0), size=(3, n, 5)).astype(np.float32)
    kept = src.copy()
    want = np.empty(src.shape)
    K._wht_axis_np(src.astype(np.float64), want, np.empty(src.shape))
    dst, scratch = np.full_like(src, np.nan), np.empty_like(src)
    assert K._hadamard_blas(src, dst, scratch) is dst
    npt.assert_array_equal(dst, want)
    npt.assert_array_equal(src, kept)


def test_sign_rows_take_strided_views():
    # advantage --rounded's halves are column slices of one int8 array
    bits = np.random.default_rng(5).choice(np.array([-1, 1], dtype=np.int8), size=(3000, 128))
    x, y = bits[:, :64], bits[:, 64:]
    want = K._phi_rows(x.astype(np.float64), y.astype(np.float64))
    assert K._phi_rows(x, y).tobytes() == want.tobytes()


def test_hadamard_factor_is_cached_and_read_only():
    h = K._hadamard_factor(8, np.dtype(np.float32))
    assert h is K._hadamard_factor(8, np.dtype(np.float32)) and not h.flags.writeable
    npt.assert_array_equal(h, K.wht_inplace_np(np.eye(8)))


@pytest.mark.parametrize("run", [K.run_paths_dense_numpy], ids=["numpy"])
class TestDensePathKernel:
    def test_identity_covariance_invariants(self, run):
        eps = 0.05
        out = run(
            master_seed=1,
            n_samples=300,
            sig_sqrt=np.eye(3),
            diag=np.ones(3),
            dt=eps / 64,
            epsilon=eps,
            store=True,
        )
        assert np.abs(out["x_tau"]).max() <= 0.5 + 1e-15
        assert out["tau"].max() <= eps

    def test_bridge_detects_more_exits_at_coarse_dt(self, run):
        eps = 0.25
        kw = dict(
            master_seed=2,
            n_samples=20000,
            sig_sqrt=np.eye(1),
            diag=np.ones(1),
            dt=eps / 8,
            epsilon=eps,
            store=False,
        )
        p_plain = run(bridge=False, **kw)["exited"].mean()
        p_bridge = run(bridge=True, **kw)["exited"].mean()
        # crossing within a coarse step is likely but invisible to the
        # endpoint test; the bridge test must recover a visible share
        assert p_bridge > p_plain + 0.02

    def test_generator_accumulator_constant_oracle(self, run):
        gen = np.zeros(2**2)
        gen[0] = -0.9
        out = run(
            master_seed=3,
            n_samples=50,
            sig_sqrt=np.eye(2),
            diag=np.ones(2),
            dt=0.01 / 32,
            epsilon=0.01,
            gen_coeffs=gen,
            store=False,
        )
        npt.assert_allclose(out["accumulator"], -0.9 * out["tau"], rtol=1e-12)

    @pytest.mark.parametrize("bridge", [False, True], ids=["grid", "bridge"])
    def test_x_raw_is_the_pre_clamp_endpoint(self, run, bridge):
        eps = 0.25
        kw = dict(
            master_seed=4,
            n_samples=2000,
            sig_sqrt=np.eye(2),
            diag=np.ones(2),
            dt=eps / 8,
            epsilon=eps,
            bridge=bridge,
            store=True,
        )
        assert run(**kw)["x_raw"] is None
        out = run(gen_coeffs=np.array([0.0, 0.0, 0.0, 1.0]), **kw)
        x, raw = out["x_tau"], out["x_raw"]
        # the draws do not depend on the accumulator
        npt.assert_array_equal(x, run(**kw)["x_tau"])
        # rows with no coordinate clipped or put on the barrier are unchanged
        untouched = (np.abs(x) < 0.5).all(axis=1)
        assert untouched.any() and (~untouched).any()
        npt.assert_array_equal(raw[untouched], x[untouched])
        outside = np.abs(raw) > 0.5
        npt.assert_array_equal(x[outside], np.sign(raw[outside]) * 0.5)
        if bridge:
            # a bridge-crossed coordinate stays inside on the grid
            placed = (np.abs(x) == 0.5) & ~outside
            assert placed.any()
            assert (np.abs(raw[placed]) < 0.5).all()
        else:
            npt.assert_array_equal(x, np.clip(raw, -0.5, 0.5))



def test_stored_batch_is_held_once():
    # each stream block writes its rows of the batch record in place, so a
    # stored batch peaks near its own size plus one block's working set
    n = 64
    eps = 1.0 / (8.0 * np.log(2 * n))
    tracemalloc.start()
    try:
        out = K.run_paths_structured_numpy(3, 8192, n, eps / 16, eps, store=True, want_phi=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = sum(v.nbytes for v in out.values() if v is not None)
    assert peak <= 1.5 * held


def test_grid_working_set_fits_the_capacity_count(monkeypatch):
    # the capacity check counts a grid block's working set as 4x its state;
    # the two buffers of normals drawn ahead take one state's size of it
    monkeypatch.setattr(K, "_cpus", lambda: 2)
    n = 256
    eps = 1.0 / (8.0 * np.log(2 * n))
    tracemalloc.start()
    try:
        K.run_paths_structured_numpy(4, K.STREAM_BLOCK, n, eps / 4, eps, store=False, want_phi=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * K.STREAM_BLOCK * 2 * n * 8


def one_step_dim64_peak(dt, bridge):
    """Traced peak, in states, of one step of 2048 dense dim-64 paths, and
    the run's record; the state is 64 x 2048 float64 (1 MiB)."""
    dim, paths = 64, 2048
    # numpy loads numpy.random on first use; a first run in a fresh process
    # would trace the import's allocations (0.7 states) as the step's
    import numpy.random  # noqa: F401

    tracemalloc.start()
    try:
        out = K.run_paths_dense_numpy(3, paths, np.eye(dim), np.ones(dim), dt, dt, bridge=bridge, store=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (8 * dim * paths), out


@pytest.mark.parametrize("bridge, states", [(False, 3.2), (True, 7.2)], ids=["grid", "bridge"])
def test_a_step_where_every_path_exits_holds_no_copy_of_the_exits(bridge, states):
    # finalize gathers the exiting rows into the spare buffer and the bridge
    # test takes its candidates in blocks: the grid run peaked at 4.11
    # states and the bridge run at 9.25 with a fresh copy of the exiting
    # rows and every candidate's temporaries at once; the state, the spare
    # and the dense mixer's product alone are 3
    peak, out = one_step_dim64_peak(1.0, bridge)
    assert out["exited"].all()
    assert peak <= states


def test_a_structured_step_where_every_column_is_flagged_copies_no_state():
    # 2048 paths at n = 32 all exit in one step of dt = 4, so the certified
    # exit test sends every column to the butterflies, a block of tops at a
    # time through the spare buffer, before finalize takes the exits' rows.
    # Both routes peaked at 2.55 states (64 x 2048 float64, 1 MiB); a copy
    # of the flagged columns would add one
    n, paths, dt = 32, 2048, 4.0
    import numpy.random  # noqa: F401  (loaded on first use: see one_step_dim64_peak)

    tracemalloc.start()
    try:
        out = K.run_paths_structured_numpy(3, paths, n, dt, dt, store=False, want_phi=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out["exited"].all()
    assert peak <= K.working_set_bytes(paths, 2 * n, n, dt, dt, False)
    assert peak <= 2.8 * 8 * 2 * n * paths


@pytest.mark.parametrize("dt", [0.01, 0.03, 0.25])
def test_one_step_bridge_runs_fit_the_capacity_count(dt):
    # most coordinates are bridge candidates; the candidate temporaries once
    # took these runs to 1.25-1.70x the working set the capacity rule counts
    peak, _ = one_step_dim64_peak(dt, True)
    assert peak * 8 * 64 * 2048 <= K.working_set_bytes(2048, 64, 64, dt, dt, True)


def test_digests_hold_with_small_candidate_and_gather_blocks(monkeypatch):
    # blocks of 3 bridge candidates and of one finalize row
    monkeypatch.setattr(K, "_CANDIDATE_BLOCK", 3)
    monkeypatch.setattr(K, "_GATHER_BLOCK", 1)
    for case in STRUCTURED_DIGESTS:
        test_structured_numpy_outputs_match_pinned_digests(case)
    for case in DENSE_DIGESTS:
        test_dense_numpy_outputs_match_pinned_digests(case)


def test_generator_fills_a_partial_last_block():
    # three streams stepped in lockstep as one group, the last serving 52
    # paths or one (a one-row matmul takes another BLAS route); each block
    # run alone, on its own arrays with its own mixer, must give the
    # batch's rows
    cov = equicorrelated_covariance(2, 0.5)
    gen = np.array([0.1, -0.3, 0.2, 0.5])
    eps = 0.25
    step = (eps / 64, eps, True, gen)
    for paths in (2100, 2049):
        out = K.run_paths_dense_numpy(31, paths, cov.sqrt_matrix, np.ones(2), *step[:2], bridge=True, gen_coeffs=gen)
        parts = []
        for child, count in zip(K.stream_seeds(31, 3), (1024, 1024, paths - 2048)):
            block = {
                "tau": np.full(count, eps),
                "exited": np.zeros(count, dtype=bool),
                "x_tau": np.empty((count, 2)),
                "phi": None,
                "phi_raw": None,
                "accumulator": np.empty(count),
                "x_raw": np.empty((count, 2)),
            }
            rngs = [np.random.default_rng(child)]
            K._paths_block_np(rngs, block, K._dense_mixer(cov.sqrt_matrix), *step)
            parts.append(block)
        assert 0 < parts[0]["exited"].sum() < 1024
        for key in ("x_tau", "tau", "exited", "accumulator", "x_raw"):
            npt.assert_array_equal(out[key], np.concatenate([p[key] for p in parts]))


def full_bridge_masks(r, prev, new, h):
    """The bridge test with exp over every entry, as a reference."""
    a = 0.5
    with np.errstate(over="ignore", invalid="ignore"):
        p_up = np.exp(-2.0 * (a - prev) * (a - new) / h)
        p_dn = np.exp(-2.0 * (a + prev) * (a + new) / h)
        p = p_up + p_dn - p_up * p_dn
    crossed = (np.abs(new) <= a) & (r < p)
    up = crossed & (r < p_up)
    return up, crossed & ~up


def test_bridge_candidates_give_the_full_array_masks():
    rng = np.random.default_rng(8)
    dim, live, h = 6, 4000, 1e-3
    near = 0.5 - np.sqrt(20.0 * h)
    prev = rng.uniform(-0.5, 0.5, (dim, live))
    new = prev + np.sqrt(h) * rng.standard_normal((dim, live))
    r = rng.random((dim, live))
    # on the candidate threshold, on the barrier, far outside (where the
    # full formula overflows), and uniforms of exactly 0 inside and out
    prev[0, :40], new[0, :40] = near, -near
    prev[1, :40], new[1, :40] = -0.5, 0.5
    new[2, :40] = 30.0 * (-1.0) ** np.arange(40)
    prev[2, :40] = 0.4 * np.sign(new[2, :40])
    r[3, :80:2] = 0.0
    new[3, 1:80:2] = 0.7
    r[3, 1:80:2] = 0.0
    prev[4, :40] = 0.0
    new[4, :40] = 0.0
    r[4, :40] = 0.0
    # just inside the candidate band, with uniforms below their crossing
    # probability: a narrower band would miss these crossings
    prev[5, :40] = new[5, :40] = 0.5 - 0.95 * (0.5 - near)
    r[5, :40] = 0.5 * np.exp(-2.0 * (0.5 - prev[5, :40]) ** 2 / h)
    with np.errstate(over="raise"):
        i, j, up = K._bridge_crossings_np(r, prev, new, h, np.empty_like(new))
    got = np.zeros((2, dim, live), dtype=bool)
    got[np.where(up, 0, 1), i, j] = True
    want = full_bridge_masks(r, prev, new, h)
    with np.errstate(over="ignore"):
        assert np.isinf(np.exp(-2.0 * (0.5 + prev[2]) * (0.5 + new[2]) / h)).any()
    assert want[0].any() and want[1].any() and want[0][3].any() | want[1][3].any()
    assert want[0][5, :40].all()
    for g, w in zip(got, want):
        npt.assert_array_equal(g, w)


def test_bridge_candidates_in_small_blocks_give_the_full_array_masks(monkeypatch):
    monkeypatch.setattr(K, "_CANDIDATE_BLOCK", 7)
    test_bridge_candidates_give_the_full_array_masks()


@pytest.mark.parametrize("dim, live", [(1, 2048), (3, 1025)])
@pytest.mark.parametrize("block", [1, 7])
def test_flat_bridge_candidates_give_the_full_array_masks(monkeypatch, dim, live, block):
    # the sampler's uniforms are the transpose of a C-ordered (live, dim)
    # buffer; candidates are split into (i, j) from one flat index a block
    # at a time, down to blocks of one
    monkeypatch.setattr(K, "_CANDIDATE_BLOCK", block)
    rng = np.random.default_rng([dim, live])
    h = 1e-2
    prev = rng.uniform(-0.5, 0.5, (dim, live))
    new = prev + np.sqrt(h) * rng.standard_normal((dim, live))
    r = rng.random((live, dim))
    r[::97] = 0.0
    i, j, up = K._bridge_crossings_np(r.T, prev, new, h, np.empty_like(new))
    got = np.zeros((2, dim, live), dtype=bool)
    got[np.where(up, 0, 1), i, j] = True
    want = full_bridge_masks(r.T, prev, new, h)
    assert want[0].any() and want[1].any()
    for g, w in zip(got, want):
        npt.assert_array_equal(g, w)
    # row-major (i, j) order, as a 2-D nonzero of the crossings gives
    assert np.all(np.diff(i * live + j) > 0)


def unrecorded_cases():
    """Per case: the kernel, its arguments, and the keywords of its recorded run."""
    cov3 = equicorrelated_covariance(3, 0.2)
    dense = K.run_paths_dense_numpy
    return {
        "dense-d1-bridge": (dense, (5, 2100, np.eye(1), np.ones(1), 0.25 / 64, 0.25, True), {}),
        "dense-d3-grid": (dense, (6, 1500, cov3.sqrt_matrix, np.ones(3), 0.05 / 64, 0.05), {}),
        "structured-n4-bridge": (K.run_paths_structured_numpy, (7, 1100, 4, 0.09 / 64, 0.09, True),
                                 dict(want_phi=True)),
    }


@pytest.mark.parametrize("case", list(unrecorded_cases()))
def test_unrecorded_runs_give_the_recorded_stops(case):
    # a run that records no endpoint, phi or accumulator skips finalize; its
    # stops and streams are those of the recorded run
    kernel, args, recording = unrecorded_cases()[case]
    recorded = kernel(*args, store=True, **recording)
    unrecorded = kernel(*args, store=False)
    assert 0 < recorded["exited"].sum() < recorded["exited"].size
    for key in ("tau", "exited", "stream_ids"):
        assert recorded[key].dtype == unrecorded[key].dtype
        assert recorded[key].tobytes() == unrecorded[key].tobytes(), key
    assert unrecorded["x_tau"] is None


def test_unrecorded_bridge_run_clamps_nothing(monkeypatch):
    clip, calls = np.clip, []

    def counted(*args, **kwargs):
        calls.append(1)
        return clip(*args, **kwargs)

    monkeypatch.setattr(np, "clip", counted)
    kernel, args, _ = unrecorded_cases()["dense-d1-bridge"]
    kernel(*args, store=False)
    assert not calls
    kernel(*args, store=True)
    assert calls


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 64])
def test_dense_increment_is_the_row_product(dim):
    # every row's increment is its row of g @ sig_sqrt.T; the last row, alone
    # in its stream block, is the one-row product.  At h = 1 the scale is
    # exact and the state starts at zero, so the state is the increment
    live = K.STREAM_BLOCK + 1
    rng = np.random.default_rng(dim)
    sig_sqrt = rng.standard_normal((dim, dim))
    g = rng.standard_normal((live, dim))
    st = np.zeros((dim, live))
    K._dense_mixer(sig_sqrt)(g.copy(), st, 1.0, (live - 1,))
    want = g @ sig_sqrt.T
    want[-1:] = g[-1:] @ sig_sqrt.T
    assert st.tobytes() == np.ascontiguousarray(want.T).tobytes()


def test_benchmark_probe_calls_keep_their_signatures():
    # the benchmark's probes call these wrappers with exactly these arguments
    # and read tau; the benchmark's own tests are outside this suite, so a
    # signature change would otherwise surface only as a failed benchmark run
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(4, 64))
    K.wht_batch_numpy(rows)
    coeffs, points = rng.normal(size=2**4), rng.uniform(-0.5, 0.5, size=(8, 4))
    assert K.eval_multilinear_batch_numpy(coeffs, points).shape == (8,)
    eps = 1.0 / (8.0 * np.log(128))
    fields = {field.name for field in dataclasses.fields(K.StoppedBatch)}
    out = K.run_paths_structured_numpy(1, 64, 64, eps / 4, eps, store=False, want_phi=True)
    assert out["tau"].shape == (64,)
    assert set(out) == fields
    sig = equicorrelated_covariance(4, 0.2).sqrt_matrix
    for sig_sqrt, k, bridge in ((np.eye(1), 1, True), (sig, 4, False)):
        out = K.run_paths_dense_numpy(1, 64, sig_sqrt, np.ones(k), 0.5 / 64, 0.5, bridge=bridge, store=False)
        assert out["tau"].shape == (64,)
        assert set(out) == fields


def wrapper_request(family, n_samples, store, phi, gen):
    """One wrapper call at dim 2 (structured n = 1, or dense gamma 0.5), eps 0.05, dt eps/8."""
    table = np.arange(4.0) if gen else None
    kw = dict(gen_coeffs=table, store=store)
    if family == "structured":
        return K.run_paths_structured_numpy(5, n_samples, 1, 0.05 / 8, 0.05, want_phi=phi, **kw)
    sig_sqrt = equicorrelated_covariance(2, 0.5).sqrt_matrix
    return K.run_paths_dense_numpy(5, n_samples, sig_sqrt, np.ones(2), 0.05 / 8, 0.05, **kw)


@pytest.mark.parametrize("family", ["structured", "dense"])
def test_wrappers_refuse_over_capacity_before_any_draw(monkeypatch, family):
    # the wrappers enter the kernel as the sampler does, so the capacity rule
    # bounds them too: 2^20 paths would allocate 8 MiB of tau alone
    def no_draws(*args, **kwargs):
        raise AssertionError("the kernel drew before the capacity check")

    monkeypatch.setattr(K, "stream_seeds", no_draws)
    monkeypatch.setattr(K, "STORED_PATHS_BYTE_LIMIT", 2**20)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="over the 1048576 byte limit"):
            wrapper_request(family, 2**20, store=True, phi=False, gen=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16


# (family, store, phi, generator table): the dense family has no phi
BATCH_REQUESTS = [
    (family, store, phi, gen)
    for family in ("structured", "dense")
    for store in (False, True)
    for phi in ((False, True) if family == "structured" else (False,))
    for gen in (False, True)
]


@pytest.mark.parametrize("family, store, phi, gen", BATCH_REQUESTS)
def test_refused_output_bytes_are_the_returned_batch_bytes(monkeypatch, family, store, phi, gen):
    # the rule counts the batch before allocating it: a field the kernel
    # returns without its bytes in the count fails here.  1500 paths span
    # two stream blocks
    with monkeypatch.context() as patch:
        patch.setattr(K, "STORED_PATHS_BYTE_LIMIT", 0)
        with pytest.raises(CapacityError) as refused:
            wrapper_request(family, 1500, store, phi, gen)
    out = wrapper_request(family, 1500, store, phi, gen)
    held = sum(a.nbytes for a in out.values() if a is not None)
    assert f"1500 paths of dim 2 hold {held} bytes of output" in str(refused.value)


@pytest.mark.parametrize("diag", [[1.0, 2.0], [1.0, np.nan], [1.0 + 1e-13, 1.0]])
def test_dense_wrapper_refuses_non_unit_variance_rates(diag):
    # the samplers take every variance rate as 1; the wrapper's diag only
    # keeps the benchmark's positional calls working
    with pytest.raises(ValueError, match="variance rate"):
        K.run_paths_dense_numpy(1, 8, np.eye(2), np.array(diag), 0.01, 0.1)
