"""Kernel-level tests: transform oracles, pinned digests, path invariants."""

import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from forrlab import _kernels as K
from forrlab.diffusion import equicorrelated_covariance
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
        got = K.wht_batch_numpy(a.copy())
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
        want = K.wht_inplace_np(st[:n].T.copy()).T * (1.0 / np.sqrt(n))
        npt.assert_array_equal(st[n:], want)


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
    """Record every _NormalsAhead the kernels make; with ``size``, every
    one-stream grid group draws ahead, in buffers of ``size`` normals."""
    made = []

    class Ahead(K._NormalsAhead):
        def __init__(self, rng, step):
            super().__init__(rng, step if size is None else size)
            made.append(self)

    monkeypatch.setattr(K, "_NormalsAhead", Ahead)
    monkeypatch.setattr(K, "_cpus", lambda: 2)
    if size is not None:
        monkeypatch.setattr(K, "_AHEAD_MIN", 1)
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
    ahead = K._NormalsAhead(np.random.default_rng(seed), size)
    got = [np.empty(k) for k in requests] + [np.empty((3, 4))]
    try:
        for out in got:
            ahead.fill(out)
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
    # each case is one group; a group of two streams draws inline
    assert len(made) == (case[2] <= K.STREAM_BLOCK)
    assert_workers_ended(made)


def test_two_group_digests_hold_with_small_ahead_buffers(monkeypatch):
    # the second group holds one stream (952 paths) and draws ahead
    made = recorded_ahead(monkeypatch, size=1001)
    test_dense_groups_match_pinned_digests(monkeypatch)
    assert len(made) == 1
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


def test_generator_fills_a_partial_last_block():
    # three streams stepped in lockstep as one group, the last serving 52
    # paths or one (a one-row matmul takes another BLAS route); each block
    # run alone, on its own arrays with its own mixer, must give the
    # batch's rows
    cov = equicorrelated_covariance(2, 0.5)
    gen = np.array([0.1, -0.3, 0.2, 0.5])
    eps = 0.25
    step = (np.ones(2), eps / 64, eps, True, gen)
    for paths in (2100, 2049):
        out = K.run_paths_dense_numpy(31, paths, cov.sqrt_matrix, *step[:3], bridge=True, gen_coeffs=gen)
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


def full_bridge_masks(r, prev, new, hvar):
    """The bridge test with exp over every entry, as a reference."""
    a = 0.5
    with np.errstate(over="ignore", invalid="ignore"):
        p_up = np.exp(-2.0 * (a - prev) * (a - new) / hvar)
        p_dn = np.exp(-2.0 * (a + prev) * (a + new) / hvar)
        p = p_up + p_dn - p_up * p_dn
    crossed = (np.abs(new) <= a) & (r < p)
    up = crossed & (r < p_up)
    return up, crossed & ~up


@pytest.mark.parametrize("per_coordinate", [False, True], ids=["unit", "diag"])
def test_bridge_candidates_give_the_full_array_masks(per_coordinate):
    rng = np.random.default_rng(8)
    dim, live, h = 6, 4000, 1e-3
    diag = rng.uniform(0.2, 1.0, dim) if per_coordinate else np.ones(dim)
    hvar = np.broadcast_to(h * np.reshape(diag, (-1, 1)), (dim, live))
    near = 0.5 - np.sqrt(20.0 * h * np.max(diag))
    prev = rng.uniform(-0.5, 0.5, (dim, live))
    new = prev + np.sqrt(hvar) * rng.standard_normal((dim, live))
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
    r[5, :40] = 0.5 * np.exp(-2.0 * (0.5 - prev[5, :40]) ** 2 / hvar[5, :40])
    with np.errstate(over="raise"):
        i, j, up = K._bridge_crossings_np(r, prev, new, hvar[:, 0].copy(), np.empty_like(new))
    got = np.zeros((2, dim, live), dtype=bool)
    got[np.where(up, 0, 1), i, j] = True
    want = full_bridge_masks(r, prev, new, hvar)
    with np.errstate(over="ignore"):
        assert np.isinf(np.exp(-2.0 * (0.5 + prev[2]) * (0.5 + new[2]) / hvar[2])).any()
    assert want[0].any() and want[1].any() and want[0][3].any() | want[1][3].any()
    assert want[0][5, :40].all()
    for g, w in zip(got, want):
        npt.assert_array_equal(g, w)
