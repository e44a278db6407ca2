"""Tests for the half-correlation statistic and the acceptance circuit."""

import hashlib
import math
import threading
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import forrlab.diffusion as diff
import forrlab.forrelation as forr
from forrlab import _kernels
from forrlab.errors import CapacityError
from forrlab.report import PASS


def phi_double_sum(x, y):
    """O(n^2) oracle: (1/n) sum_ij x_i H_ij y_j with explicit sign matrix."""
    n = len(x)
    idx = np.arange(n)
    signs = 1.0 - 2.0 * (np.bitwise_count(idx[:, None] & idx[None, :]) % 2)
    h = signs / math.sqrt(n)
    return float(np.asarray(x) @ h @ np.asarray(y)) / n


def random_signs(rng, n):
    return rng.choice((-1.0, 1.0), size=n)


class TestPhi:
    def test_smallest_instance(self):
        assert forr.phi([1.0], [1.0]) == 1.0

    def test_all_ones(self):
        assert forr.phi(np.ones(16), np.ones(16)) == pytest.approx(0.25, abs=1e-14)

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(42)
        x = random_signs(rng, 256)
        y = random_signs(rng, 256)
        assert abs(forr.phi(x, y) - phi_double_sum(x, y)) < 1e-10

    def test_bilinear(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, size=32)
        y = rng.uniform(-1, 1, size=32)
        x2 = rng.uniform(-1, 1, size=32)
        assert forr.phi(0.37 * x, y) == pytest.approx(0.37 * forr.phi(x, y), abs=1e-12)
        assert forr.phi(x + x2, y) == pytest.approx(
            forr.phi(x, y) + forr.phi(x2, y), abs=1e-12
        )

    def test_bounded_on_cube_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(-1, 1, size=64)
            y = rng.uniform(-1, 1, size=64)
            assert abs(forr.phi(x, y)) <= 1.0 + 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            forr.phi([1.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            forr.phi([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            forr.phi([np.inf, 1.0], [1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["xs", "ys"])
    def test_batch_refuses_non_finite_inputs_as_phi_does(self, bad, side):
        # phi_batch returned nan or inf for such a row, where phi raises
        rows = {"xs": np.ones((2, 2)), "ys": np.ones((2, 2))}
        rows[side][1, 0] = bad
        with pytest.raises(ValueError, match="must be finite"):
            forr.phi(rows["xs"][1], rows["ys"][1])
        with pytest.raises(ValueError, match="xs and ys must be finite"):
            forr.phi_batch(rows["xs"], rows["ys"])

    def test_batch_matches_single_and_keeps_input(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-1, 1, size=(9, 8))
        ys = rng.uniform(-1, 1, size=(9, 8))
        ys_before = ys.copy()
        got = forr.phi_batch(xs, ys)
        npt.assert_array_equal(ys, ys_before)
        want = [forr.phi(xs[k], ys[k]) for k in range(9)]
        npt.assert_allclose(got, want, atol=1e-13)


# (m, n) shapes of the phi_batch digest: a lone long row, a few long rows
# (5 of 2^14, 3 of 2^15), the sampler's short rows and one chunk of the
# uniform null
PHI_SHAPES = [(1, 2**14), (5, 2**14), (3, 2**15), (1024, 64), (4096, 1024)]

# sha256 of phi_batch on seeded real and sign inputs at PHI_SHAPES, pinned
# from the route that transforms a copy of the whole y batch and takes one
# einsum over all rows.  A rewrite must not move a bit: a one-row einsum can
# differ in the last bit from the same row in a taller one (n > 8192), so a
# row-blocked route must never leave a block of one row
PHI_BATCH_DIGEST = "580a765f60a0c078bf55b1bcc17303aeb885644b06e6f6aa9208a6f4887fe131"


def test_phi_batch_matches_pinned_digest():
    h = hashlib.sha256()
    for m, n in PHI_SHAPES:
        rng = np.random.default_rng([m, n])
        for kind in ("real", "sign"):
            if kind == "real":
                xs, ys = rng.standard_normal((m, n)), rng.standard_normal((m, n))
            else:
                xs, ys = rng.choice((-1.0, 1.0), size=(m, n)), rng.choice((-1.0, 1.0), size=(m, n))
            h.update(forr.phi_batch(xs, ys).tobytes())
    assert h.hexdigest() == PHI_BATCH_DIGEST


def _sign_rows_cases():
    # the sign inputs of the PHI_BATCH_DIGEST test, drawn after its real
    # inputs, rows of length 1 and 2, and mostly-constant rows, whose
    # transform intermediates come near n (uniform signs stay near sqrt(n))
    for m, n in PHI_SHAPES:
        rng = np.random.default_rng([m, n])
        rng.standard_normal((2, m, n))
        yield rng.choice((-1.0, 1.0), size=(m, n)), rng.choice((-1.0, 1.0), size=(m, n))
    for n in (1, 2):
        rng = np.random.default_rng(n)
        yield rng.choice((-1.0, 1.0), size=(9, n)), rng.choice((-1.0, 1.0), size=(9, n))
    rng = np.random.default_rng(2**14)
    yield tuple(rng.choice((-1.0, 1.0), size=(4, 2**14), p=(0.05, 0.95)) for _ in range(2))


def test_sign_rows_equal_phi_batch_bit_for_bit():
    for xs, ys in _sign_rows_cases():
        want = forr.phi_batch(xs, ys).tobytes()
        assert _kernels._phi_rows(xs.astype(np.int8), ys.astype(np.int8)).tobytes() == want


def transform_dtypes(monkeypatch):
    """Record the dtype of every array wht_inplace_np transforms."""
    seen = []
    wht = _kernels.wht_inplace_np

    def recorded(a):
        seen.append(a.dtype)
        return wht(a)

    monkeypatch.setattr(_kernels, "wht_inplace_np", recorded)
    return seen


@pytest.mark.parametrize(
    "rows, want",
    [(np.int8, []), (np.int16, []), (np.int64, []), (np.float64, [np.float64]), (np.float32, [np.float64])],
)
def test_phi_rows_route(rows, want, monkeypatch):
    # integer +-1 rows transform by BLAS and never reach the butterflies;
    # float rows go through them in float64
    seen = transform_dtypes(monkeypatch)
    xs, ys = np.random.default_rng(4).choice((-1, 1), size=(2, 5, 64)).astype(rows)
    _kernels._phi_rows(xs, ys)
    assert seen == want


def test_sign_rows_float64_route_equals_phi_batch(monkeypatch):
    # rows longer than _FLOAT32_EXACT transform and dot in float64; lower the cut to reach it
    monkeypatch.setattr(_kernels, "_FLOAT32_EXACT", 1)
    rng = np.random.default_rng(11)
    xs, ys = rng.choice((-1.0, 1.0), size=(2, 33, 64))
    want = forr.phi_batch(xs, ys).tobytes()
    seen = transform_dtypes(monkeypatch)
    y8 = ys.astype(np.int8)
    assert _kernels._phi_rows(xs.astype(np.int8), y8).tobytes() == want
    assert seen == []
    assert (y8 == ys).all()


@pytest.mark.parametrize("n", [2**14, 2**16, 2**17])
def test_sign_rows_hold_magnitude_n(n, monkeypatch):
    # blocks of four rows (2^14) and of one row, the longest float32 rows
    # (2^16) and the shortest float64 ones: constant rows put +-n itself in
    # the transform and +-n^1.5 in the dot, random rows stay near sqrt(n)
    rng = np.random.default_rng(n)
    const = np.repeat([[1.0], [-1.0]], n, axis=1)
    xs = np.concatenate([const, const, rng.choice((-1.0, 1.0), size=(2, n))])
    ys = np.concatenate([const, const[::-1], rng.choice((-1.0, 1.0), size=(2, n))])
    want = forr.phi_batch(xs, ys).tobytes()
    seen = transform_dtypes(monkeypatch)
    assert _kernels._phi_rows(xs.astype(np.int8), ys.astype(np.int8)).tobytes() == want
    assert seen == []


def test_uniform_null_never_reaches_the_butterflies(monkeypatch):
    seen = transform_dtypes(monkeypatch)
    forr.uniform_phi_null(64, 5000, np.random.default_rng(0))
    assert seen == []


class TestAcceptProbability:
    def test_smallest_instance(self):
        assert forr.accept_probability([1.0], [1.0]) == 1.0

    def test_orthogonal_pair_gives_fair_coin(self):
        x = [1.0, 1.0, -1.0, 1.0]
        y = [1.0, 1.0, 1.0, -1.0]
        assert forr.phi(x, y) == 0.0
        assert forr.accept_probability(x, y) == 0.5

    def test_matches_amplitude_law(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            x = random_signs(rng, 16)
            y = random_signs(rng, 16)
            want = (1.0 + forr.statevector_amplitude(x, y)) / 2.0
            assert forr.accept_probability(x, y) == pytest.approx(want, abs=1e-12)

    def test_rejects_non_sign_entries(self):
        with pytest.raises(ValueError):
            forr.accept_probability([0.5, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            forr.accept_probability([1.0, 1.0], [0.0, 1.0])


class TestSampleAcceptance:
    def test_matches_exact_law(self):
        rng = np.random.default_rng(42)
        x = [1.0, 1.0, 1.0, 1.0]
        y = [1.0, 1.0, 1.0, 1.0]
        p = forr.accept_probability(x, y)
        est = forr.sample_acceptance(x, y, 100_000, rng)
        assert abs(est.value - p) <= 4.0 * est.se + 1e-12

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            forr.sample_acceptance([1.0], [1.0], 0, np.random.default_rng(0))

    def test_oversized_shots_refused_before_drawing(self):
        # 2e11 shots would draw 1.8 TB at once
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(CapacityError, match="byte limit"):
            forr.sample_acceptance([1.0, 1.0], [1.0, -1.0], 200_000_000_000, rng)
        assert rng.bit_generator.state == state


class TestStatevectorAmplitude:
    def test_identity_phases_give_inverse_sqrt(self):
        for n in (2, 4, 16):
            got = forr.statevector_amplitude(np.ones(n), np.ones(n))
            assert got == pytest.approx(1.0 / math.sqrt(n), abs=1e-13)

    def test_smallest_instance(self):
        assert forr.statevector_amplitude([1.0], [1.0]) == 1.0

    def test_two_qubit_instance(self):
        x = [1.0, -1.0]
        y = [1.0, 1.0]
        assert forr.statevector_amplitude(x, y) == pytest.approx(forr.phi(x, y), abs=1e-15)

    def test_random_instances_match_phi(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            x = random_signs(rng, 1024)
            y = random_signs(rng, 1024)
            worst = max(worst, abs(forr.statevector_amplitude(x, y) - forr.phi(x, y)))
        assert worst < 1e-12

    def test_capacity_guard(self):
        n = 2**21
        with pytest.raises(CapacityError):
            forr.statevector_amplitude(np.ones(n), np.ones(n))

    def test_rejects_non_sign_entries(self):
        with pytest.raises(ValueError):
            forr.statevector_amplitude([0.5, 1.0], [1.0, 1.0])


class TestUniformNull:
    def test_zero_within_noise(self):
        est = forr.uniform_phi_null(16, 2000, np.random.default_rng(42))
        assert est.se > 0.0
        assert abs(est.value) <= 4.0 * est.se

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValueError):
            forr.uniform_phi_null(16, 1, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [12, 0, -4])
    def test_rejects_bad_arguments_before_drawing(self, n):
        # a bad n was once refused after a draw
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="must be"):
            forr.uniform_phi_null(n, 100, rng)
        assert rng.bit_generator.state == state

    def test_oversized_chunk_refused_before_drawing(self):
        # 4096 rows of 2^22 signs for x and for y: 128 GiB a chunk
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(CapacityError, match="byte limit"):
            forr.uniform_phi_null(2**22, 4096, rng)
        assert rng.bit_generator.state == state

    @staticmethod
    def traced_peak_of_long_rows():
        forr.uniform_phi_null(1024, 4096, np.random.default_rng(0))
        tracemalloc.start()
        try:
            forr.uniform_phi_null(1024, 4096, np.random.default_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_chunk_of_long_rows_peaks_under_16_mib(self):
        # one (4096, 1024) chunk holds x as int8, 4 MiB, and one 64-row
        # block of y, 64 KiB
        assert self.traced_peak_of_long_rows() < 16 * 2**20

    def test_chunk_of_long_rows_draws_y_a_block_at_a_time(self):
        # x's chunk, one block of y and the two float32 transform blocks
        # (512 KiB) peaked at 4.6 MiB; all of y drawn at once took it to 8.6
        assert self.traced_peak_of_long_rows() < 6 * 2**20

    def test_choice_stream_is_integers_stream(self):
        # the null draws rng.integers(0, 2, dtype=np.int32) for the signs
        # rng.choice((-1.0, 1.0)) gives; a numpy that changes choice's
        # stream, or int32's against int64's, fails here
        for dtype in (np.int64, np.int32):
            for size in ((1,), (1, 1), (5,), (7, 3), (64, 1024)):
                a, b = np.random.default_rng(size), np.random.default_rng(size)
                signs = a.choice((-1.0, 1.0), size=size)
                npt.assert_array_equal(signs, 2 * b.integers(0, 2, size, dtype=dtype) - 1)
                assert a.bit_generator.state == b.bit_generator.state


# (n, samples, chunk) of the uniform-null digest: one-entry and two-entry
# rows, n = 64, many chunks with a partial last one, a chunk and one row at
# n = 1024, and three long rows
UNIFORM_NULL_CASES = [
    (1, 50, 4096), (2, 100, 4096), (64, 1024, 4096), (16, 2000, 7), (1024, 4097, 4096), (2**14, 3, 4096)
]

# sha256 of each case's (value, se) and two draws after the call (so the
# stream it consumed), pinned from the route that drew rng.choice((-1.0,
# 1.0)) rows and took phi_batch in float64
UNIFORM_NULL_DIGEST = "2cd5a40f2fcd30658955f082bfc3cb37d6373096c14350788da82c2af533a780"


def test_uniform_null_matches_pinned_digest(monkeypatch):
    h = hashlib.sha256()
    for n, samples, chunk in UNIFORM_NULL_CASES:
        monkeypatch.setattr(forr, "_NULL_CHUNK", chunk)
        rng = np.random.default_rng([n, samples, chunk])
        est = forr.uniform_phi_null(n, samples, rng)
        h.update(np.array([est.value, est.se]).tobytes())
        h.update(rng.integers(0, 2**63, size=2).tobytes())
    assert h.hexdigest() == UNIFORM_NULL_DIGEST


class TestAdvantageExperiment:
    def _run(self, include_rounded=False):
        cov = diff.build_sigma(4)
        cfg = diff.default_sampler_config(8, seed=42)
        return cov, cfg, forr.advantage_experiment(cov, cfg, 4000, include_rounded=include_rounded)

    def test_pinned_payload_and_verdict(self):
        _, cfg, rep = self._run()
        for key in (
            "n",
            "N",
            "epsilon",
            "dt",
            "mean_phi",
            "se_phi",
            "mean_tau",
            "se_tau",
            "bound_eps_over_4",
            "pass",
        ):
            assert key in rep.payload
        assert rep.payload["bound_eps_over_4"] == pytest.approx(cfg.epsilon / 4.0)
        assert rep.verdict == PASS
        assert rep.payload["pass"] is True

    def test_mean_phi_tracks_mean_tau(self):
        _, _, rep = self._run()
        se = math.sqrt(rep.payload["se_phi"] ** 2 + rep.payload["se_tau"] ** 2)
        assert abs(rep.payload["mean_phi"] - rep.payload["mean_tau"]) <= 4.0 * se

    def test_null_estimate_is_centered(self):
        _, _, rep = self._run()
        assert abs(rep.payload["mean_phi_uniform"]) <= 4.0 * rep.payload["se_phi_uniform"]

    def test_rounding_preserves_mean_phi(self):
        _, _, rep = self._run(include_rounded=True)
        se = math.sqrt(rep.payload["se_phi"] ** 2 + rep.payload["se_phi_rounded"] ** 2)
        assert abs(rep.payload["mean_phi"] - rep.payload["mean_phi_rounded"]) <= 4.0 * se

    def test_accepts_precomputed_batch(self):
        cov = diff.build_sigma(4)
        cfg = diff.default_sampler_config(8, seed=42)
        batch = diff.sample_stopped_paths(cov, cfg, 3000, store_paths=False, want_phi=True)
        rep = forr.advantage_experiment(cov, cfg, 999, paths=batch)
        assert rep.samples == 3000
        assert rep.payload["mean_phi"] == pytest.approx(float(batch.phi.mean()), rel=1e-12)

    def test_rejects_dense_covariance(self):
        cov = diff.equicorrelated_covariance(4, 0.2)
        cfg = diff.default_sampler_config(4, seed=1)
        with pytest.raises(ValueError):
            forr.advantage_experiment(cov, cfg, 10)

    def test_rejects_batch_without_phi(self):
        cov = diff.build_sigma(4)
        cfg = diff.default_sampler_config(8, seed=42)
        batch = diff.sample_stopped_paths(cov, cfg, 100, store_paths=False)
        with pytest.raises(ValueError):
            forr.advantage_experiment(cov, cfg, 100, paths=batch)

    def test_rounding_without_endpoints_is_refused_before_the_null(self, monkeypatch):
        # the null transforms a uniform pair per sample: refuse before it
        def no_null(*args, **kwargs):
            raise AssertionError("the uniform null ran before the endpoints check")

        cov = diff.build_sigma(4)
        cfg = diff.default_sampler_config(8, seed=42)
        batch = diff.sample_stopped_paths(cov, cfg, 100, store_paths=False, want_phi=True)
        monkeypatch.setattr(forr, "uniform_phi_null", no_null)
        with pytest.raises(ValueError, match="stored endpoints"):
            forr.advantage_experiment(cov, cfg, 100, include_rounded=True, paths=batch)


BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64, np.random.MT19937]


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
@pytest.mark.parametrize("buffered", [False, True], ids=["whole", "half-word"])
@pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (7, 3), (5, 10000), (64, 1024), (3, 2**16 + 1)])
def test_uniform_signs_from_the_draws_bits(bit_generator, buffered, m, n):
    # the +-1 rows read from raw words (blocks of 2^16 signs: one partial at
    # (5, 10000), about one whole at (64, 1024), two whole and a partial
    # third at (3, 2^16 + 1)), odd counts, one sign, a generator holding
    # half a word, against 2b - 1 of one whole int32 draw: the same values
    # and the same state, buffered half-word included.  MT19937 buffers no
    # half-word and draws every sign by integers
    a, b = np.random.Generator(bit_generator(m * n)), np.random.Generator(bit_generator(m * n))
    if buffered:
        a.integers(0, 2, dtype=np.int32)
        b.integers(0, 2, dtype=np.int32)
    want = 2 * b.integers(0, 2, size=(m, n), dtype=np.int32) - 1
    got = forr._uniform_signs(a, m, n)
    assert got.dtype == np.int8 and got.flags.c_contiguous
    npt.assert_array_equal(got, want)
    npt.assert_equal(a.bit_generator.state, b.bit_generator.state)


def test_digests_hold_with_a_second_cpu(monkeypatch):
    # the null, phi and the +-1 row route give the same bits whatever the
    # CPU count
    monkeypatch.setattr(_kernels, "_cpus", lambda: 2)
    test_uniform_null_matches_pinned_digest(monkeypatch)
    test_phi_batch_matches_pinned_digest()
    test_sign_rows_equal_phi_batch_bit_for_bit()


def test_uniform_null_is_inline_on_one_cpu(monkeypatch):
    # the digest on the caller alone, even for the (4096, 1024) chunk: any
    # thread the null started would raise here
    def no_thread(*args, **kwargs):
        raise AssertionError("the uniform null started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    test_uniform_null_matches_pinned_digest(monkeypatch)
