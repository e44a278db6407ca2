"""Tests for the identity and bound verifiers.

Oracles used here: finite differences (exact for multilinear functions),
an independent pair-loop generator construction, and closed forms for
degree-2 functions whose generator is constant (the generator integral is
then exactly gamma * tau on every path).
"""

import dataclasses
import hashlib
import io
import itertools
import tracemalloc

import numpy as np
import pytest

import forrlab.boolean_fourier as bf
import forrlab.diffusion as diff
import forrlab.forrelation as forr
import forrlab.verifier as ver
from forrlab.errors import CapacityError
from forrlab.report import FAIL, PASS

from conftest import expanded_enumeration
from oracles import enumeration_oracle, fd_derivative, restrict_loop_oracle


def restriction_rhs_oracle(f, x, pair):
    """E[d_pair f_rho(0)] by enumeration + finite differences on merged points."""
    dist = bf.RestrictionDistribution(x)
    zero = np.zeros(f.n_vars)
    total = 0.0
    for values, p in enumeration_oracle(dist.p_plus, dist.p_minus, dist.p_star):
        rho = bf.Restriction(values)
        total += p * fd_derivative(lambda z: f(rho.merge(z)), zero, pair, 1.0)
    return total


class TestRestrictionIdentity:
    def test_degree_one_function_is_exact(self):
        coeffs = np.zeros(8)
        coeffs[0b000] = 0.3
        coeffs[0b001] = 0.7
        coeffs[0b010] = -0.2
        f = bf.from_coeffs(3, coeffs)
        # every mixed derivative vanishes and so does every restricted pair
        # coefficient, so the residual is exactly zero
        assert ver.verify_restriction_identity(f, np.zeros(3)) == 0.0

    def test_pair_product_at_zero_by_hand(self):
        f = bf.from_coeffs(2, [0.0, 0.0, 0.0, 1.0])
        # d_01 f = 1 everywhere; a restriction keeps the pair coefficient only
        # when both variables stay free, which has probability 1/4 at anchor 0,
        # so 4 * E[d_01 f_rho(0)] = 4 * (1/4) = 1 and the residual vanishes
        assert ver.verify_restriction_identity(f, np.zeros(2)) < 1e-15
        assert restriction_rhs_oracle(f, np.zeros(2), (0, 1)) == pytest.approx(0.25)

    @pytest.mark.parametrize("n_vars", [3, 4])
    def test_random_functions_and_anchors(self, n_vars):
        rng = np.random.default_rng(500 + n_vars)
        for _ in range(5):
            f = bf.random_sign_function(n_vars, rng)
            x = rng.uniform(-0.5, 0.5, size=n_vars)
            assert ver.verify_restriction_identity(f, x) < 1e-9
            # independent confirmation of the identity itself on one pair
            pair = tuple(sorted(rng.choice(n_vars, size=2, replace=False)))
            lhs = bf.partial_derivative(f, pair, x)
            rhs = restriction_rhs_oracle(f, x, pair)
            assert abs(lhs - 4.0 * rhs) < 1e-9

    def test_anchor_validation(self):
        f = bf.from_coeffs(2, [0.0, 0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            ver.verify_restriction_identity(f, [0.6, 0.0])
        with pytest.raises(ValueError):
            ver.verify_restriction_identity(f, [0.0, 0.0, 0.0])

    def test_no_pairs_at_one_variable(self):
        # C(1, 2) = 0 pairs: the largest residual over none is 0.0, and the
        # anchor is still checked
        f = bf.from_coeffs(1, [0.3, -0.7])
        for x in ([0.2], [0.5], [-0.5]):
            residual = ver.verify_restriction_identity(f, x)
            assert type(residual) is float and residual == 0.0
        with pytest.raises(ValueError, match="finite"):
            ver.verify_restriction_identity(f, [np.nan])

    def test_one_pair_and_no_other_variable_at_two(self):
        # the pair's derivative table is the single entry c[{0, 1}], folded by
        # no other variable, against 4 times its restricted mean
        rng = np.random.default_rng(2)
        for x in (rng.uniform(-0.5, 0.5, 2), np.array([0.5, -0.5])):
            f = bf.from_coeffs(2, rng.standard_normal(4))
            expected = bf.restricted_mean(f, bf.RestrictionDistribution(x))
            want = abs(bf.partial_derivative(f, (0, 1), x) - 4.0 * expected[3])
            assert ver.verify_restriction_identity(f, x) == want
            assert want < 1e-12

    def test_anchor_range_is_the_restriction_distributions(self):
        f = bf.from_coeffs(2, [0.0, 0.0, 0.0, 1.0])
        assert ver.verify_restriction_identity(f, [0.5, -0.5]) < 1e-12
        with pytest.raises(ValueError, match=r"\[-1/2, 1/2\]"):
            ver.verify_restriction_identity(f, [0.5 + 1e-13, 0.0])

    def test_nan_anchor_is_rejected(self):
        # a NaN residual would otherwise vanish inside max() and read as 0
        f = bf.random_sign_function(3, np.random.default_rng(0))
        with pytest.raises(ValueError, match="finite"):
            ver.verify_restriction_identity(f, [np.nan, 0.1, 0.2])

    def test_enumeration_capacity_guard(self):
        f = bf.from_coeffs(11, np.zeros(2**11))
        with pytest.raises(CapacityError):
            ver.verify_restriction_identity(f, np.zeros(11))

    def test_capacity_guard_allocates_nothing(self):
        f = bf.from_coeffs(11, np.zeros(2**11))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                ver.verify_restriction_identity(f, np.zeros(11))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10

    def test_largest_enumeration_memory(self):
        # row blocks, not 3^10 restricted tables (484 MB) at once
        rng = np.random.default_rng(10)
        f = bf.random_sign_function(10, rng)
        x = rng.uniform(-0.5, 0.5, size=10)
        tracemalloc.start()
        try:
            residual = ver.verify_restriction_identity(f, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert residual < 1e-9
        assert peak < 32 * 2**20


def _identity_cases():
    """Sign and real functions at N = 1..8, at a random anchor and at one
    with +-1/2 entries, whose restrictions fixing those to -+1 have
    probability 0."""
    for n_vars in range(1, 9):
        rng = np.random.default_rng(700 + n_vars)
        edge = np.resize([0.5, -0.5, 0.0, 0.25], n_vars)
        for kind in ("sign", "real"):
            if kind == "sign":
                f = bf.random_sign_function(n_vars, rng)
            else:
                f = bf.from_coeffs(n_vars, rng.standard_normal(2**n_vars))
            for x in (rng.uniform(-0.5, 0.5, n_vars), edge):
                yield f, x


# sha256 over _identity_cases of the enumeration's values and probabilities
# (read back from restricted_mean's expansion, which builds no value array),
# of E_rho[f_rho] (``expected``) and of the identity's residual.  Pinned from
# the loop that built one Restriction and one restricted function per term
# and added p * table in enumeration order; the row-blocked fold keeps every
# add, so not a bit may move.
IDENTITY_DIGESTS = {
    "enumeration": "7b839f3e8fb5608ec3d3497214887ca1c771f29dc5c143eabff2937dfec89e76",
    "probabilities": "a57e5f4aeb559a51cb99ccd671443743bb1fd2d49853031b3986ce7a22c2918d",
    "expected": "0eac79e01c203c4df3f90e41abc200b567e5dad87ec344e2f8eac77442e2a00a",
    "residual": "8fbdecad7c2ecd20105e4129fa09af306c955e9226f7e5841ee77003a309dd8d",
}


def test_restriction_identity_matches_pinned_digests():
    h = {key: hashlib.sha256() for key in IDENTITY_DIGESTS}
    for f, x in _identity_cases():
        dist = bf.RestrictionDistribution(x)
        values, probs = expanded_enumeration(dist)
        h["enumeration"].update(values.tobytes())
        h["probabilities"].update(probs.tobytes())
        h["expected"].update(bf.restricted_mean(f, dist).tobytes())
        h["residual"].update(np.float64(ver.verify_restriction_identity(f, x)).tobytes())
    assert {key: d.hexdigest() for key, d in h.items()} == IDENTITY_DIGESTS


@pytest.mark.parametrize("rows", [1, 2, 5, 81])
def test_restricted_mean_is_independent_of_the_block(monkeypatch, rows):
    # blocks of 1, 2 and 5 rows and the whole N = 4 enumeration in one
    # block, against the loop over the oracle's restrictions one by one
    rng = np.random.default_rng(rows)
    f = bf.from_coeffs(4, rng.standard_normal(16))
    dist = bf.RestrictionDistribution(np.array([0.5, -0.1, 0.3, -0.5]))
    want = np.zeros(16)
    for values, p in enumeration_oracle(dist.p_plus, dist.p_minus, dist.p_star):
        want += p * restrict_loop_oracle(f.coeffs, values)
    monkeypatch.setattr(bf, "_RESTRICTION_BLOCK", rows * 16)
    assert bf.restricted_mean(f, dist).tobytes() == want.tobytes()


def generator_loop_oracle(f, sigma):
    """Pair-by-pair reconstruction of the generator coefficient table."""
    nv = f.n_vars
    gen = np.zeros(2**nv)
    for mask in range(2**nv):
        for i, j in itertools.combinations(range(nv), 2):
            pair = (1 << i) | (1 << j)
            if mask & pair:
                continue
            gen[mask] += sigma[i, j] * f.coeffs[mask | pair]
    return gen


class TestGeneratorTable:
    def test_pair_product_two_vars(self):
        f = bf.from_coeffs(2, [0.0, 0.0, 0.0, 1.0])
        sigma = np.array([[1.0, 0.25], [0.25, 1.0]])
        gen = ver.generator_table(f, sigma)
        assert np.array_equal(gen, [0.25, 0.0, 0.0, 0.0])

    def test_constant_function_has_zero_generator(self):
        f = bf.from_coeffs(2, [0.7, 0.0, 0.0, 0.0])
        sigma = np.array([[1.0, 0.3], [0.3, 1.0]])
        assert not ver.generator_table(f, sigma).any()

    def test_parity_four_vars_matches_loop_oracle(self):
        coeffs = np.zeros(16)
        coeffs[0b1111] = 1.0
        f = bf.from_coeffs(4, coeffs)
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4))
        sigma = (a + a.T) / 2
        np.fill_diagonal(sigma, 1.0)
        gen = ver.generator_table(f, sigma)
        assert np.allclose(gen, generator_loop_oracle(f, sigma), atol=1e-14)
        # parity only feeds complement pairs: gen on mask {i,j} is sigma over
        # the other two coordinates
        assert gen[0b0011] == sigma[2, 3]
        assert gen[0b1100] == sigma[0, 1]

    def test_random_function_matches_derivative_sum(self):
        rng = np.random.default_rng(11)
        f = bf.random_sign_function(3, rng)
        a = rng.normal(size=(3, 3))
        sigma = (a + a.T) / 2
        gen = ver.generator_table(f, sigma)
        gen_f = bf.from_coeffs(3, gen)
        for _ in range(4):
            x = rng.uniform(-1.0, 1.0, size=3)
            direct = 0.5 * sum(
                sigma[i, j] * fd_derivative(f, x, (i, j), 0.7)
                for i in range(3)
                for j in range(3)
                if i != j
            )
            assert bf.eval_multilinear(gen_f, x) == pytest.approx(direct, abs=1e-10)

    def test_dimension_mismatch(self):
        f = bf.from_coeffs(2, [0.0, 0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            ver.generator_table(f, np.eye(3))


class TestDynkin:
    def test_constant_function_trivially_passes(self):
        f = bf.from_coeffs(2, [0.4, 0.0, 0.0, 0.0])
        cov = diff.equicorrelated_covariance(2, 0.5)
        config = diff.SamplerConfig(0.05, 0.05 / 64, seed=3)
        report = ver.verify_dynkin(f, cov, config, 200)
        assert report.verdict == PASS
        assert report.payload["lhs_mean"] == 0.0
        assert report.payload["rhs_mean"] == 0.0
        assert report.payload["f_zero"] == 0.4

    def test_pair_product_closed_form(self):
        # f = x0 x1 has the constant generator Af = gamma, so the integral is
        # exactly gamma * tau on every path and the mean gap must close
        gamma = 0.5
        f = bf.from_coeffs(2, [0.0, 0.0, 0.0, 1.0])
        cov = diff.equicorrelated_covariance(2, gamma)
        config = diff.SamplerConfig(0.05, 0.05 / 256, seed=9)
        report = ver.verify_dynkin(f, cov, config, 20_000)
        p = report.payload
        assert report.verdict == PASS
        assert p["rhs_mean"] == pytest.approx(gamma * p["mean_tau"], rel=1e-9)
        gap = abs(p["lhs_mean"] - gamma * p["mean_tau"])
        assert gap <= 4.0 * (p["lhs_se"] + gamma * p["se_tau"])

    def test_parity_structured_covariance(self):
        coeffs = np.zeros(16)
        coeffs[0b1111] = 1.0
        f = bf.from_coeffs(4, coeffs)
        cov = diff.build_sigma(2)
        config = diff.default_sampler_config(4, dt_divisor=128, seed=17)
        report = ver.verify_dynkin(f, cov, config, 20_000)
        assert report.verdict == PASS
        assert report.payload["dim"] == 4

    def test_csv_dump_round_trip(self, tmp_path):
        gamma = 0.5
        f = bf.from_coeffs(2, [0.0, 0.0, 0.0, 1.0])
        cov = diff.equicorrelated_covariance(2, gamma)
        config = diff.SamplerConfig(0.05, 0.05 / 64, seed=5)
        path = tmp_path / "triples.csv"
        ver.verify_dynkin(f, cov, config, 500, dump_csv=str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "tau,f_x_tau,accumulator"
        assert len(lines) == 501
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        # constant generator: the trapezoid integral is gamma * tau per path
        assert np.allclose(rows[:, 2], gamma * rows[:, 0], rtol=1e-9, atol=1e-15)

    def test_csv_dump_accepts_file_object(self):
        f = bf.from_coeffs(2, [0.0, 0.0, 0.0, 1.0])
        cov = diff.equicorrelated_covariance(2, 0.5)
        config = diff.SamplerConfig(0.05, 0.05 / 64, seed=5)
        buf = io.StringIO()
        ver.verify_dynkin(f, cov, config, 50, dump_csv=buf)
        assert buf.getvalue().startswith("tau,f_x_tau,accumulator\n")

    def test_seed_controls_payload(self):
        f = bf.from_coeffs(2, [0.0, 0.0, 0.0, 1.0])
        cov = diff.equicorrelated_covariance(2, 0.5)
        config = diff.SamplerConfig(0.05, 0.05 / 64, seed=21)
        a = ver.verify_dynkin(f, cov, config, 2000)
        b = ver.verify_dynkin(f, cov, config, 2000)
        c = ver.verify_dynkin(f, cov, dataclasses.replace(config, seed=22), 2000)
        assert a.payload == b.payload
        assert a.payload["lhs_mean"] != c.payload["lhs_mean"]

    @pytest.mark.parametrize("divisor", [16, 1024])
    @pytest.mark.parametrize("bridge", [False, True], ids=["grid", "bridge"])
    def test_exact_gate_passes_with_zero_allowance(self, bridge, divisor):
        f = bf.from_coeffs(2, [0.0, 0.0, 0.0, 1.0])
        cov = diff.equicorrelated_covariance(2, 0.5)
        config = diff.SamplerConfig(0.05, 0.05 / divisor, bridge, seed=7)
        report = ver.verify_dynkin(f, cov, config, 20_000)
        p = report.payload
        assert report.verdict == PASS
        assert p["exact_allowance"] == 0.0
        assert abs(p["exact_gap"]) <= 4.0 * p["exact_se"]
        assert p["allowance"] == abs(p["clamp_term"]) + 4.0 * p["clamp_se"]
        # the reported gap splits into the exact part and the clamp term
        gap = p["lhs_mean"] - p["rhs_mean"]
        assert gap == pytest.approx(p["exact_gap"] + p["clamp_term"], abs=1e-12)

    def test_exact_gate_sees_level_four_terms(self):
        # a degree-4 table on a coarse grid: the trapezoid accumulator is the
        # exact discrete compensator, while the clamp term is far from noise
        coeffs = np.zeros(16)
        coeffs[0b1111], coeffs[0b0011], coeffs[0b0111] = 1.0, 0.5, -0.7
        f = bf.from_coeffs(4, coeffs)
        cov = diff.equicorrelated_covariance(4, 0.9)
        config = diff.SamplerConfig(0.25, 0.25 / 4, seed=11)
        report = ver.verify_dynkin(f, cov, config, 20_000)
        p = report.payload
        assert report.verdict == PASS
        assert abs(p["exact_gap"]) <= 4.0 * p["exact_se"]
        assert abs(p["clamp_term"]) > 8.0 * p["clamp_se"]

    def test_scaled_generator_fails_exact_gate(self, monkeypatch):
        table = ver.generator_table
        monkeypatch.setattr(ver, "generator_table", lambda f, sigma: 1.25 * table(f, sigma))
        f = bf.from_coeffs(2, [0.0, 0.0, 0.0, 1.0])
        cov = diff.equicorrelated_covariance(2, 0.5)
        config = diff.SamplerConfig(0.05, 0.05 / 64, seed=7)
        report = ver.verify_dynkin(f, cov, config, 20_000)
        p = report.payload
        assert report.verdict == FAIL
        assert abs(p["exact_gap"]) > 4.0 * p["exact_se"]

    def test_wick_allowance_vanishes_below_degree_six(self):
        sigma = diff.equicorrelated_covariance(6, 0.5).matrix
        eps, dt = 0.1, 0.1 / 8
        deg4 = np.zeros(64)
        deg4[0b001111] = 1.0
        deg4[0b110000] = -2.0
        assert ver.trapezoid_wick_allowance(bf.from_coeffs(6, deg4), sigma, eps, dt) == 0.0
        deg6 = deg4.copy()
        deg6[0b111111] = -3.0
        # k = 3 only: eps (3/2 - 1) dt^2 5!! gamma^3 |c|
        want = eps * 0.5 * dt**2 * 15 * 0.5**3 * 3.0
        got = ver.trapezoid_wick_allowance(bf.from_coeffs(6, deg6), sigma, eps, dt)
        assert got == pytest.approx(want, rel=1e-12)
        assert got > 0.0

    def test_input_validation(self):
        f = bf.from_coeffs(3, np.zeros(8))
        cov = diff.equicorrelated_covariance(2, 0.5)
        config = diff.SamplerConfig(0.05, 0.05 / 64, seed=3)
        with pytest.raises(ValueError):
            ver.verify_dynkin(f, cov, config, 100)
        f2 = bf.from_coeffs(2, np.zeros(4))
        with pytest.raises(ValueError):
            ver.verify_dynkin(f2, cov, config, 1)


class TestStoppedMeanBound:
    def test_degree_one_function_zero_bound(self, dense_cov, dense_config, dense_batch):
        coeffs = np.zeros(16)
        coeffs[0b0000] = 0.2
        coeffs[0b0001] = 0.5
        coeffs[0b0100] = -0.3
        f = bf.from_coeffs(4, coeffs)
        report = ver.verify_stopped_mean_bound(f, dense_cov, dense_config, 0, paths=dense_batch)
        p = report.payload
        # degree <= 1: every restriction has zero level-2 mass, so the bound
        # is zero and the check passes on optional stopping alone
        assert p["t_level2"] == 0.0
        assert p["bound"] == 0.0
        assert p["f_zero"] == 0.2
        assert report.verdict == PASS
        assert report.samples == len(dense_batch)

    def test_pair_product_structured_closed_form(self):
        # f = x0 x2 couples a top coordinate with its transformed partner, so
        # mean f(X_tau) = H_00 * mean tau by optional stopping
        n = 2
        cov = diff.build_sigma(n)
        coeffs = np.zeros(16)
        coeffs[0b0101] = 1.0
        f = bf.from_coeffs(4, coeffs)
        config = diff.default_sampler_config(4, dt_divisor=256, seed=13)
        report = ver.verify_stopped_mean_bound(f, cov, config, 20_000)
        p = report.payload
        assert report.verdict == PASS
        assert p["t_level2"] == 1.0
        assert p["bound"] == pytest.approx(2.0 * config.epsilon * cov.gamma)
        h00 = 1.0 / np.sqrt(n)
        gap = abs(p["mean_f"] - h00 * p["mean_tau"])
        assert gap <= 4.0 * (p["se_f"] + h00 * p["se_tau"])

    def test_random_sign_function_structured(self):
        rng = np.random.default_rng(23)
        f = bf.random_sign_function(8, rng)
        cov = diff.build_sigma(4)
        config = diff.default_sampler_config(8, dt_divisor=256, seed=29)
        report = ver.verify_stopped_mean_bound(f, cov, config, 30_000)
        assert report.verdict == PASS
        assert report.payload["t_level2"] == pytest.approx(
            bf.max_restricted_level2_mass(f)
        )

    def test_large_dimension_needs_explicit_t(self):
        rng = np.random.default_rng(31)
        f = bf.random_sign_function(13, rng)
        cov = diff.equicorrelated_covariance(13, 0.1)
        config = diff.default_sampler_config(13, dt_divisor=256, seed=37)
        with pytest.raises(CapacityError):
            ver.verify_stopped_mean_bound(f, cov, config, 100)
        report = ver.verify_stopped_mean_bound(f, cov, config, 2000, t=4.0)
        assert report.payload["t_level2"] == 4.0
        assert report.verdict == PASS

    def test_validation(self, dense_cov, dense_config):
        coeffs = np.zeros(16)
        f = bf.from_coeffs(4, coeffs)
        with pytest.raises(ValueError):
            ver.verify_stopped_mean_bound(f, dense_cov, dense_config, 100, t=-1.0)
        f3 = bf.from_coeffs(3, np.zeros(8))
        with pytest.raises(ValueError):
            ver.verify_stopped_mean_bound(f3, dense_cov, dense_config, 100)
        batch = diff.sample_stopped_paths(dense_cov, dense_config, 4, store_paths=False)
        with pytest.raises(ValueError):
            ver.verify_stopped_mean_bound(f, dense_cov, dense_config, 4, t=1.0, paths=batch)


@pytest.mark.parametrize("case", ["one sample", "no endpoints"])
def test_stopped_mean_bound_refuses_before_the_level2_scan(monkeypatch, dense_cov, dense_config, case):
    # the exhaustive scan visits 3^N restrictions: refuse before it
    def no_scan(f):
        raise AssertionError("the level-2 scan ran before the refusal")

    f = bf.from_coeffs(4, np.eye(16)[0b0011])
    batch = diff.sample_stopped_paths(dense_cov, dense_config, 4, store_paths=False)
    monkeypatch.setattr(ver, "max_restricted_level2_mass", no_scan)
    calls = {
        "one sample": (lambda: ver.verify_stopped_mean_bound(f, dense_cov, dense_config, 1), "samples"),
        "no endpoints": (
            lambda: ver.verify_stopped_mean_bound(f, dense_cov, dense_config, 4, paths=batch),
            "stored endpoints",
        ),
    }
    call, message = calls[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_stopped_mean_bound_refuses_a_nan_t(monkeypatch, dense_cov, dense_config):
    # NaN < 0 is false: a NaN t once reached the sampler and gave a FAIL verdict
    def no_sampling(*args, **kwargs):
        raise AssertionError("the kernel ran before the t check")

    monkeypatch.setattr(diff._kernels, "_run_blocks_np", no_sampling)
    f = bf.from_coeffs(4, np.eye(16)[0b0011])
    with pytest.raises(ValueError, match="t must be nonnegative"):
        ver.verify_stopped_mean_bound(f, dense_cov, dense_config, 100, t=float("nan"))


@pytest.mark.parametrize("route", ["dynkin", "stopped_mean_bound", "advantage_bound", "advantage_experiment"])
def test_one_sample_is_refused_before_sampling(monkeypatch, route):
    # a standard error needs two samples; one used to be drawn first
    def no_sampling(*args, **kwargs):
        raise AssertionError("the kernel ran before the samples check")

    monkeypatch.setattr(diff._kernels, "_run_blocks_np", no_sampling)
    cov = diff.build_sigma(2)
    config = diff.default_sampler_config(cov.dim)
    f = bf.from_coeffs(4, np.eye(16)[0b0011])
    calls = {
        "dynkin": lambda: ver.verify_dynkin(f, cov, config, 1),
        "stopped_mean_bound": lambda: ver.verify_stopped_mean_bound(f, cov, config, 1),
        "advantage_bound": lambda: ver.verify_advantage_bound(cov, config, 1),
        "advantage_experiment": lambda: forr.advantage_experiment(cov, config, 1),
    }
    with pytest.raises(ValueError, match="samples must be >= 2"):
        calls[route]()


class TestAdvantageBound:
    def test_small_structured_instance_passes(self):
        cov = diff.build_sigma(16)
        config = diff.default_sampler_config(32, dt_divisor=256, seed=41)
        report = ver.verify_advantage_bound(cov, config, 40_000)
        p = report.payload
        assert report.verdict == PASS
        assert p["pass"] is True
        assert p["mean_phi"] >= config.epsilon / 4.0
        assert p["p_exit_half"] <= 0.5
        assert set(p) == {
            "n",
            "N",
            "epsilon",
            "dt",
            "mean_phi",
            "se_phi",
            "mean_tau",
            "se_tau",
            "exact_gap",
            "exact_se",
            "clamp_term",
            "clamp_se",
            "p_exit_half",
            "se_exit_half",
            "bound_eps_over_4",
            "bound_half",
            "bound_union",
            "ref_two_over_N",
            "markov_lower_bound",
            "pass",
        }

    def test_canonical_instance_reuses_batch(self, structured_cov, structured_config, structured_batch):
        report = ver.verify_advantage_bound(
            structured_cov, structured_config, 10, paths=structured_batch
        )
        assert report.verdict == PASS
        assert report.samples == len(structured_batch)
        assert report.payload["n"] == 64
        assert report.payload["N"] == 128

    def test_dense_covariance_rejected(self):
        cov = diff.equicorrelated_covariance(4, 0.2)
        config = diff.default_sampler_config(4, seed=1)
        with pytest.raises(ValueError):
            ver.verify_advantage_bound(cov, config, 100)

    def test_batch_without_functional_rejected(self):
        cov = diff.build_sigma(2)
        config = diff.default_sampler_config(4, dt_divisor=64, seed=1)
        batch = diff.sample_stopped_paths(cov, config, 8, store_paths=True, want_phi=False)
        with pytest.raises(ValueError):
            ver.verify_advantage_bound(cov, config, 8, paths=batch)


class TestLevelMassProfile:
    def test_depth_one_is_unity(self):
        assert ver.ac0_level_mass_bound(3.0, 1, 1000, c=5.0, k=7) == 1.0

    def test_known_value(self):
        n_inputs = int(round(np.exp(4.0)))
        # ln is within 2e-3 of 4 here; compare against the same arithmetic
        expected = (np.log(n_inputs)) ** 2
        assert ver.ac0_level_mass_bound(1.0, 2, n_inputs, c=1.0, k=2) == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            ver.ac0_level_mass_bound(1.0, 0, 100)
        with pytest.raises(ValueError):
            ver.ac0_level_mass_bound(1.0, 2, 100, k=0)
        with pytest.raises(ValueError):
            ver.ac0_level_mass_bound(1.0, 2, 1)

    def test_profile_defaults_quarter_inverse_sqrt(self):
        ns = [2**k for k in range(3, 14)]
        rows = ver.stopped_bound_profile(ns)
        bounds = [r["bound"] for r in rows]
        for n, r in zip(ns, rows):
            assert r["n"] == n
            assert r["N"] == 2 * n
            assert r["bound"] == pytest.approx(0.25 / np.sqrt(n), rel=1e-12)
            assert set(r) == {"n", "N", "epsilon", "gamma", "t_ac0", "bound"}
        assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            ver.stopped_bound_profile([0])
