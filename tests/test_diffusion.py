"""Tests for covariance structure, stopped-path sampling, and exit bounds."""

import dataclasses
import io
import json
import math

import numpy as np
import numpy.testing as npt
import pytest

import forrlab.diffusion as diff
from forrlab.errors import CapacityError
from forrlab.report import PASS
from oracles import dense_sqrt_oracle, theta_series_exit_probability


class TestCovarianceSpec:
    def test_smallest_instance(self):
        cov = diff.build_sigma(1)
        npt.assert_array_equal(cov.dense_sigma(), [[1.0, 1.0], [1.0, 1.0]])
        npt.assert_allclose(np.linalg.eigvalsh(cov.dense_sigma()), [0.0, 2.0], atol=1e-12)

    def test_off_diagonal_maximum(self):
        cov = diff.build_sigma(4)
        s = cov.dense_sigma()
        off = s - np.diag(np.diagonal(s))
        assert np.abs(off).max() == pytest.approx(0.5, abs=1e-15)
        assert cov.gamma == pytest.approx(0.5, abs=1e-15)

    def test_square_is_twice_itself(self):
        s = diff.build_sigma(8).dense_sigma()
        npt.assert_allclose(s @ s, 2.0 * s, atol=1e-12)

    def test_unit_diagonal_and_symmetry(self):
        for n in (1, 2, 16, 32):
            s = diff.build_sigma(n).dense_sigma()
            npt.assert_allclose(np.diagonal(s), 1.0, atol=1e-15)
            npt.assert_array_equal(s, s.T)

    def test_rejects_non_power_of_two(self):
        for bad in (0, 3, 12, -4):
            with pytest.raises(ValueError):
                diff.build_sigma(bad)


class TestHadamardMatrix:
    def test_symmetric_involution(self):
        h = diff.hadamard_matrix(8)
        npt.assert_array_equal(h, h.T)
        npt.assert_allclose(h @ h, np.eye(8), atol=1e-12)

    def test_entry_magnitudes(self):
        h = diff.hadamard_matrix(16)
        npt.assert_allclose(np.abs(h), 0.25, atol=1e-15)


class TestDenseCovariance:
    def test_equicorrelated_structure(self):
        cov = diff.equicorrelated_covariance(4, 0.2)
        want = np.full((4, 4), 0.2)
        np.fill_diagonal(want, 1.0)
        npt.assert_array_equal(cov.matrix, want)
        assert cov.gamma == pytest.approx(0.2)
        npt.assert_allclose(cov.sqrt_matrix @ cov.sqrt_matrix, want, atol=1e-12)

    def test_rejects_indefinite_gamma(self):
        with pytest.raises(ValueError):
            diff.equicorrelated_covariance(4, -0.5)

    def test_rejects_non_unit_diagonal(self):
        with pytest.raises(ValueError):
            diff.DenseCovariance([[2.0, 0.0], [0.0, 1.0]])
        # the diagonal is checked absolutely, not within numpy's default rtol
        with pytest.raises(ValueError, match="unit diagonal"):
            diff.DenseCovariance([[1.000009, 0.5], [0.5, 1.0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            diff.DenseCovariance([[1.0, 0.3], [0.1, 1.0]])
        # eigh reads one triangle, so the square root would describe
        # another matrix than the one kept for the generator table
        with pytest.raises(ValueError, match="symmetric"):
            diff.DenseCovariance([[1.0, 0.5 + 1e-6], [0.5, 1.0]])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_entries(self, bad):
        # allclose counts inf as equal to itself and a NaN eigenvalue passes
        # the semidefinite test: an infinite entry would give an all-NaN
        # square root whose paths never exit
        with pytest.raises(ValueError, match="finite"):
            diff.DenseCovariance([[1.0, bad], [bad, 1.0]])


class TestApplySigmaSqrt:
    def test_zero_maps_to_zero(self):
        cov = diff.build_sigma(4)
        npt.assert_array_equal(diff.apply_sigma_sqrt(cov, np.zeros(8)), np.zeros(8))

    def test_basis_vector_gives_scaled_column(self):
        cov = diff.build_sigma(2)
        e0 = np.zeros(4)
        e0[0] = 1.0
        got = diff.apply_sigma_sqrt(cov, e0)
        npt.assert_allclose(got, cov.dense_sigma()[:, 0] / math.sqrt(2.0), atol=1e-12)
        npt.assert_allclose(got, dense_sqrt_oracle(cov.dense_sigma()) @ e0, atol=1e-10)

    def test_matches_eigendecomposition_root(self):
        rng = np.random.default_rng(42)
        for n in (1, 4, 64):
            cov = diff.build_sigma(n)
            root = dense_sqrt_oracle(cov.dense_sigma())
            v = rng.standard_normal(2 * n)
            npt.assert_allclose(diff.apply_sigma_sqrt(cov, v), root @ v, atol=1e-10)

    def test_operator_norm_bound(self):
        rng = np.random.default_rng(7)
        cov = diff.build_sigma(16)
        for _ in range(5):
            v = rng.standard_normal(32)
            out = diff.apply_sigma_sqrt(cov, v)
            assert np.linalg.norm(out) <= math.sqrt(2.0) * np.linalg.norm(v) + 1e-12

    def test_dense_variant(self):
        rng = np.random.default_rng(3)
        cov = diff.equicorrelated_covariance(3, 0.3)
        v = rng.standard_normal(3)
        npt.assert_allclose(
            diff.apply_sigma_sqrt(cov, v), dense_sqrt_oracle(cov.matrix) @ v, atol=1e-10
        )

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            diff.apply_sigma_sqrt(diff.build_sigma(2), np.zeros(3))


class TestSamplerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            diff.SamplerConfig(epsilon=0.0, dt=0.1)
        with pytest.raises(ValueError):
            diff.SamplerConfig(epsilon=0.1, dt=0.0)
        with pytest.raises(ValueError):
            diff.SamplerConfig(epsilon=0.1, dt=0.2)

    def test_default_config_wiring(self):
        cfg = diff.default_sampler_config(128)
        assert cfg.epsilon == pytest.approx(1.0 / (8.0 * math.log(128)), rel=1e-15)
        assert cfg.dt == pytest.approx(cfg.epsilon / 1024, rel=1e-15)
        assert not cfg.bridge_correction

    def test_default_config_rejects_tiny_dim(self):
        with pytest.raises(ValueError):
            diff.default_sampler_config(1)


class TestSingleReferencePath:
    def test_short_horizon_stays_near_origin(self):
        cov = diff.build_sigma(4)
        cfg = diff.SamplerConfig(epsilon=1e-6, dt=1e-7, seed=0)
        s = diff.sample_stopped_path(cov, cfg, np.random.default_rng(42))
        assert not s.exited
        assert s.tau == cfg.epsilon
        assert np.abs(s.x_tau).max() < 0.01

    def test_invariants_over_many_paths(self):
        cov = diff.build_sigma(2)
        cfg = diff.default_sampler_config(4, dt_divisor=64)
        rng = np.random.default_rng(42)
        exits = 0
        for _ in range(60):
            s = diff.sample_stopped_path(cov, cfg, rng)
            assert np.abs(s.x_tau).max() <= 0.5
            assert 0.0 < s.tau <= cfg.epsilon
            if s.exited:
                exits += 1
                assert np.abs(s.x_tau).max() == 0.5
            else:
                assert s.tau == cfg.epsilon

    def test_bridge_invariants_dense(self):
        cov = diff.equicorrelated_covariance(3, 0.3)
        cfg = diff.SamplerConfig(epsilon=0.3, dt=0.3 / 32, bridge_correction=True)
        rng = np.random.default_rng(7)
        for _ in range(60):
            s = diff.sample_stopped_path(cov, cfg, rng)
            assert np.abs(s.x_tau).max() <= 0.5
            if s.exited:
                assert np.abs(s.x_tau).max() == 0.5

    def test_same_seed_reproduces(self):
        cov = diff.build_sigma(2)
        cfg = diff.default_sampler_config(4, dt_divisor=32)
        a = diff.sample_stopped_path(cov, cfg, np.random.default_rng(5))
        b = diff.sample_stopped_path(cov, cfg, np.random.default_rng(5))
        npt.assert_array_equal(a.x_tau, b.x_tau)
        assert a.tau == b.tau and a.exited == b.exited

    def test_constant_generator_accumulates_linearly(self):
        cov = diff.build_sigma(1)
        cfg = diff.SamplerConfig(epsilon=0.05, dt=0.05 / 16)
        gen = np.zeros(4)
        gen[0] = 1.7
        rng = np.random.default_rng(11)
        for _ in range(10):
            s = diff.sample_stopped_path(cov, cfg, rng, gen_coeffs=gen)
            assert s.path_accumulator == pytest.approx(1.7 * s.tau, rel=1e-9)

    def test_rejects_bad_generator_table(self):
        cov = diff.build_sigma(1)
        cfg = diff.SamplerConfig(epsilon=0.05, dt=0.01)
        with pytest.raises(ValueError):
            diff.sample_stopped_path(cov, cfg, np.random.default_rng(0), gen_coeffs=np.ones(3))


class TestBatchSampling:
    def test_structured_invariants(self):
        cov = diff.build_sigma(2)
        cfg = diff.default_sampler_config(4, seed=42)
        batch = diff.sample_stopped_paths(cov, cfg, 5000)
        assert len(batch) == 5000
        assert np.abs(batch.x_tau).max() <= 0.5
        assert batch.tau.min() > 0.0 and batch.tau.max() <= cfg.epsilon
        npt.assert_array_equal(batch.tau[~batch.exited], cfg.epsilon)
        row_max = np.abs(batch.x_tau[batch.exited]).max(axis=1)
        npt.assert_array_equal(row_max, 0.5)

    def test_dense_invariants(self):
        cov = diff.equicorrelated_covariance(4, 0.2)
        cfg = diff.default_sampler_config(4, seed=42, bridge_correction=True)
        batch = diff.sample_stopped_paths(cov, cfg, 5000)
        assert np.abs(batch.x_tau).max() <= 0.5
        npt.assert_array_equal(batch.tau[~batch.exited], cfg.epsilon)
        row_max = np.abs(batch.x_tau[batch.exited]).max(axis=1)
        npt.assert_array_equal(row_max, 0.5)

    def test_same_seed_bit_identical(self):
        cov = diff.build_sigma(2)
        cfg = diff.default_sampler_config(4, seed=9)
        a = diff.sample_stopped_paths(cov, cfg, 3000, want_phi=True)
        b = diff.sample_stopped_paths(cov, cfg, 3000, want_phi=True)
        npt.assert_array_equal(a.x_tau, b.x_tau)
        npt.assert_array_equal(a.tau, b.tau)
        npt.assert_array_equal(a.phi, b.phi)

    def test_seed_override_changes_draws(self):
        cov = diff.build_sigma(2)
        cfg = diff.default_sampler_config(4, seed=9)
        a = diff.sample_stopped_paths(cov, cfg, 2000)
        b = diff.sample_stopped_paths(cov, dataclasses.replace(cfg, seed=10), 2000)
        assert not np.array_equal(a.tau, b.tau)

    def test_reference_sampler_agrees_in_distribution(self):
        cov = diff.build_sigma(2)
        cfg = diff.default_sampler_config(4, dt_divisor=64, seed=3)
        rng = np.random.default_rng(123)
        ref = np.array([diff.sample_stopped_path(cov, cfg, rng).tau for _ in range(1000)])
        batch = diff.sample_stopped_paths(cov, cfg, 20000)
        se = math.sqrt(ref.var(ddof=1) / ref.size + batch.tau.var(ddof=1) / len(batch))
        assert abs(ref.mean() - batch.tau.mean()) <= 4.0 * se

    def test_want_phi_requires_structured(self):
        cov = diff.equicorrelated_covariance(4, 0.2)
        cfg = diff.default_sampler_config(4)
        with pytest.raises(ValueError):
            diff.sample_stopped_paths(cov, cfg, 10, want_phi=True)

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            diff.sample_stopped_paths(diff.build_sigma(1), diff.default_sampler_config(2), 0)

    def test_oversized_path_storage_refused_before_sampling(self, monkeypatch):
        # `sample --n 1024 --samples 1000000` would store 1e6 x 2048 doubles (16 GB)
        def no_sampling(*args, **kwargs):
            raise AssertionError("the kernel ran before the capacity check")

        monkeypatch.setattr(diff._kernels, "run_paths_structured_numpy", no_sampling)
        cov = diff.build_sigma(1024)
        cfg = diff.default_sampler_config(cov.dim)
        with pytest.raises(CapacityError):
            diff.sample_stopped_paths(cov, cfg, 1_000_000, store_paths=True)
        # criterion 06 stores 1e5 points of dim 128; the limit leaves 10x room
        assert 10 * 100_000 * 128 * 8 <= diff.STORED_PATHS_BYTE_LIMIT

    def test_pre_clamp_endpoints_count_against_storage(self, monkeypatch):
        # an unstored dim-2 path with a generator holds 41 bytes (tau,
        # exited, stream id, the accumulator and the pre-clamp endpoint
        # x_raw); storing x_tau as well takes it to 57
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(diff._kernels, "run_paths_dense_numpy", reached)
        cov = diff.equicorrelated_covariance(2, 0.5)
        cfg = diff.SamplerConfig(0.05, 0.05 / 64)
        n = diff.STORED_PATHS_BYTE_LIMIT // 41
        gen = np.zeros(4)
        with pytest.raises(Reached):
            diff.sample_stopped_paths(cov, cfg, n, store_paths=True)
        with pytest.raises(Reached):
            diff.sample_stopped_paths(cov, cfg, n, store_paths=False, gen_coeffs=gen)
        with pytest.raises(CapacityError):
            diff.sample_stopped_paths(cov, cfg, n, store_paths=True, gen_coeffs=gen)

    def test_unstored_outputs_count_against_the_limit(self, monkeypatch):
        # tau, exited and the stream id take 17 bytes a path, phi and phi_raw
        # 16 more: 2e5 unstored n = 1 paths with phi hold 6.6 MB, beyond the
        # 4 MiB working set of their 65536-path group
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(diff._kernels, "run_paths_structured_numpy", reached)
        monkeypatch.setattr(diff, "STORED_PATHS_BYTE_LIMIT", 200_000 * 33)
        cov = diff.build_sigma(1)
        cfg = diff.SamplerConfig(0.05, 0.05 / 64)
        with pytest.raises(Reached):
            diff.sample_stopped_paths(cov, cfg, 200_000, store_paths=False, want_phi=True)
        with pytest.raises(CapacityError, match="6600033 bytes of output"):
            diff.sample_stopped_paths(cov, cfg, 200_001, store_paths=False, want_phi=True)

    def test_generator_fold_counts_against_the_working_set(self, monkeypatch):
        # each step folds the 2^8-entry table against 8192 paths in one
        # group: 16 MiB of temporaries beside the 2 MiB counted for the state
        def no_sampling(*args, **kwargs):
            raise AssertionError("the kernel ran before the capacity check")

        monkeypatch.setattr(diff._kernels, "run_paths_dense_numpy", no_sampling)
        monkeypatch.setattr(diff, "STORED_PATHS_BYTE_LIMIT", 4 * 2**20)
        cov = diff.equicorrelated_covariance(8, 0.1)
        cfg = diff.SamplerConfig(0.05, 0.05 / 64)
        with pytest.raises(CapacityError, match="729088 bytes of output and a 18874368 byte working set"):
            diff.sample_stopped_paths(cov, cfg, 8192, store_paths=False, gen_coeffs=np.zeros(256))

    @pytest.mark.parametrize("size", [1, 3, 8, 16])
    @pytest.mark.parametrize(
        "cov", [diff.build_sigma(1), diff.equicorrelated_covariance(2, 0.5)], ids=["structured", "dense"]
    )
    def test_rejects_bad_generator_table_before_sampling(self, monkeypatch, cov, size):
        # a table of any other size gives a wrong accumulator; the refusal
        # comes before the capacity check and any draw
        def no_sampling(*args, **kwargs):
            raise AssertionError("the kernel ran before the table check")

        monkeypatch.setattr(diff._kernels, "run_paths_structured_numpy", no_sampling)
        monkeypatch.setattr(diff._kernels, "run_paths_dense_numpy", no_sampling)
        cfg = diff.SamplerConfig(0.05, 0.05 / 64)
        too_many = diff.STORED_PATHS_BYTE_LIMIT // (cov.dim * 8) + 1
        for n in (100, too_many):
            with pytest.raises(ValueError, match=r"generator table must have 2\*\*dim entries"):
                diff.sample_stopped_paths(cov, cfg, n, gen_coeffs=np.zeros(size))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "cov", [diff.build_sigma(1), diff.equicorrelated_covariance(2, 0.5)], ids=["structured", "dense"]
    )
    def test_rejects_non_finite_generator_table_before_sampling(self, monkeypatch, cov, bad):
        # a NaN or infinite entry would give a NaN accumulator on every path
        def no_sampling(*args, **kwargs):
            raise AssertionError("the kernel ran before the table check")

        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError("the reference sampler drew before the table check")

        monkeypatch.setattr(diff._kernels, "run_paths_structured_numpy", no_sampling)
        monkeypatch.setattr(diff._kernels, "run_paths_dense_numpy", no_sampling)
        cfg = diff.SamplerConfig(0.05, 0.05 / 64)
        gen = np.array([bad, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="generator table entries must be finite"):
            diff.sample_stopped_paths(cov, cfg, 100, store_paths=False, gen_coeffs=gen)
        with pytest.raises(ValueError, match="generator table entries must be finite"):
            diff.sample_stopped_path(cov, cfg, NoDraws(), gen_coeffs=gen)

    def test_oversized_block_state_refused_before_sampling(self, monkeypatch):
        # without storage one stream block still holds 1024 x 2^18 doubles (2 GiB)
        def no_sampling(*args, **kwargs):
            raise AssertionError("the kernel ran before the capacity check")

        monkeypatch.setattr(diff._kernels, "run_paths_structured_numpy", no_sampling)
        cov = diff.build_sigma(2**17)
        cfg = diff.default_sampler_config(cov.dim)
        with pytest.raises(CapacityError):
            diff.sample_stopped_paths(cov, cfg, 1024, store_paths=False)

    def test_bridge_working_set_refused_before_sampling(self, monkeypatch):
        # a 1024 x 2^15 state is 256 MiB, but with the bridge test a step's
        # temporaries take the working set to about 7.4x that
        def no_sampling(*args, **kwargs):
            raise AssertionError("the kernel ran before the capacity check")

        monkeypatch.setattr(diff._kernels, "run_paths_structured_numpy", no_sampling)
        cov = diff.build_sigma(2**14)
        cfg = diff.default_sampler_config(cov.dim, bridge_correction=True)
        with pytest.raises(CapacityError):
            diff.sample_stopped_paths(cov, cfg, 1024, store_paths=False)


class TestDtRefinement:
    @staticmethod
    def _bridged_detection(prev, new, u, step_var):
        # exact per-step two-sided crossing test given both endpoints;
        # exponents are clipped at 0 so an endpoint beyond the barrier
        # yields probability 1 (also caught by direct thresholding)
        a = 0.5
        e_up = np.clip(-2.0 * (a - prev) * (a - new) / step_var, None, 0.0)
        e_dn = np.clip(-2.0 * (a + prev) * (a + new) / step_var, None, 0.0)
        p_up = np.exp(e_up)
        p_dn = np.exp(e_dn)
        return u < p_up + p_dn - p_up * p_dn

    def test_halving_dt_moves_mean_tau_less_than_mc_noise(self):
        # coupled refinement on one coordinate: the same Brownian increments
        # monitored with bridge correction on every grid point vs every other
        # grid point, isolating the discretization effect from Monte Carlo
        # noise; bridged detection delays exits by O(dt), not O(sqrt(dt))
        epsilon = 1.0 / (8.0 * math.log(2))
        n_fine = 1024
        dt = epsilon / n_fine
        rng = np.random.default_rng(20260815)
        n_paths = 100_000
        chunk = 10_000
        tau_fine = np.empty(n_paths)
        tau_coarse = np.empty(n_paths)
        rows = np.arange(chunk)
        for start in range(0, n_paths, chunk):
            g = rng.standard_normal((chunk, n_fine))
            u = rng.random((chunk, n_fine))
            x = np.cumsum(g * math.sqrt(dt), axis=1)
            prev = np.hstack([np.zeros((chunk, 1)), x[:, :-1]])
            det_f = self._bridged_detection(prev, x, u, dt)
            idx_f = np.argmax(det_f, axis=1)
            hit_f = det_f[rows, idx_f]
            tau_fine[start : start + chunk] = np.where(hit_f, (idx_f + 1) * dt, epsilon)
            end_c = x[:, 1::2]
            prev_c = np.hstack([np.zeros((chunk, 1)), end_c[:, :-1]])
            det_c = self._bridged_detection(prev_c, end_c, u[:, 1::2], 2.0 * dt)
            idx_c = np.argmax(det_c, axis=1)
            hit_c = det_c[rows, idx_c]
            tau_coarse[start : start + chunk] = np.where(hit_c, (idx_c + 1) * 2 * dt, epsilon)
        shift = tau_coarse.mean() - tau_fine.mean()
        se = tau_fine.std(ddof=1) / math.sqrt(n_paths)
        assert abs(shift) < se


class TestBooleanRound:
    def test_coordinate_means(self):
        rng = np.random.default_rng(42)
        x = np.array([0.0, 0.5, -0.5, 0.25])
        z = diff.boolean_round(np.tile(x, (100_000, 1)), rng)
        for i in range(4):
            se = math.sqrt((1.0 - x[i] ** 2) / 100_000)
            assert abs(z[:, i].mean() - x[i]) <= 4.0 * se + 1e-12

    def test_half_point_probability(self):
        rng = np.random.default_rng(7)
        z = diff.boolean_round(np.full((100_000, 1), 0.5), rng)
        p = (z == 1).mean()
        assert abs(p - 0.75) <= 4.0 * math.sqrt(0.75 * 0.25 / 100_000)

    def test_pair_correlations_match_products(self):
        rng = np.random.default_rng(11)
        x = np.array([0.5, -0.5, 0.25, 0.0])
        z = diff.boolean_round(np.tile(x, (1_000_000, 1)), rng).astype(np.float64)
        for i in range(4):
            for j in range(i + 1, 4):
                prod = z[:, i] * z[:, j]
                se = prod.std(ddof=1) / 1000.0
                assert abs(prod.mean() - x[i] * x[j]) <= 4.0 * se

    def test_output_is_signs(self):
        rng = np.random.default_rng(0)
        z = diff.boolean_round(np.zeros(6), rng)
        assert z.shape == (6,)
        assert set(np.unique(z)) <= {-1, 1}

    def test_rejects_out_of_range(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            diff.boolean_round([0.0, 1.2], rng)
        with pytest.raises(ValueError):
            diff.boolean_round([np.nan, 0.0], rng)


class TestExitProbabilityOneDim:
    def test_matches_theta_series_oracle(self):
        for barrier, horizon in [(0.5, 0.125), (0.5, 0.05), (1.0, 0.3), (0.3, 0.2)]:
            got = diff.exit_probability_one_dim(barrier, horizon)
            want = theta_series_exit_probability(barrier, horizon)
            assert got == pytest.approx(want, abs=1e-12)

    def test_monotone_in_horizon(self):
        vals = [diff.exit_probability_one_dim(0.5, u) for u in (0.01, 0.05, 0.2, 1.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            diff.exit_probability_one_dim(0.0, 0.1)
        with pytest.raises(ValueError):
            diff.exit_probability_one_dim(0.5, 0.0)


class TestExitProbabilityReport:
    def test_short_horizon_sees_no_exits(self):
        cov = diff.build_sigma(4)
        cfg = diff.SamplerConfig(epsilon=1e-6, dt=1e-7, seed=42)
        rep = diff.exit_probability_report(cov, cfg, 4000)
        assert rep.verdict == PASS
        assert rep.payload["p_exit_half"] == 0.0
        assert rep.payload["p_exit_one_dim"] == 0.0

    def test_canonical_bound_arithmetic(self):
        cov = diff.build_sigma(64)
        cfg = diff.default_sampler_config(128, seed=42)
        rep = diff.exit_probability_report(cov, cfg, 2000)
        assert rep.payload["bound_one_dim"] == pytest.approx(2.0 / 128**2, rel=1e-12)
        assert rep.payload["bound_union"] == pytest.approx(2.0 / 128, rel=1e-12)
        assert rep.verdict == PASS

    def test_loose_horizon_matches_series(self):
        # bridge correction on: plain grid monitoring misses within-step
        # crossings and would bias the estimate by more than 4 SE here
        cov = diff.build_sigma(1)
        cfg = diff.SamplerConfig(epsilon=0.25, dt=0.25 / 256, bridge_correction=True, seed=7)
        rep = diff.exit_probability_report(cov, cfg, 40_000)
        want = diff.exit_probability_one_dim(0.5, 0.125)
        got = rep.payload["p_exit_one_dim"]
        assert abs(got - want) <= 4.0 * rep.payload["se_exit_one_dim"]
        assert rep.payload["analytic_one_dim"] == pytest.approx(want, abs=1e-15)

    def test_report_serializes(self):
        cov = diff.build_sigma(1)
        cfg = diff.SamplerConfig(epsilon=1e-6, dt=1e-7, seed=0)
        rep = diff.exit_probability_report(cov, cfg, 100)
        doc = json.loads(rep.to_json(no_timing=True))
        assert doc["name"] == "exit_probability"
        assert "timestamp" not in doc and "wall_time_s" not in doc


class TestCsvRoundTrip:
    def _batch(self):
        cov = diff.build_sigma(2)
        cfg = diff.default_sampler_config(4, seed=1)
        return diff.sample_stopped_paths(cov, cfg, 100)

    def test_round_trip_with_bits_and_header(self):
        batch = self._batch()
        bits = diff.boolean_round(2.0 * batch.x_tau, np.random.default_rng(0))
        buf = io.StringIO()
        diff.dump_paths_csv(batch, buf, header={"seed": 1, "n": 2}, bits=bits)
        buf.seek(0)
        header, loaded, loaded_bits = diff.load_paths_csv(buf)
        assert header == {"seed": 1, "n": 2}
        npt.assert_array_equal(loaded.tau, batch.tau)
        npt.assert_array_equal(loaded.exited, batch.exited)
        npt.assert_array_equal(loaded.stream_ids, batch.stream_ids)
        npt.assert_array_equal(loaded.x_tau, batch.x_tau)
        npt.assert_array_equal(loaded_bits, bits)

    def test_file_path_round_trip(self, tmp_path):
        batch = self._batch()
        path = str(tmp_path / "paths.csv")
        diff.dump_paths_csv(batch, path)
        header, loaded, bits = diff.load_paths_csv(path)
        assert header is None and bits is None
        npt.assert_array_equal(loaded.x_tau, batch.x_tau)

    def test_requires_stored_paths(self):
        cov = diff.build_sigma(2)
        cfg = diff.default_sampler_config(4, seed=1)
        batch = diff.sample_stopped_paths(cov, cfg, 10, store_paths=False)
        with pytest.raises(ValueError):
            diff.dump_paths_csv(batch, io.StringIO())


class TestOptionalStopping:
    """Martingale identities on the shared large structured batch."""

    def test_square_minus_time_is_centered(self, structured_batch):
        # X_i^2 - tau has mean zero coordinate by coordinate
        x = structured_batch.x_tau
        d = x**2 - structured_batch.tau[:, None]
        m = x.shape[0]
        avg = d.mean(axis=1)
        assert abs(avg.mean()) <= 3.0 * avg.std(ddof=1) / math.sqrt(m)
        per_coord = np.abs(d.mean(axis=0)) / (d.std(axis=0, ddof=1) / math.sqrt(m))
        assert per_coord.max() <= 5.0

    def test_endpoint_mean_is_zero(self, structured_batch):
        x = structured_batch.x_tau
        m = x.shape[0]
        avg = x.mean(axis=1)
        assert abs(avg.mean()) <= 4.0 * avg.std(ddof=1) / math.sqrt(m)
        per_coord = np.abs(x.mean(axis=0)) / (x.std(axis=0, ddof=1) / math.sqrt(m))
        assert per_coord.max() <= 5.0

    def test_cross_block_covariance_tracks_transform_entries(self, structured_batch):
        # X_i X_{n+j} - H_ij tau has mean zero; check 10 random pairs
        n = 64
        h = diff.hadamard_matrix(n)
        x = structured_batch.x_tau
        m = x.shape[0]
        rng = np.random.default_rng(2026)
        for _ in range(10):
            i, j = rng.integers(0, n, size=2)
            d = x[:, i] * x[:, n + j] - h[i, j] * structured_batch.tau
            assert abs(d.mean()) <= 4.0 * d.std(ddof=1) / math.sqrt(m)
