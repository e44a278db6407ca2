"""Tests for multilinear expansions, restrictions, and derivatives."""

import hashlib
import importlib
import itertools
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import forrlab.boolean_fourier as bf
from forrlab.errors import CapacityError
from oracles import (
    brute_force_coefficients,
    enumeration_oracle,
    fd_derivative,
    naive_multilinear,
    point_of_index,
    recursive_level2_scan,
    restrict_loop_oracle,
)


@pytest.mark.parametrize("module", ["forrlab", "forrlab._kernels", "forrlab.boolean_fourier"])
def test_star_import_finds_every_exported_name(module):
    # a name deleted from the module but left in __all__ fails here
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(importlib.import_module(module).__all__) <= set(namespace)


def majority3_table():
    return np.array(
        [1.0 if point_of_index(j, 3).sum() > 0 else -1.0 for j in range(8)]
    )


class TestFromTruthTable:
    def test_constant_function(self):
        f = bf.from_truth_table(np.ones(8))
        assert f.coefficient(()) == 1.0
        npt.assert_array_equal(f.coeffs[1:], 0.0)

    def test_two_variable_parity(self):
        # index bit i set means x_i = -1, so parity x_0 x_1 is (1,-1,-1,1)
        f = bf.from_truth_table([1, -1, -1, 1])
        want = np.zeros(4)
        want[0b11] = 1.0
        npt.assert_allclose(f.coeffs, want, atol=1e-15)

    def test_index_encoding_first_variable(self):
        # f(x) = x_0: flipping bit 0 of the index flips the value
        f = bf.from_truth_table([1, -1, 1, -1])
        want = np.zeros(4)
        want[0b01] = 1.0
        npt.assert_allclose(f.coeffs, want, atol=1e-15)

    def test_majority_matches_averaging_oracle(self):
        table = majority3_table()
        f = bf.from_truth_table(table)
        npt.assert_allclose(f.coeffs, brute_force_coefficients(table), atol=1e-12)

    def test_parseval_for_sign_functions(self):
        rng = np.random.default_rng(42)
        for n_vars in (1, 3, 5):
            f = bf.random_sign_function(n_vars, rng)
            assert abs((f.coeffs**2).sum() - 1.0) < 1e-10

    def test_round_trip_through_truth_table(self):
        rng = np.random.default_rng(11)
        f = bf.random_sign_function(4, rng)
        table = bf.truth_table(f)
        npt.assert_allclose(table, bf.truth_table(bf.from_truth_table(table)), atol=1e-10)

    def test_rejects_non_sign_entries(self):
        with pytest.raises(ValueError):
            bf.from_truth_table([1, -1, 0.5, 1])

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            bf.from_truth_table([1, -1, 1])


class TestEvalMultilinear:
    def test_at_zero_returns_mean_coefficient(self):
        rng = np.random.default_rng(42)
        f = bf.random_sign_function(4, rng)
        assert bf.eval_multilinear(f, np.zeros(4)) == f.coefficient(())

    def test_parity_product_form(self):
        f = bf.from_truth_table([1, -1, -1, 1])
        assert abs(bf.eval_multilinear(f, [0.5, 0.5]) - 0.25) < 1e-15

    def test_matches_naive_sum_oracle(self):
        rng = np.random.default_rng(3)
        f = bf.from_coeffs(4, rng.standard_normal(16))
        for _ in range(20):
            x = rng.uniform(-0.5, 0.5, size=4)
            assert abs(bf.eval_multilinear(f, x) - naive_multilinear(f.coeffs, x)) < 1e-12

    def test_cube_mean_equals_value_at_zero(self):
        rng = np.random.default_rng(5)
        f = bf.random_sign_function(5, rng)
        assert abs(bf.truth_table(f).mean() - bf.eval_multilinear(f, np.zeros(5))) < 1e-12

    def test_rejects_bad_point(self):
        f = bf.from_truth_table([1, -1, -1, 1])
        with pytest.raises(ValueError):
            bf.eval_multilinear(f, [1.0])
        with pytest.raises(ValueError):
            bf.eval_multilinear(f, [np.nan, 0.0])


class TestRestrict:
    def test_all_free_leaves_function_unchanged(self):
        rng = np.random.default_rng(42)
        f = bf.random_sign_function(3, rng)
        g = bf.restrict(f, bf.Restriction(["*", "*", "*"]))
        npt.assert_array_equal(g.coeffs, f.coeffs)

    def test_parity_with_first_coordinate_fixed(self):
        f = bf.from_truth_table([1, -1, -1, 1])
        g = bf.restrict(f, bf.Restriction([1, "*"]))
        want = np.zeros(4)
        want[0b10] = 1.0
        npt.assert_allclose(g.coeffs, want, atol=1e-15)

    def test_matches_pointwise_substitution_oracle(self):
        rng = np.random.default_rng(7)
        f = bf.random_sign_function(4, rng)
        rho = bf.Restriction([1, "*", -1, "*"])
        g = bf.restrict(f, rho)
        for _ in range(100):
            x = rng.choice([-1.0, 1.0], size=4)
            merged = rho.merge(x)
            assert abs(bf.eval_multilinear(g, x) - bf.eval_multilinear(f, merged)) < 1e-12

    def test_support_outside_free_set_is_exactly_zero(self):
        rng = np.random.default_rng(3)
        f = bf.from_coeffs(4, rng.standard_normal(16))
        rho = bf.Restriction(["*", -1, 1, "*"])
        g = bf.restrict(f, rho)
        free_mask = bf.subset_index(np.flatnonzero(rho.values == 0))
        for mask in range(16):
            if mask & ~free_mask:
                assert g.coeffs[mask] == 0.0

    def test_fully_fixed_restriction_gives_constant(self):
        rng = np.random.default_rng(5)
        f = bf.random_sign_function(2, rng)
        rho = bf.Restriction([-1, 1])
        g = bf.restrict(f, rho)
        val = bf.eval_multilinear(f, np.array([-1.0, 1.0]))
        assert abs(g.coefficient(()) - val) < 1e-12
        npt.assert_array_equal(g.coeffs[1:], 0.0)

    def test_rejects_length_mismatch(self):
        f = bf.from_truth_table([1, -1, -1, 1])
        with pytest.raises(ValueError):
            bf.restrict(f, bf.Restriction([1, "*", -1]))

    @pytest.mark.parametrize("n_vars", [1, 2, 3, 5, 7])
    def test_row_fold_equals_each_restriction_alone(self, n_vars):
        # the full enumeration and rows in random order, folded as one batch,
        # against the loop oracle and against restrict one row at a time
        rng = np.random.default_rng(40 + n_vars)
        coeffs = rng.standard_normal(2**n_vars)
        coeffs[::3] = -0.0  # a signed zero must keep its sign where nothing adds to it
        table, _ = bf._restriction_table(bf.RestrictionDistribution(np.zeros(n_vars)))
        f = bf.from_coeffs(n_vars, coeffs)
        for values in (table, rng.integers(-1, 2, size=(50, n_vars))):
            got = bf._restrict_rows(np.tile(coeffs, (len(values), 1)), values)
            want = np.stack([restrict_loop_oracle(coeffs, v) for v in values])
            assert got.tobytes() == want.tobytes()
            alone = np.stack([bf.restrict(f, bf.Restriction(v)).coeffs for v in values])
            assert alone.tobytes() == want.tobytes()


class TestPartialDerivative:
    def test_at_zero_recovers_every_coefficient(self):
        rng = np.random.default_rng(42)
        f = bf.random_sign_function(4, rng)
        zero = np.zeros(4)
        for mask in range(16):
            subset = [i for i in range(4) if mask >> i & 1]
            got = bf.partial_derivative(f, subset, zero)
            assert got == pytest.approx(f.coeffs[mask], abs=1e-15)

    def test_finite_difference_oracle_any_step(self):
        rng = np.random.default_rng(7)
        f = bf.from_coeffs(4, rng.standard_normal(16))
        func = lambda x: bf.eval_multilinear(f, x)
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, size=4)
            subset = (0, 2)
            exact = bf.partial_derivative(f, subset, x)
            assert abs(fd_derivative(func, x, subset, 1.0) - exact) < 1e-10
            assert abs(fd_derivative(func, x, subset, 1.0 / 3.0) - exact) < 1e-10

    def test_second_derivative_in_one_variable_vanishes(self):
        rng = np.random.default_rng(3)
        f = bf.random_sign_function(3, rng)
        x = rng.uniform(-0.5, 0.5, size=3)
        e = np.zeros(3)
        e[1] = 1.0
        second = (
            bf.eval_multilinear(f, x + e)
            - 2 * bf.eval_multilinear(f, x)
            + bf.eval_multilinear(f, x - e)
        )
        assert abs(second) < 1e-12

    def test_rejects_out_of_range_subset(self):
        f = bf.from_truth_table([1, -1, -1, 1])
        with pytest.raises(ValueError):
            bf.partial_derivative(f, [2], np.zeros(2))


class TestLevelMass:
    def test_parity_level_two(self):
        f = bf.from_truth_table([1, -1, -1, 1])
        assert bf.level_mass(f, 2) == 1.0

    def test_constant_has_no_higher_mass(self):
        f = bf.from_truth_table(np.ones(8))
        for k in (1, 2, 3):
            assert bf.level_mass(f, k) == 0.0

    def test_majority_level_one_matches_oracle(self):
        table = majority3_table()
        f = bf.from_truth_table(table)
        oracle = brute_force_coefficients(table)
        want = sum(abs(oracle[1 << i]) for i in range(3))
        assert abs(bf.level_mass(f, 1) - want) < 1e-12

    def test_rejects_bad_level(self):
        f = bf.from_truth_table([1, -1, -1, 1])
        with pytest.raises(ValueError):
            bf.level_mass(f, 3)


class TestMaxRestrictedLevel2Mass:
    def test_parity_attained_by_empty_restriction(self):
        f = bf.from_truth_table([1, -1, -1, 1])
        assert bf.max_restricted_level2_mass(f) == pytest.approx(1.0, abs=1e-12)

    def test_degree_one_function_has_zero(self):
        f = bf.from_coeffs(3, [0.3, 0.5, -0.2, 0, 0.7, 0, 0, 0])
        assert bf.max_restricted_level2_mass(f) == 0.0

    def test_matches_independent_enumeration_oracle(self):
        rng = np.random.default_rng(42)
        f = bf.random_sign_function(4, rng)
        best = 0.0
        for combo in itertools.product([-1, 1, 0], repeat=4):
            rho = bf.Restriction(combo)
            coeffs = bf.restrict(f, rho).coeffs
            mass = sum(
                abs(coeffs[bf.subset_index(pair)])
                for pair in itertools.combinations(range(4), 2)
            )
            best = max(best, mass)
        assert bf.max_restricted_level2_mass(f) == pytest.approx(best, abs=1e-12)

    def test_capacity_guard(self):
        f = bf.from_coeffs(13, np.zeros(2**13))
        with pytest.raises(CapacityError):
            bf.max_restricted_level2_mass(f)

    def test_monte_carlo_mode_is_lower_bound(self):
        rng = np.random.default_rng(7)
        f = bf.random_sign_function(4, rng)
        exact = bf.max_restricted_level2_mass(f)
        mc = bf.max_restricted_level2_mass(
            f, method="monte_carlo", samples=50, rng=np.random.default_rng(1)
        )
        assert mc <= exact + 1e-12

    def test_monte_carlo_requires_rng(self):
        f = bf.from_truth_table([1, -1, -1, 1])
        with pytest.raises(ValueError):
            bf.max_restricted_level2_mass(f, method="monte_carlo")


# the level-by-level tail of the scan against the one-call-per-node
# recursion, beyond the N <= 10 of FOLD_DIGESTS and on each side of the
# switch; the folds and leaf sums are the same, so the values are equal
def _scan_function(n_vars, kind):
    rng = np.random.default_rng(n_vars)
    if kind == "sign":
        return bf.random_sign_function(n_vars, rng)
    if kind == "real":
        return bf.from_coeffs(n_vars, rng.standard_normal(2**n_vars))
    if kind == "zero":
        return bf.from_coeffs(n_vars, np.zeros(2**n_vars))
    return bf.from_truth_table([(-1.0) ** bin(j).count("1") for j in range(2**n_vars)])


SWITCH = bf._SCAN_TAIL_VARS


@pytest.mark.parametrize(
    "n_vars, kind",
    [(n, kind) for n in (11, 12) for kind in ("sign", "real")]
    + [(n, kind) for n in (SWITCH - 1, SWITCH, SWITCH + 1) for kind in ("sign", "real", "zero", "parity")],
)
def test_scan_equals_recursive_oracle(n_vars, kind):
    f = _scan_function(n_vars, kind)
    want = recursive_level2_scan(f.coeffs)
    assert bf.max_restricted_level2_mass(f) == want
    if kind == "zero":
        assert want == 0.0
    if kind == "parity":
        assert want == 1.0


@pytest.mark.parametrize("n_vars", [SWITCH - 1, SWITCH, SWITCH + 1])
def test_scan_sums_long_leaves_in_the_oracle_order(n_vars):
    # the last variable times a level-2 function of the others: the maximum
    # is one leaf of C(N-1, 2) pairs in a stack of 2(N-1) rows, and a row
    # summed in another order than a 1-D leaf moves the last bit of about
    # half of these draws
    rng = np.random.default_rng(n_vars)
    top = 1 << (n_vars - 1)
    idx = [top | m for m in range(top) if bin(m).count("1") == 2]
    for _ in range(10):
        c = np.zeros(2**n_vars)
        c[idx] = rng.uniform(0.5, 1.5, len(idx))
        assert bf.max_restricted_level2_mass(bf.from_coeffs(n_vars, c)) == recursive_level2_scan(c)


def test_scan_memory_at_the_cap():
    # the level-by-level tail holds 2^7 times one node's table, not 3^N
    f = _scan_function(bf.EXHAUSTIVE_VAR_LIMIT, "real")
    tracemalloc.start()
    try:
        bf.max_restricted_level2_mass(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _fold_outputs(routine, n_vars, rng):
    """Outputs of one coefficient-table routine on a seeded random function."""
    f = bf.from_coeffs(n_vars, rng.standard_normal(2**n_vars))
    if routine == "restrict":
        return [bf.restrict(f, bf.Restriction(rng.integers(-1, 2, n_vars))).coeffs for _ in range(20)]
    if routine == "eval_multilinear":
        return [bf.eval_multilinear(f, rng.uniform(-1, 1, n_vars)) for _ in range(20)]
    if routine == "partial_derivative":
        return [
            bf.partial_derivative(
                f, np.flatnonzero(rng.integers(0, 2, n_vars)), rng.uniform(-1, 1, n_vars)
            )
            for _ in range(20)
        ]
    return [bf.max_restricted_level2_mass(f)]


# sha256 of each routine's outputs on seeded random real-coefficient
# functions, N = 1..10.  Pinned from the routes that each folded the table
# their own way (restrict repacked a packed table in a Python loop); the
# shared fold keeps every operand and its order, so not a bit may move.
FOLD_DIGESTS = {
    "restrict": "b364dbd153e9c288e85ac869dab15dcc63ddf7dc541bd2d473a66786684b30b3",
    "eval_multilinear": "cd9867a2687d975b3368cb61850af5bfb50571d33cce27da171bc7d0e3431dd3",
    "partial_derivative": "548e23a97384f0cff3b4b856ec865a1ca6996e55be3798a2dfd20b0d653e71ab",
    "max_restricted_level2_mass": "234b8ef634b35f7834824dd3b24da67d7756b01bc69e8a2e21ffe142ccf5df0c",
}


@pytest.mark.parametrize("routine", list(FOLD_DIGESTS))
def test_fold_outputs_match_pinned_digests(routine):
    h = hashlib.sha256()
    for n_vars in range(1, 11):
        rng = np.random.default_rng(n_vars)
        for out in _fold_outputs(routine, n_vars, rng):
            h.update(np.asarray(out, dtype=np.float64).tobytes())
    assert h.hexdigest() == FOLD_DIGESTS[routine]


class TestRestrictionDistribution:
    def test_centered_anchor_probabilities(self):
        dist = bf.RestrictionDistribution(np.zeros(3))
        npt.assert_allclose(dist.p_plus, 0.25)
        npt.assert_allclose(dist.p_minus, 0.25)
        npt.assert_allclose(dist.p_star, 0.5)

    def test_boundary_anchor_removes_one_sign(self):
        dist = bf.RestrictionDistribution([0.5, -0.5])
        assert dist.p_minus[0] == 0.0
        assert dist.p_plus[1] == 0.0

    def test_rejects_anchor_outside_cube(self):
        with pytest.raises(ValueError):
            bf.RestrictionDistribution([0.6, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_anchor(self, bad):
        with pytest.raises(ValueError, match="finite"):
            bf.RestrictionDistribution([bad, 0.0])

    def test_enumeration_probabilities_sum_to_one(self):
        dist = bf.RestrictionDistribution([0.25, -0.25, 0.1])
        _, probs = bf._restriction_table(dist)
        assert len(probs) == 27
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_enumeration_cap_is_checked_before_allocating(self):
        dist = bf.RestrictionDistribution(np.zeros(11))
        f = bf.from_coeffs(11, np.zeros(2**11))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                bf._restriction_table(dist)
            with pytest.raises(CapacityError):
                bf.restricted_mean(f, dist)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a 3^11 table would hold 1.7 MiB of values alone
        assert peak < 64 * 2**10

    @pytest.mark.parametrize(
        "anchor",
        [[0.3], [0.5, -0.5, 0.0], [0.1, -0.2, 0.5, -0.4, 0.25], np.linspace(-0.5, 0.5, 7)],
    )
    def test_table_is_the_product_enumeration(self, anchor):
        # values, order and probabilities (math.prod, left to right) bit for bit
        dist = bf.RestrictionDistribution(anchor)
        values, probs = bf._restriction_table(dist)
        want = enumeration_oracle(dist.p_plus, dist.p_minus, dist.p_star)
        want_probs = np.array([p for _, p in want]).tobytes()
        assert values.dtype == np.int8 and values.shape == (len(want), dist.n_vars)
        assert [tuple(row) for row in values.tolist()] == [v for v, _ in want]
        assert probs.tobytes() == want_probs

    def test_free_set_tracks_star_entries(self):
        rho = bf.Restriction([1, "*", -1, "*"])
        assert np.flatnonzero(rho.values == 0).tolist() == [1, 3]


class TestProofIdentities:
    def test_mixed_derivative_equals_scaled_restricted_mean(self):
        # d_ij f(x) = 4 E_rho[d_ij f_rho(0)] with rho from the anchored family
        rng = np.random.default_rng(42)
        for _ in range(3):
            f = bf.random_sign_function(3, rng)
            x = rng.uniform(-0.5, 0.5, size=3)
            dist = bf.RestrictionDistribution(x)
            pairs = list(itertools.combinations(range(3), 2))
            for i, j in pairs:
                lhs = bf.partial_derivative(f, (i, j), x)
                rhs = 0.0
                for values, p in enumeration_oracle(dist.p_plus, dist.p_minus, dist.p_star):
                    rho = bf.Restriction(values)
                    rhs += p * bf.partial_derivative(bf.restrict(f, rho), (i, j), np.zeros(3))
                assert abs(lhs - 4 * rhs) < 1e-9

    def test_shift_identity(self):
        # f(x + y) = E_rho[f_rho(2 y)] for anchors x in the cube
        rng = np.random.default_rng(7)
        for _ in range(3):
            f = bf.random_sign_function(4, rng)
            x = rng.uniform(-0.5, 0.5, size=4)
            y = rng.uniform(-0.25, 0.25, size=4)
            dist = bf.RestrictionDistribution(x)
            rhs = 0.0
            for values, p in enumeration_oracle(dist.p_plus, dist.p_minus, dist.p_star):
                rhs += p * bf.eval_multilinear(bf.restrict(f, bf.Restriction(values)), 2 * y)
            assert abs(bf.eval_multilinear(f, x + y) - rhs) < 1e-9


class TestSerialization:
    def test_json_round_trip(self):
        rng = np.random.default_rng(42)
        f = bf.random_sign_function(3, rng)
        g = bf.from_json_dict(bf.to_json_dict(f))
        npt.assert_array_equal(f.coeffs, g.coeffs)
        assert g.n_vars == 3

    def test_rejects_malformed_document(self):
        with pytest.raises(ValueError):
            bf.from_json_dict({"n": 2})
        with pytest.raises(ValueError):
            bf.from_json_dict({"n": 2, "coeffs": [1, 0], "extra": 1})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_coefficients(self, bad):
        with pytest.raises(ValueError, match="finite"):
            bf.from_json_dict({"n": 2, "coeffs": [0.0, 0.0, 0.0, bad]})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_from_coeffs_rejects_non_finite_coefficients(self, bad):
        # every constructor goes through BooleanFunction, not only the file route
        with pytest.raises(ValueError, match="finite"):
            bf.from_coeffs(2, [0.0, 0.0, 0.0, bad])

    def test_file_round_trip(self, tmp_path):
        f = bf.from_truth_table([1, -1, -1, 1])
        path = tmp_path / "parity.json"
        bf.save_function(f, path)
        g = bf.load_function(path)
        npt.assert_array_equal(f.coeffs, g.coeffs)

    def test_restriction_rejects_fractional_values(self):
        with pytest.raises(ValueError):
            bf.Restriction([0.5, 1])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, "x", 2, 0.5, object()])
    def test_restriction_rejects_every_bad_entry_with_value_error(self, bad):
        with pytest.raises(ValueError, match=r"restriction entries must be -1, \+1, or \* \(0\)"):
            bf.Restriction([bad, 1])

    @pytest.mark.parametrize(
        "values, want",
        [(["*", 1], [0, 1]), ([None, -1], [0, -1]), ([1.0, 0.0], [1, 0]),
         (np.array([1, -1, 0], dtype=np.int8), [1, -1, 0]),
         (np.array([0, 0, -1], dtype=np.int8), [0, 0, -1]),
         (np.array([-1, 1, 0, 1], dtype=np.int64), [-1, 1, 0, 1])],
    )
    def test_restriction_accepts_stars_floats_and_int8(self, values, want):
        rho = bf.Restriction(values)
        npt.assert_array_equal(rho.values, want)
        assert rho.values.dtype == np.int8 and not rho.values.flags.writeable

    @pytest.mark.parametrize(
        "values, shown",
        [(np.array([2], dtype=np.int64), "2"), (np.array([-2], dtype=np.int64), "-2"),
         (np.array([1, -128], dtype=np.int8), "-128"), (np.array([0, 255], dtype=np.uint8), "255")],
    )
    def test_restriction_rejects_integer_vectors_outside_the_alphabet(self, values, shown):
        with pytest.raises(ValueError, match=rf"restriction entries must be -1, \+1, or \* \(0\); got {shown}$"):
            bf.Restriction(values)

    def test_restriction_copies_an_integer_vector(self):
        values = np.array([1, 0, -1], dtype=np.int8)
        rho = bf.Restriction(values)
        values[0] = 0
        npt.assert_array_equal(rho.values, [1, 0, -1])
