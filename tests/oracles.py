"""Independent oracle implementations used by the test suite.

Everything here recomputes quantities by a different route than the
library: direct summations, brute-force averages, finite differences,
eigendecompositions, and series with a different parameterization.
"""

import itertools
import math

import numpy as np


def direct_wht_oracle(v):
    """O(4^N) summation: out[i] = sum_j (-1)^{popcount(i & j)} v[j]."""
    m = len(v)
    out = np.zeros(m)
    for i in range(m):
        for j in range(m):
            sign = -1.0 if bin(i & j).count("1") % 2 else 1.0
            out[i] += sign * v[j]
    return out


def naive_multilinear(coeffs, x):
    """Direct 2^N-term evaluation of sum_S c[S] prod_{i in S} x_i."""
    total = 0.0
    for mask in range(len(coeffs)):
        term = coeffs[mask]
        for i in range(len(x)):
            if mask >> i & 1:
                term *= x[i]
        total += term
    return total


def point_of_index(j, n_vars):
    """The +-1 point encoded by index j: bit i set means coordinate i is -1."""
    return np.array([-1.0 if j >> i & 1 else 1.0 for i in range(n_vars)])


def brute_force_coefficients(table):
    """Averaging oracle: c[S] = 2^{-N} sum_x f(x) prod_{i in S} x_i."""
    m = len(table)
    n_vars = m.bit_length() - 1
    coeffs = np.zeros(m)
    for mask in range(m):
        acc = 0.0
        for j in range(m):
            x = point_of_index(j, n_vars)
            prod = 1.0
            for i in range(n_vars):
                if mask >> i & 1:
                    prod *= x[i]
            acc += table[j] * prod
        coeffs[mask] = acc / m
    return coeffs


def fd_derivative(func, x, subset, h):
    """Iterated forward finite difference over the variables in ``subset``.

    Exact for multilinear functions at any h != 0.
    """
    subset = list(subset)
    if not subset:
        return func(x)
    i, rest = subset[0], subset[1:]
    e = np.zeros(len(x))
    e[i] = h
    return (fd_derivative(func, x + e, rest, h) - fd_derivative(func, x, rest, h)) / h


def theta_series_exit_probability(barrier, horizon, terms=60):
    """P[sup_{t <= horizon} |B_t| >= barrier] for standard 1-D BM.

    Uses the theta-series form of the survival probability,
    P[sup |B| < a] = (4/pi) sum_{k odd} ((-1)^{(k-1)/2} / k)
                     exp(-k^2 pi^2 horizon / (8 a^2)),
    a different parameterization than the reflection series in the library.
    """
    if horizon <= 0:
        return 0.0
    survive = 0.0
    for k in range(1, 2 * terms, 2):
        sign = 1.0 if (k - 1) // 2 % 2 == 0 else -1.0
        survive += (sign / k) * math.exp(-(k * k) * math.pi**2 * horizon / (8 * barrier**2))
    return 1.0 - 4.0 / math.pi * survive


def dense_sqrt_oracle(mat):
    """Symmetric PSD square root through a full eigendecomposition.

    Eigenvalues below 1e-12 are treated as exact zeros; the square root
    would otherwise amplify their roundoff to ~1e-8.
    """
    vals, vecs = np.linalg.eigh(mat)
    vals[vals < 1e-12] = 0.0
    return (vecs * np.sqrt(vals)) @ vecs.T


def recursive_level2_scan(coeffs):
    """Largest level-2 mass over all 3^N restrictions, one call per node.

    A ternary recursion over the variables in index order: variable
    ``kept`` is summed out with +1, with -1, or kept, and each leaf sums |c|
    over the pairs of its kept variables, as a 1-D sum.  The library's scan
    does the same folds and leaf sums, so the values agree exactly.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    pairs = np.array([bin(m).count("1") == 2 for m in range(coeffs.size)])

    def rec(c, remaining, kept):
        if remaining == 0:
            return float(np.abs(c[pairs[: c.size]]).sum())
        width = 1 << kept
        view = c.reshape(-1, 2 * width)
        lo = view[:, :width]
        hi = view[:, width:]
        best = rec((lo + hi).ravel(), remaining - 1, kept)
        best = max(best, rec((lo - hi).ravel(), remaining - 1, kept))
        return max(best, rec(c, remaining - 1, kept + 1))

    return rec(coeffs.copy(), coeffs.size.bit_length() - 1, 0)


def restrict_loop_oracle(coeffs, values):
    """One restriction substituted into one coefficient table, in a Python loop.

    Variable i fixed to s pairs the entries without and with bit i as
    ``lo += s * hi; hi = 0``, variable by variable in index order.  The
    library folds many tables at once with the same adds, so the tables
    agree exactly.
    """
    c = np.array(coeffs, dtype=np.float64)
    for i, val in enumerate(values):
        if val != 0:
            v = c.reshape(-1, 2, 1 << i)
            v[:, 0] += int(val) * v[:, 1]
            v[:, 1] = 0.0
    return c


def enumeration_oracle(p_plus, p_minus, p_star):
    """Every (values, probability) of the anchored family, one tuple at a time.

    Coordinates take +1, -1, * (0) in itertools.product order, and each
    probability is math.prod of the coordinate probabilities.
    """
    per_coord = [
        ((1, float(pp)), (-1, float(pm)), (0, float(ps)))
        for pp, pm, ps in zip(p_plus, p_minus, p_star)
    ]
    return [
        (tuple(v for v, _ in combo), math.prod(p for _, p in combo))
        for combo in itertools.product(*per_coord)
    ]
