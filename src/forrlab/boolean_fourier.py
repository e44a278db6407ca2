"""Boolean functions as multilinear polynomials over {-1, 1}^N.

A function f: {-1,1}^N -> R is stored through the coefficients of its
multilinear expansion

    f(x) = sum_S c[S] * prod_{i in S} x_i,

one real coefficient per subset S of the N variables.  Coefficient tables
are dense arrays of length 2^N indexed by subset bitmask, with bit i of
the index marking variable i (0-based).  For a +-1-valued f these are the
Fourier coefficients of f and satisfy Parseval: sum_S c[S]^2 = 1.

Truth tables use the normative encoding for file and array I/O: entry j of
the table is f at the point x(j) with x_i = -1 when bit i of j is 1, and
x_i = +1 otherwise.  Under this encoding the coefficient table is exactly
the orthonormal Walsh-Hadamard transform of the truth table rescaled by
2^{-N/2}, which is how `from_truth_table` computes it.

Restrictions fix a subset of the variables to +-1 values and leave the
rest free.  The restricted function is represented over the full variable
set, with exact zero coefficients on every subset that touches a fixed
variable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from forrlab._kernels import _eval_multilinear_cols_np, eval_multilinear_batch_numpy, wht_inplace_np
from forrlab.errors import CapacityError

__all__ = [
    "BooleanFunction",
    "Restriction",
    "RestrictionDistribution",
    "wht",
    "from_truth_table",
    "from_coeffs",
    "truth_table",
    "eval_multilinear",
    "eval_multilinear_many",
    "restrict",
    "partial_derivative",
    "level_mass",
    "max_restricted_level2_mass",
    "sample_restriction",
    "enumerate_restrictions",
    "restricted_mean",
    "subset_index",
    "subset_sizes",
    "random_sign_function",
    "to_json_dict",
    "from_json_dict",
    "load_function",
    "save_function",
]

EXHAUSTIVE_VAR_LIMIT = 12  # 3^N restriction scans are capped here
ENUMERATION_VAR_LIMIT = 10
_SCAN_TAIL_VARS = 7  # the exhaustive scan runs its last variables level by level


def _require_power_of_two(m: int, what: str) -> int:
    if m < 1 or m & (m - 1):
        raise ValueError(f"{what} must be a power of two, got {m}")
    return m.bit_length() - 1


def subset_index(subset: Iterable[int]) -> int:
    """Bitmask index of a variable subset (variables are 0-based)."""
    mask = 0
    for i in subset:
        mask |= 1 << i
    return mask


def subset_sizes(n_vars: int) -> np.ndarray:
    """|S| for every subset bitmask S of n_vars variables, in index order.

    The first 2^k entries are the table for k variables.
    """
    return np.bitwise_count(np.arange(2**n_vars, dtype=np.uint64))


@dataclass(frozen=True)
class BooleanFunction:
    """A multilinear polynomial over n_vars variables.

    coeffs[mask] is the coefficient of prod_{i: bit i of mask} x_i.
    """

    n_vars: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.n_vars < 1:
            raise ValueError(f"n_vars must be >= 1, got {self.n_vars}")
        if coeffs.shape != (2**self.n_vars,):
            raise ValueError(
                f"coefficient table must have length 2^{self.n_vars}, got {coeffs.shape}"
            )
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficients must be finite")
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    def coefficient(self, subset: Iterable[int]) -> float:
        """Coefficient of the monomial over ``subset``."""
        idx = subset_index(subset)
        if idx >= self.coeffs.size:
            raise ValueError(f"subset {sorted(subset)} out of range for {self.n_vars} variables")
        return float(self.coeffs[idx])

    def __call__(self, x: Sequence[float]) -> float:
        return eval_multilinear(self, x)


_FREE = 0  # internal marker for a free coordinate


@dataclass(frozen=True)
class Restriction:
    """A partial assignment in {-1, +1, *}^N; value 0 encodes *."""

    values: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.values, dtype=object)
        if raw.ndim != 1 or raw.size < 1:
            raise ValueError("restriction needs a 1-D, non-empty value vector")
        out = []
        for v in raw:
            if isinstance(v, str) and v == "*" or v is None:
                out.append(0)
                continue
            try:
                iv = int(v)
            except (ValueError, OverflowError, TypeError):
                iv = None  # inf, nan, "x", an arbitrary object: not an entry
            if iv is None or iv != v or iv not in (-1, 0, 1):
                raise ValueError(f"restriction entries must be -1, +1, or * (0); got {v!r}")
            out.append(iv)
        vals = np.array(out, dtype=np.int8)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n_vars(self) -> int:
        return self.values.size

    @property
    def free(self) -> tuple[int, ...]:
        """Indices of the free (*) coordinates."""
        return tuple(int(i) for i in np.flatnonzero(self.values == _FREE))

    def merge(self, x: Sequence[float]) -> np.ndarray:
        """The point with fixed coordinates from the restriction and the
        rest from ``x`` (read at the free positions)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_vars,):
            raise ValueError(f"expected a point of length {self.n_vars}")
        out = self.values.astype(np.float64)
        free = self.values == _FREE
        out[free] = x[free]
        return out


@dataclass(frozen=True)
class RestrictionDistribution:
    """Product distribution over restrictions, anchored at a cube point.

    Coordinate i is fixed to +1 with probability 1/4 + x_i/2, to -1 with
    probability 1/4 - x_i/2, and left free with probability 1/2.  All
    three probabilities stay in [0, 1] exactly when the anchor lies in
    [-1/2, 1/2]^N.
    """

    anchor: np.ndarray

    def __post_init__(self):
        anchor = np.asarray(self.anchor, dtype=np.float64)
        if anchor.ndim != 1 or anchor.size < 1:
            raise ValueError("anchor must be a 1-D, non-empty vector")
        if not np.isfinite(anchor).all():
            raise ValueError("anchor must be finite")
        if np.abs(anchor).max() > 0.5 + 1e-12:
            raise ValueError("anchor must lie in [-1/2, 1/2]^N")
        anchor = anchor.copy()
        anchor.setflags(write=False)
        object.__setattr__(self, "anchor", anchor)

    @property
    def n_vars(self) -> int:
        return self.anchor.size

    @property
    def p_plus(self) -> np.ndarray:
        return 0.25 + self.anchor / 2

    @property
    def p_minus(self) -> np.ndarray:
        return 0.25 - self.anchor / 2

    @property
    def p_star(self) -> np.ndarray:
        return np.full(self.anchor.size, 0.5)


# ---------------------------------------------------------------------------
# Transforms and constructors
# ---------------------------------------------------------------------------


def wht(values: Sequence[float]) -> np.ndarray:
    """Orthonormal Walsh-Hadamard transform of a length-2^N vector.

    out[i] = 2^{-N/2} sum_j (-1)^{popcount(i & j)} values[j].  The
    transform is symmetric and self-inverse.
    """
    v = np.array(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("expected a 1-D vector")
    _require_power_of_two(v.size, "vector length")
    wht_inplace_np(v)
    v /= math.sqrt(v.size)
    return v


def from_truth_table(table: Sequence[float]) -> BooleanFunction:
    """Interpolate the multilinear polynomial through a +-1 truth table."""
    t = np.asarray(table, dtype=np.float64)
    if t.ndim != 1:
        raise ValueError("truth table must be a 1-D vector")
    n_vars = _require_power_of_two(t.size, "truth table length")
    if n_vars == 0:
        raise ValueError("need at least one variable")
    if not ((t == 1.0) | (t == -1.0)).all():
        raise ValueError("truth table entries must be exactly +-1")
    coeffs = wht_inplace_np(t.copy()) / t.size
    return BooleanFunction(n_vars, coeffs)


def from_coeffs(n_vars: int, coeffs: Sequence[float]) -> BooleanFunction:
    """Wrap an explicit coefficient table."""
    return BooleanFunction(n_vars, np.asarray(coeffs, dtype=np.float64))


def truth_table(f: BooleanFunction) -> np.ndarray:
    """Evaluate f on all of {-1,1}^N in the normative index encoding."""
    return wht_inplace_np(f.coeffs.copy())


def random_sign_function(n_vars: int, rng: np.random.Generator) -> BooleanFunction:
    """A uniformly random +-1-valued function on n_vars variables."""
    table = rng.integers(0, 2, size=2**n_vars) * 2 - 1
    return from_truth_table(table)


# ---------------------------------------------------------------------------
# Evaluation and calculus
# ---------------------------------------------------------------------------


def eval_multilinear(f: BooleanFunction, x: Sequence[float]) -> float:
    """Evaluate the multilinear expansion at a real point."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (f.n_vars,):
        raise ValueError(f"expected a point of length {f.n_vars}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("evaluation point must be finite")
    return float(_eval_multilinear_cols_np(f.coeffs, x[:, None])[0])


def eval_multilinear_many(f: BooleanFunction, points: np.ndarray) -> np.ndarray:
    """Evaluate f at each row of ``points`` with the batched kernel."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != f.n_vars:
        raise ValueError(f"expected points of shape (m, {f.n_vars})")
    return eval_multilinear_batch_numpy(f.coeffs, points)


def restrict(f: BooleanFunction, rho: Restriction) -> BooleanFunction:
    """Substitute the fixed coordinates of ``rho`` into f.

    The result is represented over all N variables; coefficients on any
    subset containing a fixed variable are exactly zero.
    """
    if rho.n_vars != f.n_vars:
        raise ValueError(
            f"restriction has {rho.n_vars} coordinates, function has {f.n_vars}"
        )
    c = _restrict_rows(f.coeffs[None].copy(), rho.values[None])
    return BooleanFunction(f.n_vars, c[0])


def _restrict_rows(c: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Substitute restriction row r of ``values`` into table row r of ``c``, in place.

    ``c`` is a C-contiguous ``(rows, 2^N)`` float array and ``values`` a
    ``(rows, N)`` array over {-1, 0, 1}.  Variable i, on the rows that fix
    it to s, pairs the entries without and with bit i as
    ``c[lo] += s * c[hi]; c[hi] = 0``, variable by variable in index order,
    so each row comes out as the substitution of its restriction alone.
    """
    for i in range(values.shape[1]):
        col = values[:, i]
        fixed = col != _FREE
        if not fixed.any():
            continue
        v = c.reshape(len(c), -1, 2, 1 << i)
        if fixed.all():
            v[:, :, 0] += col[:, None, None] * v[:, :, 1]
            v[:, :, 1] = 0.0
            continue
        rows = np.flatnonzero(fixed)
        sub = v[rows]
        sub[:, :, 0] += col[rows, None, None] * sub[:, :, 1]
        sub[:, :, 1] = 0.0
        v[rows] = sub
    return c


def partial_derivative(f: BooleanFunction, subset: Iterable[int], x: Sequence[float]) -> float:
    """Mixed partial derivative of the expansion over ``subset``, at x.

    Since the expansion is linear in each variable the derivative is exact
    (no step size is involved) and at x = 0 it returns the coefficient of
    the monomial over ``subset``.
    """
    s = set(int(i) for i in subset)
    if any(i < 0 or i >= f.n_vars for i in s):
        raise ValueError(f"derivative subset {sorted(s)} out of range")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (f.n_vars,):
        raise ValueError(f"expected a point of length {f.n_vars}")
    mask = subset_index(s)
    rest = [i for i in range(f.n_vars) if i not in s]
    # the entries whose subset contains s, in index order, are the table of
    # the derivative over the remaining variables
    above = f.coeffs[(np.arange(f.coeffs.size) & mask) == mask]
    return float(_eval_multilinear_cols_np(above, x[rest][:, None])[0])


def level_mass(f: BooleanFunction, k: int) -> float:
    """Sum of |coefficient| over all subsets of size exactly k."""
    if not 0 <= k <= f.n_vars:
        raise ValueError(f"level k must be in [0, {f.n_vars}], got {k}")
    return float(np.abs(f.coeffs[subset_sizes(f.n_vars) == k]).sum())


def max_restricted_level2_mass(
    f: BooleanFunction,
    method: str = "exhaustive",
    samples: int = 1000,
    rng: np.random.Generator | None = None,
) -> float:
    """Largest level-2 coefficient mass over all restrictions of f.

    ``method="exhaustive"`` scans all 3^N restrictions by sharing folds
    along a ternary recursion (guarded at N <= 12).  The last
    ``_SCAN_TAIL_VARS`` variables run level by level: a level's nodes that
    keep k variables are the rows of one array, folded by one add and one
    subtract, with the adds and leaf sums of a per-node recursion, so the
    value is the same bit for bit.  ``method="monte_carlo"``
    samples ``samples`` uniformly random restrictions and returns the best
    found, which is only a lower bound on the true maximum.
    """
    if method == "monte_carlo":
        if rng is None:
            raise ValueError("monte_carlo mode needs an rng")
        best = 0.0
        for _ in range(samples):
            vals = rng.integers(-1, 2, size=f.n_vars)
            best = max(best, level_mass(restrict(f, Restriction(vals)), 2))
        return best
    if method != "exhaustive":
        raise ValueError(f"unknown method {method!r}")
    if f.n_vars > EXHAUSTIVE_VAR_LIMIT:
        raise CapacityError(
            f"exhaustive restriction scan is capped at {EXHAUSTIVE_VAR_LIMIT} variables "
            f"(got {f.n_vars}); use method='monte_carlo' for a lower bound"
        )

    # a leaf's table over its kept variables is a prefix of the full one
    pairs = subset_sizes(f.n_vars) == 2

    def tail(c: np.ndarray, remaining: int, kept: int) -> float:
        # the nodes of one level with k kept variables are the rows of stacks[k]
        stacks = {kept: c[None]}
        for _ in range(remaining):
            parts: dict[int, list] = {}
            for k, s in stacks.items():
                v = s.reshape(len(s), -1, 2, 1 << k)
                parts.setdefault(k, []).extend((v[:, :, 0] + v[:, :, 1], v[:, :, 0] - v[:, :, 1]))
                parts[k + 1] = [s]
            stacks = {k: np.concatenate([p.reshape(len(p), -1) for p in ps]) for k, ps in parts.items()}
        # compress keeps each row C-ordered, so it sums in the order of a leaf's 1-D sum
        leaves = [np.abs(s.compress(pairs[: s.shape[1]], axis=1)).sum(axis=1) for s in stacks.values()]
        return max(float(m.max()) for m in leaves)

    def rec(c: np.ndarray, remaining: int, kept: int) -> float:
        if remaining <= _SCAN_TAIL_VARS:
            return tail(c, remaining, kept)
        width = 1 << kept
        view = c.reshape(-1, 2 * width)
        lo = view[:, :width]
        hi = view[:, width:]
        best = rec((lo + hi).ravel(), remaining - 1, kept)
        best = max(best, rec((lo - hi).ravel(), remaining - 1, kept))
        return max(best, rec(c, remaining - 1, kept + 1))

    return rec(f.coeffs.copy(), f.n_vars, 0)


# ---------------------------------------------------------------------------
# Random restrictions
# ---------------------------------------------------------------------------


def sample_restriction(dist: RestrictionDistribution, rng: np.random.Generator) -> Restriction:
    """Draw one restriction, coordinates independent."""
    u = rng.random(dist.n_vars)
    vals = np.zeros(dist.n_vars, dtype=np.int8)
    vals[u < dist.p_plus + dist.p_minus] = -1
    vals[u < dist.p_plus] = 1
    return Restriction(vals)


_ENTRY_ORDER = np.array((1, -1, 0), dtype=np.int8)  # one coordinate's entries, in enumeration order
_RESTRICTION_BLOCK = 1 << 16  # table entries per row block of restricted_mean (512 KiB)


def _restriction_table(dist: RestrictionDistribution) -> tuple[np.ndarray, np.ndarray]:
    """All 3^N restrictions of ``dist`` as arrays: values and probabilities.

    Row r of the ``(3^N, N)`` int8 value array is the r-th tuple of
    ``itertools.product((1, -1, 0), repeat=N)``, and entry r of the
    probability vector multiplies that row's coordinate probabilities left
    to right, as ``math.prod`` does.  Capped at ENUMERATION_VAR_LIMIT
    variables, checked before anything is allocated.
    """
    n = dist.n_vars
    if n > ENUMERATION_VAR_LIMIT:
        raise CapacityError(
            f"restriction enumeration is capped at {ENUMERATION_VAR_LIMIT} variables"
        )
    # digits[i, r] is coordinate i's position in _ENTRY_ORDER at row r
    digits = np.indices((3,) * n, dtype=np.int8).reshape(n, -1)
    per_coord = np.stack([dist.p_plus, dist.p_minus, dist.p_star], axis=1)
    probs = per_coord[0, digits[0]]
    for i in range(1, n):
        probs *= per_coord[i, digits[i]]
    return _ENTRY_ORDER[digits.T], probs


def enumerate_restrictions(
    dist: RestrictionDistribution,
) -> list[tuple[Restriction, float]]:
    """All 3^N restrictions with their probabilities (sum to 1), in
    ``_restriction_table`` order."""
    values, probs = _restriction_table(dist)
    return [(Restriction(v), p) for v, p in zip(values, probs.tolist())]


def restricted_mean(f: BooleanFunction, dist: RestrictionDistribution) -> np.ndarray:
    """E_rho[coefficient table of f_rho] over the 3^N restrictions of ``dist``.

    The enumeration is folded ``_RESTRICTION_BLOCK`` table entries at a time,
    and the sum adds p * table in enumeration order from a zero vector: each
    block's reduce down its rows starts from the running sum as its first
    row, so every add is that of a loop over the restrictions one by one.
    """
    values, probs = _restriction_table(dist)
    size = f.coeffs.size
    step = max(1, _RESTRICTION_BLOCK // size)
    buf = np.empty((min(step, len(probs)) + 1, size))
    acc = np.zeros(size)
    for start in range(0, len(probs), step):
        block = buf[: min(step, len(probs) - start) + 1]
        block[0] = acc
        tables = block[1:]
        tables[...] = f.coeffs
        _restrict_rows(tables, values[start : start + len(tables)])
        tables *= probs[start : start + len(tables), None]
        acc = np.add.reduce(block, axis=0)
    return acc


# ---------------------------------------------------------------------------
# Serialization (normative JSON schema)
# ---------------------------------------------------------------------------


def to_json_dict(f: BooleanFunction) -> dict:
    """{"n": N, "coeffs": [...]} with coefficients in bitmask order."""
    return {"n": f.n_vars, "coeffs": [float(c) for c in f.coeffs]}


def from_json_dict(d: dict) -> BooleanFunction:
    if not isinstance(d, dict) or set(d) != {"n", "coeffs"}:
        raise ValueError('expected an object with exactly the keys "n" and "coeffs"')
    return from_coeffs(int(d["n"]), d["coeffs"])


def load_function(path) -> BooleanFunction:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))


def save_function(f: BooleanFunction, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(f), fh)
        fh.write("\n")
