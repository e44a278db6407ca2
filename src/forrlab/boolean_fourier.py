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

import functools
import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from forrlab._kernels import _eval_multilinear_cols_np, wht_inplace_np
from forrlab.errors import CapacityError

__all__ = [
    "BooleanFunction",
    "Restriction",
    "RestrictionDistribution",
    "from_truth_table",
    "from_coeffs",
    "truth_table",
    "eval_multilinear",
    "restrict",
    "partial_derivative",
    "level_mass",
    "max_restricted_level2_mass",
    "restricted_mean",
    "subset_index",
    "subset_sizes",
    "random_sign_function",
    "to_json_dict",
    "from_json_dict",
    "load_function",
    "save_function",
]

TABLE_VAR_LIMIT = 16  # 2^N tables built from a variable count alone are capped here
EXHAUSTIVE_VAR_LIMIT = 12  # 3^N restriction scans are capped here
ENUMERATION_VAR_LIMIT = 10
_SCAN_TAIL_VARS = 8  # the exhaustive scan runs its last variables level by level


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
        # a table of s entries has at most s.bit_length() - 1 variables: no
        # power of an n_vars beyond that is taken
        if self.n_vars >= coeffs.size.bit_length() or coeffs.shape != (2**self.n_vars,):
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
        if np.abs(anchor).max() > 0.5:
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
# Constructors
# ---------------------------------------------------------------------------


def from_truth_table(table: Sequence[float]) -> BooleanFunction:
    """Interpolate the multilinear polynomial through a +-1 truth table."""
    t = np.asarray(table, dtype=np.float64)
    if t.ndim != 1:
        raise ValueError("truth table must be a 1-D vector")
    if t.size < 1 or t.size & (t.size - 1):
        raise ValueError(f"truth table length must be a power of two, got {t.size}")
    n_vars = t.size.bit_length() - 1
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
    if n_vars > TABLE_VAR_LIMIT:
        raise CapacityError(f"random functions are capped at {TABLE_VAR_LIMIT} variables, got {n_vars}")
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


@functools.cache
def _pair_tables(n_vars: int) -> tuple[np.ndarray, np.ndarray]:
    """A column per pair i < j, in ``itertools.combinations`` order: the masks that
    contain it, in index order (its own first), and the other variables (cached, read-only)."""
    pairs = [subset_index(p) for p in itertools.combinations(range(n_vars), 2)]
    masks = np.arange(2**n_vars)
    others = max(n_vars - 2, 0)
    above = np.array([masks[masks & p == p] for p in pairs], np.intp).reshape(len(pairs), 2**others).T
    rest = np.array([[i for i in range(n_vars) if not p >> i & 1] for p in pairs], np.intp)
    rest = rest.reshape(len(pairs), others).T
    above.flags.writeable = rest.flags.writeable = False
    return above, rest


def _pair_derivatives(f: BooleanFunction, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The masks of the pairs i < j and d_ij f(x), each folded as ``partial_derivative`` folds it."""
    above, rest = _pair_tables(f.n_vars)
    return above[0], _eval_multilinear_cols_np(f.coeffs[above], x[rest])


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
    along a ternary recursion (guarded at N <= 12).  A node's table keeps
    the entries with at most 2 kept variables: a row per subset of the
    variables left (odd rows hold the next one), a column per kept subset in
    mask order.  Fixing the next variable adds or subtracts the odd rows to
    the even ones; keeping it appends the odd rows' columns with at most 1.
    The last ``_SCAN_TAIL_VARS`` variables run level by level, the nodes
    that keep k variables along the innermost axis of one array; a leaf sums
    its pair columns as a C-contiguous row, so the adds and sums are those of
    a per-node recursion, bit for bit.  ``method="monte_carlo"`` samples
    ``samples`` uniformly random restrictions and returns the best found,
    only a lower bound on the true maximum.  It substitutes
    ``_RESTRICTION_BLOCK`` table entries at a time and draws each block's
    entries with one call, which continues the stream of one call per
    sample; each row's mass sums in the order of ``level_mass``, so the
    value is that of restricting one sample at a time, bit for bit.
    """
    if method == "monte_carlo":
        if rng is None:
            raise ValueError("monte_carlo mode needs an rng")
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        pairs = subset_sizes(f.n_vars) == 2
        step = max(1, _RESTRICTION_BLOCK // f.coeffs.size)
        best = 0.0
        for start in range(0, samples, step):
            block = rng.integers(-1, 2, size=(min(step, samples - start), f.n_vars))
            tables = _restrict_rows(np.tile(f.coeffs, (len(block), 1)), block)
            best = max(best, float(np.abs(tables.compress(pairs, axis=1)).sum(axis=1).max()))
        return best
    if method != "exhaustive":
        raise ValueError(f"unknown method {method!r}")
    if f.n_vars > EXHAUSTIVE_VAR_LIMIT:
        raise CapacityError(
            f"exhaustive restriction scan is capped at {EXHAUSTIVE_VAR_LIMIT} variables "
            f"(got {f.n_vars}); use method='monte_carlo' for a lower bound"
        )

    def level(stacks: dict) -> dict:
        # each node's next variable (odd rows) fixed to +1 and to -1 in its stack, kept in the next
        nodes = {k: 2 * s.shape[2] for k, s in stacks.items()} | {max(stacks) + 1: 0}
        for k, s in stacks.items():
            nodes[k + 1] += s.shape[2]
        out = {k: np.empty((len(s) // 2, 1 + k * (k + 1) // 2, n)) for k, n in nodes.items()}
        for k, s in stacks.items():
            even, odd, width, n = s[0::2], s[1::2], s.shape[1], s.shape[2]
            np.add(even, odd, out=out[k][:, :, :n])
            np.subtract(even, odd, out=out[k][:, :, n : 2 * n])
            keep = out[k + 1][:, :, -n:]
            keep[:, :width] = even
            keep[:, width:] = odd[:, _scan_columns(k)[0]]
        return out

    def scan(stacks: dict, remaining: int) -> float:
        if remaining > _SCAN_TAIL_VARS:
            children = [{k: s[:, :, j : j + 1]} for k, s in level(stacks).items() for j in range(s.shape[2])]
            return max(scan(child, remaining - 1) for child in children)
        for _ in range(remaining):
            stacks = level(stacks)
        # each leaf's pair entries as one C-contiguous row, summed in the order of a 1-D leaf
        leaves = (np.abs(s[0].take(_scan_columns(k)[1], axis=0).T, order="C") for k, s in stacks.items())
        return max(float(leaf.sum(axis=1).max()) for leaf in leaves)

    return scan({0: f.coeffs.reshape(-1, 1, 1)}, f.n_vars)


@functools.cache
def _scan_columns(kept: int) -> tuple[np.ndarray, np.ndarray]:
    """Among the subsets of ``kept`` variables with at most 2 members, in mask order,
    the positions of those with at most 1 and with 2 (cached, read-only)."""
    sizes = subset_sizes(kept)[subset_sizes(kept) <= 2]
    one, two = np.flatnonzero(sizes <= 1), np.flatnonzero(sizes == 2)
    one.flags.writeable = two.flags.writeable = False
    return one, two


_RESTRICTION_BLOCK = 1 << 16  # table entries per row block of restricted_mean (512 KiB)


def _expand(c: np.ndarray, p: np.ndarray, probs: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Table row r of ``c``, of probability p[r], with variable i fixed to +1, to -1 and free:
    rows 3r + (0, 1, 2) of probabilities p[r] * probs, substituted as ``_restrict_rows`` does."""
    v = c.reshape(len(c), -1, 2, 1 << i)
    out = np.empty((len(c), 3) + v.shape[1:])
    np.add(v[:, :, 0], v[:, :, 1], out=out[:, 0, :, 0])
    np.subtract(v[:, :, 0], v[:, :, 1], out=out[:, 1, :, 0])
    out[:, :2, :, 1] = 0.0
    out[:, 2] = v
    return out.reshape(-1, c.shape[1]), (p[:, None] * probs).ravel()


def restricted_mean(f: BooleanFunction, dist: RestrictionDistribution) -> np.ndarray:
    """E_rho[coefficient table of f_rho] over the 3^N restrictions of ``dist``.

    A ternary expansion in index order (``_expand``) makes row r the r-th
    tuple of ``itertools.product((1, -1, 0), repeat=N)``, its probability
    multiplied left to right as ``math.prod`` does; the leading variables go
    depth-first, the last ones in blocks of at most ``_RESTRICTION_BLOCK``
    entries.  Each block's reduce down its rows starts from the running sum,
    so every add is that of a loop over the restrictions one by one.  Capped
    at ENUMERATION_VAR_LIMIT variables; that and the variable counts of f
    and ``dist`` are checked before anything is allocated.
    """
    n = dist.n_vars
    if n != f.n_vars:
        raise ValueError(f"restriction distribution has {n} coordinates, function has {f.n_vars}")
    if n > ENUMERATION_VAR_LIMIT:
        raise CapacityError(
            f"restriction enumeration is capped at {ENUMERATION_VAR_LIMIT} variables"
        )
    size = f.coeffs.size
    probs = np.stack([dist.p_plus, dist.p_minus, dist.p_star], axis=1)

    def walk(c: np.ndarray, p: np.ndarray, i: int, acc: np.ndarray) -> np.ndarray:
        if 3 ** (n - i) * size > _RESTRICTION_BLOCK:
            c, p = _expand(c, p, probs[i], i)
            for r in range(3):
                acc = walk(c[r : r + 1], p[r : r + 1], i + 1, acc)
            return acc
        for j in range(i, n):
            c, p = _expand(c, p, probs[j], j)
        block = np.empty((len(c) + 1, size))
        block[0] = acc
        np.multiply(c, p[:, None], out=block[1:])
        return np.add.reduce(block, axis=0)

    return walk(f.coeffs[None], np.ones(1), 0, np.zeros(size))


# ---------------------------------------------------------------------------
# Serialization (normative JSON schema)
# ---------------------------------------------------------------------------


def to_json_dict(f: BooleanFunction) -> dict:
    """{"n": N, "coeffs": [...]} with coefficients in bitmask order."""
    return {"n": f.n_vars, "coeffs": [float(c) for c in f.coeffs]}


def from_json_dict(d: dict) -> BooleanFunction:
    if not isinstance(d, dict) or set(d) != {"n", "coeffs"}:
        raise ValueError('expected an object with exactly the keys "n" and "coeffs"')
    n = d["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f'"n" must be an integer, got {n!r}')
    try:
        return from_coeffs(n, d["coeffs"])
    except TypeError:
        raise ValueError('"coeffs" must be a list of numbers') from None


def load_function(path) -> BooleanFunction:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))


def save_function(f: BooleanFunction, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(f), fh)
        fh.write("\n")
