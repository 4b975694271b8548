"""Joint and marginal distributions over two categorical variables.

Probabilities are stored as float64, counts as int64. Containers are frozen
dataclasses around read-only arrays, so constructed values are immutable and
safe to share between threads.

Every value type here and in ``estimators`` and ``asymptotics`` builds its
array through one checked path: ``_array`` (a non-empty copy with the right
number of dimensions), then ``_probabilities`` (finite, >= 0, summing to 1
within ``PROB_TOL``) or ``_counts`` (integral, each at least a minimum), and
``_frozen`` makes the result read-only. Counts and category labels become
int64 through ``_int64``, which checks them before the cast. The types
compare field by field through ``_fields_equal`` and are unhashable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Literal

import numpy as np

__all__ = [
    "PROB_TOL",
    "Axis",
    "JointDistribution",
    "MarginalDistribution",
    "CountTable",
    "SampleBatch",
    "CrossProductRatios",
    "row_marginal",
    "column_marginal",
    "empirical_joint",
    "sample",
    "cross_product_ratios",
    "build_2x2_from_marginals_cpr",
]

# Absolute tolerance for "sums to one" checks on probability inputs.
PROB_TOL = 1e-12

INT64_MAX = int(np.iinfo(np.int64).max)

Axis = Literal["row", "column"]


def _whole(value, name: str) -> int:
    """``value`` as an int; bools and numbers with a fractional part are
    refused rather than truncated."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _integer(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int (see ``_whole``), at least ``minimum`` when one is
    given and at most the int64 maximum, so that numpy never sees a size or
    count it cannot hold."""
    number = _whole(value, name)
    if minimum is not None and number < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    if number > INT64_MAX:
        raise ValueError(f"{name} must lie in the int64 range")
    return number


def _seed(value) -> int:
    """``value`` as a master seed: an integer in [0, 2**64)."""
    seed = _whole(value, "seed")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    return seed


def _real(value, name: str) -> float:
    """``value`` as a float; bools, strings and other non-numbers are refused
    rather than converted."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{name} must be a number, got {value!r}")


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` made read-only, so the value holding it cannot change."""
    arr.flags.writeable = False
    return arr


def _array(values, dtype, ndim: int, shape_error: str) -> np.ndarray:
    """A copy of ``values`` as a non-empty array with ``ndim`` dimensions."""
    arr = np.array(values, dtype=dtype)
    if arr.ndim != ndim or arr.size == 0:
        raise ValueError(shape_error)
    return arr


def _probabilities(values, ndim: int, shape_error: str, name: str) -> np.ndarray:
    """Read-only float64 probabilities: finite, >= 0 and summing to 1 within
    ``PROB_TOL``."""
    probs = _array(values, np.float64, ndim, shape_error)
    if not np.isfinite(probs).all() or (probs < 0).any():
        raise ValueError(f"{name} must be finite and >= 0")
    total = float(probs.sum())
    if abs(total - 1.0) > PROB_TOL:
        raise ValueError(f"{name} must sum to 1, got {total!r}")
    return _frozen(probs)


def _int64(values: np.ndarray, name: str) -> np.ndarray:
    """``values`` as int64, checked before the cast: a value with a fractional
    part or outside the int64 range is refused, never truncated or wrapped."""
    kind = values.dtype.kind
    if kind == "O":
        # numpy keeps Python ints beyond the 64-bit integer types as objects.
        entries = values.ravel().tolist()
        if not all(isinstance(v, int) for v in entries):
            raise ValueError(f"{name} must be integers")
        if not all(-(2**63) <= v < 2**63 for v in entries):
            raise ValueError(f"{name} must lie in the int64 range")
        return values.astype(np.int64)
    if kind not in "biuf" or (
        kind == "f" and not (np.isfinite(values) & (values == np.trunc(values))).all()
    ):
        raise ValueError(f"{name} must be integers")
    if kind in "uf" and ((values >= 2**63) | (values < -(2**63))).any():
        raise ValueError(f"{name} must lie in the int64 range")
    return values.astype(np.int64, copy=False)


def _counts(values, ndim: int, shape_error: str, name: str, minimum: int) -> np.ndarray:
    """Read-only int64 counts, each >= ``minimum``."""
    counts = _int64(_array(values, None, ndim, shape_error), name)
    if (counts < minimum).any():
        raise ValueError(f"{name} must be >= {minimum}")
    return _frozen(counts)


def _fields_equal(self, other):
    """``__eq__`` of the value types: field by field, arrays by shape and
    entries (NaN equal to NaN), other fields with ``==``."""
    if not isinstance(other, type(self)):
        return NotImplemented
    pairs = [(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)]
    return all(
        np.array_equal(a, b, equal_nan=True) if isinstance(a, np.ndarray) else a == b
        for a, b in pairs
    )


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """An I x J table of cell probabilities."""

    cells: np.ndarray

    def __post_init__(self):
        cells = _probabilities(
            self.cells, 2, "cells must form a non-empty 2-d table", "cell probabilities"
        )
        object.__setattr__(self, "cells", cells)

    @property
    def n_rows(self) -> int:
        return self.cells.shape[0]

    @property
    def n_cols(self) -> int:
        return self.cells.shape[1]

    @property
    def dims(self) -> tuple[int, int]:
        return self.cells.shape

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class MarginalDistribution:
    """A probability vector over one axis of a joint table."""

    probs: np.ndarray
    axis: Axis

    def __post_init__(self):
        probs = _probabilities(
            self.probs, 1, "marginal must be a non-empty vector", "marginal entries"
        )
        if self.axis not in ("row", "column"):
            raise ValueError(f"axis must be 'row' or 'column', got {self.axis!r}")
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return self.probs.shape[0]

    def require_positive(self, context: str = "known marginal") -> None:
        """Raise if any entry is zero (the standing assumption for a known
        column marginal is strict positivity)."""
        if (self.probs == 0.0).any():
            raise ValueError(f"{context} must have strictly positive entries")

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class CountTable:
    """An I x J table of observation counts with its grand total."""

    counts: np.ndarray
    total: int = field(init=False)

    def __post_init__(self):
        counts = _counts(self.counts, 2, "counts must form a non-empty 2-d table", "counts", 0)
        # Summed as Python ints: an int64 sum would wrap silently.
        total = sum(counts.ravel().tolist())
        if total > INT64_MAX:
            raise ValueError(f"count total {total} exceeds the int64 range")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", total)

    @property
    def dims(self) -> tuple[int, int]:
        return self.counts.shape

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Raw paired observations (x_t, y_t) with 1-based category labels."""

    pairs: np.ndarray
    dims: tuple[int, int]

    def __post_init__(self):
        pairs = _int64(np.array(self.pairs), "pair labels")
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("pairs must be an (n, 2) array of category labels")
        if not isinstance(self.dims, (tuple, list)) or len(self.dims) != 2:
            raise ValueError(f"dims must be a (rows, cols) pair, got {self.dims!r}")
        n_rows, n_cols = (_integer(d, "each dims entry") for d in self.dims)
        if n_rows < 1 or n_cols < 1:
            raise ValueError("dims must be positive")
        x, y = pairs[:, 0], pairs[:, 1]
        if pairs.size and ((x < 1).any() or (x > n_rows).any() or (y < 1).any() or (y > n_cols).any()):
            raise ValueError("pair labels out of range for the given dims")
        object.__setattr__(self, "pairs", _frozen(pairs))
        object.__setattr__(self, "dims", (n_rows, n_cols))

    def __len__(self) -> int:
        return self.pairs.shape[0]

    def to_count_table(self) -> CountTable:
        n_rows, n_cols = self.dims
        flat = (self.pairs[:, 0] - 1) * n_cols + (self.pairs[:, 1] - 1)
        counts = np.bincount(flat, minlength=n_rows * n_cols).reshape(n_rows, n_cols)
        return CountTable(counts)

    __eq__ = _fields_equal


def row_marginal(p: JointDistribution) -> MarginalDistribution:
    """Sum each row of the table: the distribution of the row variable."""
    return MarginalDistribution(p.cells.sum(axis=1), axis="row")


def column_marginal(p: JointDistribution) -> MarginalDistribution:
    """Sum each column of the table: the distribution of the column variable."""
    return MarginalDistribution(p.cells.sum(axis=0), axis="column")


def empirical_joint(c: CountTable) -> JointDistribution:
    """Relative cell frequencies counts/total."""
    if c.total == 0:
        raise ValueError("no observations")
    return JointDistribution(c.counts / c.total)


def sample(p: JointDistribution, n: int, seed: int) -> CountTable:
    """Draw a multinomial count table of size n from p.

    The draw is the sequential conditional-binomial decomposition of the
    multinomial over the cells in row-major order, so equal (p, n, seed)
    always yields bit-identical counts. The bit generator is Philox, keyed
    by the 64-bit seed alone; no global RNG state is touched. A bool or
    fractional n or seed is refused, not truncated.
    """
    n = _integer(n, "sample size", 1)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(_seed(seed))))
    counts = rng.multinomial(n, p.cells.ravel(order="C"))
    return CountTable(counts.reshape(p.dims))


@dataclass(frozen=True, eq=False)
class CrossProductRatios:
    """All cross-product ratios p[i,j]*p[r,s] / (p[r,j]*p[i,s]) with i<r, j<s.

    ``ratios[i, r, j, s]`` holds the ratio; every other position is NaN.
    Ratios that are not defined (see :func:`cross_product_ratios`) are NaN
    as well and their indices are recorded in ``undefined`` instead of raising.
    """

    ratios: np.ndarray
    undefined: frozenset

    def __post_init__(self):
        ratios = _array(self.ratios, np.float64, 4, "ratios must be a non-empty 4-d array")
        object.__setattr__(self, "ratios", _frozen(ratios))
        object.__setattr__(self, "undefined", frozenset(self.undefined))

    @property
    def scalar(self) -> float:
        """The single ratio of a 2x2 table."""
        if self.ratios.shape != (2, 2, 2, 2):
            raise ValueError("scalar cross-product ratio is defined for 2x2 tables only")
        return float(self.ratios[0, 1, 0, 1])

    __eq__ = _fields_equal


def cross_product_ratios(p: JointDistribution) -> CrossProductRatios:
    """Compute every cross-product ratio of the table.

    A ratio is defined only where both cross products are positive and their
    quotient is finite. Any other, touching a zero cell, with a product that
    underflows or a quotient that overflows, is NaN and flagged as undefined
    rather than raised: zero cells are legitimate in empirical tables.
    """
    cells = p.cells
    n_rows, n_cols = p.dims
    num = cells[:, None, :, None] * cells[None, :, None, :]
    den = cells[None, :, :, None] * cells[:, None, None, :]
    i, r = np.indices((n_rows, n_rows))
    j, s = np.indices((n_cols, n_cols))
    wanted = (i < r)[:, :, None, None] & (j < s)[None, None, :, :]
    ok = wanted & (num > 0) & (den > 0)
    ratios = np.full(num.shape, np.nan)
    with np.errstate(over="ignore"):  # a subnormal denominator can overflow it
        ratios[ok] = num[ok] / den[ok]
    ratios[np.isinf(ratios)] = np.nan
    undefined = frozenset(map(tuple, np.argwhere(wanted & np.isnan(ratios)).tolist()))
    return CrossProductRatios(ratios=ratios, undefined=undefined)


def build_2x2_from_marginals_cpr(
    row: MarginalDistribution, col: MarginalDistribution, cpr: float
) -> JointDistribution:
    """Construct the 2x2 table with the given marginals and cross-product ratio.

    Parameters
    ----------
    row, col : MarginalDistribution
        Length-2 marginals (a, 1-a) and (b, 1-b) with 0 < a < 1, 0 < b < 1.
    cpr : float
        Target cross-product ratio, finite and > 0. cpr = 1 yields the
        product table. Otherwise the top-left cell is the root
        (-lin + sqrt(D)) / (2(1-cpr)) of Plackett's (1965) quadratic
        f(p) = (1-cpr) p^2 + lin p + const, where lin = 1 - a - b + cpr(a+b),
        const = -cpr*a*b and D = lin^2 - 4(1-cpr) const. As f(lo) < 0 < f(hi)
        on the Fréchet interval (lo, hi) = (max(0, a+b-1), min(a, b)),
        exactly one root lies inside it, and for either sign of 1-cpr it is
        this one. It is computed without cancellation: const/q if lin >= 0,
        else q/(1-cpr), with q = -(lin + copysign(sqrt(D), lin))/2.

    Returns
    -------
    JointDistribution
        Table whose marginals match the request and whose reconstructed
        cross-product ratio agrees with ``cpr`` to 1e-9 relative. Inputs
        for which double precision cannot give such a table raise
        ``ValueError``.
    """
    if len(row) != 2 or len(col) != 2:
        raise ValueError("both marginals must have length 2")
    a = float(row.probs[0])
    b = float(col.probs[0])
    if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
        raise ValueError("marginals must be non-degenerate: entries strictly inside (0, 1)")
    if not math.isfinite(cpr) or cpr <= 0.0:
        raise ValueError(f"cpr must be finite and > 0, got {cpr!r}")

    if cpr == 1.0:
        cells = np.array([[a * b, a * (1.0 - b)], [(1.0 - a) * b, (1.0 - a) * (1.0 - b)]])
        return JointDistribution(cells)

    quad = 1.0 - cpr
    lin = 1.0 - a - b + cpr * (a + b)
    const = -cpr * a * b
    # D < 0 only by rounding; an overflow gives NaN or zero cells, refused below.
    disc = max(lin * lin - 4.0 * quad * const, 0.0)
    q = -(lin + math.copysign(math.sqrt(disc), lin)) / 2.0
    p11 = const / q if lin >= 0.0 else q / quad

    cells = np.array([[p11, a - p11], [b - p11, 1.0 - a - b + p11]])
    off_diagonal = (a - p11) * (b - p11)
    if not (cells > 0.0).all() or off_diagonal == 0.0:
        raise ValueError(f"cpr {cpr} is too extreme for double precision at marginals ({a}, {b})")
    achieved = p11 * (1.0 - a - b + p11) / off_diagonal
    if abs(achieved - cpr) > 1e-9 * cpr:
        raise ValueError(
            f"constructed table misses cpr {cpr}: achieved {achieved!r} "
            f"(marginals ({a}, {b}) leave too little precision)"
        )
    return JointDistribution(cells)
