"""Point estimators: weighted/cloned frequencies, marginal adjustment, IPF.

The central operation is :func:`adjust_to_known_marginal`, which rescales an
empirical joint table column by column so that its column marginal matches a
marginal known exactly from an external source. That is one IPF column
half-step, and both half-steps of :func:`ipf_fit` are the same guarded scaling.
"""

from __future__ import annotations

import math
import sys
from dataclasses import field
from typing import Sequence

import numpy as np

from .tables import (
    PROB_TOL,
    JointDistribution,
    MarginalDistribution,
    _array,
    _coerce,
    _count_total,
    _counts,
    _frozen,
    _int64,
    _integer,
    _probabilities,
    _real,
    _value_type,
)

__all__ = [
    "WeightVector",
    "CloneCounts",
    "AdjustedTable",
    "IpfResult",
    "weighted_frequencies",
    "cloned_frequencies",
    "adjust_to_known_marginal",
    "adjusted_row_marginal",
    "ipf_column_step",
    "ipf_fit",
]


@_value_type
class WeightVector:
    """Nonnegative observation weights summing to one."""

    weights: np.ndarray

    def __post_init__(self):
        weights = _probabilities(self.weights, 1, "weights must be a non-empty vector", "weights")
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def uniform(cls, n: int) -> "WeightVector":
        n = _integer(n, "n", 1)
        return cls(np.full(n, 1.0 / n))


@_value_type
class CloneCounts:
    """Per-observation clone multiplicities (>= 1 each)."""

    counts: np.ndarray
    total: int = field(init=False)

    def __post_init__(self):
        counts = _counts(
            self.counts, 1, "clone counts must be a non-empty vector", "clone counts", 1
        )
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", _count_total(counts, "clone count"))

    def __len__(self) -> int:
        return self.counts.shape[0]

    def to_weights(self) -> WeightVector:
        """Cloning observation t exactly counts[t] times is weighting it by
        counts[t]/total."""
        return WeightVector(self.counts / self.total)


def _check_categories(xs, n_categories: int | None) -> tuple[np.ndarray, int]:
    xs = _int64(np.asarray(xs), "category labels")
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("observations must be a non-empty vector of category labels")
    if (xs < 1).any():
        raise ValueError("category labels are 1-based")
    top = int(xs.max())
    if n_categories is None:
        return xs, top
    n_categories = _integer(n_categories, "n_categories", 1)
    if top > n_categories:
        raise ValueError(f"label {top} exceeds n_categories={n_categories}")
    return xs, n_categories


def weighted_frequencies(
    xs: Sequence[int], weights: WeightVector, n_categories: int | None = None
) -> np.ndarray:
    """Weighted category frequencies sum_t weights[t] * 1{xs[t] == i}.

    With uniform weights this is exactly the vector of relative frequencies.
    """
    weights = _coerce(weights, WeightVector)
    xs, n_categories = _check_categories(xs, n_categories)
    if xs.shape[0] != len(weights):
        raise ValueError(f"got {xs.shape[0]} observations but {len(weights)} weights")
    return np.bincount(xs - 1, weights=weights.weights, minlength=n_categories)


def cloned_frequencies(
    xs: Sequence[int], clones: CloneCounts, n_categories: int | None = None
) -> np.ndarray:
    """Frequencies of the artificially enlarged sample where observation t is
    repeated clones[t] times; identical to weighting by clones[t]/total."""
    clones = _coerce(clones, CloneCounts)
    xs, _ = _check_categories(xs, n_categories)
    if xs.shape[0] != len(clones):
        raise ValueError(
            f"got {xs.shape[0]} observations but {len(clones)} clone counts"
        )
    return weighted_frequencies(xs, clones.to_weights(), n_categories)


@_value_type
class AdjustedTable:
    """A joint table reweighted column-wise to a known column marginal.

    Columns that were empty in the source table cannot be rescaled; they are
    left at zero and recorded in ``zero_column_mask`` (0-based indices), so
    the cells sum to 1 minus the known mass of the masked columns.
    """

    cells: np.ndarray
    known_col_marginal: MarginalDistribution
    zero_column_mask: frozenset

    def __post_init__(self):
        cells = _array(self.cells, np.float64, 2, "cells must form a non-empty 2-d table")
        if not np.isfinite(cells).all() or (cells < 0).any():
            raise ValueError("cells must be finite and >= 0")
        if len(self.known_col_marginal) != cells.shape[1]:
            raise ValueError("known marginal length must match the number of columns")
        mask = frozenset(int(j) for j in self.zero_column_mask)
        if any(j < 0 or j >= cells.shape[1] for j in mask):
            raise ValueError("zero_column_mask indices out of range")
        col_sums = cells.sum(axis=0)
        target = self.known_col_marginal.probs
        for j in range(cells.shape[1]):
            if j in mask:
                if col_sums[j] != 0.0:
                    raise ValueError(f"masked column {j} must be all zero")
            elif abs(col_sums[j] - target[j]) > PROB_TOL:
                raise ValueError(
                    f"column {j} sums to {col_sums[j]!r}, expected {target[j]!r}"
                )
        object.__setattr__(self, "cells", _frozen(cells))
        object.__setattr__(self, "zero_column_mask", mask)

    @property
    def dims(self) -> tuple[int, int]:
        return self.cells.shape


def _scale_columns(cells: np.ndarray, col_sums: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Multiply each column of ``cells`` in place by target / its sum in
    ``col_sums`` and return ``cells``; empty columns stay zero, and a column
    whose scale overflows (a subnormal sum) is divided by its sum first.
    Both IPF half-steps use it: the row step passes ``cells.T``."""
    # No scale can overflow. A Python min: a ufunc reduce costs more on a table's few sums.
    if min(col_sums.tolist()) >= sys.float_info.min:
        return np.multiply(cells, target / col_sums, out=cells)
    with np.errstate(over="ignore"):
        scale = np.divide(target, col_sums, out=np.zeros_like(col_sums), where=col_sums > 0)
    big = np.isinf(scale)
    cells[:, big] = cells[:, big] / col_sums[big] * target[big]
    scale[big] = 1.0
    return np.multiply(cells, scale, out=cells)


def ipf_column_step(table: JointDistribution, col_target: MarginalDistribution) -> np.ndarray:
    """One IPF column half-step: the raw rescaled cells, no masking metadata.

    This is the literal first half-iteration of :func:`ipf_fit`;
    :func:`adjust_to_known_marginal` scales to the same cells after its own length check.
    """
    if len(col_target) != table.n_cols:
        raise ValueError("target length must match the number of columns")
    return _scale_columns(table.cells.copy(), table.cells.sum(axis=0), col_target.probs)


def adjust_to_known_marginal(
    phat: JointDistribution, col: MarginalDistribution
) -> AdjustedTable:
    """Rescale each column of ``phat`` to match the known column marginal.

    Cell (i, j) becomes phat[i, j] * col[j] / colsum_j(phat). The known
    marginal must be strictly positive (its whole point is that the true
    column probabilities are nonzero); empirical columns that happen to be
    empty are masked rather than invented.
    """
    if len(col) != phat.n_cols:
        raise ValueError(
            f"known marginal has length {len(col)} but the table has {phat.n_cols} columns"
        )
    col.require_positive("known column marginal")
    return AdjustedTable(
        cells=_scale_columns(phat.cells.copy(), phat.cells.sum(axis=0), col.probs),
        known_col_marginal=col,
        zero_column_mask=np.flatnonzero(~phat.cells.any(axis=0)),
    )


def adjusted_row_marginal(t: AdjustedTable) -> np.ndarray:
    """Row sums of the adjusted table.

    Sums to 1 exactly when no column was masked, and to 1 minus the known
    mass of the masked columns otherwise.
    """
    return t.cells.sum(axis=1)


@_value_type
class IpfResult:
    """An IPF fit. ``max_deviation`` is the largest absolute deviation of
    either marginal of ``table`` from its target: below ``tol`` exactly when
    ``converged``."""

    table: JointDistribution
    iterations: int
    converged: bool
    max_deviation: float


def ipf_fit(
    init: JointDistribution,
    row_target: MarginalDistribution,
    col_target: MarginalDistribution,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> IpfResult:
    """Iterative proportional fitting of ``init`` to both target marginals.

    Each iteration rescales columns to ``col_target`` and then rows to
    ``row_target``; the column step runs first so a single half-iteration
    with only the column target reproduces :func:`adjust_to_known_marginal`
    exactly. Iterates until the largest absolute deviation of either
    marginal from its target drops below ``tol`` or ``max_iter`` full
    iterations have run. Zero cells stay zero and cross-product ratios of
    positive cells are preserved at every step. Each pass sums the columns
    once, for both the convergence test and the column step. Both steps
    rescale a row or column with a subnormal sum; a fit in which one
    underflows to zero is refused as infeasible.
    """
    if len(row_target) != init.n_rows or len(col_target) != init.n_cols:
        raise ValueError("target marginal lengths must match the table dims")
    row_target.require_positive("row target")
    col_target.require_positive("column target")
    tol = _real(tol, "tol")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    max_iter = _integer(max_iter, "max_iter", 0)

    # One set of buffers per fit; each step runs in place on the same operands in the same order.
    n_rows = init.n_rows
    cells = init.cells.copy()
    sums = np.empty(n_rows + init.n_cols)
    row_sums, col_sums = sums[:n_rows], sums[n_rows:]
    row_sums[:], col_sums[:] = cells.sum(axis=1), cells.sum(axis=0)
    if (sums == 0.0).any():
        raise ValueError(
            "structurally infeasible: a row/column with positive target has no initial mass"
        )

    rows = row_target.probs
    cols = col_target.probs
    targets = np.concatenate((rows, cols))
    gaps = np.empty_like(sums)
    for iteration in range(max_iter + 1):
        np.abs(np.subtract(sums, targets, out=gaps), out=gaps)
        deviation = float(np.maximum.reduce(gaps))
        if deviation < tol or iteration == max_iter:
            break
        _scale_columns(cells, col_sums, cols)
        _scale_columns(cells.T, np.add.reduce(cells, 1, out=row_sums), rows)
        np.add.reduce(cells, 1, out=row_sums)
        np.add.reduce(cells, 0, out=col_sums)
    try:
        return IpfResult(JointDistribution(cells), iteration, deviation < tol, deviation)
    except ValueError:  # finite cells >= 0 fail only the sum: a row or column underflowed to 0
        raise ValueError("structurally infeasible: a row/column underflowed to zero") from None
