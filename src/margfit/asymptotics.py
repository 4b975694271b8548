"""Closed-form asymptotic covariances of the marginal estimators.

Two I x I matrices drive everything here, both on the per-sqrt(n) scale:

* ``multinomial_covariance``: diag(p) - p p^T, the limit covariance of the
  plain relative frequencies.
* ``variance_gap``: sum_j c_j d_j d_j^T with c the column marginal and d_j =
  p(.|j) - p_row; the plain one minus it is ``adjusted_marginal_covariance``.

The adjusted one is also the expected covariance of the unadjusted estimates
conditional on the column variable; ``expected_conditional_covariance``
recomputes it by enumerating outcomes and serves as an independent oracle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .estimators import WeightVector
from .tables import JointDistribution, MarginalDistribution, _array, _coerce, _frozen, _value_type

__all__ = [
    "CovarianceMatrix",
    "multinomial_covariance",
    "marginal_covariance",
    "adjusted_marginal_covariance",
    "expected_conditional_covariance",
    "variance_gap",
    "variance_gap_quadratic",
    "variance_reduction",
    "chi2_reduction_bound",
    "effective_sample_factor",
]

SYMMETRY_TOL = 1e-12
EIGENVALUE_TOL = -1e-10  # exact-zero eigenvalues land slightly negative in float64
ROW_SUM_TOL = 1e-10


@_value_type
class CovarianceMatrix:
    """Symmetric positive semi-definite matrix whose rows sum to zero.

    Both covariance families here annihilate the constant vector, because the
    estimated marginals they describe always sum to a constant.
    """

    entries: np.ndarray

    def __post_init__(self):
        shape_error = "covariance must be a non-empty square matrix"
        entries = _array(self.entries, np.float64, 2, shape_error)
        if entries.shape[0] != entries.shape[1]:
            raise ValueError(shape_error)
        if not np.isfinite(entries).all():
            raise ValueError("covariance entries must be finite")
        if np.abs(entries - entries.T).max() > SYMMETRY_TOL:
            raise ValueError("covariance must be symmetric")
        if float(np.linalg.eigvalsh(entries).min()) < EIGENVALUE_TOL:
            raise ValueError("covariance must be positive semi-definite")
        if np.abs(entries.sum(axis=1)).max() > ROW_SUM_TOL:
            raise ValueError("covariance rows must sum to zero")
        object.__setattr__(self, "entries", _frozen(entries))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _multinomial(probs: np.ndarray) -> np.ndarray:
    return np.diag(probs) - np.outer(probs, probs)


def multinomial_covariance(p) -> CovarianceMatrix:
    """diag(p) - p p^T: limit covariance of plain relative frequencies."""
    return CovarianceMatrix(_multinomial(_coerce(p, MarginalDistribution, "row").probs))


def marginal_covariance(p: JointDistribution) -> CovarianceMatrix:
    """Limit covariance of the row-marginal frequencies of a joint sample."""
    return multinomial_covariance(p.cells.sum(axis=1))


def _positive_column_marginals(p: JointDistribution) -> np.ndarray:
    col = p.cells.sum(axis=0)
    if (col == 0.0).any():
        raise ValueError("all column marginals must be > 0")
    return col


def _centred_columns(p: JointDistribution) -> np.ndarray:
    """e = d sqrt(c): column j is p(.|j) - p_row times sqrt(p_col[j])."""
    col = _positive_column_marginals(p)
    return (p.cells / col - p.cells.sum(axis=1)[:, None]) * np.sqrt(col)


def variance_gap(p: JointDistribution) -> np.ndarray:
    """sum_j c_j d_j d_j^T, the plain minus the adjusted limit covariance.
    Entries (r, s) and (s, r) add the same products e[r,j] e[s,j] of
    :func:`_centred_columns` in the same order, so the matrix is symmetric in
    bits, and its diagonal, a sum of squares, is never negative."""
    e = _centred_columns(p)
    return np.array([(e * e_r).sum(axis=1) for e_r in e])  # row by row: O(I*J) memory


def adjusted_marginal_covariance(p: JointDistribution) -> CovarianceMatrix:
    """Limit covariance of the column-adjusted row-marginal estimates:
    diag(p_row) - p_row p_row^T - :func:`variance_gap`, symmetric in bits."""
    return CovarianceMatrix(_multinomial(p.cells.sum(axis=1)) - variance_gap(p))


def expected_conditional_covariance(p: JointDistribution) -> CovarianceMatrix:
    """Oracle for :func:`adjusted_marginal_covariance` by outcome enumeration.

    For each column j, build the covariance of the row-indicator vector under
    the conditional law of the row variable given column j, then average the
    per-column covariances under the column marginal. One observation
    suffices because the sample is i.i.d.
    """
    col = _positive_column_marginals(p)
    per_column = (col[j] * _multinomial(p.cells[:, j] / col[j]) for j in range(p.n_cols))
    return CovarianceMatrix(sum(per_column))


def variance_gap_quadratic(p: JointDistribution, c: Sequence[float]) -> tuple[float, float]:
    """The variance removed by the adjustment along direction c, twice over.

    Returns ``(gap, direct)``: ``gap`` is the quadratic form of c in
    :func:`variance_gap`, as sum_j (sum_r c[r] e[r,j])^2, and ``direct`` the
    variance of the conditional mean of sum_i c[i]*1{row == i} given the
    column variable, by enumeration. The two agree to float precision and
    are never negative; they lie within rounding of 0 when the table is an
    outer product or c is constant.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 1 or c.shape[0] != p.n_rows:
        raise ValueError(f"c must have length {p.n_rows}, got shape {c.shape}")
    gap = float(((c[:, None] * _centred_columns(p)).sum(axis=0) ** 2).sum())

    col = _positive_column_marginals(p)
    cond_mean = (c[:, None] * p.cells).sum(axis=0) / col
    overall = float((cond_mean * col).sum())
    direct = float((col * (cond_mean - overall) ** 2).sum())
    return gap, direct


def variance_reduction(plain, gap) -> np.ndarray:
    """gap / plain, elementwise: the share of each plain variance that the
    adjustment removes, given matching diagonal entries of
    :func:`marginal_covariance` and :func:`variance_gap`.

    Raises when a plain variance is zero, i.e. its row has probability 0 or 1.
    """
    plain = np.asarray(plain)
    if (plain == 0.0).any():
        raise ValueError("row marginal is degenerate; variance is zero")
    return gap / plain


def chi2_reduction_bound(p: JointDistribution) -> float:
    """Population chi-square dependence sum_ij (p_ij - p_i p_j)^2 / (p_i p_j).

    Lower-bounds the total relative variance reduction sum_i gap_ii / plain_ii
    across rows (gap from :func:`variance_gap`); zero exactly for outer-product
    tables.
    """
    row = p.cells.sum(axis=1)
    col = p.cells.sum(axis=0)
    if (row == 0.0).any() or (col == 0.0).any():
        raise ValueError("all row and column marginals must be > 0")
    expected = np.outer(row, col)
    terms = np.zeros_like(expected)
    np.divide((p.cells - expected) ** 2, expected, out=terms, where=expected > 0)
    # A cell whose expected value underflows to 0 adds 0 when its probability
    # is 0, else the same term as r_i (p_ij / r_i - c_j)^2 / c_j.
    i, j = np.nonzero((expected == 0) & (p.cells > 0))
    terms[i, j] = row[i] * (p.cells[i, j] / row[i] - col[j]) ** 2 / col[j]
    return float(terms.sum())


def effective_sample_factor(w: WeightVector) -> float:
    """sum_t w_t^2, the variance inflation of weighted frequencies.

    At least 1/n by Cauchy-Schwarz, with equality exactly for uniform
    weights; weighted estimates converge at rate 1/sqrt(sum w^2) instead of
    1/sqrt(n).
    """
    return float(np.sum(_coerce(w, WeightVector).weights**2))
