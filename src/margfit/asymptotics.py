"""Closed-form asymptotic covariances of the marginal estimators.

Two I x I matrices drive everything here, both on the per-sqrt(n) scale:

* ``multinomial_covariance``: diag(p) - p p^T, the limit covariance of the
  plain relative frequencies.
* ``adjusted_marginal_covariance``: the limit covariance of the row-marginal
  estimates after the column adjustment, entry (k, l) equal to
  p_row[k]*1{k==l} - sum_j cells[k,j]*cells[l,j]/col[j].

The second is also the expected covariance of the unadjusted estimates
conditional on the column variable; ``expected_conditional_covariance``
recomputes it by enumerating outcomes and serves as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimators import WeightVector
from .tables import JointDistribution, MarginalDistribution, _array, _fields_equal, _frozen

__all__ = [
    "CovarianceMatrix",
    "multinomial_covariance",
    "marginal_covariance",
    "adjusted_marginal_covariance",
    "expected_conditional_covariance",
    "variance_gap_quadratic",
    "variance_reduction",
    "chi2_reduction_bound",
    "effective_sample_factor",
]

SYMMETRY_TOL = 1e-12
EIGENVALUE_TOL = -1e-10  # exact-zero eigenvalues land slightly negative in float64
ROW_SUM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
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

    __eq__ = _fields_equal


def _as_prob_vector(p) -> np.ndarray:
    if not isinstance(p, MarginalDistribution):
        p = MarginalDistribution(p, axis="row")
    return p.probs


def multinomial_covariance(p) -> CovarianceMatrix:
    """diag(p) - p p^T: limit covariance of plain relative frequencies."""
    probs = _as_prob_vector(p)
    return CovarianceMatrix(np.diag(probs) - np.outer(probs, probs))


def marginal_covariance(p: JointDistribution) -> CovarianceMatrix:
    """Limit covariance of the row-marginal frequencies of a joint sample."""
    return multinomial_covariance(p.cells.sum(axis=1))


def _positive_column_marginals(p: JointDistribution) -> np.ndarray:
    col = p.cells.sum(axis=0)
    if (col == 0.0).any():
        raise ValueError("all column marginals must be > 0")
    return col


def adjusted_marginal_covariance(p: JointDistribution) -> CovarianceMatrix:
    """Limit covariance of the column-adjusted row-marginal estimates.

    Entry (k, l) is p_row[k]*1{k==l} - sum_j p[k,j] p[l,j] / p_col[j].
    """
    col = _positive_column_marginals(p)
    cross = [(w * p.cells).sum(axis=1) for w in p.cells / col]  # row by row: O(I*J) memory
    return CovarianceMatrix(np.diag(p.cells.sum(axis=1)) - np.array(cross))


def expected_conditional_covariance(p: JointDistribution) -> CovarianceMatrix:
    """Oracle for :func:`adjusted_marginal_covariance` by outcome enumeration.

    For each column j, build the covariance of the row-indicator vector under
    the conditional law of the row variable given column j, then average the
    per-column covariances under the column marginal. One observation
    suffices because the sample is i.i.d.
    """
    col = _positive_column_marginals(p)
    dim = p.n_rows
    total = np.zeros((dim, dim))
    for j in range(p.n_cols):
        given_j = p.cells[:, j] / col[j]
        total += col[j] * (np.diag(given_j) - np.outer(given_j, given_j))
    return CovarianceMatrix(total)


def variance_gap_quadratic(
    p: JointDistribution, c: Sequence[float]
) -> tuple[float, float]:
    """The variance removed by the adjustment along direction c, twice over.

    Returns ``(gap, direct)`` where ``gap`` is the quadratic form of c in the
    difference of the two covariance matrices and ``direct`` is the variance
    of the conditional mean of sum_i c[i]*1{row == i} given the column
    variable, computed by enumeration. The two agree to float precision and
    are nonnegative; they vanish exactly when the table is an outer product
    or c is constant.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 1 or c.shape[0] != p.n_rows:
        raise ValueError(f"c must have length {p.n_rows}, got shape {c.shape}")
    plain = marginal_covariance(p).entries
    adjusted = adjusted_marginal_covariance(p).entries
    gap = float((c[:, None] * (plain - adjusted) * c).sum())

    col = _positive_column_marginals(p)
    cond_mean = (c[:, None] * p.cells).sum(axis=0) / col
    overall = float((cond_mean * col).sum())
    direct = float((col * (cond_mean - overall) ** 2).sum())
    return gap, direct


def variance_reduction(plain, adjusted) -> np.ndarray:
    """(plain - adjusted) / plain, elementwise: the share of each plain
    variance that the adjustment removes, given matching diagonal entries of
    :func:`marginal_covariance` and :func:`adjusted_marginal_covariance`.

    Raises when a plain variance is zero, i.e. its row has probability 0 or 1.
    """
    plain = np.asarray(plain)
    if (plain == 0.0).any():
        raise ValueError("row marginal is degenerate; variance is zero")
    return (plain - adjusted) / plain


def chi2_reduction_bound(p: JointDistribution) -> float:
    """Population chi-square dependence sum_ij (p_ij - p_i p_j)^2 / (p_i p_j).

    Lower-bounds the total relative variance reduction
    sum_i (plain_ii - adjusted_ii) / plain_ii across rows; zero exactly for
    outer-product tables.
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
    return float(np.sum(w.weights**2))
