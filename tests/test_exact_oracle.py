"""Exact-rational references for the package's closed forms.

Each reference recomputes a function's value in ``fractions.Fraction`` from
the exact rationals of the doubles the function reads, so the only error
left is the function's own rounding. A computed value X that went through
at most k roundings, each term taken positive in M, lies within gamma_k M of
the exact value (Higham, Lemma 3.1); k is derived as in
``test_cli_metamorphic.py``, plus what that comparison leaves out because
both of its runs share it.
"""

from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from helpers import gamma
from margfit import (
    CountTable,
    MarginalDistribution,
    adjust_to_known_marginal,
    adjusted_marginal_covariance,
    chi2_reduction_bound,
    empirical_joint,
    ipf_fit,
    variance_gap,
)


@st.composite
def observed_counts(draw):
    """A count table of 2..4 rows and columns, every column observed, and
    a known column marginal of small positive integers over their sum."""
    rows, cols = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    row = st.lists(st.integers(0, 49), min_size=cols, max_size=cols)
    counts = np.array(draw(st.lists(row, min_size=rows, max_size=rows)))
    assume(counts.sum(axis=0).all())
    weights = np.array(draw(st.lists(st.integers(1, 9), min_size=cols, max_size=cols)))
    return counts, weights / weights.sum()


@st.composite
def fitted_counts(draw):
    """An observed count table with every row observed too, and known row
    and column marginals of small positive integers over their sums."""
    counts, known = draw(observed_counts())
    assume(counts.sum(axis=1).all())
    rows = len(counts)
    weights = np.array(draw(st.lists(st.integers(1, 9), min_size=rows, max_size=rows)))
    return counts, weights / weights.sum(), known


def exact(values: np.ndarray) -> list[list[Fraction]]:
    """The exact rational of each double of a 2-d array."""
    return [[Fraction(v) for v in row] for row in values.tolist()]


def within(computed: float, value: Fraction, k: int, magnitude: Fraction) -> bool:
    return abs(Fraction(computed) - value) <= Fraction(gamma(k)) * magnitude


EXAMPLES = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@EXAMPLES
@given(case=observed_counts())
def test_adjusted_cells_match_the_exact_rational(case):
    """Cell (i, j) is C_ij m_j / sum_r C_rj: each cell rounds once in
    C_ij / N, the column sum of rows such cells rows - 1 times more, and the
    scale and the product once each, so k = rows + 3 on positive terms."""
    counts, known = case
    rows, cols = counts.shape
    cells = adjust_to_known_marginal(
        empirical_joint(CountTable(counts)), MarginalDistribution(known, axis="column")
    ).cells
    m = [Fraction(v) for v in known.tolist()]
    col_sums = counts.sum(axis=0).tolist()
    for i in range(rows):
        for j in range(cols):
            value = Fraction(int(counts[i, j])) * m[j] / col_sums[j]
            assert within(cells[i, j], value, rows + 3, value), (i, j)


@EXAMPLES
@given(case=observed_counts())
def test_variance_gap_matches_the_exact_rational(case):
    """gap_rs = sum_j c_j d_rj d_sj with d_j = p(.|j) - p_row, from the
    exact doubles of p: k = 2t + cols with t = max(rows, cols - 1) + rows + 2,
    and M is the same sum with a_rj = p(r|j) + p_row[r] in place of d."""
    counts, _ = case
    p = empirical_joint(CountTable(counts))
    rows, cols = p.dims
    cells = exact(p.cells)
    col = [sum(cells[i][j] for i in range(rows)) for j in range(cols)]
    row = [sum(cells[i]) for i in range(rows)]
    d = [[cells[i][j] / col[j] - row[i] for j in range(cols)] for i in range(rows)]
    a = [[cells[i][j] / col[j] + row[i] for j in range(cols)] for i in range(rows)]
    k = 2 * (max(rows, cols - 1) + rows + 2) + cols
    gap = variance_gap(p)
    for r in range(rows):
        for s in range(rows):
            value = sum(col[j] * d[r][j] * d[s][j] for j in range(cols))
            magnitude = sum(col[j] * a[r][j] * a[s][j] for j in range(cols))
            assert within(gap[r, s], value, k, magnitude), (r, s)


@EXAMPLES
@given(case=observed_counts())
def test_chi2_reduction_bound_matches_the_exact_rational(case):
    """sum_ij (p_ij - r_i c_j)^2 / (r_i c_j) from the exact doubles of p:
    k = 3 (rows + cols) + rows * cols, and M is the same sum with
    p_ij + r_i c_j in place of the difference."""
    counts, _ = case
    assume(counts.sum(axis=1).all())  # every row marginal must be positive
    p = empirical_joint(CountTable(counts))
    rows, cols = p.dims
    cells = exact(p.cells)
    col = [sum(cells[i][j] for i in range(rows)) for j in range(cols)]
    row = [sum(cells[i]) for i in range(rows)]
    pairs = [(cells[i][j], row[i] * col[j]) for i in range(rows) for j in range(cols)]
    value = sum((x - e) ** 2 / e for x, e in pairs)
    magnitude = sum((x + e) ** 2 / e for x, e in pairs)
    k = 3 * (rows + cols) + rows * cols
    assert within(chi2_reduction_bound(p), value, k, magnitude)


@EXAMPLES
@given(case=observed_counts())
def test_adjusted_covariance_matches_the_exact_rational(case):
    """V_rs = [r = s] p_r - p_r p_s - gap_rs from the exact doubles of p. Each
    row sum rounds cols - 1 times, the product p_r p_s once and the diagonal
    difference once, so the multinomial part is within gamma(2 cols) of
    [r = s] p_r + p_r p_s; the gap is within gamma(k_gap) of its M in
    test_variance_gap_matches_the_exact_rational, and k_gap > 2 cols. The
    final difference rounds once: k = k_gap + 1 (Higham, Lemma 3.3) with M
    the sum of both magnitudes."""
    counts, _ = case
    p = empirical_joint(CountTable(counts))
    rows, cols = p.dims
    cells = exact(p.cells)
    col = [sum(cells[i][j] for i in range(rows)) for j in range(cols)]
    row = [sum(cells[i]) for i in range(rows)]
    d = [[cells[i][j] / col[j] - row[i] for j in range(cols)] for i in range(rows)]
    a = [[cells[i][j] / col[j] + row[i] for j in range(cols)] for i in range(rows)]
    k = 2 * (max(rows, cols - 1) + rows + 2) + cols + 1
    covariance = adjusted_marginal_covariance(p).entries
    for r in range(rows):
        for s in range(rows):
            diagonal = row[r] if r == s else 0
            value = diagonal - row[r] * row[s]
            value -= sum(col[j] * d[r][j] * d[s][j] for j in range(cols))
            magnitude = diagonal + row[r] * row[s]
            magnitude += sum(col[j] * a[r][j] * a[s][j] for j in range(cols))
            assert within(covariance[r, s], value, k, magnitude), (r, s)


@EXAMPLES
@given(case=fitted_counts())
def test_one_ipf_pass_matches_the_exact_rational(case):
    """One column-then-row pass from the exact doubles of p and both targets:
    x_ij = p_ij c_j / S_j with S_j the column sum, then y_ij = x_ij r_i / R_i
    with R_i the row sum of x. S_j rounds rows - 1 times, and c_j / S_j and
    the product once each, so x_ij is within gamma(rows + 1) of itself; R_i
    sums cols such terms with cols - 1 more roundings, and r_i / R_i and the
    product round once each: k = (rows + 1) + (rows + cols) + 2 on the
    positive y_ij."""
    counts, row_weights, col_weights = case
    p = empirical_joint(CountTable(counts))
    row_target = MarginalDistribution(row_weights, axis="row")
    col_target = MarginalDistribution(col_weights, axis="column")
    fit = ipf_fit(p, row_target, col_target, tol=1e-300, max_iter=1)
    assume(fit.iterations == 1)  # a table already on both targets in float runs no pass
    rows, cols = p.dims
    cells = exact(p.cells)
    r = [Fraction(v) for v in row_target.probs.tolist()]
    c = [Fraction(v) for v in col_target.probs.tolist()]
    col = [sum(cells[i][j] for i in range(rows)) for j in range(cols)]
    x = [[cells[i][j] * c[j] / col[j] for j in range(cols)] for i in range(rows)]
    k = 2 * rows + cols + 3
    for i in range(rows):
        row = sum(x[i])
        for j in range(cols):
            value = x[i][j] * r[i] / row
            assert within(fit.table.cells[i, j], value, k, value), (i, j)
