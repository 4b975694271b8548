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
    chi2_reduction_bound,
    empirical_joint,
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
