"""Metamorphic relations of the analysis commands: relations between the
outputs of related inputs, which check values without an oracle."""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from helpers import gamma
from margfit.cli import main
from margfit.io import parse_sections_text

SCALES = [2, 3, 7, 1000, 2**20]
# The largest integer below which every integer is a double: a scaled count
# table, and its total, stay within it, so each reads exactly as a float.
EXACT = 2**53


@st.composite
def scaled_counts(draw):
    """A count table C, a scale k and the marginal files of every command."""
    rows, cols = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    k = draw(st.sampled_from(SCALES))
    cap = EXACT // (k * rows * cols)  # so that k * sum(C) <= 2**53
    count = st.one_of(st.integers(0, 49), st.integers(0, cap))
    row = st.lists(count, min_size=cols, max_size=cols)
    counts = draw(st.lists(row, min_size=rows, max_size=rows))
    marginal = st.integers(1, 9)  # known marginals must be positive
    row_marginal = draw(st.lists(marginal, min_size=rows, max_size=rows))
    col_marginal = draw(st.lists(marginal, min_size=cols, max_size=cols))
    return counts, k, row_marginal, col_marginal


def table_text(counts) -> str:
    body = [",".join(map(str, row)) for row in counts]
    return "\n".join([f"#rows={len(counts)} cols={len(counts[0])}", *body]) + "\n"


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


COMMANDS = {
    "estimate": [],
    "asymptotics": [],
    "adjust": ["--marginal", "col.csv"],
    "ipf": ["--row-marginal", "row.csv", "--col-marginal", "col.csv"],
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    case=scaled_counts(),
    command=st.sampled_from(sorted(COMMANDS)),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_count_scaling_gives_the_same_bytes(case, command, fmt):
    """``--counts`` C and k*C give the same exit code and stdout bytes: every
    estimate is a count over a total, and kc/kN rounds the same rational
    as c/N while both stay exact doubles."""
    counts, k, row_marginal, col_marginal = case
    with tempfile.TemporaryDirectory() as tmp:
        files = {
            "c.csv": table_text(counts),
            "kc.csv": table_text([[k * c for c in row] for row in counts]),
            "row.csv": ",".join(map(str, row_marginal)) + "\n",
            "col.csv": ",".join(map(str, col_marginal)) + "\n",
        }
        for name, text in files.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        options = [str(Path(tmp, a)) if a in files else a for a in COMMANDS[command]]
        results = [
            run([command, "--counts", str(Path(tmp, name)), *options, "--format", fmt])
            for name in ("c.csv", "kc.csv")
        ]
    assert results[0] == results[1]


@st.composite
def permuted_counts(draw):
    """A count table C, a column marginal and a row and a column permutation."""
    rows, cols = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    row = st.lists(st.integers(0, 49), min_size=cols, max_size=cols)
    counts = draw(st.lists(row, min_size=rows, max_size=rows))
    col_marginal = draw(st.lists(st.integers(1, 9), min_size=cols, max_size=cols))
    row_order = draw(st.permutations(range(rows)))
    col_order = draw(st.permutations(range(cols)))
    return np.array(counts), np.array(col_marginal), np.array(row_order), np.array(col_order)


def adjust_bounds(s: dict, rows: int, cols: int) -> dict:
    """How far each ``adjust`` section may move when the table's rows and
    columns are permuted, which reorders only sums. The joint table and the
    known marginal are the same values in another order, and every term is
    nonnegative: a cell's column sum rounds rows - 1 times, its scale and
    product twice more, and a row sum cols - 1 times more. Two values within
    gamma_k of one exact value X lie within 2 gamma_k X of each other."""
    cells, row_sums = s["adjusted_cells"], s["adjusted_row_marginal"]
    k_cells, k_rows = rows + 1, rows + cols
    return {
        "adjusted_cells": 2 * gamma(k_cells) * cells / (1 - gamma(k_cells)),
        "adjusted_row_marginal": 2 * gamma(k_rows) * row_sums / (1 - gamma(k_rows)),
    }


def asymptotics_bounds(p: np.ndarray, s: dict) -> dict:
    """How far each ``asymptotics`` section of the joint table ``p`` may move
    when its rows and columns are permuted. A computed value lies within
    gamma_k M of its exact value, where k is the most roundings on any path
    to it and M is the same expression with every term taken positive
    (computed here in floats, so divided by 1 - gamma_k):
    - plain: row sums (cols - 1), their product (2 cols - 1), the diagonal's
      difference: 2 cols;
    - gap: p(r|j) rounds rows times, d = p(r|j) - row_r max(rows, cols - 1)
      + 1 times, sqrt(col_j) at most rows times, so e = d sqrt(col) rounds
      t = max(rows, cols - 1) + rows + 2 times, e_r e_s 2t + 1 and their sum
      2t + cols times;
    - adjusted = plain - gap: one more than the larger;
    - chi2: row_i col_j rounds rows + cols - 1 times, the difference, the
      square and the quotient 3 (rows + cols) + 1, and the sum of rows * cols
      terms 3 (rows + cols) + rows * cols."""
    rows, cols = p.shape
    row, col = p.sum(axis=1), p.sum(axis=0)
    m_plain = np.diag(row) + np.outer(row, row)
    a = p / col + row[:, None]
    m_gap = np.array([(a * a_r * col).sum(axis=1) for a_r in a])
    expected = np.outer(row, col)
    m_chi2 = ((p + expected) ** 2 / expected).sum()
    t = max(rows, cols - 1) + rows + 2
    k_plain, k_gap, k_chi2 = 2 * cols, 2 * t + cols, 3 * (rows + cols) + rows * cols
    k_adjusted = max(k_plain, k_gap) + 1

    def width(k, m):
        return 2 * gamma(k) * m / (1 - gamma(k))

    bounds = {
        "plain_covariance": width(k_plain, m_plain),
        "variance_gap": width(k_gap, m_gap),
        "adjusted_covariance": width(k_adjusted, m_plain + m_gap),
        "chi2_bound": width(k_chi2, m_chi2),
    }
    # pct = 100 g / q from the printed diagonals g of the gap and q of plain:
    # |g/q - g'/q'| <= |g - g'| / q + g' |q - q'| / (q q'), and the division
    # and the product with 100 round each side twice: gamma_2 of each ratio.
    g, q = s["variance_gap"].diagonal(), s["plain_covariance"].diagonal()
    bg, bq = bounds["variance_gap"].diagonal(), bounds["plain_covariance"].diagonal()
    ratio = g / q
    bounds["asymptotic_reduction_pct"] = 100 * (
        bg / q + (ratio + bg / q) * bq / (q - bq) + gamma(2) * (ratio + (g + bg) / (q - bq))
    )
    return bounds


def sections(argv: list[str]) -> tuple[int, dict]:
    code, out = run(argv)
    return code, (parse_sections_text(out) if code == 0 else {})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=permuted_counts(), command=st.sampled_from(["adjust", "asymptotics"]))
def test_row_and_column_permutation_permutes_the_output(case, command):
    """``--counts`` C and its rows and columns permuted, with the known
    marginal permuted alike, give the same exit code and outputs permuted
    alike, each within a bound derived from the roundings its sums reorder:
    permuting changes the order of additions, so not every bit is kept."""
    counts, col_marginal, row_order, col_order = case
    with tempfile.TemporaryDirectory() as tmp:
        files = {
            "c.csv": (counts, col_marginal),
            "pc.csv": (counts[row_order][:, col_order], col_marginal[col_order]),
        }
        results = []
        for name, (table, marginal) in files.items():
            Path(tmp, name).write_text(table_text(table.tolist()), encoding="utf-8")
            Path(tmp, "m" + name).write_text(",".join(map(str, marginal)) + "\n", encoding="utf-8")
            extra = ["--marginal", str(Path(tmp, "m" + name))] if command == "adjust" else []
            results.append(sections([command, "--counts", str(Path(tmp, name)), *extra]))
    (code, s), (permuted_code, permuted) = results
    assert code == permuted_code
    if code != 0:
        assert permuted == {}
        return
    rows, cols = counts.shape
    # Where each output index of the permuted run reads in the first run.
    order = {"adjusted_cells": (row_order, col_order), "adjusted_row_marginal": (0, row_order)}
    if command == "adjust":
        assert permuted["known_column_marginal"].tolist() == [
            s["known_column_marginal"][0, col_order].tolist()
        ]
        mapped = sorted(int(np.flatnonzero(col_order == j)[0]) for j in s["zero_columns"].ravel())
        assert permuted["zero_columns"].ravel().tolist() == mapped
        bounds = adjust_bounds(s, rows, cols)
    else:
        for name in ("plain_covariance", "variance_gap", "adjusted_covariance"):
            order[name] = (row_order, row_order)
        order.update(chi2_bound=(0, 0), asymptotic_reduction_pct=(0, row_order))
        bounds = asymptotics_bounds(counts / counts.sum(), s)
    for name, bound in bounds.items():
        i, j = order[name]
        first, bound = np.atleast_2d(s[name]), np.atleast_2d(bound)
        moved = np.abs(permuted[name] - first[np.ix_(np.atleast_1d(i), np.atleast_1d(j))])
        assert (moved <= bound[np.ix_(np.atleast_1d(i), np.atleast_1d(j))]).all(), name
