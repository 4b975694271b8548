"""Metamorphic relations of the analysis commands: relations between the
outputs of related inputs, which check values without an oracle."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from margfit.cli import main

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
