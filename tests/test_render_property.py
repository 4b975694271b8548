"""Property: rows rendered from ``tolist()`` match value-by-value formatting."""

import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from margfit.io import _fmt, _rows_text, render_sections

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
SUBNORMAL_MIN = 5e-324
SUBNORMAL_MAX = sys.float_info.min - SUBNORMAL_MIN

FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(
        [-0.0, float("nan"), float("inf"), -float("inf"), SUBNORMAL_MIN, -SUBNORMAL_MAX]
    ),
)
INTS = st.one_of(
    st.integers(INT64_MIN, INT64_MAX), st.sampled_from([INT64_MIN, INT64_MAX, -1, 0])
)
# (element strategy, dtype, formatter of one element)
KINDS = {
    "bool": (st.booleans(), np.bool_, lambda x: str(int(x))),
    "int64": (INTS, np.int64, lambda x: str(int(x))),
    "float64": (FLOATS, np.float64, _fmt),
}


@st.composite
def arrays(draw):
    elements, dtype, fmt = KINDS[draw(st.sampled_from(sorted(KINDS)))]
    n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    values = draw(st.lists(elements, min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    return np.array(values, dtype=dtype).reshape(n_rows, n_cols), fmt


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=arrays())
@example(case=(np.array([[True, False]]), lambda x: str(int(x))))
@example(case=(np.array([[INT64_MIN, INT64_MAX]], dtype=np.int64), lambda x: str(int(x))))
@example(case=(np.array([[-0.0, np.nan, np.inf, -np.inf, SUBNORMAL_MIN, SUBNORMAL_MAX]]), _fmt))
def test_rows_match_per_element_formatting(case):
    values, fmt = case
    assert _rows_text(values) == [",".join(fmt(v) for v in row) for row in values]


def test_bool_sections_print_zero_and_one():
    text = render_sections({"converged": np.bool_(True), "flags": np.array([True, False])})
    assert text == (
        "#section=converged rows=1 cols=1 kind=int\n1\n"
        "#section=flags rows=1 cols=2 kind=int\n1,0\n"
    )
