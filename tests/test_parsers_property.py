"""Property: every text parser either returns a value or raises ParseError."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from margfit.io import (
    CASE_STUDY_COLUMNS,
    GRID_COLUMNS,
    ParseError,
    parse_case_study_csv_text,
    parse_count_table_text,
    parse_grid_csv_text,
    parse_joint_table_text,
    parse_marginal_text,
    parse_sections_text,
)

PARSERS = [
    parse_count_table_text,
    parse_joint_table_text,
    parse_marginal_text,
    parse_sections_text,
    parse_grid_csv_text,
    parse_case_study_csv_text,
]

# Fragments of every format, so that generated texts get past the headers
# and reach the body and value checks, mixed with arbitrary short strings.
FRAGMENTS = st.sampled_from(
    [
        "#rows=1 cols=2",
        "#rows=2 cols=1",
        "#rows=0 cols=1",
        "#section=a rows=1 cols=2 kind=int",
        "#section=b rows=1 cols=1 kind=float",
        "#section=c rows=1 cols=0 kind=int",
        "#zero_columns=",
        "#zero_columns=1",
        "#zero_columns=a",
        ",".join(GRID_COLUMNS),
        ",".join(CASE_STUDY_COLUMNS),
        "0",
        "1",
        "-1",
        "0.5",
        "1e400",
        "nan",
        "inf",
        "9223372036854775808",
        "x",
        "",
        '"',
    ]
)
TOKENS = st.one_of(FRAGMENTS, st.text(max_size=6))
LINES = st.lists(st.lists(TOKENS, max_size=6).map(",".join), max_size=5)
TEXTS = st.one_of(LINES.map("\n".join), st.text(max_size=40))


@pytest.mark.parametrize("parse", PARSERS, ids=lambda f: f.__name__)
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(text=TEXTS)
# Escapes found by this property (a bare ValueError, csv.Error), kept so that
# every run tries them whatever the generator draws.
@example(text="#zero_columns=a")
@example(text="\r0")
@example(text="#section=a rows=1 cols=1 kind=int\n9223372036854775808")
def test_parser_returns_or_raises_parse_error(parse, text):
    try:
        parse(text)
    except ParseError:
        pass
