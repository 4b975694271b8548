"""Properties: every text parser either returns a value or raises
ParseError, and every JSON reader either returns a value or raises
ValueError."""

import json
import math
import struct

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

import numpy as np

from margfit import ExperimentConfig, MarginalDistribution
from margfit.io import (
    CASE_STUDY_COLUMNS,
    GRID_COLUMNS,
    _INT_RE,
    ParseError,
    _count,
    _data_lines,
    _float,
    _int,
    _row,
    case_study_from_json_dict,
    grid_from_json_dict,
    grid_to_json_dict,
    parse_case_study_csv_text,
    parse_count_table_text,
    parse_grid_csv_text,
    parse_joint_table_text,
    parse_marginal_text,
    parse_sections_text,
    render_grid_csv,
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


JSON_READERS = [grid_from_json_dict, case_study_from_json_dict, ExperimentConfig.from_dict]

# Any JSON value. Keys are drawn from every reader's key names as well as
# arbitrary text, so that generated objects get past the key checks and
# reach the value checks.
KEYS = st.one_of(
    st.sampled_from(
        [
            *GRID_COLUMNS,
            "cells",
            "config",
            "rows",
            "zero_columns",
            "phat",
            "ptilde",
            "relative_difference_pct",
            "row_marginal",
            "col_marginal",
            "log_cpr_grid",
            "n_grid",
            "replications",
            "seed",
        ]
    ),
    st.text(max_size=6),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(KEYS, children, max_size=4),
    max_leaves=12,
)
GRID_ENTRY = dict.fromkeys(GRID_COLUMNS) | {"n": 20, "log_cpr": 0.5}
CONFIG = {"row_marginal": [0.5, 0.5], "col_marginal": [0.5, 0.5]}
CASE_ROW = {"phat": 0.5, "ptilde": 0.5, "relative_difference_pct": None}


@pytest.mark.parametrize("read", JSON_READERS, ids=lambda f: f.__name__)
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(value=JSON_VALUES)
# Near-valid shapes, so that every run reaches each check whatever the
# generator draws. The first four raised KeyError or TypeError while the
# readers indexed their input unchecked; the others reach the value checks.
@example(value={"cells": [{"n": 1}]})
@example(value=[])
@example(value={"rows": [[0.5, 0.5, None]], "zero_columns": []})
@example(value={"cells": "ab"})
@example(value={"cells": [GRID_ENTRY], "config": CONFIG})
@example(value={"cells": [GRID_ENTRY | {"n": None, "zero_columns": 1e300}]})
@example(value={"rows": [CASE_ROW], "zero_columns": [0, -1]})
@example(value={"rows": [CASE_ROW | {"phat": 10**400}], "zero_columns": {}})
@example(value=CONFIG | {"seed": 2**64, "n_grid": [1e300]})
@example(value=CONFIG | {"log_cpr_grid": [float("nan")], "replications": True})
def test_json_reader_returns_or_raises_value_error(read, value):
    try:
        read(value)
    except ValueError:
        pass


# One grid CSV field: half the draws are tokens at or past an edge of the
# grammar or of a grid value's range, half are ordinary values.
GRID_TOKENS = st.one_of(
    st.sampled_from(["", "0", "-5", "nan", "inf", "-inf", "1e400", "2_0"]),
    st.sampled_from(["1", "20", "3", "0.5", "-1.25"]),
)
GRID_CONFIG = ExperimentConfig(row_marginal=(0.5, 0.5), col_marginal=(0.5, 0.5))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(record=st.lists(GRID_TOKENS, min_size=len(GRID_COLUMNS), max_size=len(GRID_COLUMNS)))
@example(record=["20", "inf", "", "", "", "", "", ""])
@example(record=["1", "-1e400", "nan", "0", "-5", "inf", "0", "2_0"])
def test_accepted_grid_record_is_a_cell_run_experiment_can_write(record):
    """Whatever the grid CSV reader accepts is a cell run_experiment can
    write, and it re-parses to the same values from CSV and from JSON."""
    text = ",".join(GRID_COLUMNS) + "\n" + ",".join(record) + "\n"
    try:
        grid = parse_grid_csv_text(text)
    except ParseError:
        return
    (cell,) = grid.cells
    assert cell.n >= 1 and not math.isnan(cell.log_cpr)
    assert cell.zero_column_events is None or cell.zero_column_events >= 0
    # repr, not ==: a NaN reduction or bias is allowed, and NaN != NaN.
    from_csv = parse_grid_csv_text(render_grid_csv(grid))
    assert repr(from_csv.cells) == repr(grid.cells)
    payload = json.loads(json.dumps(grid_to_json_dict(grid, GRID_CONFIG)))
    assert repr(grid_from_json_dict(payload).cells) == repr(grid.cells)


def per_token_row(text, source, line_no, n_cols, convert):
    """The reference reader: ``convert`` of each stripped token on its own,
    with the column count and error wording of ``margfit.io._row``."""
    tokens = [t.strip() for t in text.split(",")] if text.strip() or n_cols else []
    if n_cols is not None and len(tokens) != n_cols:
        raise ParseError(source, line_no, f"expected {n_cols} columns, got {len(tokens)}")
    try:
        return [convert(token) for token in tokens]
    except ValueError as exc:
        raise ParseError(source, line_no, str(exc)) from None


def per_token_marginal(line_no, content):
    """The marginal parse_marginal_text reads from the single data line
    ``content``, choosing counts or probabilities token by token."""
    tokens = per_token_row(content, "<string>", line_no, None, str)
    from_counts = all(_INT_RE.fullmatch(token) for token in tokens)
    values = per_token_row(content, "<string>", line_no, None, _count if from_counts else _float)
    if from_counts:
        total = sum(values)
        if total == 0:
            raise ParseError("<string>", line_no, "counts sum to zero")
        probs = np.array(values, dtype=np.int64) / total
    else:
        probs = np.array(values, dtype=np.float64)
    try:
        return MarginalDistribution(probs)
    except ValueError as exc:
        raise ParseError("<string>", line_no, str(exc)) from None


def outcome(read, *args):
    """What ``read`` gives: each value with its type and bits, or the text of
    its ParseError."""
    try:
        values = read(*args)
    except ParseError as exc:
        return "error", str(exc)
    return "ok", [(type(v), struct.pack("<d", v) if type(v) is float else v) for v in values]


# Every edge of the number grammar, the int64 range and str.strip(): signs,
# leading zeros, -0, underscores, non-ASCII digits, non-finite floats, empty
# tokens, and the non-ASCII whitespace that strip() removes around a token
# (U+2003 em space, U+00A0 no-break space, U+001C file separator).
CORES = st.sampled_from(
    [
        "0", "7", "+7", "-7", "-0", "+0", "007", "-007", "1_0", "\u0661\u0662", "\uff13",
        str(2**63 - 2), str(2**63 - 1), str(2**63), str(-(2**63) + 1), str(-(2**63)),
        str(-(2**63) - 1), "1" * 30, "0.5", "-0.0", ".5", "1e400", "-1e400", "5e-324",
        "nan", "-nan", "inf", "-inf", "Infinity", "1.5e", "x", "", "+", "-", " ",
    ]
)
PADS = st.sampled_from(["", " ", "\t", "\u2003", "\x1c", "\u00a0", "\n"])
ROW_TOKENS = st.one_of(st.tuples(PADS, CORES, PADS).map("".join), st.text(max_size=4))
ROW_LINES = st.lists(ROW_TOKENS, max_size=6).map(",".join)
CONVERTERS = [_count, _int, _float]


@pytest.mark.parametrize("convert", CONVERTERS, ids=lambda f: f.__name__)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(line=ROW_LINES, n_cols=st.sampled_from([None, "width", "width", 0, 2]))
@example(line="", n_cols=None)
@example(line="", n_cols=0)
@example(line="1,2,", n_cols=None)
@example(line=f"{2**63 - 1},-{2**63}", n_cols=2)
@example(line=f"\u2003{2**63}\x1c,0", n_cols=None)
@example(line="1,\u0662", n_cols=None)
@example(line="\u2003-0.5 , 1_0", n_cols=None)
@example(line="0.5,1_0", n_cols=None)
def test_row_reads_as_the_per_token_reader(convert, line, n_cols):
    if n_cols == "width":
        n_cols = line.count(",") + 1
    args = (line, "<string>", 3, n_cols, convert)
    assert outcome(_row, *args) == outcome(per_token_row, *args)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(line=ROW_LINES)
@example(line="1,2,")
@example(line="3, 1")
@example(line="\u20033\u2003,1\x1c")
@example(line="0.25,0.75")
@example(line="-0,1")
@example(line="1_0,1")
@example(line="\u0661,1")
@example(line=f"{2**63},1")
def test_marginal_reads_as_the_per_token_reader(line):
    text = line + "\n"
    data = list(_data_lines(text.splitlines(), 0))
    assume(len(data) == 1)
    try:
        expected = "ok", per_token_marginal(*data[0])
    except ParseError as exc:
        expected = "error", str(exc)
    try:
        got = "ok", parse_marginal_text(text)
    except ParseError as exc:
        got = "error", str(exc)
    if got[0] == expected[0] == "ok":
        assert got[1].probs.tobytes() == expected[1].probs.tobytes()
    else:
        assert got == expected
