"""Properties: every text parser either returns a value or raises
ParseError, and every JSON reader either returns a value or raises
ValueError."""

import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from margfit import ExperimentConfig
from margfit.io import (
    CASE_STUDY_COLUMNS,
    GRID_COLUMNS,
    ParseError,
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
