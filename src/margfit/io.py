"""File formats: count tables, marginals, simulation grids, reports.

All emitted text is UTF-8 with LF line endings and a ``.`` decimal
separator; floats are written in shortest round-trip decimal form, so every
emitted file re-parses to the exact in-memory value. Formats:

* count table: ``#rows=<I> cols=<J>`` header, then I comma-separated rows of
  nonnegative integers. ``#`` comments and blank lines after the header are
  ignored.
* joint table: same layout with float cells summing to 1.
* marginal: a single data line, either probabilities summing to 1 or
  nonnegative integer counts (auto-normalized).
* sectioned report: repeated ``#section=<name> rows=<r> cols=<c> kind=...``
  blocks, used for the estimate/adjust/asymptotics/ipf outputs. Section
  names are unique; ``kind=int`` values are int64. Scalars are 1x1 sections,
  vectors one row; bool values are ``kind=int`` (0/1).
* experiment grid: one CSV row per grid cell; the trailing ``error`` column
  is empty for cells that computed cleanly.
* case study: display columns (the 1-based ``row``, which the reader checks,
  and percentages rounded to 4 significant digits, which it skips) next to
  full-precision raw columns.

A grid cell's or case-study row's values, CSV columns and JSON keys come
from its record type's one declaration of each field (``_schema`` of
``GridCell`` and ``CaseStudyRow`` in :mod:`margfit.simulation`), which one
CSV and one JSON codec here read.
The codecs import :mod:`csv` and :mod:`json` on first use, so importing this
module loads neither (README, Start-up).

Numbers follow one grammar, in every file and in the CLI's number flags: an
integer is ASCII digits after an optional sign (``_INT_RE``, the whole token),
and a float is what ``float`` reads from ASCII text without ``_``. Range
checks come after the grammar: a file value must fit in int64 (``_int``), a
flag value is checked by the code it configures.
"""

from __future__ import annotations

import functools
import io as _io
import re
from importlib.resources import files
from operator import attrgetter
from pathlib import Path

import numpy as np

from .simulation import CaseStudyResult, CaseStudyRow, ExperimentConfig, ExperimentGrid, GridCell
from .tables import INT64_MAX, CountTable, JointDistribution, MarginalDistribution
from .tables import _integer, _json_array, _json_object

__all__ = [
    "ParseError",
    "read_count_table",
    "parse_count_table_text",
    "render_count_table",
    "read_marginal",
    "parse_marginal_text",
    "render_marginal",
    "read_joint_table",
    "parse_joint_table_text",
    "render_joint_table",
    "render_sections",
    "parse_sections_text",
    "render_grid_csv",
    "parse_grid_csv_text",
    "grid_to_json_dict",
    "grid_from_json_dict",
    "render_case_study_csv",
    "parse_case_study_csv_text",
    "case_study_to_json_dict",
    "case_study_from_json_dict",
    "read_experiment_config",
    "write_text",
    "bundled_data_text",
    "load_gidas_table3",
    "load_destatis2014",
    "load_study_config",
]


class ParseError(ValueError):
    """A file (or text) that does not match its declared format."""

    def __init__(self, source: str, line: int, message: str):
        self.source = source
        self.line = line
        super().__init__(f"{source}:{line}: {message}")


def _fmt(x: float) -> str:
    return repr(float(x))


def _read_text(path) -> str:
    """The UTF-8 text of the file at ``path``; other bytes are a parse error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        message = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
        raise ParseError(str(path), 1, message) from None
    except OSError as exc:
        # pathlib's spelling, "d" for "d/" or "d/.", but '' for an empty path,
        # which pathlib spells "."
        exc.filename = str(Path(path)) if str(path) else "''"
        raise


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


_TABLE_HEADER_RE = re.compile(r"^#rows=([0-9]+) cols=([0-9]+)\s*$")
_INT_RE = re.compile(r"[+-]?[0-9]+")
# A line of _INT_RE tokens, each within the whitespace str.strip() removes (re's \s).
_INT_LINE_RE = re.compile(rf"\s*{_INT_RE.pattern}\s*(?:,\s*{_INT_RE.pattern}\s*)*")


def _data_lines(lines: list[str], start: int):
    """(line number, stripped text) for non-comment, non-blank lines."""
    for line_no, raw in enumerate(lines[start:], start=start + 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield line_no, stripped


def _row(text: str, source: str, line_no: int, n_cols: int | None, convert) -> list:
    """``convert`` of each comma-separated value of line ``line_no``, which
    must have ``n_cols`` values (any number when None; a blank line has none).
    A ValueError from ``convert`` (``_count``, ``_int`` or ``_float``) is a parse
    error on that line. The line's grammar and range are checked once, as a whole;
    only a line that fails goes through ``convert`` token by token."""
    tokens = [t.strip() for t in text.split(",")] if text.strip() or n_cols else []
    if n_cols is not None and len(tokens) != n_cols:
        raise ParseError(source, line_no, f"expected {n_cols} columns, got {len(tokens)}")
    try:
        if convert is _float:
            if text.isascii() and "_" not in text:
                return list(map(float, tokens))
        elif _INT_LINE_RE.fullmatch(text):
            values = list(map(int, tokens))
            low = 0 if convert is _count else -INT64_MAX - 1
            if low <= min(values) and max(values) <= INT64_MAX:
                return values
    except ValueError:
        pass
    try:
        return [convert(token) for token in tokens]
    except ValueError as exc:
        raise ParseError(source, line_no, str(exc)) from None


def _integer_text(token: str) -> int:
    """The int that ``token`` spells in the integer grammar, unbounded."""
    if not _INT_RE.fullmatch(token):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def _int(token: str, noun: str = "integer") -> int:
    """The int64 value of a decimal integer token; ``noun`` names the value
    in the out-of-range message."""
    value = _integer_text(token)
    if not -INT64_MAX - 1 <= value <= INT64_MAX:
        raise ValueError(f"{noun} {value} exceeds the int64 range")
    return value


def _count(token: str) -> int:
    value = _int(token, "count")
    if value < 0:
        raise ValueError(f"negative count: {value}")
    return value


def _float(token: str) -> float:
    """float(token), refusing the underscores and non-ASCII digits float() takes."""
    try:
        if token.isascii() and "_" not in token:
            return float(token)
    except ValueError:
        pass
    raise ValueError(f"not a number: {token!r}")


def _parse_table(text: str, source: str, convert, dtype, build):
    """``build`` of the ``#rows=<I> cols=<J>`` table in ``text``, whose cells
    ``convert`` reads; a ValueError from ``build`` is a parse error on line 1."""
    lines = text.splitlines()
    if not lines:
        raise ParseError(source, 1, "empty file")
    match = _TABLE_HEADER_RE.match(lines[0])
    if not match:
        raise ParseError(source, 1, "expected header '#rows=<I> cols=<J>'")
    n_rows, n_cols = int(match.group(1)), int(match.group(2))
    if n_rows < 1 or n_cols < 1:
        raise ParseError(source, 1, "table dimensions must be >= 1")
    rows = []
    last_line = 1
    for line_no, row_text in _data_lines(lines, 1):
        last_line = line_no
        if len(rows) == n_rows:
            raise ParseError(source, line_no, f"expected {n_rows} data rows, found extra data")
        rows.append(_row(row_text, source, line_no, n_cols, convert))
    if len(rows) != n_rows:
        raise ParseError(source, last_line, f"expected {n_rows} data rows, got {len(rows)}")
    try:
        return build(np.array(rows, dtype=dtype))
    except ValueError as exc:
        raise ParseError(source, 1, str(exc)) from None


def _rows_text(values: np.ndarray) -> list[str]:
    """One comma-separated line per row of the 2-D ``values``: integers in
    decimal (bools as 0/1), floats in shortest round-trip form."""
    if values.dtype == np.bool_:
        values = values.astype(np.int64)
    return [",".join(map(repr, row)) for row in values.tolist()]


def _render_table(values: np.ndarray) -> str:
    lines = [f"#rows={values.shape[0]} cols={values.shape[1]}"] + _rows_text(values)
    return "\n".join(lines) + "\n"


def parse_count_table_text(text: str, source: str = "<string>") -> CountTable:
    return _parse_table(text, source, _count, np.int64, CountTable)


def read_count_table(path) -> CountTable:
    return parse_count_table_text(_read_text(path), str(path))


def render_count_table(table: CountTable) -> str:
    return _render_table(table.counts)


def parse_joint_table_text(text: str, source: str = "<string>") -> JointDistribution:
    return _parse_table(text, source, _float, np.float64, JointDistribution)


def read_joint_table(path) -> JointDistribution:
    return parse_joint_table_text(_read_text(path), str(path))


def render_joint_table(table: JointDistribution) -> str:
    return _render_table(table.cells)


def parse_marginal_text(text: str, source: str = "<string>") -> MarginalDistribution:
    lines = text.splitlines()
    data = list(_data_lines(lines, 0))
    if not data:
        raise ParseError(source, max(1, len(lines)), "no marginal data line found")
    if len(data) > 1:
        raise ParseError(source, data[1][0], "expected a single marginal data line")
    line_no, content = data[0]
    from_counts = _INT_LINE_RE.fullmatch(content) is not None
    values = _row(content, source, line_no, None, _count if from_counts else _float)
    if from_counts:
        total = sum(values)
        if total == 0:
            raise ParseError(source, line_no, "counts sum to zero")
        probs = np.array(values, dtype=np.int64) / total
    else:
        probs = np.array(values, dtype=np.float64)
    try:
        return MarginalDistribution(probs)
    except ValueError as exc:
        raise ParseError(source, line_no, str(exc)) from None


def read_marginal(path) -> MarginalDistribution:
    return parse_marginal_text(_read_text(path), str(path))


def render_marginal(marginal: MarginalDistribution) -> str:
    return ",".join(_fmt(v) for v in marginal.probs) + "\n"


# ---------------------------------------------------------------------------
# Sectioned reports (estimate / adjust / asymptotics / ipf CSV output)

_SECTION_HEADER_RE = re.compile(
    r"^#section=([A-Za-z0-9_]+) rows=([0-9]+) cols=([0-9]+) kind=(float|int)\s*$"
)
# kind -> (reader of a value, array dtype)
_SECTION_KINDS = {"int": (_int, np.int64), "float": (_float, np.float64)}


def render_sections(sections: dict[str, np.ndarray]) -> str:
    out = []
    for name, values in sections.items():
        arr = np.atleast_2d(values)  # a scalar is 1x1, a vector one row
        integral = np.issubdtype(arr.dtype, np.integer) or arr.dtype == np.bool_
        kind = "int" if integral else "float"
        out.append(f"#section={name} rows={arr.shape[0]} cols={arr.shape[1]} kind={kind}")
        out += _rows_text(arr)
    return "\n".join(out) + "\n"


def parse_sections_text(text: str, source: str = "<string>") -> dict[str, np.ndarray]:
    sections: dict[str, np.ndarray] = {}
    lines = text.splitlines()
    index = 0
    while index < len(lines):
        line = lines[index]
        if not line.strip():
            index += 1
            continue
        match = _SECTION_HEADER_RE.match(line)
        if not match:
            raise ParseError(source, index + 1, f"expected a section header, got {line!r}")
        name, n_rows, n_cols = match.group(1), int(match.group(2)), int(match.group(3))
        if name in sections:
            raise ParseError(source, index + 1, f"repeated section {name!r}")
        convert, dtype = _SECTION_KINDS[match.group(4)]
        rows = []
        for line_no in range(index + 2, index + 2 + n_rows):
            if line_no > len(lines):
                raise ParseError(source, len(lines), f"section {name!r} is truncated")
            rows.append(_row(lines[line_no - 1], source, line_no, n_cols, convert))
        sections[name] = np.array(rows, dtype=dtype).reshape(n_rows, n_cols)
        index += 1 + n_rows
    return sections


# ---------------------------------------------------------------------------
# CSV tables: experiment grid and case study


# A CSV field is read by the grammar of its type; ``str`` of a value is its
# round-trip text.
_CSV_READERS = {int: _integer_text, float: _float, str: str}


def _csv_value(token: str, column: str, type_, required: bool):
    """The ``type_`` value of the CSV field ``token`` in ``column``. An empty
    field is None, or, when the field is required, a ValueError naming the
    column: the record type would name only the None."""
    if token:
        return _CSV_READERS[type_](token)
    if required:
        raise ValueError(f"empty field {column}")
    return None


def _csv_table(text: str, source: str, first_line: int, what: str, columns, kind):
    """The ``kind`` record of each non-empty CSV record after the ``columns``
    header of ``text`` (line ``first_line`` of ``source``), which ends with its
    ``kind`` fields; the first of any display columns before them is its
    1-based position. Text the csv module cannot split, a record of the wrong
    length or out of sequence and a value ``kind`` refuses are parse errors."""
    import csv

    reader = csv.reader(_io.StringIO(text))
    try:
        records = list(reader)
    except csv.Error as exc:
        raise ParseError(source, first_line + reader.line_num - 1, str(exc)) from None
    if not records:
        raise ParseError(source, first_line, f"missing {what} header")
    if tuple(records[0]) != columns:
        raise ParseError(source, first_line, f"unexpected {what} header {records[0]!r}")
    display = len(columns) - len(kind._schema)
    # (CSV column, type, required) of each field
    fields = [(col, t, req) for col, (_, _, t, _, req) in zip(columns[display:], kind._schema)]
    out = []
    for line_no, record in enumerate(records[1:], start=first_line + 1):
        if not record:
            continue
        if len(record) != len(columns):
            raise ParseError(source, line_no, f"expected {len(columns)} fields")
        if display and record[0] != str(len(out) + 1):
            raise ParseError(source, line_no, f"expected row {len(out) + 1}, got {record[0]!r}")
        values = (_csv_value(t, *field) for field, t in zip(fields, record[display:]))
        try:
            out.append(kind(*values))
        except ValueError as exc:
            raise ParseError(source, line_no, str(exc)) from None
    return tuple(out)


def _csv_text(rows) -> str:
    import csv

    buf = _io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _csv_fields(records, kind):
    """The CSV fields of each of ``records``: its ``kind`` field values in order."""
    values = attrgetter(*(attr for _, attr, *_ in kind._schema))
    return (["" if v is None else str(v) for v in values(record)] for record in records)


def _json_record(record) -> dict:
    return {key: getattr(record, attr) for key, attr, *_ in record._schema}


def _json_records(data: dict, name: str, what: str, kind) -> tuple:
    """The ``kind`` of each entry of the JSON array ``data[name]``, an object of its field keys."""
    keys = [key for key, *_ in kind._schema]
    entries = (_json_object(entry, what, keys) for entry in _json_array(data[name], name))
    return tuple(kind(*(entry[key] for key in keys)) for entry in entries)


GRID_COLUMNS = tuple(key for key, *_ in GridCell._schema)


def render_grid_csv(grid: ExperimentGrid) -> str:
    return _csv_text([GRID_COLUMNS, *_csv_fields(grid.cells, GridCell)])


def parse_grid_csv_text(text: str, source: str = "<string>") -> ExperimentGrid:
    return ExperimentGrid(_csv_table(text, source, 1, "grid", GRID_COLUMNS, GridCell))


def grid_to_json_dict(grid: ExperimentGrid, config: ExperimentConfig) -> dict:
    cells = [_json_record(cell) for cell in grid.cells]
    return {"config": config.to_dict(), "cells": cells}


def grid_from_json_dict(data: dict) -> ExperimentGrid:
    """The grid of a ``grid_to_json_dict`` object; its ``config``, when
    present, is checked as an experiment config and not returned."""
    data = _json_object(data, "grid", ("cells",), ("config",))
    if "config" in data:
        ExperimentConfig.from_dict(data["config"])
    return ExperimentGrid(_json_records(data, "cells", "grid cell", GridCell))


CASE_STUDY_COLUMNS = (
    "row",
    "phat_pct",
    "ptilde_pct",
    "rel_diff_pct",
    "phat_raw",
    "ptilde_raw",
    "rel_diff_raw",
)


def _pct(x: float) -> str:
    return f"{x:.4g}"


def render_case_study_csv(result: CaseStudyResult) -> str:
    mask = ",".join(str(j) for j in sorted(result.zero_column_mask))
    rows = [CASE_STUDY_COLUMNS]
    fields = _csv_fields(result.rows, CaseStudyRow)
    for i, (row, raw) in enumerate(zip(result.rows, fields), start=1):
        pcts = (100.0 * row.phat, 100.0 * row.ptilde, row.relative_difference_pct)
        rows.append([str(i), *("" if x is None else _pct(x) for x in pcts), *raw])
    return f"#zero_columns={mask}\n" + _csv_text(rows)


def parse_case_study_csv_text(text: str, source: str = "<string>") -> CaseStudyResult:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#zero_columns="):
        raise ParseError(source, 1, "expected a '#zero_columns=' line")
    mask_text = lines[0].split("=", 1)[1]
    try:
        mask = frozenset(_row(mask_text, source, 1, None, _count))
    except ParseError:
        raise ParseError(source, 1, f"not a list of column indices: {mask_text!r}") from None
    body = "\n".join(lines[1:])
    rows = _csv_table(body, source, 2, "case-study", CASE_STUDY_COLUMNS, CaseStudyRow)
    return CaseStudyResult(rows=rows, zero_column_mask=mask)


def case_study_to_json_dict(result: CaseStudyResult) -> dict:
    return {
        "zero_columns": sorted(result.zero_column_mask),
        "rows": [_json_record(row) for row in result.rows],
    }


def case_study_from_json_dict(data: dict) -> CaseStudyResult:
    data = _json_object(data, "case study", ("zero_columns", "rows"))
    rows = _json_records(data, "rows", "case-study row", CaseStudyRow)
    zero_columns = _json_array(data["zero_columns"], "zero_columns")
    mask = frozenset(_integer(j, "each zero_columns entry", 0) for j in zero_columns)
    return CaseStudyResult(rows=rows, zero_column_mask=mask)


# ---------------------------------------------------------------------------
# Experiment config + bundled data

def _parse_experiment_config(text: str, source: str) -> ExperimentConfig:
    """The experiment config of the JSON ``text``; any fault is a parse error."""
    import json

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(source, exc.lineno, exc.msg) from None
    except RecursionError:
        raise ParseError(source, 1, "JSON nested too deeply") from None
    try:
        return ExperimentConfig.from_dict(data)
    except ValueError as exc:
        raise ParseError(source, 1, str(exc)) from None


def read_experiment_config(path) -> ExperimentConfig:
    return _parse_experiment_config(_read_text(path), str(path))


def bundled_data_text(name: str) -> str:
    return files("margfit").joinpath("data", name).read_text(encoding="utf-8")


# The bundled loaders parse their file once per process and return the same
# value on every call after that; the values are frozen and their arrays
# read-only, so sharing them is safe.


@functools.cache
def load_gidas_table3() -> CountTable:
    """The bundled GIDAS speed-reduction x injury-severity count table."""
    return parse_count_table_text(bundled_data_text("gidas_table3.csv"), "gidas_table3.csv")


@functools.cache
def load_destatis2014() -> MarginalDistribution:
    """The bundled 2014 national injury-severity marginal (normalized counts)."""
    return parse_marginal_text(bundled_data_text("destatis2014.csv"), "destatis2014.csv")


@functools.cache
def load_study_config(case: str) -> ExperimentConfig:
    """Bundled simulation configs for the marginal configurations I, II, III."""
    name = f"case{case.upper()}.json"
    try:
        text = bundled_data_text(name)
    except FileNotFoundError:
        raise ValueError(f"unknown study case {case!r}; expected I, II, or III") from None
    return _parse_experiment_config(text, name)
