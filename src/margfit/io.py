"""File formats: count tables, marginals, simulation grids, reports.

All emitted text is UTF-8 with LF line endings and a ``.`` decimal
separator; floats are written in shortest round-trip decimal form, so every
emitted file re-parses to the exact in-memory value. Formats:

* count table: ``#rows=<I> cols=<J>`` header, then I comma-separated rows of
  nonnegative integers. ``#`` comments and blank lines after the header are
  ignored.
* joint table: same layout with float cells summing to 1.
* marginal: a single data line, either probabilities summing to 1 or
  nonnegative integer counts (auto-normalized; the mode is recorded).
* sectioned report: repeated ``#section=<name> rows=<r> cols=<c> kind=...``
  blocks, used for the estimate/adjust/asymptotics/ipf outputs. Scalars are
  1x1 sections, vectors one row; bool values are ``kind=int`` (0/1).
* experiment grid: one CSV row per grid cell; the trailing ``error`` column
  is empty for cells that computed cleanly.
* case study: percentage columns rounded to 4 significant digits next to
  full-precision raw columns.
"""

from __future__ import annotations

import csv
import io as _io
import json
import re
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path

import numpy as np

from .simulation import (
    CaseStudyResult,
    CaseStudyRow,
    ExperimentConfig,
    ExperimentGrid,
    GridCell,
)
from .tables import INT64_MAX, Axis, CountTable, JointDistribution, MarginalDistribution

__all__ = [
    "ParseError",
    "ParsedMarginal",
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
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        message = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
        raise ParseError(str(path), 1, message) from None


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


_TABLE_HEADER_RE = re.compile(r"^#rows=(\d+) cols=(\d+)\s*$")
_INT_RE = re.compile(r"^[+-]?\d+$")


def _data_lines(lines: list[str], start: int):
    """(line number, stripped text) for non-comment, non-blank lines."""
    for line_no, raw in enumerate(lines[start:], start=start + 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield line_no, stripped


def _parse_table_header(lines: list[str], source: str) -> tuple[int, int]:
    if not lines:
        raise ParseError(source, 1, "empty file")
    match = _TABLE_HEADER_RE.match(lines[0])
    if not match:
        raise ParseError(source, 1, "expected header '#rows=<I> cols=<J>'")
    n_rows, n_cols = int(match.group(1)), int(match.group(2))
    if n_rows < 1 or n_cols < 1:
        raise ParseError(source, 1, "table dimensions must be >= 1")
    return n_rows, n_cols


def _parse_table_body(lines, source, n_rows, n_cols, convert):
    rows = []
    last_line = 1
    for line_no, text in _data_lines(lines, 1):
        last_line = line_no
        if len(rows) == n_rows:
            raise ParseError(source, line_no, f"expected {n_rows} data rows, found extra data")
        tokens = [t.strip() for t in text.split(",")]
        if len(tokens) != n_cols:
            raise ParseError(
                source, line_no, f"expected {n_cols} columns, got {len(tokens)}"
            )
        rows.append([convert(tok, line_no) for tok in tokens])
    if len(rows) != n_rows:
        raise ParseError(
            source, last_line, f"expected {n_rows} data rows, got {len(rows)}"
        )
    return rows


def _count_token(token: str, source: str, line_no: int) -> int:
    if not _INT_RE.match(token):
        raise ParseError(source, line_no, f"not an integer count: {token!r}")
    value = int(token)
    if value < 0:
        raise ParseError(source, line_no, f"negative count: {value}")
    if value > INT64_MAX:
        raise ParseError(source, line_no, f"count {value} exceeds the int64 range")
    return value


def parse_count_table_text(text: str, source: str = "<string>") -> CountTable:
    lines = text.splitlines()
    n_rows, n_cols = _parse_table_header(lines, source)
    rows = _parse_table_body(
        lines, source, n_rows, n_cols, lambda tok, ln: _count_token(tok, source, ln)
    )
    try:
        return CountTable(np.array(rows, dtype=np.int64))
    except ValueError as exc:
        raise ParseError(source, 1, str(exc)) from None


def read_count_table(path) -> CountTable:
    return parse_count_table_text(_read_text(path), str(path))


def render_count_table(table: CountTable) -> str:
    lines = [f"#rows={table.dims[0]} cols={table.dims[1]}"]
    lines += [",".join(str(int(v)) for v in row) for row in table.counts]
    return "\n".join(lines) + "\n"


def _float_token(token: str, source: str, line_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(source, line_no, f"not a number: {token!r}") from None


def parse_joint_table_text(text: str, source: str = "<string>") -> JointDistribution:
    lines = text.splitlines()
    n_rows, n_cols = _parse_table_header(lines, source)
    rows = _parse_table_body(
        lines, source, n_rows, n_cols, lambda tok, ln: _float_token(tok, source, ln)
    )
    try:
        return JointDistribution(np.array(rows, dtype=np.float64))
    except ValueError as exc:
        raise ParseError(source, 1, str(exc)) from None


def read_joint_table(path) -> JointDistribution:
    return parse_joint_table_text(_read_text(path), str(path))


def render_joint_table(table: JointDistribution) -> str:
    lines = [f"#rows={table.n_rows} cols={table.n_cols}"]
    lines += [",".join(_fmt(v) for v in row) for row in table.cells]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ParsedMarginal:
    """A parsed marginal plus how it was obtained from the file."""

    marginal: MarginalDistribution
    normalized_from_counts: bool


def parse_marginal_text(
    text: str, source: str = "<string>", axis: Axis = "column"
) -> ParsedMarginal:
    lines = text.splitlines()
    data = list(_data_lines(lines, 0))
    if not data:
        raise ParseError(source, max(1, len(lines)), "no marginal data line found")
    if len(data) > 1:
        raise ParseError(source, data[1][0], "expected a single marginal data line")
    line_no, content = data[0]
    tokens = [t.strip() for t in content.split(",")]
    if all(_INT_RE.match(tok) for tok in tokens):
        values = [_count_token(tok, source, line_no) for tok in tokens]
        counts = np.array(values, dtype=np.int64)
        total = sum(values)
        if total == 0:
            raise ParseError(source, line_no, "counts sum to zero")
        probs = counts / total
        normalized = True
    else:
        probs = np.array(
            [_float_token(tok, source, line_no) for tok in tokens], dtype=np.float64
        )
        normalized = False
    try:
        marginal = MarginalDistribution(probs, axis=axis)
    except ValueError as exc:
        raise ParseError(source, line_no, str(exc)) from None
    return ParsedMarginal(marginal=marginal, normalized_from_counts=normalized)


def read_marginal(path, axis: Axis = "column") -> ParsedMarginal:
    return parse_marginal_text(_read_text(path), str(path), axis)


def render_marginal(marginal: MarginalDistribution) -> str:
    return ",".join(_fmt(v) for v in marginal.probs) + "\n"


# ---------------------------------------------------------------------------
# Sectioned reports (estimate / adjust / asymptotics / ipf CSV output)

_SECTION_HEADER_RE = re.compile(
    r"^#section=([A-Za-z0-9_]+) rows=(\d+) cols=(\d+) kind=(float|int)\s*$"
)


def render_sections(sections: dict[str, np.ndarray]) -> str:
    out = []
    for name, values in sections.items():
        arr = np.asarray(values)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        integral = np.issubdtype(arr.dtype, np.integer) or arr.dtype == np.bool_
        kind = "int" if integral else "float"
        out.append(f"#section={name} rows={arr.shape[0]} cols={arr.shape[1]} kind={kind}")
        for row in arr:
            if kind == "int":
                out.append(",".join(str(int(v)) for v in row))
            else:
                out.append(",".join(_fmt(v) for v in row))
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
        name, n_rows, n_cols, kind = (
            match.group(1),
            int(match.group(2)),
            int(match.group(3)),
            match.group(4),
        )
        rows = []
        for r in range(n_rows):
            line_no = index + 2 + r
            if line_no > len(lines):
                raise ParseError(source, len(lines), f"section {name!r} is truncated")
            content = lines[line_no - 1]
            if n_cols == 0:
                if content.strip():
                    raise ParseError(source, line_no, "expected an empty row")
                rows.append([])
                continue
            tokens = [t.strip() for t in content.split(",")]
            if len(tokens) != n_cols:
                raise ParseError(
                    source, line_no, f"expected {n_cols} columns, got {len(tokens)}"
                )
            if kind == "int":
                for tok in tokens:
                    if not _INT_RE.match(tok):
                        raise ParseError(source, line_no, f"not an integer: {tok!r}")
                rows.append([int(tok) for tok in tokens])
            else:
                rows.append([_float_token(tok, source, line_no) for tok in tokens])
        dtype = np.int64 if kind == "int" else np.float64
        sections[name] = np.array(rows, dtype=dtype).reshape(n_rows, n_cols)
        index += 1 + n_rows
    return sections


# ---------------------------------------------------------------------------
# Experiment grid

GRID_COLUMNS = (
    "n",
    "log_cpr",
    "reduction_pct",
    "asymptotic_pct",
    "bias_hat",
    "bias_tilde",
    "zero_columns",
    "error",
)


def render_grid_csv(grid: ExperimentGrid) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(GRID_COLUMNS)
    for cell in grid.cells:
        writer.writerow(
            [
                str(cell.n),
                _fmt(cell.log_cpr),
                "" if cell.reduction_pct is None else _fmt(cell.reduction_pct),
                "" if cell.asymptotic_pct is None else _fmt(cell.asymptotic_pct),
                "" if cell.bias_hat is None else _fmt(cell.bias_hat),
                "" if cell.bias_tilde is None else _fmt(cell.bias_tilde),
                "" if cell.zero_column_events is None else str(cell.zero_column_events),
                "" if cell.error is None else cell.error,
            ]
        )
    return buf.getvalue()


def _csv_records(text: str, source: str, first_line: int) -> list[list[str]]:
    """The CSV records of ``text``, which starts at line ``first_line`` of
    ``source``; text the csv module cannot split is a parse error."""
    reader = csv.reader(_io.StringIO(text))
    try:
        return list(reader)
    except csv.Error as exc:
        raise ParseError(source, first_line + reader.line_num - 1, str(exc)) from None


def parse_grid_csv_text(text: str, source: str = "<string>") -> ExperimentGrid:
    records = _csv_records(text, source, 1)
    if not records:
        raise ParseError(source, 1, "empty grid file")
    if tuple(records[0]) != GRID_COLUMNS:
        raise ParseError(source, 1, f"unexpected grid header {records[0]!r}")
    cells = []
    for line_no, row in enumerate(records[1:], start=2):
        if not row:
            continue
        if len(row) != len(GRID_COLUMNS):
            raise ParseError(source, line_no, f"expected {len(GRID_COLUMNS)} fields")
        try:
            cells.append(
                GridCell(
                    n=int(row[0]),
                    log_cpr=float(row[1]),
                    reduction_pct=float(row[2]) if row[2] else None,
                    asymptotic_pct=float(row[3]) if row[3] else None,
                    bias_hat=float(row[4]) if row[4] else None,
                    bias_tilde=float(row[5]) if row[5] else None,
                    zero_column_events=int(row[6]) if row[6] else None,
                    error=row[7] or None,
                )
            )
        except ValueError as exc:
            raise ParseError(source, line_no, str(exc)) from None
    return ExperimentGrid(cells=tuple(cells))


def _cell_to_dict(cell: GridCell) -> dict:
    return {
        "n": cell.n,
        "log_cpr": cell.log_cpr,
        "reduction_pct": cell.reduction_pct,
        "asymptotic_pct": cell.asymptotic_pct,
        "bias_hat": cell.bias_hat,
        "bias_tilde": cell.bias_tilde,
        "zero_columns": cell.zero_column_events,
        "error": cell.error,
    }


def grid_to_json_dict(grid: ExperimentGrid, config: ExperimentConfig | None = None) -> dict:
    out: dict = {}
    if config is not None:
        out["config"] = config.to_dict()
    out["cells"] = [_cell_to_dict(c) for c in grid.cells]
    return out


def grid_from_json_dict(data: dict) -> ExperimentGrid:
    cells = []
    for entry in data["cells"]:
        cells.append(
            GridCell(
                n=int(entry["n"]),
                log_cpr=float(entry["log_cpr"]),
                reduction_pct=entry["reduction_pct"],
                asymptotic_pct=entry["asymptotic_pct"],
                bias_hat=entry["bias_hat"],
                bias_tilde=entry["bias_tilde"],
                zero_column_events=entry["zero_columns"],
                error=entry["error"],
            )
        )
    return ExperimentGrid(cells=tuple(cells))


# ---------------------------------------------------------------------------
# Case study

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
    buf = _io.StringIO()
    mask = ",".join(str(j) for j in sorted(result.zero_column_mask))
    buf.write(f"#zero_columns={mask}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CASE_STUDY_COLUMNS)
    for i, row in enumerate(result.rows, start=1):
        rel = row.relative_difference_pct
        writer.writerow(
            [
                str(i),
                _pct(100.0 * row.phat),
                _pct(100.0 * row.ptilde),
                "" if rel is None else _pct(rel),
                _fmt(row.phat),
                _fmt(row.ptilde),
                "" if rel is None else _fmt(rel),
            ]
        )
    return buf.getvalue()


def parse_case_study_csv_text(text: str, source: str = "<string>") -> CaseStudyResult:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#zero_columns="):
        raise ParseError(source, 1, "expected a '#zero_columns=' line")
    mask_text = lines[0].split("=", 1)[1]
    try:
        mask = frozenset(int(tok) for tok in mask_text.split(",") if tok.strip())
    except ValueError:
        raise ParseError(source, 1, f"not a list of column indices: {mask_text!r}") from None
    records = _csv_records("\n".join(lines[1:]), source, 2)
    if not records:
        raise ParseError(source, 2, "missing case-study header")
    if tuple(records[0]) != CASE_STUDY_COLUMNS:
        raise ParseError(source, 2, f"unexpected case-study header {records[0]!r}")
    rows = []
    for line_no, row in enumerate(records[1:], start=3):
        if not row:
            continue
        if len(row) != len(CASE_STUDY_COLUMNS):
            raise ParseError(source, line_no, f"expected {len(CASE_STUDY_COLUMNS)} fields")
        try:
            rows.append(
                CaseStudyRow(
                    phat=float(row[4]),
                    ptilde=float(row[5]),
                    relative_difference_pct=float(row[6]) if row[6] else None,
                )
            )
        except ValueError as exc:
            raise ParseError(source, line_no, str(exc)) from None
    return CaseStudyResult(rows=tuple(rows), zero_column_mask=mask)


def case_study_to_json_dict(result: CaseStudyResult) -> dict:
    return {
        "zero_columns": sorted(result.zero_column_mask),
        "rows": [
            {
                "phat": row.phat,
                "ptilde": row.ptilde,
                "relative_difference_pct": row.relative_difference_pct,
            }
            for row in result.rows
        ],
    }


def case_study_from_json_dict(data: dict) -> CaseStudyResult:
    rows = tuple(
        CaseStudyRow(
            phat=entry["phat"],
            ptilde=entry["ptilde"],
            relative_difference_pct=entry["relative_difference_pct"],
        )
        for entry in data["rows"]
    )
    return CaseStudyResult(rows=rows, zero_column_mask=frozenset(data["zero_columns"]))


# ---------------------------------------------------------------------------
# Experiment config + bundled data

def read_experiment_config(path) -> ExperimentConfig:
    source = str(path)
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(source, exc.lineno, exc.msg) from None
    try:
        return ExperimentConfig.from_dict(data)
    except ValueError as exc:
        raise ParseError(source, 1, str(exc)) from None


def bundled_data_text(name: str) -> str:
    return files("margfit").joinpath("data", name).read_text(encoding="utf-8")


def load_gidas_table3() -> CountTable:
    """The bundled GIDAS speed-reduction x injury-severity count table."""
    return parse_count_table_text(bundled_data_text("gidas_table3.csv"), "gidas_table3.csv")


def load_destatis2014() -> MarginalDistribution:
    """The bundled 2014 national injury-severity marginal (normalized counts)."""
    parsed = parse_marginal_text(
        bundled_data_text("destatis2014.csv"), "destatis2014.csv", axis="column"
    )
    return parsed.marginal


def load_study_config(case: str) -> ExperimentConfig:
    """Bundled simulation configs for the marginal configurations I, II, III."""
    name = f"case{case.upper()}.json"
    try:
        data = json.loads(bundled_data_text(name))
    except FileNotFoundError:
        raise ValueError(f"unknown study case {case!r}; expected I, II, or III") from None
    return ExperimentConfig.from_dict(data)
