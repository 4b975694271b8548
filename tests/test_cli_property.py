"""Property: whatever its input files and flags hold, a ``margfit`` command
either prints finite output and exits 0, or exits 1, 2 or 3 with one
documented line on stderr."""

import contextlib
import csv
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from margfit.cli import main

# The edges of float64 and int64 (the smallest subnormal, a subnormal, the
# smallest normal, the largest double below 1, the largest int whose square
# fits in int64, the int64 maximum) and ordinary values.
EDGE_TOKENS = [
    "5e-324",
    "1e-320",
    "2.2250738585072014e-308",
    "0.9999999999999999",
    "3037000499",
    "9223372036854775807",
]
ORDINARY_TOKENS = ["1", "2", "7", "0", "0.5", "0.25", "1e-16"]
TOKENS = EDGE_TOKENS + ORDINARY_TOKENS
# Out of every file grammar or range: refused by the parsers.
BAD_TOKENS = ["-1", "x"]
SMALL_COUNTS = ["1", "2", "7", "0"]
COUNT_TOKENS = SMALL_COUNTS + ["3037000499", "9223372036854775807"]
# p for a config marginal (p, 1 - p); 1 - 2.2250738585072014e-308 is 1.0.
PROBABILITIES = st.sampled_from(
    ["0.5", "0.25", "1e-16", "2.2250738585072014e-308", "0.9999999999999999"]
)
# Sizes 1-5, with 2, the paper's 2x2 shape, drawn twice as often.
DIMS = st.sampled_from([2, 1, 2, 3, 4, 5])
LOG_CPRS = st.sampled_from([0.0, 1.0, -30.0, 30.0, -700.0, 710.0, 5e-324])
SIZES = st.sampled_from([1, 2, 50, 3037000499, 2**63 - 1])
PREFIXES = ("usage error: ", "parse error: ", "error: ")


def _normalized(tokens: list[str]) -> list[str]:
    values = [float(t) for t in tokens]
    total = sum(values)
    return [repr(v / total) for v in values] if total > 0 else tokens


def _tokens(pool: list[str], size: int):
    return st.lists(st.sampled_from(pool), min_size=size, max_size=size)


@st.composite
def values(draw, size: int, counts: bool = False) -> list[str]:
    """``size`` tokens. Three files in four keep to the file grammar (counts
    are integers >= 0, probabilities are scaled to sum to 1), so that most
    reach the numeric code; the fourth takes any token."""
    if not draw(st.integers(0, 3)):
        return draw(_tokens(TOKENS + BAD_TOKENS, size))
    if counts:
        return draw(_tokens(COUNT_TOKENS if draw(st.booleans()) else SMALL_COUNTS, size))
    return _normalized(draw(_tokens(TOKENS, size)))


@st.composite
def table_text(draw, rows: int, cols: int, counts: bool) -> str:
    cells = draw(values(rows * cols, counts))
    body = [",".join(cells[i * cols : (i + 1) * cols]) for i in range(rows)]
    return "\n".join([f"#rows={rows} cols={cols}", *body]) + "\n"


@st.composite
def marginal_text(draw, size: int) -> str:
    # The table's own length or any other, so lengths also mismatch.
    length = draw(st.one_of(st.just(size), DIMS))
    return ",".join(draw(values(length))) + "\n"


@st.composite
def config_marginal(draw) -> list[float]:
    """Mostly a pair (p, 1 - p), the only shape a config accepts."""
    if draw(st.integers(0, 3)):
        p = float(draw(PROBABILITIES))
        return [p, 1.0 - p]
    return [float(t) for t in draw(_tokens([*TOKENS, "-1"], draw(st.integers(1, 3))))]


@st.composite
def config_text(draw) -> str:
    config = {
        "row_marginal": draw(config_marginal()),
        "col_marginal": draw(config_marginal()),
        "log_cpr_grid": draw(st.lists(LOG_CPRS, min_size=1, max_size=3)),
        "n_grid": draw(st.lists(SIZES, min_size=1, max_size=2)),
        "replications": draw(st.sampled_from([2, 5, 20, 1])),
        "seed": 1,
    }
    return json.dumps(config)


@st.composite
def commands(draw) -> tuple[list[str], dict[str, str]]:
    """An argv for one of the six subcommands and the files it names."""
    command = draw(
        st.sampled_from(["estimate", "adjust", "asymptotics", "simulate", "case-study", "ipf"])
    )
    rows, cols = draw(DIMS), draw(DIMS)
    counts = command in ("estimate", "case-study") or draw(st.booleans())
    files = {"t.csv": draw(table_text(rows, cols, counts)), "m.csv": draw(marginal_text(cols))}
    source = ["--counts" if counts else "--table", "t.csv"]
    if command in ("estimate", "asymptotics"):
        argv = source
    elif command == "adjust":
        argv = [*source, "--marginal", "m.csv"]
    elif command == "ipf":
        files["r.csv"] = draw(marginal_text(rows))
        argv = [*source, "--row-marginal", "r.csv", "--col-marginal", "m.csv"]
        argv += ["--max-iter", draw(st.sampled_from(["1", "5", "50"]))]
        if draw(st.booleans()):
            argv += ["--tol", draw(st.sampled_from(TOKENS))]
    elif command == "case-study":
        argv = []
        if draw(st.booleans()):
            argv += ["--counts", "t.csv"]
        if draw(st.booleans()):
            argv += ["--marginal", "m.csv"]
    else:
        files["cfg.json"] = draw(config_text())
        argv = ["--config", "cfg.json"]
        if draw(st.booleans()):
            argv += ["--seed", draw(st.sampled_from(COUNT_TOKENS + BAD_TOKENS))]
    argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    return [command, *argv], files


def _refuse_constant(name):
    raise AssertionError(f"JSON output holds {name}")


def _assert_finite(out: str, fmt: str) -> None:
    if fmt == "json":
        json.loads(out, parse_constant=_refuse_constant)
    else:
        for record in csv.reader(out.splitlines()):
            assert not {f.strip().lower() for f in record} & {"nan", "inf", "-inf"}, record


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=commands())
# Floating-point faults in the handlers once printed numpy warnings before
# the error line; each of these gave more than one stderr line.
@example(
    case=(
        ["asymptotics", "--table", "t.csv", "--format", "csv"],
        {"t.csv": "#rows=2 cols=2\n0,2.2250738585072014e-308\n1,1e-320\n"},
    )
)
@example(
    case=(
        ["adjust", "--table", "t.csv", "--marginal", "m.csv", "--format", "csv"],
        {"t.csv": "#rows=1 cols=3\n0.9999999999999999,1e-320,1e-300\n", "m.csv": "7,3,1\n"},
    )
)
@example(
    case=(
        ["ipf", "--table", "t.csv", "--row-marginal", "r.csv", "--col-marginal", "m.csv"]
        + ["--max-iter", "5", "--format", "csv"],
        {
            "t.csv": "#rows=3 cols=1\n1\n1e-320\n5e-324\n",
            "r.csv": "5e-324,1.0,1e-16\n",
            "m.csv": "1.0\n",
        },
    )
)
# The row step once divided a target by a subnormal row sum.
@example(
    case=(
        ["ipf", "--table", "t.csv", "--row-marginal", "m.csv", "--col-marginal", "m.csv"]
        + ["--format", "csv"],
        {"t.csv": "#rows=2 cols=2\n1e-320,1e-320\n0.5,0.5\n", "m.csv": "0.5,0.5\n"},
    )
)
def test_every_command_exits_with_a_documented_code(case):
    argv, files = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        argv = [str(Path(tmp, a)) if a in files else a for a in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err == ""
        _assert_finite(out, argv[-1])
    else:
        assert err.startswith(PREFIXES) and err.endswith("\n") and err.count("\n") == 1, err
