import dataclasses
import json
import math

import numpy as np
import pytest

from margfit import (
    CaseStudyRow,
    CountTable,
    ExperimentConfig,
    JointDistribution,
    run_case_study,
    run_experiment,
)
from margfit.io import (
    CASE_STUDY_COLUMNS,
    GRID_COLUMNS,
    ParseError,
    bundled_data_text,
    case_study_from_json_dict,
    case_study_to_json_dict,
    grid_from_json_dict,
    grid_to_json_dict,
    load_destatis2014,
    load_gidas_table3,
    load_study_config,
    parse_case_study_csv_text,
    parse_count_table_text,
    parse_grid_csv_text,
    parse_joint_table_text,
    parse_marginal_text,
    parse_sections_text,
    read_count_table,
    read_experiment_config,
    read_joint_table,
    read_marginal,
    render_case_study_csv,
    render_count_table,
    render_grid_csv,
    render_joint_table,
    render_marginal,
    render_sections,
    write_text,
)
import margfit.simulation as simulation
from margfit.simulation import GridCell
from margfit.tables import MarginalDistribution


class TestCountTableFormat:
    def test_minimal_file(self):
        table = parse_count_table_text("#rows=1 cols=1\n5\n")
        assert np.array_equal(table.counts, [[5]])

    def test_comments_and_blank_lines_ignored(self):
        text = "#rows=2 cols=2\n# a comment\n\n1,2\n3,4\n"
        table = parse_count_table_text(text)
        assert np.array_equal(table.counts, [[1, 2], [3, 4]])

    def test_negative_count_reports_line(self):
        with pytest.raises(ParseError, match=r"f\.csv:3: negative count"):
            parse_count_table_text("#rows=2 cols=1\n4\n-2\n", "f.csv")

    def test_non_integer_reports_line(self):
        with pytest.raises(ParseError, match=":2: not an integer"):
            parse_count_table_text("#rows=1 cols=1\n2.5\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError, match=":1: expected header"):
            parse_count_table_text("rows=1 cols=1\n5\n")

    def test_wrong_column_count(self):
        with pytest.raises(ParseError, match="expected 3 columns"):
            parse_count_table_text("#rows=1 cols=3\n1,2\n")

    def test_missing_rows(self):
        with pytest.raises(ParseError, match="expected 2 data rows, got 1"):
            parse_count_table_text("#rows=2 cols=1\n5\n")

    def test_extra_rows(self):
        with pytest.raises(ParseError, match="extra data"):
            parse_count_table_text("#rows=1 cols=1\n5\n6\n")

    def test_round_trip_is_bit_exact(self):
        table = CountTable(np.array([[0, 12, 5], [7, 0, 99]]))
        assert parse_count_table_text(render_count_table(table)) == table

    def test_read_from_disk(self, tmp_path):
        path = tmp_path / "t.csv"
        write_text(path, "#rows=1 cols=2\n3,4\n")
        assert read_count_table(path).total == 7


class TestMarginalFormat:
    def test_integer_counts_normalized(self):
        parsed = parse_marginal_text("106181,11898,423\n")
        assert parsed.normalized_from_counts
        np.testing.assert_allclose(
            parsed.marginal.probs,
            np.array([106181, 11898, 423]) / 118502,
            atol=1e-15,
        )

    def test_probabilities_taken_verbatim(self):
        parsed = parse_marginal_text("0.5,0.5\n")
        assert not parsed.normalized_from_counts
        np.testing.assert_array_equal(parsed.marginal.probs, [0.5, 0.5])

    def test_bad_sum_rejected(self):
        with pytest.raises(ParseError, match="sum to 1"):
            parse_marginal_text("0.6,0.5\n")

    def test_non_number_rejected(self):
        with pytest.raises(ParseError, match="not a number"):
            parse_marginal_text("0.5,half\n")

    def test_two_data_lines_rejected(self):
        with pytest.raises(ParseError, match="single marginal data line"):
            parse_marginal_text("0.5,0.5\n0.5,0.5\n")

    def test_empty_rejected(self):
        with pytest.raises(ParseError, match="no marginal data"):
            parse_marginal_text("# only a comment\n")

    def test_axis_parameter(self):
        assert parse_marginal_text("0.5,0.5\n", axis="row").marginal.axis == "row"

    def test_render_round_trip(self):
        marginal = MarginalDistribution([0.25, 0.5, 0.25], axis="column")
        parsed = parse_marginal_text(render_marginal(marginal))
        assert parsed.marginal == marginal


class TestJointTableFormat:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(13)
        cells = rng.random((3, 4))
        table = JointDistribution(cells / cells.sum())
        assert parse_joint_table_text(render_joint_table(table)) == table

    def test_bad_sum_is_parse_error(self):
        with pytest.raises(ParseError, match="sum to 1"):
            parse_joint_table_text("#rows=1 cols=2\n0.5,0.4\n")


class TestSectionedFormat:
    def test_round_trip(self):
        sections = {
            "matrix": np.array([[0.25, -0.25], [-0.25, 0.25]]),
            "vector": np.array([1.5, 2.5]),
            "scalar": np.array([[0.125]]),
            "ids": np.array([[3, 1]], dtype=np.int64),
            "empty": np.zeros((1, 0), dtype=np.int64),
        }
        parsed = parse_sections_text(render_sections(sections))
        assert set(parsed) == set(sections)
        np.testing.assert_array_equal(parsed["matrix"], sections["matrix"])
        np.testing.assert_array_equal(parsed["vector"], sections["vector"].reshape(1, -1))
        np.testing.assert_array_equal(parsed["ids"], sections["ids"])
        assert parsed["ids"].dtype == np.int64
        assert parsed["empty"].shape == (1, 0)

    def test_truncated_section_rejected(self):
        with pytest.raises(ParseError, match="truncated"):
            parse_sections_text("#section=m rows=2 cols=1 kind=float\n0.5\n")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError, match="section header"):
            parse_sections_text("not a header\n")

    def test_repeated_section_name_rejected_at_second_header(self):
        text = "#section=a rows=1 cols=1 kind=int\n1\n#section=a rows=1 cols=1 kind=float\n0.5\n"
        with pytest.raises(ParseError, match="repeated section 'a'") as info:
            parse_sections_text(text, "r.csv")
        assert (info.value.source, info.value.line) == ("r.csv", 3)


def tiny_grid():
    cfg = ExperimentConfig(
        row_marginal=(0.5, 0.5),
        col_marginal=(0.5, 0.5),
        log_cpr_grid=(0.0, math.log(9.0), 800.0),
        n_grid=(50,),
        replications=300,
        seed=21,
    )
    return cfg, run_experiment(cfg)


class TestGridFormats:
    def test_csv_round_trip_including_error_cells(self):
        _, grid = tiny_grid()
        assert any(c.error for c in grid.cells)
        parsed = parse_grid_csv_text(render_grid_csv(grid))
        assert parsed.cells == grid.cells

    def test_json_round_trip(self):
        cfg, grid = tiny_grid()
        payload = json.loads(json.dumps(grid_to_json_dict(grid, config=cfg)))
        assert grid_from_json_dict(payload).cells == grid.cells
        assert ExperimentConfig.from_dict(payload["config"]) == cfg

    def test_header_is_stable(self):
        _, grid = tiny_grid()
        header = render_grid_csv(grid).splitlines()[0]
        assert header == "n,log_cpr,reduction_pct,asymptotic_pct,bias_hat,bias_tilde,zero_columns,error"

    def test_unexpected_header_rejected(self):
        with pytest.raises(ParseError, match="header"):
            parse_grid_csv_text("a,b,c\n")


class TestCaseStudyFormats:
    def result(self):
        return run_case_study(load_gidas_table3(), load_destatis2014())

    def test_csv_round_trip(self):
        result = self.result()
        assert parse_case_study_csv_text(render_case_study_csv(result)) == result

    def test_json_round_trip(self):
        result = self.result()
        payload = json.loads(json.dumps(case_study_to_json_dict(result)))
        assert case_study_from_json_dict(payload) == result

    def test_display_columns_use_four_significant_digits(self):
        lines = render_case_study_csv(self.result()).splitlines()
        first = lines[2].split(",")
        assert first[1] == "11.43"
        assert first[4].startswith("0.114320835")  # full-precision raw column


class TestBundledData:
    def test_gidas_counts(self):
        table = load_gidas_table3()
        assert table.dims == (8, 3)
        assert table.total == 3254
        assert np.array_equal(table.counts.sum(axis=0), [2538, 676, 40])

    def test_destatis_marginal(self):
        marginal = load_destatis2014()
        np.testing.assert_array_equal(
            np.round(marginal.probs, 3), [0.896, 0.100, 0.004]
        )
        marginal.require_positive()

    def test_study_configs(self):
        for case, (rows, cols) in {
            "I": ((0.5, 0.5), (0.5, 0.5)),
            "II": ((0.9, 0.1), (0.7, 0.3)),
            "III": ((0.2, 0.8), (0.7, 0.3)),
        }.items():
            cfg = load_study_config(case)
            assert cfg.row_marginal == rows
            assert cfg.col_marginal == cols
            assert cfg.replications == 20000
            assert len(cfg.log_cpr_grid) == 25

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError, match="unknown study case"):
            load_study_config("IV")

    def test_bundled_text_has_lf_endings(self):
        assert "\r" not in bundled_data_text("gidas_table3.csv")


class TestExperimentConfigFile:
    def test_read_valid(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_text(path, json.dumps({"row_marginal": [0.5, 0.5], "col_marginal": [0.7, 0.3]}))
        cfg = read_experiment_config(path)
        assert cfg.col_marginal == (0.7, 0.3)
        assert cfg.replications == 20000

    def test_invalid_json_reports_location(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_text(path, "{not json")
        with pytest.raises(ParseError):
            read_experiment_config(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_text(path, json.dumps({"row_marginal": [0.5, 0.5]}))
        with pytest.raises(ParseError, match="missing"):
            read_experiment_config(path)

    def test_too_deeply_nested_json_is_parse_error_on_line_1(self, tmp_path):
        # json.loads gives up on deep nesting with RecursionError, not
        # JSONDecodeError.
        path = tmp_path / "deep.json"
        write_text(path, "[" * 100000 + "]" * 100000)
        with pytest.raises(ParseError, match="nested too deeply") as info:
            read_experiment_config(path)
        assert (info.value.source, info.value.line) == (str(path), 1)


class TestInt64Range:
    def test_count_beyond_int64_reports_line(self):
        with pytest.raises(ParseError, match=r"f\.csv:3: count 9223372036854775808 exceeds"):
            parse_count_table_text("#rows=2 cols=1\n4\n9223372036854775808\n", "f.csv")

    def test_count_total_beyond_int64_rejected(self):
        with pytest.raises(ParseError, match="total .* exceeds the int64 range"):
            parse_count_table_text("#rows=1 cols=2\n9223372036854775807,1\n")

    def test_marginal_count_beyond_int64_reports_line(self):
        with pytest.raises(ParseError, match=r"m\.csv:2: count .* exceeds the int64 range"):
            parse_marginal_text("# counts\n9223372036854775808,1\n", "m.csv")

    def test_int_section_value_beyond_int64_reports_line(self):
        with pytest.raises(ParseError, match=r"s\.csv:2: .*exceeds the int64 range"):
            parse_sections_text("#section=a rows=1 cols=1 kind=int\n9223372036854775808", "s.csv")


class TestNonUtf8Input:
    def test_every_reader_raises_parse_error_on_line_1(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("#rows=1 cols=1\n5\n# Stra\xdfe\n".encode("latin-1"))
        for read in (read_count_table, read_joint_table, read_marginal, read_experiment_config):
            with pytest.raises(ParseError, match="not UTF-8") as info:
                read(path)
            assert (info.value.source, info.value.line) == (str(path), 1)


class TestCaseStudyZeroColumnsLine:
    def test_non_integer_index_is_parse_error(self):
        text = "#zero_columns=a\n" + ",".join(CASE_STUDY_COLUMNS) + "\n"
        with pytest.raises(ParseError, match="column indices") as info:
            parse_case_study_csv_text(text)
        assert info.value.line == 1


class TestCsvModuleErrors:
    def test_carriage_return_in_grid_field_is_parse_error(self):
        with pytest.raises(ParseError, match="new-line character"):
            parse_grid_csv_text("\r0")

    def test_oversized_case_study_field_is_parse_error(self):
        with pytest.raises(ParseError, match="field limit") as info:
            parse_case_study_csv_text("#zero_columns=\n" + "x" * 200_000)
        assert info.value.line == 2


def grid_text(n="20", log_cpr="0.5", zero_columns="3"):
    header = "n,log_cpr,reduction_pct,asymptotic_pct,bias_hat,bias_tilde,zero_columns,error"
    return f"{header}\n{n},{log_cpr},,,,,{zero_columns},\n"


class TestCsvRecordsReadNumbersLikeTables:
    """The grid and case-study CSV readers take the numbers that the table
    readers take, and refuse the ones they refuse."""

    def test_valid_grid_record(self):
        (cell,) = parse_grid_csv_text(grid_text()).cells
        assert (cell.n, cell.log_cpr, cell.zero_column_events) == (20, 0.5, 3)

    @pytest.mark.parametrize(
        "fields",
        [
            {"n": "abc"},
            {"n": "99999999999999999999999"},
            {"n": "2_0"},
            {"n": "٢٠"},
            {"zero_columns": "1_0"},
            {"log_cpr": "0.2_5"},
            {"log_cpr": "٠.٥"},
        ],
    )
    def test_grid_field_is_parse_error_on_its_line(self, fields):
        with pytest.raises(ParseError) as info:
            parse_grid_csv_text(grid_text(**fields), "g.csv")
        assert (info.value.source, info.value.line) == ("g.csv", 2)

    @pytest.mark.parametrize("mask", ["-3", "1_0", "99999999999999999999", "٣"])
    def test_zero_column_index_is_parse_error(self, mask):
        text = f"#zero_columns={mask}\n" + ",".join(CASE_STUDY_COLUMNS) + "\n"
        with pytest.raises(ParseError, match="column indices") as info:
            parse_case_study_csv_text(text)
        assert info.value.line == 1

    def test_zero_column_indices_keep_their_spaces_and_signs(self):
        text = "#zero_columns= 0, +2\n" + ",".join(CASE_STUDY_COLUMNS) + "\n"
        assert parse_case_study_csv_text(text).zero_column_mask == {0, 2}

    def test_case_study_raw_field_is_parse_error(self):
        text = "#zero_columns=\n" + ",".join(CASE_STUDY_COLUMNS) + "\n1,50,50,0,0.5,0.5_0,0\n"
        with pytest.raises(ParseError, match="not a number") as info:
            parse_case_study_csv_text(text)
        assert info.value.line == 3


def case_study_text(raw: str) -> str:
    """A case-study CSV whose one record has the raw fields ``raw``."""
    return "#zero_columns=\n" + ",".join(CASE_STUDY_COLUMNS) + f"\n1,50,50,0,{raw}\n"


class TestCaseStudyValuesRefuseNaN:
    """A NaN case-study value is refused as a NaN grid value is, since
    run_case_study never writes one; an infinite one still reads."""

    @pytest.mark.parametrize("raw", ["nan,0.5,0", "0.5,nan,0", "0.5,0.5,nan", "nan,-inf,1e999"])
    def test_csv_nan_is_parse_error_on_its_line(self, raw):
        with pytest.raises(ParseError, match="must not be NaN") as info:
            parse_case_study_csv_text(case_study_text(raw), "c.csv")
        assert (info.value.source, info.value.line) == ("c.csv", 3)

    @pytest.mark.parametrize("key", ["phat", "ptilde", "relative_difference_pct"])
    def test_json_nan_refused(self, key):
        with pytest.raises(ValueError, match=f"^{key} must not be NaN$"):
            case_study_from_json_dict(case_study_json(**{"ptilde": -5.0, key: math.nan}))

    def test_row_refuses_nan(self):
        with pytest.raises(ValueError, match="^phat must not be NaN$"):
            CaseStudyRow(math.nan, 0.5, None)

    def test_infinite_values_read_from_both_formats(self):
        from_csv = parse_case_study_csv_text(case_study_text("-inf,1e999,inf"))
        infinite = {"phat": -math.inf, "ptilde": math.inf, "relative_difference_pct": math.inf}
        from_json = case_study_from_json_dict(case_study_json(**infinite))
        assert from_csv.rows == from_json.rows == (CaseStudyRow(-math.inf, math.inf, math.inf),)


def grid_json(**fields):
    entry = dict.fromkeys(GRID_COLUMNS)
    entry.update(n=20, log_cpr=0.5, zero_columns=3)
    entry.update(fields)
    return {"cells": [entry]}


def case_study_json(zero_columns=(), **fields):
    row = {"phat": 0.5, "ptilde": 0.25, "relative_difference_pct": -50.0}
    row.update(fields)
    return {"zero_columns": list(zero_columns), "rows": [row]}


class TestJsonRecordsCheckValues:
    """The grid and case-study JSON readers refuse what the CSV readers
    refuse, instead of converting it."""

    def test_valid_grid_entry(self):
        (cell,) = grid_from_json_dict(grid_json(error="boom")).cells
        assert (cell.n, cell.log_cpr, cell.zero_column_events) == (20, 0.5, 3)
        assert cell.reduction_pct is None and cell.error == "boom"

    @pytest.mark.parametrize(
        "fields",
        [
            {"n": 5.7},
            {"log_cpr": "1_0"},
            {"zero_columns": True},
            {"n": "20"},
            {"n": None},
            {"n": 2**63},
            {"n": -(2**63) - 1},
            {"reduction_pct": False},
            {"error": 3},
        ],
    )
    def test_grid_value_refused(self, fields):
        with pytest.raises(ValueError, match="grid value|not text"):
            grid_from_json_dict(grid_json(**fields))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_int_beyond_double_range_reads_as_the_csv_digits(self, sign):
        value = sign * 10**400
        digits = str(value)
        from_json = grid_from_json_dict(grid_json(log_cpr=value, reduction_pct=value))
        header = ",".join(GRID_COLUMNS)
        from_csv = parse_grid_csv_text(f"{header}\n20,{digits},{digits},,,,3,\n")
        assert from_json.cells == from_csv.cells
        assert from_json.cells[0].log_cpr == float(digits) == sign * math.inf

    def test_valid_case_study(self):
        data = case_study_json([0, 2], relative_difference_pct=None)
        result = case_study_from_json_dict(data)
        assert result.zero_column_mask == {0, 2}
        assert result.rows[0] == CaseStudyRow(0.5, 0.25, None)

    @pytest.mark.parametrize(
        "fields",
        [{"phat": "0.5"}, {"phat": None}, {"ptilde": True}, {"relative_difference_pct": "-50"}],
    )
    def test_case_study_row_value_refused(self, fields):
        with pytest.raises(ValueError, match="must be a number"):
            case_study_from_json_dict(case_study_json(**fields))

    @pytest.mark.parametrize("mask", [[1.5, True], [1.5], [True], [-3], [2**63], ["1"]])
    def test_case_study_zero_column_entry_refused(self, mask):
        with pytest.raises(ValueError, match="zero_columns entry"):
            case_study_from_json_dict(case_study_json(mask))


# Grid values that pass the type checks but that run_experiment can never
# write: a sample size below 1, a negative zero-column count, a NaN log cpr.
OUT_OF_RANGE = [{"n": 0}, {"n": -5}, {"zero_columns": -3}, {"log_cpr": math.nan}]


class TestGridRecordsCheckRanges:
    """Both grid readers refuse a cell that run_experiment cannot write, as
    GridCell itself does; an infinite log cpr still reads."""

    @pytest.mark.parametrize("fields", OUT_OF_RANGE)
    def test_csv_value_is_parse_error_on_its_line(self, fields):
        text = grid_text(**{key: str(value) for key, value in fields.items()})
        with pytest.raises(ParseError, match="grid value") as info:
            parse_grid_csv_text(text, "g.csv")
        assert (info.value.source, info.value.line) == ("g.csv", 2)

    @pytest.mark.parametrize("fields", OUT_OF_RANGE)
    def test_json_value_refused(self, fields):
        with pytest.raises(ValueError, match="grid value"):
            grid_from_json_dict(grid_json(**fields))

    def test_grid_cell_refuses_n_below_one(self):
        with pytest.raises(ValueError, match="grid value n must be >= 1"):
            GridCell(n=0, log_cpr=0.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_log_cpr_reads_from_both_formats(self, value):
        from_csv = parse_grid_csv_text(grid_text(log_cpr=str(value)))
        from_json = grid_from_json_dict(grid_json(log_cpr=value))
        assert from_csv.cells == from_json.cells
        assert from_csv.cells[0].log_cpr == value


RESULT_COLUMNS = ["reduction_pct", "asymptotic_pct", "bias_hat", "bias_tilde"]


def grid_text_with(column, token):
    """A one-record grid CSV with ``token`` in ``column``."""
    record = dict.fromkeys(GRID_COLUMNS, "")
    record.update(n="20", log_cpr="0.5", zero_columns="3")
    record[column] = token
    return ",".join(GRID_COLUMNS) + "\n" + ",".join(record[c] for c in GRID_COLUMNS) + "\n"


class TestGridResultValuesRefuseNaN:
    """A NaN result value is refused like a NaN log cpr, since run_experiment
    never writes one; an infinite one still reads."""

    @pytest.mark.parametrize("column", RESULT_COLUMNS)
    def test_csv_nan_is_parse_error_on_its_line(self, column):
        with pytest.raises(ParseError, match=f"grid value {column} must not be NaN") as info:
            parse_grid_csv_text(grid_text_with(column, "nan"), "g.csv")
        assert (info.value.source, info.value.line) == ("g.csv", 2)

    @pytest.mark.parametrize("column", RESULT_COLUMNS)
    def test_json_nan_refused(self, column):
        with pytest.raises(ValueError, match=f"grid value {column} must not be NaN"):
            grid_from_json_dict(grid_json(**{column: math.nan}))

    @pytest.mark.parametrize("attr", RESULT_COLUMNS)
    def test_grid_cell_refuses_nan(self, attr):
        with pytest.raises(ValueError, match="must not be NaN"):
            GridCell(20, 0.0, **{attr: math.nan})

    @pytest.mark.parametrize("column", RESULT_COLUMNS)
    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_value_reads_from_both_formats(self, column, value):
        from_csv = parse_grid_csv_text(grid_text_with(column, str(value)))
        from_json = grid_from_json_dict(grid_json(**{column: value}))
        assert from_csv.cells == from_json.cells
        assert getattr(from_csv.cells[0], column) == value


def without(data: dict, key: str) -> dict:
    return {k: v for k, v in data.items() if k != key}


def grid_shapes():
    """Grid JSON values of the wrong shape, one per way of being wrong."""
    entry = grid_json()["cells"][0]
    return {
        "top level array": [],
        "top level string": "cells",
        "top level null": None,
        "cells object": {"cells": {}},
        "cells string": {"cells": "ab"},
        "cell number": {"cells": [1]},
        "cell array": {"cells": [list(entry.values())]},
        "missing cells": {},
        "missing n": {"cells": [without(entry, "n")]},
        "missing error": {"cells": [without(entry, "error")]},
        "unknown top-level key": {"cells": [entry], "grid": 1},
        "unknown cell key": {"cells": [{**entry, "n_excluded": 0}]},
        "config array": {"cells": [entry], "config": []},
        "config missing a key": {"cells": [entry], "config": {"row_marginal": [0.5, 0.5]}},
    }


def case_study_shapes():
    """Case-study JSON values of the wrong shape, one per way of being wrong."""
    data = case_study_json([1])
    row = data["rows"][0]
    return {
        "top level array": [],
        "top level null": None,
        "rows object": {**data, "rows": {}},
        "rows string": {**data, "rows": "ab"},
        "zero_columns object": {**data, "zero_columns": {}},
        "zero_columns null": {**data, "zero_columns": None},
        "row number": {**data, "rows": [0.5]},
        "row array": {**data, "rows": [list(row.values())]},
        "missing rows": without(data, "rows"),
        "missing zero_columns": without(data, "zero_columns"),
        "missing phat": {**data, "rows": [without(row, "phat")]},
        "unknown top-level key": {**data, "config": {}},
        "unknown row key": {**data, "rows": [{**row, "row": 1}]},
    }


class TestJsonRecordsCheckShape:
    """The grid and case-study JSON readers refuse a value of the wrong shape
    (not an object, not an array, a missing or an unknown key) with
    ValueError, as the experiment config reader does."""

    @pytest.mark.parametrize("shape", list(grid_shapes()))
    def test_grid_shape_refused(self, shape):
        with pytest.raises(ValueError, match="JSON object|JSON array|missing|unknown"):
            grid_from_json_dict(grid_shapes()[shape])

    @pytest.mark.parametrize("shape", list(case_study_shapes()))
    def test_case_study_shape_refused(self, shape):
        with pytest.raises(ValueError, match="JSON object|JSON array|missing|unknown"):
            case_study_from_json_dict(case_study_shapes()[shape])


class TestAsciiDigitsOnly:
    def test_count_cells(self):
        with pytest.raises(ParseError, match=":2: not an integer"):
            parse_count_table_text("#rows=1 cols=2\n٣,٤\n")

    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_count_table_text, "#rows=١ cols=١\n5\n"),
            (parse_joint_table_text, "#rows=١ cols=١\n1.0\n"),
            (parse_sections_text, "#section=a rows=١ cols=١ kind=int\n5\n"),
        ],
    )
    def test_headers(self, parse, text):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.line == 1

    @pytest.mark.parametrize("text", ["0.2_5,0.7_5\n", "٠.٥,0.5\n", "1_0,3\n"])
    def test_marginal_values(self, text):
        with pytest.raises(ParseError, match=":1: not a number"):
            parse_marginal_text(text)

    def test_nan_and_inf_still_read(self):
        text = "#section=a rows=1 cols=3 kind=float\nnan,inf,-inf\n"
        values = parse_sections_text(text)["a"][0]
        assert math.isnan(values[0]) and values[1:].tolist() == [math.inf, -math.inf]


def case_study_records(*rows: str) -> str:
    """A case-study CSV whose records start with the ``row`` fields ``rows``."""
    records = "".join(f"{row},50,50,0,0.5,0.5,0\n" for row in rows)
    return "#zero_columns=\n" + ",".join(CASE_STUDY_COLUMNS) + "\n" + records


class TestCaseStudyRowColumn:
    """The ``row`` column of a case-study CSV is the record's 1-based
    position, spelled as render_case_study_csv writes it; the percentage
    columns are for display only and are not read."""

    def test_records_in_sequence_read(self):
        result = parse_case_study_csv_text(case_study_records("1", "2", "3"))
        assert result.rows == (CaseStudyRow(0.5, 0.5, 0.0),) * 3

    def test_blank_lines_do_not_count(self):
        text = case_study_records("1", "2").replace("\n2,", "\n\n2,")
        assert len(parse_case_study_csv_text(text).rows) == 2

    @pytest.mark.parametrize(
        "rows, line",
        [
            (("2",), 3),
            (("0",), 3),
            (("1", "1"), 4),
            (("1", "3"), 4),
            (("01",), 3),
            (("+1",), 3),
            ((" 1",), 3),
            (("1.0",), 3),
            (("",), 3),
            (("x",), 3),
        ],
    )
    def test_record_out_of_sequence_is_parse_error_on_its_line(self, rows, line):
        with pytest.raises(ParseError, match="expected row") as info:
            parse_case_study_csv_text(case_study_records(*rows), "c.csv")
        assert (info.value.source, info.value.line) == ("c.csv", line)

    def test_rendered_rows_are_numbered_from_one(self):
        result = run_case_study(load_gidas_table3(), load_destatis2014())
        records = render_case_study_csv(result).splitlines()[2:]
        assert [r.split(",")[0] for r in records] == [str(i) for i in range(1, 9)]


class TestRecordFieldTables:
    """Each record type has one field table in margfit.simulation, and the
    CSV columns and JSON keys of both formats come from it."""

    @pytest.mark.parametrize(
        "kind, table", [(GridCell, "_GRID_FIELDS"), (CaseStudyRow, "_CASE_STUDY_FIELDS")]
    )
    def test_table_attributes_are_the_dataclass_fields_in_order(self, kind, table):
        attributes = [attr for _, attr, *_ in getattr(simulation, table)]
        assert attributes == [f.name for f in dataclasses.fields(kind)]

    def test_grid_columns_and_json_keys_come_from_the_table(self):
        cfg, grid = tiny_grid()
        columns = tuple(column for column, *_ in simulation._GRID_FIELDS)
        assert GRID_COLUMNS == columns
        assert tuple(render_grid_csv(grid).splitlines()[0].split(",")) == columns
        for cell in grid_to_json_dict(grid, cfg)["cells"]:
            assert tuple(cell) == columns

    def test_case_study_json_keys_come_from_the_table(self):
        result = run_case_study(load_gidas_table3(), load_destatis2014())
        keys = tuple(key for key, *_ in simulation._CASE_STUDY_FIELDS)
        for row in case_study_to_json_dict(result)["rows"]:
            assert tuple(row) == keys


class TestEmptyCsvFields:
    """An empty CSV field of a required record value is a parse error on its
    line that names the CSV column; an empty optional field reads as None,
    and a JSON null keeps the record type's message."""

    @pytest.mark.parametrize("column", ["n", "log_cpr"])
    def test_required_grid_field(self, column):
        with pytest.raises(ParseError, match=f"^g.csv:2: empty field {column}$"):
            parse_grid_csv_text(grid_text_with(column, ""), "g.csv")

    @pytest.mark.parametrize(
        "raw, column", [(",0.5,0", "phat_raw"), ("0.5,,0", "ptilde_raw"), (",,", "phat_raw")]
    )
    def test_required_case_study_field(self, raw, column):
        with pytest.raises(ParseError, match=f"^c.csv:3: empty field {column}$"):
            parse_case_study_csv_text(case_study_text(raw), "c.csv")

    def test_optional_fields_read_as_none(self):
        (cell,) = parse_grid_csv_text(grid_text(zero_columns="")).cells
        assert cell == GridCell(20, 0.5)
        (row,) = parse_case_study_csv_text(case_study_text("0.5,0.25,")).rows
        assert row == CaseStudyRow(0.5, 0.25, None)

    def test_json_null_keeps_its_message(self):
        with pytest.raises(ValueError, match="^grid value n must be an integer, got None$"):
            grid_from_json_dict(grid_json(n=None))
        with pytest.raises(ValueError, match="^phat must be a number, got None$"):
            case_study_from_json_dict(case_study_json(phat=None))
