import dataclasses
import hashlib
import json
import threading
from pathlib import Path

import numpy as np
import pytest

import margfit.asymptotics as asymptotics
import margfit.cli as cli
import margfit.simulation as simulation
from helpers import random_joint
from margfit import asymptotic_reduction
from margfit.cli import main
from margfit.tables import PROB_TOL
from margfit.io import (
    load_destatis2014,
    load_gidas_table3,
    load_study_config,
    parse_case_study_csv_text,
    parse_grid_csv_text,
    parse_sections_text,
    read_count_table,
    read_joint_table,
    render_joint_table,
    write_text,
)


@pytest.fixture
def counts_file(tmp_path):
    path = tmp_path / "counts.csv"
    write_text(path, "#rows=2 cols=2\n30,10\n10,50\n")
    return str(path)


@pytest.fixture
def independent_table_file(tmp_path):
    path = tmp_path / "independent.csv"
    write_text(path, "#rows=2 cols=2\n0.25,0.25\n0.25,0.25\n")
    return str(path)


@pytest.fixture
def marginal_file(tmp_path):
    path = tmp_path / "marginal.csv"
    write_text(path, "0.7,0.3\n")
    return str(path)


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    write_text(
        path,
        json.dumps(
            {
                "row_marginal": [0.5, 0.5],
                "col_marginal": [0.5, 0.5],
                "log_cpr_grid": [0.0, 2.0],
                "n_grid": [50],
                "replications": 400,
                "seed": 9,
            }
        ),
    )
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_sections_output(self, capsys, counts_file):
        code, out, _ = run(capsys, "estimate", "--counts", counts_file)
        assert code == 0
        sections = parse_sections_text(out)
        np.testing.assert_allclose(sections["joint"], [[0.3, 0.1], [0.1, 0.5]], atol=1e-15)
        np.testing.assert_allclose(sections["row_marginal"], [[0.4, 0.6]], atol=1e-15)
        np.testing.assert_allclose(sections["column_marginal"], [[0.4, 0.6]], atol=1e-15)

    def test_json_output(self, capsys, counts_file):
        code, out, _ = run(capsys, "estimate", "--counts", counts_file, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["joint"][1][1] == 0.5

    def test_out_file(self, capsys, counts_file, tmp_path):
        target = tmp_path / "result.csv"
        code, out, _ = run(capsys, "estimate", "--counts", counts_file, "--out", str(target))
        assert code == 0 and out == ""
        assert "row_marginal" in target.read_text()


class TestAdjust:
    def test_adjusted_sections(self, capsys, counts_file, marginal_file):
        code, out, _ = run(
            capsys, "adjust", "--counts", counts_file, "--marginal", marginal_file
        )
        assert code == 0
        sections = parse_sections_text(out)
        np.testing.assert_allclose(
            sections["adjusted_cells"].sum(axis=0), [0.7, 0.3], atol=1e-12
        )
        assert sections["zero_columns"].size == 0

    def test_zero_marginal_entry_is_contract_error(self, capsys, counts_file, tmp_path):
        bad = tmp_path / "zero.csv"
        write_text(bad, "1.0,0.0\n")
        code, _, err = run(capsys, "adjust", "--counts", counts_file, "--marginal", str(bad))
        assert code == 3
        assert "strictly positive" in err

    def test_table_and_counts_mutually_exclusive(
        self, capsys, counts_file, independent_table_file, marginal_file
    ):
        code, _, err = run(
            capsys,
            "adjust",
            "--counts",
            counts_file,
            "--table",
            independent_table_file,
            "--marginal",
            marginal_file,
        )
        assert code == 1
        assert "exactly one" in err


class TestAsymptotics:
    def test_independent_table_gap_is_zero(self, capsys, independent_table_file):
        code, out, _ = run(capsys, "asymptotics", "--table", independent_table_file)
        assert code == 0
        sections = parse_sections_text(out)
        assert np.abs(sections["variance_gap"]).max() < 1e-12
        assert sections["chi2_bound"][0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_counts_input(self, capsys, counts_file):
        code, out, _ = run(capsys, "asymptotics", "--counts", counts_file, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["chi2_bound"] > 0.01
        assert len(payload["asymptotic_reduction_pct"]) == 2

    def test_input_required(self, capsys):
        code, _, err = run(capsys, "asymptotics")
        assert code == 1
        assert "required" in err


class TestSimulate:
    def test_byte_identical_runs(self, capsys, config_file):
        code_a, out_a, _ = run(capsys, "simulate", "--config", config_file)
        code_b, out_b, _ = run(capsys, "simulate", "--config", config_file)
        assert code_a == code_b == 0
        assert out_a == out_b
        grid = parse_grid_csv_text(out_a)
        assert len(grid.cells) == 2

    def test_seed_override_changes_output(self, capsys, config_file):
        _, base, _ = run(capsys, "simulate", "--config", config_file)
        _, other, _ = run(capsys, "simulate", "--config", config_file, "--seed", "10")
        assert base != other

    def test_replications_override(self, capsys, config_file):
        code, out, _ = run(
            capsys, "simulate", "--config", config_file, "--replications", "200",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["config"]["replications"] == 200

    def test_malformed_config_is_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        write_text(bad, "{")
        code, _, err = run(capsys, "simulate", "--config", str(bad))
        assert code == 2
        assert "parse error" in err

    def test_bundled_config_fallback(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # no local caseII.json anywhere
        code, out, _ = run(
            capsys, "simulate", "--config", "caseII.json",
            "--replications", "50", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["config"]["col_marginal"] == [0.7, 0.3]

    def test_missing_config_is_parse_error(self, capsys):
        code, _, err = run(capsys, "simulate", "--config", "nothere.json")
        assert code == 2


class TestSimulateWorkerFailure:
    def test_memory_error_in_one_cell_is_one_line_exit_3(
        self, capsys, config_file, monkeypatch
    ):
        monkeypatch.setattr(simulation, "_available_cores", lambda: 2)
        real = simulation.replicate_marginal_estimates
        failed_on = []

        def fail_on_cell_1(*args, stream_key=(), **kwargs):
            if stream_key == (1,):
                failed_on.append(threading.current_thread())
                raise MemoryError("Unable to allocate 1.00 TiB for an array")
            return real(*args, stream_key=stream_key, **kwargs)

        monkeypatch.setattr(simulation, "replicate_marginal_estimates", fail_on_cell_1)
        code, out, err = run(capsys, "simulate", "--config", config_file)
        assert code == 3
        assert out == ""
        assert err == "error: Unable to allocate 1.00 TiB for an array\n"
        assert len(failed_on) == 1 and failed_on[0] is not threading.main_thread()


class TestCaseStudy:
    def test_bundled_defaults(self, capsys):
        code, out, _ = run(capsys, "case-study")
        assert code == 0
        result = parse_case_study_csv_text(out)
        pct = np.round(100 * result.phat_vector, 1)
        np.testing.assert_array_equal(pct, [11.4, 32.4, 28.7, 15.2, 6.9, 3.0, 1.4, 0.9])

    def test_byte_identical_runs(self, capsys):
        _, out_a, _ = run(capsys, "case-study")
        _, out_b, _ = run(capsys, "case-study")
        assert out_a == out_b

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "case-study", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 8
        assert payload["rows"][0]["relative_difference_pct"] > 0


class TestIpf:
    def test_fit_reports_iterations(self, capsys, counts_file, tmp_path):
        row_t = tmp_path / "rows.csv"
        col_t = tmp_path / "cols.csv"
        write_text(row_t, "0.5,0.5\n")
        write_text(col_t, "0.6,0.4\n")
        code, out, _ = run(
            capsys,
            "ipf",
            "--counts",
            counts_file,
            "--row-marginal",
            str(row_t),
            "--col-marginal",
            str(col_t),
        )
        assert code == 0
        sections = parse_sections_text(out)
        assert sections["converged"][0, 0] == 1
        np.testing.assert_allclose(sections["fitted"].sum(axis=1), [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(sections["fitted"].sum(axis=0), [0.6, 0.4], atol=1e-9)

    def test_infeasible_is_contract_error(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        write_text(table, "#rows=2 cols=2\n0.0,0.0\n0.5,0.5\n")
        row_t = tmp_path / "rows.csv"
        col_t = tmp_path / "cols.csv"
        write_text(row_t, "0.5,0.5\n")
        write_text(col_t, "0.5,0.5\n")
        code, _, err = run(
            capsys, "ipf", "--table", str(table),
            "--row-marginal", str(row_t), "--col-marginal", str(col_t),
        )
        assert code == 3
        assert "infeasible" in err


class TestExitCodes:
    def test_missing_subcommand_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_unknown_flag_is_usage_error(self, capsys, counts_file):
        code, _, _ = run(capsys, "estimate", "--counts", counts_file, "--bogus")
        assert code == 1

    def test_missing_file_is_parse_error(self, capsys):
        code, _, err = run(capsys, "estimate", "--counts", "does-not-exist.csv")
        assert code == 2
        assert "cannot read" in err

    def test_malformed_counts_is_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        write_text(bad, "#rows=1 cols=1\nx\n")
        code, _, err = run(capsys, "estimate", "--counts", str(bad))
        assert code == 2
        assert "not an integer" in err

    def test_empty_counts_is_contract_error(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        write_text(empty, "#rows=1 cols=1\n0\n")
        code, _, err = run(capsys, "estimate", "--counts", str(empty))
        assert code == 3
        assert "no observations" in err


class TestSimulateOutputPinned:
    # sha256 of the stdout of `margfit simulate --config caseX.json` at the
    # bundled seed and replications: any change to the streams, the blocking
    # or the aggregation order shows up here.
    @pytest.mark.parametrize(
        "case, digest",
        [
            ("I", "5adad16630beec99d98a4c34d90f04cc39f0eaa3674137e54cd109e5a4f741b5"),
            ("II", "36f4a55303aa9e41e7a8bef0ddf07c3bd524f621370640add06139bf5cf98adb"),
            ("III", "3b39469f5993dc8679b50f9ab417b97373d3b38b02d2213d5aa93828e067d143"),
        ],
        ids=["I", "II", "III"],
    )
    def test_bundled_case_stdout(self, capsys, tmp_path, monkeypatch, case, digest):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "simulate", "--config", f"case{case}.json")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestRejectedInputExitCodes:
    def test_count_beyond_int64_is_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "big.csv"
        write_text(bad, "#rows=1 cols=2\n9223372036854775808,1\n")
        code, out, err = run(capsys, "estimate", "--counts", str(bad))
        assert code == 2 and out == ""
        assert err.startswith("parse error:") and "big.csv:2:" in err and "int64" in err

    def test_count_total_beyond_int64_is_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "big.csv"
        write_text(bad, "#rows=1 cols=2\n9223372036854775807,1\n")
        code, _, err = run(capsys, "estimate", "--counts", str(bad))
        assert code == 2
        assert "total" in err and "int64" in err

    def test_non_finite_ipf_tol_is_contract_error(self, capsys, counts_file, tmp_path):
        rows = tmp_path / "rows.csv"
        write_text(rows, "0.5,0.5\n")
        for tol in ("nan", "inf"):
            code, out, err = run(
                capsys, "ipf", "--counts", counts_file,
                "--row-marginal", str(rows), "--col-marginal", str(rows), "--tol", tol,
            )
            assert code == 3 and out == ""
            assert "tol" in err

    def test_truncating_config_is_parse_error(self, capsys, tmp_path):
        for field, value in (("n_grid", [20.7]), ("replications", 2.9), ("seed", True)):
            cfg = {"row_marginal": [0.5, 0.5], "col_marginal": [0.5, 0.5], field: value}
            path = tmp_path / "cfg.json"
            write_text(path, json.dumps(cfg))
            code, _, err = run(capsys, "simulate", "--config", str(path))
            assert code == 2
            assert err.startswith("parse error:") and field in err

    def test_allocation_failure_is_contract_error(self, capsys, tmp_path):
        # 10**16 replications ask for ~142 PiB, beyond any address space, so
        # numpy refuses the allocation at once.
        path = tmp_path / "cfg.json"
        write_text(
            path,
            json.dumps(
                {"row_marginal": [0.5, 0.5], "col_marginal": [0.5, 0.5],
                 "log_cpr_grid": [0.0], "n_grid": [20]}
            ),
        )
        code, out, err = run(
            capsys, "simulate", "--config", str(path), "--replications", str(10**16)
        )
        assert code == 3 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestConfigFieldTypesExitCodes:
    def write_config(self, tmp_path, **fields):
        cfg = {"row_marginal": [0.5, 0.5], "col_marginal": [0.5, 0.5], **fields}
        path = tmp_path / "cfg.json"
        write_text(path, json.dumps(cfg))
        return str(path)

    def test_non_array_sequence_is_parse_error(self, capsys, tmp_path):
        for field, value in (("n_grid", 5), ("log_cpr_grid", "12")):
            path = self.write_config(tmp_path, **{field: value})
            code, out, err = run(capsys, "simulate", "--config", path)
            assert code == 2 and out == ""
            assert err.startswith("parse error:") and field in err
            assert err.count("\n") == 1

    def test_string_entries_are_parse_error(self, capsys, tmp_path):
        for field, value in (
            ("row_marginal", ["0.5", "0.5"]),
            ("col_marginal", [0.5, "0.5"]),
            ("log_cpr_grid", ["0.0"]),
        ):
            path = self.write_config(tmp_path, **{field: value})
            code, out, err = run(capsys, "simulate", "--config", path)
            assert code == 2 and out == ""
            assert err.startswith("parse error:") and field in err

    @pytest.mark.parametrize("sign", [1, -1])
    def test_int_beyond_double_range_is_parse_error(self, capsys, tmp_path, sign):
        path = self.write_config(tmp_path, log_cpr_grid=[0.0, sign * 10**400])
        code, out, err = run(capsys, "simulate", "--config", path)
        assert code == 2 and out == ""
        assert err == f"parse error: {path}:1: log_cpr_grid must be non-empty and finite\n"

    def test_non_object_config_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        write_text(path, "[1, 2]")
        code, out, err = run(capsys, "simulate", "--config", str(path))
        assert code == 2 and out == ""
        assert err == f"parse error: {path}:1: experiment config must be a JSON object\n"

    def test_too_deeply_nested_json_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        write_text(path, "[" * 100000 + "]" * 100000)
        code, out, err = run(capsys, "simulate", "--config", str(path))
        assert code == 2 and out == ""
        assert err.startswith("parse error:") and err.count("\n") == 1


_PINNED_FILES = {
    "counts.csv": "#rows=2 cols=2\n30,10\n10,50\n",
    "empty_column.csv": "#rows=2 cols=3\n6,0,2\n3,0,9\n",
    "marginal3.csv": "0.5,0.2,0.3\n",
    "rows.csv": "0.5,0.5\n",
    "cols.csv": "0.6,0.4\n",
    "config.json": json.dumps(
        {
            "row_marginal": [0.5, 0.5],
            "col_marginal": [0.5, 0.5],
            "log_cpr_grid": [0.0, 2.0],
            "n_grid": [50],
            "replications": 400,
            "seed": 9,
        }
    ),
}

_IPF = ["ipf", "--counts", "counts.csv", "--row-marginal", "rows.csv", "--col-marginal", "cols.csv"]

_PINNED_COMMANDS = {
    "estimate": ["estimate", "--counts", "counts.csv"],
    "adjust": ["adjust", "--counts", "empty_column.csv", "--marginal", "marginal3.csv"],
    "asymptotics": ["asymptotics", "--counts", "counts.csv"],
    "ipf": _IPF,
    "ipf-not-converged": [*_IPF, "--max-iter", "2"],
    "case-study": ["case-study"],
    "simulate": ["simulate", "--config", "config.json"],
}


# sha256 of stdout for small fixed inputs, in both formats: the CLI's output
# path may change shape, its bytes may not.
_PINNED_DIGESTS = [
    ("estimate", "csv", "5ec90ad9d0a7f73a43e958ed3354d8d67ee5ec53851129c46ecdb2e3db7ea847"),
    ("estimate", "json", "aee05d5634e7dd33a9b83810bcfcbbd4470173368b10adefba7941fa72397a02"),
    ("adjust", "csv", "161b3026fb361a65a33a80f45e28e3e3a4cb537e25b74ed9fe478c8c9b866364"),
    ("adjust", "json", "636aa95839f9789fe2729495757619ed9f812352b004bfaa5f0aabf0d66e01c6"),
    ("asymptotics", "csv", "f884ba410acad28e8e0e5bd19f5eb9e7790bd869b368eb15f50f1691239cefa8"),
    ("asymptotics", "json", "597ec751fedd2cbf5d1310de95fb2d81be2b278a1f6c17ea7289c080edcc8367"),
    ("ipf", "csv", "2143049a2d5b559b77e21b0195a570a2cc402ea02069ee4a05f0285d05bb26ea"),
    ("ipf", "json", "fc9162ab71549fc3d3749f0fb59e06c723995e6b093c31ffa9da7e738280fc81"),
    ("ipf-not-converged", "csv", "4befa8e033534d3e2a56e55c535eb0fc0ea7dfaeab9889ec3e2454c22b100808"),
    ("ipf-not-converged", "json", "df28e9e3ee3182365752fe0ecca8f2113bcc9a0922463ae555c030dbe4ae06a9"),
    ("case-study", "csv", "61e69f94647d82f3214b88270ff14116ee596a70e58ed3c0aede0052ecaea3f2"),
    ("case-study", "json", "3ee39cb935751f840f163bfdcf4cce8164e018ff1071d2e77ef54baf9963af4f"),
    ("simulate", "json", "084ba2248eadf092115ff575830d64b79ed82cc8dfddb7ba7a04d51bd9201d4d"),
]


class TestOutputBytesPinned:
    @pytest.mark.parametrize(
        "command, fmt, digest",
        _PINNED_DIGESTS,
        ids=[f"{command}-{fmt}" for command, fmt, _ in _PINNED_DIGESTS],
    )
    def test_stdout(self, capsys, tmp_path, monkeypatch, command, fmt, digest):
        monkeypatch.chdir(tmp_path)
        for name, text in _PINNED_FILES.items():
            write_text(tmp_path / name, text)
        code, out, _ = run(capsys, *_PINNED_COMMANDS[command], "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestNonUtf8InputExitCode:
    def test_latin1_counts_file_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("#rows=1 cols=1\n5\n# Stra\xdfe\n".encode("latin-1"))
        code, out, err = run(capsys, "estimate", "--counts", str(path))
        assert code == 2 and out == ""
        assert err.startswith("parse error:") and "latin1.csv:1:" in err and "UTF-8" in err
        assert err.count("\n") == 1


class TestUnreadableInputExitCode:
    # A path that exists but cannot be read reads like a missing one. A
    # directory stands in for an unreadable file, since root ignores modes.
    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--counts", "{dir}"],
            ["estimate", "--counts", "{dir}/"],
            ["adjust", "--table", "{dir}", "--marginal", "{dir}"],
            ["asymptotics", "--table", "{dir}"],
            ["simulate", "--config", "{dir}"],
            ["case-study", "--marginal", "{dir}"],
        ],
    )
    def test_directory_input_is_parse_error(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
        assert code == 2 and out == ""
        assert err == f"parse error: cannot read {tmp_path}\n"

    def test_directory_out_keeps_its_write_error(self, capsys, counts_file, tmp_path):
        code, out, err = run(capsys, "estimate", "--counts", counts_file, "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    def test_out_in_a_missing_directory_is_a_write_error(self, capsys, counts_file, tmp_path):
        out_path = tmp_path / "nodir" / "x.csv"
        code, out, err = run(capsys, "estimate", "--counts", counts_file, "--out", str(out_path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert str(out_path) in err


class TestReadErrorNamesArePathlibs:
    # An unreadable input is named as pathlib spells its path: "d" for "d/."
    # or "d//", "absent.csv" for "./absent.csv".
    @pytest.mark.parametrize("spelling", ["./absent.csv", "{dir}/.", "{dir}//", "a//absent.csv"])
    @pytest.mark.parametrize(
        "command",
        [
            ["estimate", "--counts"],
            ["asymptotics", "--table"],
            ["case-study", "--marginal"],
            ["simulate", "--config"],
        ],
    )
    def test_cli_names_the_normalized_path(self, capsys, tmp_path, monkeypatch, command, spelling):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        arg = spelling.format(dir="d")
        code, out, err = run(capsys, *command, arg)
        assert (code, out) == (2, "")
        assert err == f"parse error: cannot read {Path(arg)}\n"

    @pytest.mark.parametrize("spelling", ["{dir}/", "{dir}/."])
    def test_library_error_names_the_normalized_path(self, tmp_path, spelling):
        with pytest.raises(IsADirectoryError) as excinfo:
            read_joint_table(spelling.format(dir=tmp_path))
        assert str(excinfo.value) == f"[Errno 21] Is a directory: '{tmp_path}'"


class TestLineEndings:
    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_lone_cr_files_read_as_lf(self, capsys, tmp_path, newline):
        outputs, tables = [], []
        for name, eol in (("lf", "\n"), ("other", newline)):
            counts = tmp_path / f"{name}-counts.csv"
            marginal = tmp_path / f"{name}-marginal.csv"
            counts.write_bytes("#rows=2 cols=2\n# c\n30,10\n\n10,50\n".replace("\n", eol).encode())
            marginal.write_bytes("# m\n0.7,0.3\n".replace("\n", eol).encode())
            outputs.append(run(capsys, "adjust", "--counts", str(counts), "--marginal", str(marginal)))
            tables.append(read_count_table(counts))
        assert outputs[0][0] == 0 and outputs[1] == outputs[0]
        assert tables[1] == tables[0]


class TestParserReuse:
    def test_one_parser_serves_every_request(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name, text in _PINNED_FILES.items():
            write_text(tmp_path / name, text)
        write_text(tmp_path / "bad.csv", "#rows=1 cols=1\nx\n")
        cli._shared_parser.cache_clear()

        code, out, err = run(capsys, "adjust", "--counts", "counts.csv")
        assert (code, out) == (1, "") and err.startswith("usage error:")
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("usage: margfit")
        code, out, err = run(capsys, "estimate", "--counts", "bad.csv")
        assert (code, out) == (2, "") and err.startswith("parse error:")

        for command, fmt, digest in _PINNED_DIGESTS:
            code, out, _ = run(capsys, *_PINNED_COMMANDS[command], "--format", fmt)
            assert code == 0
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, (command, fmt)

    def test_build_parser_returns_a_new_parser(self, capsys):
        first = cli.build_parser()
        assert cli.build_parser() is not first
        assert cli._shared_parser() is not first
        first.add_argument("--extra")
        code, _, err = run(capsys, "--extra", "1", "case-study")
        assert code == 1 and err.startswith("usage error:")

    def test_main_builds_the_parser_at_most_once(self, capsys, counts_file, monkeypatch):
        cli._shared_parser.cache_clear()
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        for _ in range(20):
            code, _, _ = run(capsys, "estimate", "--counts", counts_file)
            assert code == 0
        assert built.count("margfit") <= 1


def _reference_main(argv, monkeypatch):
    """``main`` with every argv parsed by the full parser."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parse_args", cli._shared_parser().parse_args)
        return main(argv)


_C = ["--counts", "counts.csv"]
_DISPATCH_CORPUS = [
    ["estimate", *_C],
    ["estimate", *_C, "--format=json"],
    ["estimate", *_C, "--format", "json"],
    ["estimate", *_C, "--out", "out.csv"],
    ["estimate", *_C, "--format", "json", "--format", "csv"],
    ["estimate", "--count", "counts.csv"],
    ["adjust", *_C, "--marginal", "cols.csv"],
    ["adjust", "--table", "table.csv", "--marginal", "cols.csv", "--format=json"],
    ["asymptotics", "--table", "table.csv"],
    ["asymptotics", *_C, "--out", "out.csv", "--format", "json"],
    ["simulate", "--config", "config.json", "--replications", "3", "--seed", "5"],
    ["case-study"],
    ["case-study", "--format", "json"],
    [*_IPF, "--tol", "1e-12", "--max-iter", "50"],
    [*_IPF, "--max-iter", "2", "--format=json"],
    # usage and parse errors
    ["estimate"],
    ["ipf", *_C, "--row-marginal", "rows.csv"],
    ["estimate", *_C, "--bogus"],
    ["estimate", *_C, "extra"],
    [*_IPF, "--max-iter", "1.5"],
    [*_IPF, "--tol", "abc"],
    ["simulate", "--config", "config.json", "--seed", "x"],
    ["simulate", "--config", "config.json", "--seed", "-1"],
    ["adjust", *_C, "--table", "table.csv", "--marginal", "cols.csv"],
    ["estimate", "--counts", "absent.csv"],
    # -- before and after a flag
    ["estimate", "--", *_C],
    ["estimate", *_C, "--"],
    ["estimate", *_C, "--", "--format", "json"],
    ["estimate", "--counts", "--", "counts.csv"],
    ["--", "estimate", *_C],
    # not starting with a command name
    ["--format", "json", "estimate", *_C],
    ["estmate", *_C],
    ["Estimate", *_C],
    [],
]


class TestDispatchMatchesFullParser:
    # A command line that starts with a command name skips the full parser;
    # every outcome must be the one the full parser gives.
    @pytest.fixture
    def files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name, text in _PINNED_FILES.items():
            write_text(tmp_path / name, text)
        write_text(tmp_path / "table.csv", "#rows=2 cols=2\n0.25,0.25\n0.25,0.25\n")
        return tmp_path

    def outcome(self, capsys, files, call):
        try:
            code = call()
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        out, err = capsys.readouterr()
        written = None
        if (files / "out.csv").exists():
            written = (files / "out.csv").read_text()
            (files / "out.csv").unlink()
        return code, out, err, written

    @pytest.mark.parametrize("argv", _DISPATCH_CORPUS, ids=" ".join)
    def test_same_exit_code_stdout_stderr_and_out_file(self, capsys, monkeypatch, files, argv):
        got = self.outcome(capsys, files, lambda: main(list(argv)))
        want = self.outcome(capsys, files, lambda: _reference_main(list(argv), monkeypatch))
        assert got == want

    @pytest.mark.parametrize(
        "argv", [["ipf", "-h"], ["estimate", *_C, "--help"], ["case-study", "--he"], ["-h"]]
    )
    def test_help(self, capsys, monkeypatch, files, argv):
        monkeypatch.setenv("COLUMNS", "80")
        got = self.outcome(capsys, files, lambda: main(list(argv)))
        want = self.outcome(capsys, files, lambda: _reference_main(list(argv), monkeypatch))
        assert got[0] == ("SystemExit", 0) and got[1].startswith("usage: margfit")
        assert got == want

    def test_command_first_argv_is_parsed_once(self, capsys, monkeypatch, files):
        def full_parse(*args, **kwargs):
            raise cli.UsageError("parsed by the full parser")

        monkeypatch.setattr(cli._shared_parser(), "parse_known_args", full_parse)
        assert run(capsys, "estimate", *_C)[0] == 0
        code, _, err = run(capsys, "--format", "json", "estimate", *_C)
        assert (code, err) == (1, "usage error: parsed by the full parser\n")


class TestHelp:
    # No digests: argparse's help layout differs between Python versions.
    @pytest.mark.parametrize(
        "command", [[], ["estimate"], ["adjust"], ["asymptotics"], ["simulate"], ["case-study"], ["ipf"]]
    )
    def test_help_exits_0_with_stable_bytes(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        outputs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as excinfo:
                main([*command, "--help"])
            assert excinfo.value.code == 0
            captured = capsys.readouterr()
            assert captured.out.startswith("usage: margfit") and captured.err == ""
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]


class TestAsymptoticsComputesOnce:
    def test_two_covariance_matrices_per_request(self, capsys, monkeypatch, tmp_path):
        built = []
        validate = asymptotics.CovarianceMatrix.__post_init__

        def counting(self):
            built.append(self.entries.shape)
            validate(self)

        monkeypatch.setattr(asymptotics.CovarianceMatrix, "__post_init__", counting)
        table = random_joint(np.random.default_rng(61), 5, 4)
        write_text(tmp_path / "t.csv", render_joint_table(table))
        code, _, _ = run(capsys, "asymptotics", "--table", str(tmp_path / "t.csv"))
        assert code == 0
        assert built == [(5, 5), (5, 5)]

    def test_reduction_equals_asymptotic_reduction_bit_for_bit(self, capsys, tmp_path):
        rng = np.random.default_rng(67)
        path = tmp_path / "t.csv"
        for _ in range(40):
            write_text(path, render_joint_table(random_joint(rng, max_dim=8)))
            table = read_joint_table(path)
            code, out, _ = run(capsys, "asymptotics", "--table", str(path))
            assert code == 0
            pct = parse_sections_text(out)["asymptotic_reduction_pct"]
            expected = [100.0 * asymptotic_reduction(table, i) for i in range(table.n_rows)]
            assert pct.tolist() == [expected]

    @pytest.mark.parametrize(
        "flag, text",
        [("--table", "#rows=1 cols=3\n0.2,0.3,0.5\n"), ("--counts", "#rows=1 cols=3\n2,3,5\n")],
    )
    def test_one_row_table_is_degenerate(self, capsys, tmp_path, flag, text):
        write_text(tmp_path / "one.csv", text)
        code, out, err = run(capsys, "asymptotics", flag, str(tmp_path / "one.csv"))
        assert (code, out) == (3, "")
        assert err == "error: row marginal is degenerate; variance is zero\n"


class TestBundledLoadersShareOneValue:
    def test_cached_arrays_are_read_only(self, capsys):
        _, before, _ = run(capsys, "case-study")
        table, marginal = load_gidas_table3(), load_destatis2014()
        assert load_gidas_table3() is table and load_destatis2014() is marginal
        with pytest.raises(ValueError, match="read-only"):
            table.counts[0, 0] += 1
        with pytest.raises(ValueError, match="read-only"):
            marginal.probs[:] = 1.0 / len(marginal)
        code, after, _ = run(capsys, "case-study")
        assert code == 0 and after == before

    def test_cached_config_is_frozen(self):
        cfg = load_study_config("II")
        assert load_study_config("II") is cfg
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 1

    def test_unknown_case_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ValueError, match="unknown study case"):
                load_study_config("IV")


def write_config(tmp_path, **fields):
    cfg = {"row_marginal": [0.5, 0.5], "col_marginal": [0.5, 0.5], **fields}
    path = tmp_path / "cfg.json"
    write_text(path, json.dumps(cfg))
    return str(path)


class TestSimulateErrorCells:
    def test_too_extreme_cpr_is_one_error_cell(self, capsys, tmp_path):
        # The last grid point once divided by zero and lost the whole grid.
        fields = {
            "row_marginal": [0.98, 0.02],
            "col_marginal": [0.98, 0.02],
            "n_grid": [100],
            "replications": 200,
            "seed": 1,
        }
        log_cprs = [0.0, 1.0, 37.272715500598906]
        path = write_config(tmp_path, log_cpr_grid=log_cprs, **fields)
        code, out, err = run(capsys, "simulate", "--config", path)
        assert code == 0 and err == ""
        grid = parse_grid_csv_text(out)
        assert [cell.log_cpr for cell in grid.cells] == log_cprs
        assert "too extreme for double precision" in grid.cells[2].error
        # The computed cells keep their streams, so they match a grid
        # without the extreme point line for line.
        path = write_config(tmp_path, log_cpr_grid=log_cprs[:2], **fields)
        _, good, _ = run(capsys, "simulate", "--config", path)
        assert out.splitlines()[:3] == good.splitlines()

    def test_cpr_beyond_double_range_is_one_error_cell(self, capsys, tmp_path):
        # exp overflows to inf at 710 and 1e300 and underflows to 0 at
        # -1e300; each is refused as a cpr, and the run goes on.
        log_cprs = [710.0, 1e300, -1e300]
        path = write_config(tmp_path, log_cpr_grid=log_cprs, n_grid=[50], replications=20)
        code, out, err = run(capsys, "simulate", "--config", path)
        assert code == 0 and err == ""
        grid = parse_grid_csv_text(out)
        assert [cell.log_cpr for cell in grid.cells] == log_cprs
        errors = [cell.error for cell in grid.cells]
        assert errors == [
            "cpr must be finite and > 0, got inf",
            "cpr must be finite and > 0, got inf",
            "cpr must be finite and > 0, got 0.0",
        ]
        assert all(cell.reduction_pct is None for cell in grid.cells)

    @pytest.mark.parametrize(
        ("fields", "error"),
        [
            (
                {"n_grid": [1], "replications": 10},
                "fewer than 2 replications had all columns observed",
            ),
            (
                {"n_grid": [2], "replications": 3, "seed": 3, "log_cpr_grid": [0.0]},
                "unadjusted estimator variance is zero",
            ),
        ],
    )
    def test_aggregation_errors_exit_0(self, capsys, tmp_path, fields, error):
        path = write_config(tmp_path, **fields)
        code, out, err = run(capsys, "simulate", "--config", path)
        assert code == 0 and err == ""
        cells = parse_grid_csv_text(out).cells
        assert cells and all(cell.error == error for cell in cells)
        assert all(cell.reduction_pct is None for cell in cells)


class TestSimulateSerialEqualsParallel:
    # main runs the handler under np.errstate, which pool threads do not
    # inherit: one worker runs the grid cells under it, four run them outside.
    def test_one_and_four_workers_print_the_same_bytes(self, capsys, tmp_path, monkeypatch):
        path = write_config(
            tmp_path,
            log_cpr_grid=[-700.0, -30.0, 0.0, 30.0, 700.0],
            n_grid=[1, 2, 50],
            replications=50,
            seed=7,
        )
        outputs = []
        for cores in (1, 4):
            monkeypatch.setattr(simulation, "_available_cores", lambda: cores)
            code, out, err = run(capsys, "simulate", "--config", path)
            assert code == 0 and err == ""
            outputs.append(out)
        assert outputs[0] == outputs[1]
        errors = [cell.error for cell in parse_grid_csv_text(outputs[0]).cells]
        assert None in errors
        assert "fewer than 2 replications had all columns observed" in errors
        assert any(error and "too extreme" in error for error in errors)


class TestSimulateSizesBeyondInt64:
    @pytest.mark.parametrize(
        ("fields", "message"),
        [
            ({"n_grid": [9223372036854775808]}, "each n_grid entry must lie in the int64 range"),
            ({"replications": 1e300}, "replications must lie in the int64 range"),
        ],
    )
    def test_config_is_one_parse_error_line(self, capsys, tmp_path, fields, message):
        path = write_config(tmp_path, **fields)
        code, out, err = run(capsys, "simulate", "--config", path)
        assert code == 2 and out == ""
        assert err == f"parse error: {path}:1: {message}\n"


class TestNumberFlagsFollowTheFileGrammar:
    """--seed, --replications, --max-iter and --tol read their text by the
    grammar of every input file: ASCII digits, no ``_`` digit separators."""

    def argv(self, config_file, counts_file, marginal_file, flag, value):
        if flag in ("--seed", "--replications"):
            return ["simulate", "--config", config_file, flag, value]
        return [
            "ipf", "--counts", counts_file, "--row-marginal", marginal_file,
            "--col-marginal", marginal_file, flag, value,
        ]

    @pytest.mark.parametrize(
        ("flag", "value"),
        [
            (flag, value)
            for flag in ("--seed", "--replications", "--max-iter", "--tol")
            for value in ("1_0", "١", "٣")
        ]
        + [("--tol", "١e-3")],
    )
    def test_refused_value_is_one_usage_error_line(
        self, capsys, config_file, counts_file, marginal_file, flag, value
    ):
        argv = self.argv(config_file, counts_file, marginal_file, flag, value)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert f"argument {flag}:" in err

    def test_largest_seed_is_accepted(self, capsys, config_file):
        code, out, err = run(
            capsys, "simulate", "--config", config_file, "--seed", str(2**64 - 1),
            "--replications", "2",
        )
        assert code == 0 and err == "" and out

    def test_negative_seed_keeps_its_range_error(self, capsys, config_file):
        code, out, err = run(capsys, "simulate", "--config", config_file, "--seed", "-1")
        assert code == 3 and out == ""
        assert err == "error: seed must fit in an unsigned 64-bit integer, got -1\n"

    def test_word_for_an_integer_keeps_its_message(self, capsys, counts_file, marginal_file):
        argv = self.argv(None, counts_file, marginal_file, "--max-iter", "many")
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "usage error: argument --max-iter: invalid int value: 'many'\n"


class TestSubnormalColumnSums:
    """A column whose sum is subnormal has a scale target / sum beyond the
    float range; its cells are divided by the sum before the target
    multiplies them, so the table is still rescaled."""

    TABLE = "#rows=1 cols=3\n0.9999999999999999,1e-320,1e-300\n"

    @pytest.fixture
    def files(self, tmp_path):
        texts = {"table": self.TABLE, "rows": "1\n", "cols": "7,3,1\n"}
        for role, text in texts.items():
            write_text(tmp_path / f"{role}.csv", text)
        return {role: str(tmp_path / f"{role}.csv") for role in texts}

    def test_adjust_hits_the_marginal(self, capsys, files):
        code, out, err = run(
            capsys, "adjust", "--table", files["table"], "--marginal", files["cols"]
        )
        assert (code, err) == (0, "")
        sections = parse_sections_text(out)
        column_sums = sections["adjusted_cells"].sum(axis=0)
        np.testing.assert_allclose(column_sums, [7 / 11, 3 / 11, 1 / 11], rtol=0, atol=PROB_TOL)
        assert sections["zero_columns"].size == 0

    def test_ipf_converges(self, capsys, files):
        code, out, err = run(
            capsys, "ipf", "--table", files["table"],
            "--row-marginal", files["rows"], "--col-marginal", files["cols"],
        )
        assert (code, err) == (0, "")
        sections = parse_sections_text(out)
        assert sections["converged"][0, 0] == 1
        np.testing.assert_allclose(
            sections["fitted"].sum(axis=0), [7 / 11, 3 / 11, 1 / 11], rtol=0, atol=1e-10
        )


class TestChi2BoundWithUnderflowedExpectedCell:
    def test_zero_cell_with_zero_expected_value_adds_nothing(self, capsys, tmp_path):
        # r_2 * c_2 = 0.333... * 5e-324 underflows to 0, and p_22 is 0.
        path = tmp_path / "t.csv"
        write_text(path, "#rows=2 cols=2\n0.6666666666666666,5e-324\n0.3333333333333333,0.0\n")
        code, out, err = run(capsys, "asymptotics", "--table", str(path))
        assert (code, err) == (0, "")
        assert np.isfinite(parse_sections_text(out)["chi2_bound"]).all()

    def test_positive_cell_with_zero_expected_value_is_computed(self, capsys, tmp_path):
        # r_1 * c_1 = 1e-324 and p_11**2 both underflow to 0; the cell adds
        # r_1 (p_11 / r_1 - c_1)**2 / c_1 = 1 and the other four nonzero terms 1/4.
        path = tmp_path / "t.csv"
        write_text(path, "#rows=3 cols=3\n1e-162,0,0\n0,0.5,0\n0,0,0.5\n")
        code, out, err = run(capsys, "asymptotics", "--table", str(path))
        assert (code, err) == (0, "")
        assert parse_sections_text(out)["chi2_bound"].tolist() == [[2.0]]
