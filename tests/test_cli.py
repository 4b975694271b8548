import hashlib
import json

import numpy as np
import pytest

from margfit.cli import main
from margfit.io import parse_case_study_csv_text, parse_grid_csv_text, parse_sections_text, write_text


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
            ("I", "99eeafa9772157646db5e07be6e88a1ddfb077dfc86900ef27a31a2add6d8c0b"),
            ("II", "b8293faf68fa9b48a675973809de509659a8515a2dd3b79e4b70b1acabe0bc75"),
            ("III", "fdde69c72ba1936c9d935318e8f38bfbe70676e137db9c5106da38a883d9d8f4"),
        ],
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


class TestOutputBytesPinned:
    # sha256 of stdout for small fixed inputs, in both formats: the CLI's
    # output path may change shape, its bytes may not.
    @pytest.mark.parametrize(
        "command, fmt, digest",
        [
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
            ("simulate", "json", "e3d8207ddb3d173f373be1f8b4a3ee91f781812cf4cb906c1ed8000c09353a90"),
        ],
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
