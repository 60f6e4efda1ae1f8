import json
import time

import pytest
from click.testing import CliRunner

from densediv.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


class TestMember:
    def test_dense_counterexample(self, runner):
        r = runner.invoke(main, ["member", "--family", "dense", "--i", "3", "--y", "2",
                                 "--n", "8424"])
        assert r.exit_code == 0
        assert r.output.strip() == "true"

    def test_strongdense_counterexample(self, runner):
        r = runner.invoke(main, ["member", "--family", "strongdense", "--i", "3", "--y", "2",
                                 "--n", "8424"])
        assert r.exit_code == 0
        assert r.output.strip() == "false"

    def test_missing_i_is_usage_error(self, runner):
        r = runner.invoke(main, ["member", "--family", "dense", "--y", "2", "--n", "6"])
        assert r.exit_code == 2

    def test_bad_rational(self, runner):
        r = runner.invoke(main, ["member", "--family", "smooth", "--y", "x/y", "--n", "6"])
        assert r.exit_code == 2


class TestEnumerate:
    def test_strongdense_list(self, runner):
        r = runner.invoke(main, ["enumerate", "--family", "strongdense", "--i", "2",
                                 "--y", "2", "--x", "32"])
        assert r.exit_code == 0
        assert r.output.split() == ["1", "2", "4", "8", "12", "16", "24", "32"]

    def test_csv_format(self, runner):
        r = runner.invoke(main, ["enumerate", "--family", "smooth", "--y", "2", "--x", "10",
                                 "--format", "csv"])
        assert r.output.splitlines() == ["n", "1", "2", "4", "8"]

    def test_decimal_y(self, runner):
        r1 = runner.invoke(main, ["enumerate", "--family", "dense", "--i", "1",
                                  "--y", "2.5", "--x", "40"])
        r2 = runner.invoke(main, ["enumerate", "--family", "dense", "--i", "1",
                                  "--y", "5/2", "--x", "40"])
        assert r1.output == r2.output


class TestCount:
    def test_smooth_one(self, runner):
        r = runner.invoke(main, ["count", "--family", "smooth", "--y", "2", "--x", "1"])
        assert r.exit_code == 0
        assert r.output.strip() == "1"

    def test_json_schema(self, runner):
        r = runner.invoke(main, ["count", "--family", "dense", "--i", "1", "--y", "2",
                                 "--x", "32", "--format", "json"])
        doc = json.loads(r.output)
        assert doc["schema"] == 1
        assert doc["rows"][0][1] == 13

    def test_unresolved_model_withheld(self, runner):
        # rho_0(12.58) is below what the table resolves: no model, no ratio
        r = runner.invoke(main, ["count", "--family", "smooth", "--y", "3",
                                 "--x", "1000000", "--format", "json"])
        assert r.exit_code == 0
        doc = json.loads(r.output)
        assert doc["rows"] == [[1000000, 142, "12.575420", "", ""]]


class TestTable:
    def test_lambda_rows(self, runner):
        r = runner.invoke(main, ["table", "--which", "lambda", "--i-max", "4",
                                 "--format", "csv"])
        assert r.exit_code == 0
        lines = r.output.strip().splitlines()
        assert lines[0] == "i,computed,reference,delta"
        row4 = lines[4].split(",")
        assert row4[0] == "4"
        assert row4[1].startswith("6.1590")

    def test_constants_row(self, runner):
        r = runner.invoke(main, ["table", "--which", "constants", "--i-max", "1",
                                 "--format", "csv"])
        assert r.output.strip().splitlines()[1].split(",")[1].startswith("2.2802")

    def test_imax_cap(self, runner):
        r = runner.invoke(main, ["table", "--which", "lambda", "--i-max", "40"])
        assert r.exit_code == 2


class TestCertificate:
    def test_json(self, runner):
        r = runner.invoke(main, ["certificate", "--a", "1/2"])
        doc = json.loads(r.output)
        assert doc["schema"] == 1
        assert doc["bracket"] == [2, 3]


class TestRhoTable:
    def test_stdout_equals_file(self, runner, tmp_path):
        r = runner.invoke(main, ["rho-table", "--a", "1", "--u-max", "2"])
        assert r.exit_code == 0
        path = tmp_path / "rho.csv"
        r2 = runner.invoke(main, ["rho-table", "--a", "1", "--u-max", "2", "--out", str(path)])
        assert r2.exit_code == 0
        assert r2.output == ""
        assert r.output.encode() == path.read_bytes()
        assert r.output.startswith("u,rho,model,ratio\n0,1,")
        assert len(r.output.splitlines()) == 2 * 128 + 2


class TestRatioScan:
    def test_csv(self, runner):
        r = runner.invoke(main, ["ratio-scan", "--family", "bpower", "--a", "1",
                                 "--y", "100", "--x-list", "100,1000"])
        lines = r.output.strip().splitlines()
        assert lines[0] == "x,count,model,ratio"
        assert len(lines) == 3

    def test_decreasing_xlist_rejected(self, runner):
        r = runner.invoke(main, ["ratio-scan", "--family", "bpower", "--a", "1",
                                 "--y", "100", "--x-list", "1000,100"])
        assert r.exit_code == 2


class TestVerifyAndDeterminism:
    def test_saddle_suite(self, runner):
        r = runner.invoke(main, ["verify", "--suite", "saddle"])
        assert r.exit_code == 0
        doc = json.loads(r.output)
        assert doc["passed"] is True
        assert doc["counts"]["failed"] == 0

    def test_rho_suite(self, runner):
        r = runner.invoke(main, ["verify", "--suite", "rho"])
        assert r.exit_code == 0

    def test_identities_suite_small(self, runner):
        r = runner.invoke(main, ["verify", "--suite", "identities", "--xmax", "400"])
        assert r.exit_code == 0, r.output

    def test_sandwich_suite_small(self, runner):
        r = runner.invoke(main, ["verify", "--suite", "sandwich", "--nmax", "2000"])
        assert r.exit_code == 0

    def test_byte_identical_output(self, runner):
        args = ["count", "--family", "dense", "--i", "2", "--y", "2", "--x", "100",
                "--format", "json"]
        out1 = runner.invoke(main, args).output
        out2 = runner.invoke(main, args).output
        assert out1 == out2

    def test_resource_limit_exit_code(self, runner):
        r = runner.invoke(main, ["rho-table", "--a", "1", "--u-max", "600"])
        assert r.exit_code == 3
        # a prime near 1e18 is past the trial-division budget
        t0 = time.monotonic()
        r = runner.invoke(main, ["member", "--family", "dense", "--i", "2", "--y", "2",
                                 "--n", "1000000000000000003"])
        assert r.exit_code == 3
        assert time.monotonic() - t0 < 5.0

    def test_verification_failure_exit_code(self, runner, monkeypatch):
        from densediv import cli as cli_mod

        monkeypatch.setitem(
            cli_mod.verify.callback.__globals__,
            "_suite_saddle",
            lambda: [{"name": "forced", "passed": False, "detail": ""}],
        )
        r = runner.invoke(main, ["verify", "--suite", "saddle"])
        assert r.exit_code == 4


class TestQuestionScan:
    def test_no_counterexamples_small_range(self, runner):
        r = runner.invoke(main, ["question-scan", "--i", "3", "--y", "2",
                                 "--m-max", "200", "--p-max", "40"])
        assert r.exit_code == 0
        doc = json.loads(r.output)
        assert doc["counterexamples"] == []
