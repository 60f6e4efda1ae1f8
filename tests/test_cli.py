import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from densediv.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"


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


class TestEnumerateOutput:
    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_slices_keep_the_bytes(self, runner, monkeypatch, fmt):
        # seams every 7 members give the bytes of one join over the whole list
        from densediv import cli as cli_mod
        from densediv.families import FamilySpec, enumerate_members

        members = enumerate_members(FamilySpec("dense", 2, i=2), 200)
        expect = {"plain": " ".join(map(str, members)) + "\n",
                  "csv": "n\n" + "".join(f"{m}\n" for m in members),
                  "json": json.dumps({"schema": 1, "columns": ["n"], "rows": [[m] for m in members]}) + "\n"}
        monkeypatch.setattr(cli_mod, "_SLICE", 7)
        r = runner.invoke(main, ["enumerate", "--family", "dense", "--i", "2", "--y", "2", "--x", "200",
                                 "--format", fmt])
        assert r.exit_code == 0
        assert len(members) > 3 * 7 and r.output == expect[fmt]

    def test_member_budget_exit_code(self, runner):
        # 59,244,184 members at 56 bytes each are past the 1 GiB budget: the walk
        # refuses once its list passes it, before anything is written
        t0 = time.monotonic()
        r = runner.invoke(main, ["enumerate", "--family", "smooth", "--y", "1000", "--x", "1000000000"])
        assert r.exit_code == 3
        assert r.stdout == ""
        assert r.stderr.startswith("resource limit: ")
        assert time.monotonic() - t0 < 5.0


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

    # stdout of `certificate --a`, captured before the downward incomplete-gamma
    # recurrence replaced the per-term evaluation in g_eval_series
    GOLDEN = {
        "1": """\
{
  "schema": 1,
  "a": "1",
  "lambda": 1.0,
  "C": 2.280291016514797,
  "bracket": [
    1,
    1
  ],
  "bracket_signs": [
    "1",
    "0"
  ],
  "residual": 0.0,
  "zero_free_rects": []
}
""",
        "1/2": """\
{
  "schema": 1,
  "a": "1/2",
  "lambda": 2.462066732271646,
  "C": 3.781527721804596,
  "bracket": [
    2,
    3
  ],
  "bracket_signs": [
    "1/8",
    "-5/48"
  ],
  "residual": 1.8962139193448543e-18,
  "zero_free_rects": []
}
""",
        "1/7": """\
{
  "schema": 1,
  "a": "1/7",
  "lambda": 12.92039956331274,
  "C": 22.0004991583792,
  "bracket": [
    12,
    13
  ],
  "bracket_signs": [
    "59407165994257/4316405413631850",
    "-3922210300483/4364365473783315"
  ],
  "residual": 7.042712857383282e-18,
  "zero_free_rects": []
}
""",
    }

    @pytest.mark.parametrize("a", sorted(GOLDEN))
    def test_golden_stdout(self, runner, a):
        r = runner.invoke(main, ["certificate", "--a", a])
        assert r.exit_code == 0
        assert r.output == self.GOLDEN[a]

    # stdout of `table`, captured before the float and mp series routes were
    # moved onto one incomplete-gamma routine
    TABLE_GOLDEN = {
        ("lambda", "20"): """\
1 1.0000000 1 +0.00e+00
2 2.4620667 2.46206 +6.73e-06
3 4.2060504 4.20605 +3.96e-07
4 6.1590028 6.15900 +2.83e-06
5 8.2792539 8.27925 +3.95e-06
6 10.5395108 10.5395 +1.08e-05
7 12.9203996 12.9203 +9.96e-05
8 15.4074068 15.4074 +6.79e-06
9 17.9892299 17.9892 +2.99e-05
10 20.6568039 20.6568 +3.88e-06
11 23.4026888 23.4026 +8.88e-05
12 26.2206633 26.2206 +6.33e-05
13 29.1054445 29.1054 +4.45e-05
14 32.0524882 32.0524 +8.82e-05
15 35.0578424 35.0578 +4.24e-05
16 38.1180373 38.1180 +3.73e-05
17 41.2300014 41.2300 +1.44e-06
18 44.3909958 44.3909 +9.58e-05
19 47.5985624 47.5985 +6.24e-05
20 50.8504826 50.8504 +8.26e-05
""",
        ("constants", "10"): """\
1 2.2802910 2.28029 +1.02e-06
2 3.7815277 3.7815 +2.77e-05
3 5.7645930 5.7645 +9.30e-05
4 8.3827293 8.3827 +2.93e-05
5 11.8119908 11.812 -9.19e-06
6 16.2649605 16.265 -3.95e-05
7 22.0004992 22.000 +4.99e-04
8 29.3339447 29.333 +9.45e-04
9 38.6487975 38.648 +7.97e-04
10 50.4104165 50.410 +4.16e-04
""",
    }

    @pytest.mark.parametrize("which,i_max", sorted(TABLE_GOLDEN))
    def test_golden_table_stdout(self, runner, which, i_max):
        r = runner.invoke(main, ["table", "--which", which, "--i-max", i_max])
        assert r.exit_code == 0
        assert r.output == self.TABLE_GOLDEN[(which, i_max)]


    # stdout of `verify --suite identities`, captured while the identities were
    # still checked by per-n loops
    @pytest.mark.parametrize("args,golden", [
        ([], "verify_identities.json"),
        (["--xmax", "2000"], "verify_identities_xmax2000.json"),
    ])
    def test_golden_identities_stdout(self, runner, args, golden):
        r = runner.invoke(main, ["verify", "--suite", "identities", *args])
        assert r.exit_code == 0
        assert r.output == (GOLDEN_DIR / golden).read_text()


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

    def test_sandwich_suite_counts_violations(self, runner, monkeypatch):
        from fractions import Fraction

        import numpy as np

        from densediv import families

        def planted(nmax, y, imax):
            # every table holds every n, then each y gets its own faults
            t = {"smooth": np.ones(nmax + 1, dtype=bool)}
            for kind in ("thetalower", "thetaupper", "dense", "strongdense"):
                t[kind] = [np.ones(nmax + 1, dtype=bool) for _ in range(imax + 1)]
            if y == 2:
                t["thetalower"][1][3] = 0  # smooth > ThetaLower(1)
                # two links at (2, 5), ThetaLower > StrongDense and Dense > ThetaUpper;
                # StrongDense(3) > StrongDense(2) and Dense(2) != StrongDense(2) there too
                t["strongdense"][2][5] = t["thetaupper"][2][5] = 0
            elif y == Fraction(5, 2):
                # two links at (4, 9): smooth > ThetaLower and StrongDense > Dense
                t["thetalower"][4][9] = t["dense"][4][9] = 0
            elif y == 3:
                # no link fails, but Dense(4) > Dense(3) at n = 6
                t["smooth"][6] = 0
                for kind in ("thetalower", "strongdense", "dense"):
                    t[kind][3][6] = 0
            else:
                t["thetalower"][4][0] = 0  # n = 0 is not scanned
            return t

        monkeypatch.setattr(families, "membership_tables", planted)
        r = runner.invoke(main, ["verify", "--suite", "sandwich", "--nmax", "10"])
        assert r.exit_code == 4
        doc = json.loads(r.output)
        expect = []
        for y, viol, nest, eq12 in (("2", 2, False, False), ("5/2", 1, True, True),
                                    ("3", 0, False, True), ("10", 0, True, True)):
            expect += [
                {"name": f"sandwich chain y={y}", "passed": viol == 0,
                 "detail": f"violations={viol} over n<=10, i<=4"},
                {"name": f"nesting y={y}", "passed": nest, "detail": ""},
                {"name": f"dense==strong for i<=2, y={y}", "passed": eq12, "detail": ""},
            ]
        assert doc["results"] == expect
        assert doc["counts"] == {"total": 12, "failed": 5}

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

    def test_prime_cofactor_past_trial_division_exit_code(self, runner):
        # 2**61 - 1 is prime but above (2**20 + 1)**2, so it cannot be proven
        # prime by trial division to 2**20; 2**40 - 87 can
        args = ["member", "--family", "dense", "--i", "2", "--y", "2", "--n"]
        r = runner.invoke(main, args + [str(3 * (2**61 - 1))])
        assert r.exit_code == 3
        assert r.stderr.startswith("resource limit: ")
        assert runner.invoke(main, args + [str(3 * (2**40 - 87))]).exit_code == 0

    @pytest.mark.parametrize("args", [
        "member --family smooth --y 2 --n 0",
        "count --family smooth --y 2 --x 0",
        "count --family strongdense --i 3 --y 2 --x 0",
        "ratio-scan --family smooth --y 2 --x-list 0,10",
        "verify --suite identities --xmax 0",
        "verify --suite sandwich --nmax -5",
        "verify --suite sandwich --nmax 0",
        "rho-table --a -1",
        "rho-table --a 1 --u-max -1",
        "rho-table --a 1 --step 0",
        # lambda_{1/100} lies past what the series route can polish
        "rho-table --a 1/100 --u-max 1.1",
        "certificate --a 1/100",
        "table --which lambda --i-max 0",
        "table --which lambda --i-max -1",
        "question-scan --i 0 --y 2",
        "question-scan --i 2 --y 1",
    ])
    def test_domain_error_exit_code(self, runner, args):
        # out-of-domain input is a usage error with a message, not a traceback
        r = runner.invoke(main, args.split())
        assert r.exit_code == 2, r.output
        assert r.exception is None or isinstance(r.exception, SystemExit)
        assert "Traceback" not in r.output

    def test_divisor_cap_exit_code(self, runner):
        # the product of the first 21 primes has 2**21 divisors, past the cap
        primorial = 1
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73):
            primorial *= p
        t0 = time.monotonic()
        r = runner.invoke(main, ["member", "--family", "dense", "--i", "2", "--y", "2",
                                 "--n", str(primorial)])
        assert r.exit_code == 3
        assert r.stderr.startswith("resource limit: ")
        assert time.monotonic() - t0 < 5.0

    def test_bulk_budget_exit_code(self, runner):
        # N = 5e7 passes the sieve's budget, not the membership tables'
        t0 = time.monotonic()
        r = runner.invoke(main, ["verify", "--suite", "sandwich", "--nmax", "50000000"])
        assert r.exit_code == 3
        assert time.monotonic() - t0 < 5.0

    def test_count_budget_exit_code(self, runner):
        # the count route holds 2 bytes per n at i = 3, so x = 1e9 is past the 1 GiB budget
        t0 = time.monotonic()
        r = runner.invoke(main, ["count", "--family", "dense", "--i", "3", "--y", "2",
                                 "--x", "1000000000"])
        assert r.exit_code == 3
        assert r.stdout == ""
        assert len(r.stderr.splitlines()) == 1
        assert r.stderr.startswith("resource limit: ")
        assert time.monotonic() - t0 < 5.0

    def test_identities_budget_exit_code(self, runner):
        # the suite's first step, the phi pairs, holds up to 40 bytes per n, so
        # x = 26843545 is past the 1 GiB budget before any table is built
        t0 = time.monotonic()
        r = runner.invoke(main, ["verify", "--suite", "identities", "--xmax", "26843545"])
        assert r.exit_code == 3
        assert r.stdout == ""
        assert len(r.stderr.splitlines()) == 1
        assert r.stderr.startswith("resource limit: ")
        assert time.monotonic() - t0 < 5.0

    def test_residue_disagreement_exit_code(self, runner):
        # at a = 1/65 the two residue routes disagree past their tolerance: a
        # verification failure with one line on stderr, not a traceback
        r = runner.invoke(main, ["certificate", "--a", "1/65"])
        assert r.exit_code == 4
        assert r.stdout == ""
        assert len(r.stderr.splitlines()) == 1
        assert r.stderr.startswith("verification failure: residue routes disagree")

    def test_certificate_budget_exit_code(self, runner):
        # a = 1000 would sum ~115,000 unit panels of h_2 per high-precision
        # sample; it is refused before the first
        t0 = time.monotonic()
        r = runner.invoke(main, ["certificate", "--a", "1000"])
        assert r.exit_code == 3
        assert r.stdout == ""
        assert len(r.stderr.splitlines()) == 1
        assert r.stderr.startswith("resource limit: ")
        assert time.monotonic() - t0 < 5.0

    def test_prime_sieve_budget_exit_code(self, runner):
        # the smooth walk to y = 1e9 lists the primes to 1e9, past the sieve budget
        t0 = time.monotonic()
        r = runner.invoke(main, ["count", "--family", "smooth", "--y", "1000000000",
                                 "--x", "1000000000"])
        assert r.exit_code == 3
        assert r.stdout == ""
        assert r.stderr.startswith("resource limit: ")
        assert time.monotonic() - t0 < 5.0

    # stdout of the count route for Dense(i != 2) and StrongDense, captured
    # while it still filtered the ThetaUpper(i) superset with the oracle
    @pytest.mark.parametrize("args,golden", [
        ("count --family dense --i 3 --y 5/2 --x 100000 --format json",
         "count_dense3_y5_2_json.txt"),
        ("count --family strongdense --i 4 --y 10 --x 100000 --squarefree --format csv",
         "count_strongdense4_y10_sf_csv.txt"),
        ("enumerate --family strongdense --i 3 --y 2 --x 3000",
         "enumerate_strongdense3_y2.txt"),
    ])
    def test_golden_count_route_stdout(self, runner, args, golden):
        r = runner.invoke(main, args.split())
        assert r.exit_code == 0
        assert r.stdout == (GOLDEN_DIR / golden).read_text()

    def test_golden_paper_stdout(self, runner):
        r = runner.invoke(main, ["verify", "--suite", "paper"])
        assert r.exit_code == 0
        assert r.output == (GOLDEN_DIR / "verify_paper.json").read_text()

    def test_paper_suite_reports_a_broken_statement(self, runner, monkeypatch):
        from densediv import gzero

        monkeypatch.setattr(gzero, "dgda_identity_check", lambda a, s: 1e-3)
        r = runner.invoke(main, ["verify", "--suite", "paper"])
        assert r.exit_code == 4
        doc = json.loads(r.output)
        failed = [res for res in doc["results"] if not res["passed"]]
        assert [res["name"] for res in failed] == ["dg/da identity a=1 s=1.0", "dg/da identity a=1/2 s=(-2+3j)"]
        assert failed[0]["detail"] == "residual=1.0e-03 (bound 1e-06)"
        assert doc["passed"] is False and doc["counts"] == {"total": 9, "failed": 2}

    def test_paper_suite_judges_the_lambda_regime(self, runner, monkeypatch):
        # lambda_1 read as 2 puts r_1 = 2 e^gamma - 1 - e^-gamma log 2 = 2.17 past
        # 2/3: the report returns the row, and the suite fails it
        import dataclasses

        from densediv import gzero

        find = gzero.find_lambda
        monkeypatch.setattr(gzero, "find_lambda",
                            lambda a: dataclasses.replace(find(a), lam=2.0) if a == 1 else find(a))
        r = runner.invoke(main, ["verify", "--suite", "paper"])
        assert r.exit_code == 4
        doc = json.loads(r.output)
        row = next(res for res in doc["results"] if res["name"] == "lambda_a regime a=1")
        assert row == {"name": "lambda_a regime a=1", "passed": False,
                       "detail": "r_a=2.1730 (bound |r_a|<=2/3)"}
        assert '"passed": false' in r.output

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

    def test_reads_no_oracle(self, runner, monkeypatch):
        # the scan reads one StrongDense(i) level; the single-n oracle is never asked
        from densediv.families import FamilyOracle

        def refuse(*args, **kwargs):
            raise AssertionError("question-scan queried the oracle")

        monkeypatch.setattr(FamilyOracle, "member", refuse)
        r = runner.invoke(main, ["question-scan", "--i", "3", "--y", "2",
                                 "--m-max", "200", "--p-max", "40"])
        assert r.exit_code == 0, r.output
        assert json.loads(r.output)["counterexamples"] == []

    def test_planted_level_reports_each_break(self, runner, monkeypatch):
        # n = m p is read by m = n / P^+(n) alone, at p = P^+(n); a level that is
        # no chain family shows every path of the scan
        import numpy as np

        from densediv import families

        def planted(spec, x):
            assert (spec.kind, spec.i, spec.y, x) == ("strongdense", 3, 2, 10 * 20)
            level = np.ones(x + 1, dtype=bool)
            level[[2, 3]] = False  # m = 1: out at 2 and 3, back in at 5
            level[14] = False  # m = 2: out at 7, back in at 11; m = 7 reads no p < 7
            level[15] = False  # m = 3: out at 5, back in at 7
            level[[44, 52, 68, 76]] = False  # m = 4: out from 11 on, never back in
            level[[27, 63]] = False  # m = 9: out at 3, back in at 5; 7 comes after
            level[190] = False  # m = 10: out at 19, the last prime
            return level

        monkeypatch.setattr(families, "member_mask", planted)
        r = runner.invoke(main, ["question-scan", "--i", "3", "--y", "2",
                                 "--m-max", "10", "--p-max", "20"])
        assert r.exit_code == 0, r.output
        assert json.loads(r.output)["counterexamples"] == [
            {"m": 1, "p_out": 2, "p_in": 5}, {"m": 2, "p_out": 7, "p_in": 11},
            {"m": 3, "p_out": 5, "p_in": 7}, {"m": 9, "p_out": 3, "p_in": 5}]

    # stdout of the scans that asked the oracle about every m p (md5 d0edd4a0...
    # and 254677e7...)
    @pytest.mark.parametrize("args,stdout", [
        ("--i 3 --y 2", '{"schema": 1, "i": 3, "y": "2", "m_max": 2000, "p_max": 200, "counterexamples": []}\n'),
        ("--i 4 --y 5/2", '{"schema": 1, "i": 4, "y": "5/2", "m_max": 2000, "p_max": 200, "counterexamples": []}\n'),
    ])
    def test_default_scan_stdout(self, runner, args, stdout):
        r = runner.invoke(main, ["question-scan", *args.split()])
        assert r.exit_code == 0
        assert r.stdout == stdout

    def test_no_m(self, runner):
        r = runner.invoke(main, ["question-scan", "--i", "3", "--y", "2", "--m-max", "0"])
        assert r.exit_code == 0
        assert json.loads(r.stdout)["counterexamples"] == []

    def test_no_m_lists_no_primes(self, runner):
        # with no m to scan no prime is listed, however large --p-max
        t0 = time.monotonic()
        r = runner.invoke(main, ["question-scan", "--i", "3", "--y", "2",
                                 "--m-max", "0", "--p-max", "1000000000000"])
        assert r.exit_code == 0
        assert json.loads(r.stdout)["counterexamples"] == []
        assert time.monotonic() - t0 < 1.0

    def test_budget_exit_code(self, runner):
        # the StrongDense(3) level over n <= 1e10 is past the 1 GiB budget
        t0 = time.monotonic()
        r = runner.invoke(main, ["question-scan", "--i", "3", "--y", "2",
                                 "--m-max", "100000", "--p-max", "100000"])
        assert r.exit_code == 3
        assert r.stdout == ""
        assert len(r.stderr.splitlines()) == 1
        assert r.stderr.startswith("resource limit: ")
        assert time.monotonic() - t0 < 5.0


class TestStartup:
    # no command imports scipy; this test process has scipy loaded already
    # (the tests' Airy reference uses it), so each check starts a new one
    _CODE = (
        "import sys\n"
        "from densediv.cli import main\n"
        "if sys.argv[1:]:\n"
        "    main(sys.argv[1:], standalone_mode=False)\n"
        "print('scipy' in sys.modules)\n"
    )

    def _scipy_loaded(self, args):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", self._CODE, *args.split()], capture_output=True,
                             text=True, env=env, check=True, timeout=120).stdout
        return out.splitlines()[-1]

    @pytest.mark.parametrize("args", [
        "",
        "member --family dense --i 3 --y 2 --n 720720",
        # the count with the rho model builds the omega table
        "count --family dense --i 2 --y 50 --x 100000",
    ])
    def test_no_scipy_before_it_is_called(self, args):
        assert self._scipy_loaded(args) == "False"

    @pytest.mark.parametrize("args", [
        pytest.param("certificate --a 1/3", id="certificate"),
        pytest.param("table --which lambda --i-max 3", id="table-lambda"),
        pytest.param("rho-table --a 1 --u-max 3", id="rho-table"),
        pytest.param("verify --suite paper", id="verify-paper"),
    ])
    def test_g_a_commands_run_without_scipy(self, args):
        # the commands that evaluate g_a, which once read scipy.special
        assert self._scipy_loaded(args) == "False"
