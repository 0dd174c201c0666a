import contextlib
import io
import json
import pathlib
import time

import pytest

from loopspace import cli, selftest
from loopspace.cli import MAX_CAP, MAX_FUZZ, MAX_R, main
from loopspace.series import loop_generating_series

GOLDEN = pathlib.Path(__file__).parent / "golden"

GOLDEN_CASES = {
    "report_n2_r2_t0.txt": ["report", "--n", "2", "--r", "2", "--torsion", "-", "--cap", "10"],
    "report_n2_r2_t0.json": ["report", "--n", "2", "--r", "2", "--torsion", "-", "--cap", "10", "--json"],
    "report_n3_r1_t2.txt": ["report", "--n", "3", "--r", "1", "--torsion", "2", "--cap", "8"],
    "report_n3_r1_t2.json": ["report", "--n", "3", "--r", "1", "--torsion", "2", "--cap", "8", "--json"],
    "homotopy_n2_r1_k4.txt": ["homotopy", "--n", "2", "--r", "1", "--torsion", "-", "--k", "4"],
    "homotopy_n2_r1_k4.json": ["homotopy", "--n", "2", "--r", "1", "--torsion", "-", "--k", "4", "--json"],
}


def run_cli(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, buf.getvalue(), err.getvalue()


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_byte_identical_to_golden(self, name):
        code, out, _err = run_cli(GOLDEN_CASES[name])
        assert code == 0
        assert out.encode() == (GOLDEN / name).read_bytes()

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_stable_across_reruns(self, name):
        _c1, out1, _ = run_cli(GOLDEN_CASES[name])
        _c2, out2, _ = run_cli(GOLDEN_CASES[name])
        assert out1 == out2

    @pytest.mark.parametrize("name", [n for n in sorted(GOLDEN_CASES) if n.endswith(".json")])
    def test_json_round_trips(self, name):
        _code, out, _err = run_cli(GOLDEN_CASES[name])
        doc = json.loads(out)
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out


class TestReport:
    def test_contains_summand_counts(self):
        _code, out, _ = run_cli(["report", "--n", "2", "--r", "2", "--torsion", "-", "--cap", "10"])
        assert "l[1]=2 l[2]=3 l[3]=5" in out

    def test_rank_zero_sphere_fallback(self):
        code, out, _ = run_cli(["report", "--n", "2", "--r", "0", "--torsion", "2"])
        assert code == 0
        assert "M ≃ S^5 after inverting {2}" in out

    def test_validation_exit_code(self):
        code, _out, err = run_cli(["report", "--n", "1", "--r", "2", "--torsion", "-"])
        assert code == 2
        assert "n must be >= 2" in err

    def test_bad_torsion_named(self):
        code, _out, err = run_cli(["report", "--n", "2", "--r", "1", "--torsion", "2,x"])
        assert code == 2
        assert "torsion" in err

    def test_bad_cap(self):
        code, _out, err = run_cli(["report", "--n", "2", "--r", "1", "--torsion", "-", "--cap", "0"])
        assert code == 2
        assert "cap" in err


class TestHomotopy:
    def test_pi3_two_sphere_summands(self):
        code, out, _ = run_cli(["homotopy", "--n", "2", "--r", "1", "--torsion", "-", "--k", "3"])
        assert code == 0
        assert out.splitlines()[0] == "pi_3 = Z + Z"

    def test_rank_two_pi2(self):
        _code, out, _ = run_cli(["homotopy", "--n", "2", "--r", "2", "--torsion", "-", "--k", "2"])
        assert "pi_2 = Z^2" in out

    def test_below_connectivity(self):
        _code, out, _ = run_cli(["homotopy", "--n", "3", "--r", "2", "--torsion", "-", "--k", "2"])
        assert out.strip() == "pi_2 = 0"

    def test_table_gap_exit_three(self):
        code, _out, err = run_cli(["homotopy", "--n", "2", "--r", "2", "--torsion", "-", "--k", "17"])
        assert code == 3
        assert "pi_17" in err

    def test_table_flag(self, tmp_path):
        table = tmp_path / "t.tsv"
        table.write_text("2 2 1 -\n3 2 1 -\n3 3 1 -\n")
        code, out, _ = run_cli(
            ["homotopy", "--n", "2", "--r", "1", "--torsion", "-", "--k", "3", "--table", str(table)]
        )
        assert code == 0 and "pi_3 = Z + Z" in out
        code, _out, err = run_cli(
            ["homotopy", "--n", "2", "--r", "1", "--torsion", "-", "--k", "4", "--table", str(table)]
        )
        assert code == 3 and "pi_4" in err

    def test_missing_table_file(self):
        code, _out, err = run_cli(
            ["homotopy", "--n", "2", "--r", "1", "--torsion", "-", "--k", "3", "--table", "/no/such/file"]
        )
        assert code == 3
        assert "table" in err


class TestScaling:
    """Counting is linear in the degree and in the letters.  With a loop over
    every earlier log coefficient or every pair of letters per degree, each
    size takes about a minute (extrapolated from k = 1500 and r = 200)."""

    def test_homotopy_far_past_the_table_exits_three(self):
        start = time.perf_counter()
        code, _out, err = run_cli(["homotopy", "--n", "2", "--r", "2", "--torsion", "-", "--k", "5000"])
        assert time.perf_counter() - start < 10
        assert code == 3
        assert "pi_5000(S^2)" in err

    def test_report_with_four_thousand_letters(self):
        start = time.perf_counter()
        code, out, _err = run_cli(["report", "--n", "2", "--r", "2000", "--cap", "20", "--json"])
        assert time.perf_counter() - start < 10
        assert code == 0
        doc = json.loads(out)
        assert doc["loop_homology_dims"][:3] == [1, 2000, 2000**2 + 2000]
        assert doc["summand_counts"]["1"] == 2000

    def test_report_with_six_torsion_primes_at_the_cap_limit(self):
        # renormalising the torsion at every step of each degree took over 10 s
        start = time.perf_counter()
        code, out, _err = run_cli(
            ["report", "--n", "2", "--r", "2", "--torsion", "2,3,5,7,11,13", "--cap", "1000", "--json"]
        )
        assert time.perf_counter() - start < 10
        assert code == 0
        fiber = json.loads(out)["fiber_homology"]
        # p[D - 2] = D // 2 for Z[u, v] with |u| = 1, |v| = 2
        assert fiber["2"] == "Z + Z/30030"
        assert fiber["1000"] == f"Z^{500 + 499} + " + " + ".join(["Z/30030"] * 500)

    def test_homotopy_with_too_many_summands_exits_two_naming_r_and_k(self):
        # about 1.4 * 10^15 cyclic summands: building them never finished
        start = time.perf_counter()
        code, out, err = run_cli(["homotopy", "--n", "2", "--r", "100", "--k", "9"])
        assert time.perf_counter() - start < 2
        assert code == 2
        assert out == ""
        assert err.startswith("error: pi_9 at r=100 has ")
        assert "cyclic summands, over the limit 1000000" in err

    def test_homotopy_under_the_summand_limit_answers(self):
        # 5 + 15 + 2 * 64 + 280 + 1344 + 6496 + 32640 + 166320 = 207,228 summands
        code, out, _err = run_cli(["homotopy", "--n", "2", "--r", "5", "--k", "9"])
        assert code == 0
        lines = out.splitlines()
        assert "  from S^4 x64: Z/2 + Z/2" in lines
        assert "  from S^9 x166320: Z" in lines
        assert lines[-1].startswith("total: Z^166320 + ")

    def test_largest_answer_prints_under_the_default_digit_limit(self):
        # The coefficients of 1/q bound every printed l[w] and loop-homology
        # dimension, and grow fastest at n = 2.  Python's str() refuses ints
        # of more than 4300 digits by default, so raising MAX_R or MAX_CAP
        # past this needs that limit handled first.
        series = loop_generating_series(2, MAX_R, MAX_CAP).inverse()
        assert len(str(max(series.coeffs))) <= 4300

    @pytest.mark.parametrize(
        "field,argv",
        [
            ("cap", ["report", "--n", "2", "--r", "2", "--cap", "100000000"]),
            ("r", ["report", "--n", "2", "--r", "100000000"]),
            ("k", ["homotopy", "--n", "2", "--r", "2", "--k", "100000000"]),
        ],
    )
    def test_size_over_the_limit_exits_two_naming_the_field(self, field, argv):
        start = time.perf_counter()
        code, out, err = run_cli(argv)
        assert time.perf_counter() - start < 2
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {field} 100000000 is over the limit")


class TestSelftest:
    def test_passes(self):
        code, out, _ = run_cli(["selftest", "--fuzz", "100"])
        assert code == 0
        assert "all suites passed" in out

    def test_seed_changes_inputs_not_verdicts(self):
        code7, out7, _ = run_cli(["selftest", "--fuzz", "100", "--seed", "7"])
        code11, out11, _ = run_cli(["selftest", "--fuzz", "100", "--seed", "11"])
        assert code7 == code11 == 0
        verdicts7 = [line.split()[-1] for line in out7.splitlines()[:-1]]
        verdicts11 = [line.split()[-1] for line in out11.splitlines()[:-1]]
        assert verdicts7 == verdicts11 == ["PASS"] * 6

    @pytest.mark.parametrize("fuzz", [0, -3, MAX_FUZZ + 1])
    def test_fuzz_out_of_range_exits_two_before_any_suite(self, monkeypatch, fuzz):
        # --fuzz 0 and --fuzz -3 used to pass after checking nothing
        monkeypatch.setattr(cli, "run_selftest", lambda **_kw: pytest.fail("a suite ran"))
        code, out, err = run_cli(["selftest", "--fuzz", str(fuzz)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: fuzz ")

    def test_suite_result_detail_defaults_to_empty(self):
        result = selftest.SuiteResult("dp-vs-enumeration", True)
        assert result.detail == ""
        assert result == selftest.suite_dp_vs_enumeration(cap=4)

    def test_injected_fault_fails_naming_suite(self, monkeypatch):
        counts = selftest.sphere_summand_counts

        def off_by_one(n, r, cap):
            wrong = dict(counts(n, r, cap))
            wrong[1] += 1
            return wrong

        monkeypatch.setattr(selftest, "sphere_summand_counts", off_by_one)
        code, out, _ = run_cli(["selftest", "--fuzz", "10"])
        assert code == 1
        assert "FAIL (mobius-vs-lyndon" in out
