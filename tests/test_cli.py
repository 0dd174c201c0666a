import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from loopspace import cli, selftest
from loopspace.cli import MAX_CAP, MAX_FUZZ, MAX_R, main
from loopspace.errors import ComputationFailure
from loopspace.manifold import MAX_TORSION_ORDER, MAX_TORSION_ORDERS
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


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# Runs one CLI question after `import loopspace.cli` and reports its CPU time
# on stderr, so the budget leaves out interpreter start and import.
TIMED_QUESTION = """\
import sys, time
from loopspace.cli import main
start = time.process_time()
code = main(sys.argv[1:])
sys.stdout.flush()
print(time.process_time() - start, file=sys.stderr)
sys.exit(code)
"""


def run_cli(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, buf.getvalue(), err.getvalue()


def fresh_question_cpu_s(argv):
    """CPU seconds of one CLI question in a fresh interpreter, import excluded."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", TIMED_QUESTION, *argv], env=env, capture_output=True, check=True, timeout=60
    )
    return float(proc.stderr.decode().splitlines()[-1])


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

    @pytest.mark.parametrize(
        "command", [["report", "--cap", "5"], ["homotopy", "--k", "4"]], ids=["report", "homotopy"]
    )
    @pytest.mark.parametrize(
        "torsion, reason",
        [
            ("1000000007", "torsion order 1000000007 is over the limit 1000000000"),
            (",".join(["2"] * 17), "17 cyclic orders, over the limit 16"),
        ],
        ids=["order", "count"],
    )
    def test_torsion_bounds_exit_two_before_factoring(self, command, torsion, reason):
        # an order near 10^18 ran past 60 s in trial division, and 100
        # copies of 2 made a 219 MB text report at --cap 1000
        start = time.perf_counter()
        code, out, err = run_cli([command[0], "--n", "2", "--r", "1", "--torsion", torsion, *command[1:]])
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: torsion: {reason}\n"

    def test_torsion_at_the_bounds_is_answered(self):
        torsion = ",".join([str(MAX_TORSION_ORDER)] * MAX_TORSION_ORDERS)
        code, out, _err = run_cli(["report", "--n", "2", "--r", "1", "--torsion", torsion, "--cap", "3"])
        assert code == 0
        assert "torsion primes: {2, 5}" in out

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

    def test_table_torsion_over_the_bound_exits_three_before_factoring(self, tmp_path):
        # factoring this order by trial division ran past 10 s
        table = tmp_path / "t.tsv"
        table.write_text("2 2 1 -\n3 2 1 -\n4 2 0 1000000000000000003\n")
        start = time.perf_counter()
        code, out, err = run_cli(["homotopy", "--n", "2", "--r", "1", "--k", "3", "--table", str(table)])
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err.startswith("error: table: line 3: torsion: torsion order 1000000000000000003 is over")

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

    @pytest.mark.parametrize(
        "argv, budget_s",
        [
            # CPU on a Python 3.11 Xeon core: 0.10 s when the total was
            # renormalised once per sphere, 0.02 s now
            (["homotopy", "--n", "2", "--r", "5", "--k", "9"], 0.06),
            # 0.24-0.31 s when the relation's 20,000 terms were built as Words
            # three times over, 0.06-0.10 s now
            (["report", "--n", "2", "--r", "10000", "--cap", "20"], 0.18),
        ],
        ids=["homotopy-r5-k9", "report-r10000"],
    )
    def test_fresh_process_question_under_budget(self, argv, budget_s):
        # best of three, so that one descheduled run does not fail the check
        assert min(fresh_question_cpu_s(argv) for _ in range(3)) < budget_s

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


# Each takes a route the selftest suites call and returns a broken copy of it.
def drop_a_top_degree_word(enumerate_words):
    def broken(pres, cap):
        words = enumerate_words(pres, cap)
        words[cap] = words[cap][1:]
        return words

    return broken


def add_one_at_the_top_degree(hilbert_dims):
    def broken(pres, cap):
        dims = hilbert_dims(pres, cap)
        return dims[:-1] + [dims[-1] + 1]

    return broken


def series_of_one_more_rank(loop_generating_series):
    return lambda n, r, cap: loop_generating_series(n, r + 1, cap)


def double_the_rightmost_normal_form(normal_form):
    def broken(p, pres, strategy="leftmost"):
        q = normal_form(p, pres, strategy)
        return q.scale(2) if strategy == "rightmost" else q

    return broken


def refuse_every_certificate(_independence_certificate):
    def broken(pres, cap):
        raise ComputationFailure("injected")

    return broken


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
        assert result == selftest.suite_dp_vs_enumeration()

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

    @pytest.mark.parametrize(
        "suite, route, break_route",
        [
            ("dp-vs-enumeration", "enumerate_irreducible_words", drop_a_top_degree_word),
            ("pbw-identity", "hilbert_dims", add_one_at_the_top_degree),
            ("master-series", "loop_generating_series", series_of_one_more_rank),
            ("confluence-fuzz", "normal_form", double_the_rightmost_normal_form),
            ("independence", "independence_certificate", refuse_every_certificate),
        ],
        ids=["dp-vs-enumeration", "pbw-identity", "master-series", "confluence-fuzz", "independence"],
    )
    def test_each_suite_fails_on_a_broken_route(self, monkeypatch, suite, route, break_route):
        monkeypatch.setattr(selftest, route, break_route(getattr(selftest, route)))
        code, out, _ = run_cli(["selftest", "--fuzz", "10"])
        assert code == 1
        assert f"FAIL ({suite}" in out

