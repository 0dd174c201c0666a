"""`homotopy` answers at r = 0 and the --table path, through the CLI."""

import contextlib
import io
import json

from loopspace.cli import main

RANK_ZERO = ["homotopy", "--n", "2", "--r", "0", "--torsion", "2"]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_rank_zero_lists_its_zero_sphere_summand():
    # pi_6(S^5) = Z/2 dies after inverting 2, and S^5 is still listed, as
    # every r >= 1 answer lists its zero summands
    expected = "pi_6 = 0 (after inverting {2})\n  from S^5 x1: 0\ntotal: 0\n"
    assert run_cli(RANK_ZERO + ["--k", "6"]) == (0, expected, "")
    code, out, _err = run_cli(RANK_ZERO + ["--k", "6", "--json"])
    assert code == 0
    assert json.loads(out)["summands"] == [{"group": "0", "m": 5, "mult": 1}]


def test_rank_zero_below_the_top_sphere_has_no_summand():
    assert run_cli(RANK_ZERO + ["--k", "4"]) == (0, "pi_4 = 0 (after inverting {2})\n", "")
    expected = "pi_5 = Z (after inverting {2})\n  from S^5 x1: Z\ntotal: Z\n"
    assert run_cli(RANK_ZERO + ["--k", "5"]) == (0, expected, "")


def test_empty_table_path_is_a_table_error():
    # only an absent --table means the bundled table
    code, out, err = run_cli(["homotopy", "--n", "2", "--r", "1", "--k", "3", "--table", ""])
    assert (code, out) == (3, "")
    assert err.startswith("error: table: ") and err.endswith("\n")
