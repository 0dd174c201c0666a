"""The exact message of every bound error the CLI checks before it computes."""

import contextlib
import io

import pytest

from loopspace.cli import main

REPORT = ["report", "--n", "2", "--r", "1"]
HOMOTOPY = ["homotopy", "--n", "2", "--r", "1"]
# 4300 digits parse as an int, but the dimension 2n+1 has 4301, one past the
# int-to-str limit: this n once exited 1 with a traceback
HUGE_N = "5" + "0" * 4299


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv, message",
    [
        (REPORT + ["--cap", "0"], "cap must be >= 1"),
        (REPORT + ["--cap", "1001"], "cap 1001 is over the limit 1000"),
        (HOMOTOPY + ["--k", "-1"], "k must be >= 0"),
        (HOMOTOPY + ["--k", "10001"], "k 10001 is over the limit 10000"),
        (["report", "--n", "2", "--r", "10001"], "r 10001 is over the limit 10000"),
        (["homotopy", "--n", "2", "--r", "10001", "--k", "4"], "r 10001 is over the limit 10000"),
        (["selftest", "--fuzz", "0"], "fuzz must be >= 1"),
        (["selftest", "--fuzz", "100001"], "fuzz 100001 is over the limit 100000"),
        (["selftest", "--seed", "-1"], "seed must be >= 0"),
        (["report", "--n", "10001", "--r", "1"], "n 10001 is over the limit 10000"),
        (["homotopy", "--n", "10001", "--r", "1", "--k", "4"], "n 10001 is over the limit 10000"),
        pytest.param(
            ["report", "--n", HUGE_N, "--r", "1"], f"n {HUGE_N} is over the limit 10000", id="n-4300-digits"
        ),
    ],
)
def test_bound_error_is_one_exact_stderr_line(argv, message):
    assert run_cli(argv) == (2, "", f"error: {message}\n")
