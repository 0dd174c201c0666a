import contextlib
import io

import pytest

from loopspace import selftest
from loopspace.cli import main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("seed", ["-1", "-5"])
def test_negative_seed_exits_two_before_any_suite(monkeypatch, seed):
    # Random(-s) seeds as Random(s) does, so it would repeat a seed's fuzz
    monkeypatch.setattr(selftest, "run_selftest", lambda **_kw: pytest.fail("a suite ran"))
    assert run_cli(["selftest", "--seed", seed]) == (2, "", "error: seed must be >= 0\n")

