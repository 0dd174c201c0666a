"""`homotopy` answers at r = 0 and the --table path, through the CLI."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from loopspace.cli import main
from loopspace.spheres import MAX_TABLE_CHARS

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


def table_argv(path):
    return ["homotopy", "--n", "2", "--r", "1", "--k", "4", "--table", str(path)]


def write_table(path, chars):
    """The rows pi_4 at --n 2 --r 1 needs, after one comment line, in exactly `chars` characters."""
    rows = "3 2 1 -\n4 2 0 2\n4 3 0 2\n"  # pi_3(S^2) = Z, pi_4(S^2) = pi_4(S^3) = Z/2
    path.write_text("#" * (chars - len(rows) - 1) + "\n" + rows, encoding="utf-8")


def test_table_of_exactly_the_limit_loads(tmp_path):
    path = tmp_path / "table.tsv"
    write_table(path, MAX_TABLE_CHARS)
    bundled = run_cli(table_argv(path)[:-2])
    assert bundled[0] == 0
    assert run_cli(table_argv(path)) == bundled


def test_table_one_past_the_limit_exits_3_naming_it(tmp_path):
    path = tmp_path / "table.tsv"
    write_table(path, MAX_TABLE_CHARS + 1)
    code, out, err = run_cli(table_argv(path))
    assert (code, out) == (3, "")
    assert err.startswith("error: table: ") and err.count("\n") == 1
    assert str(MAX_TABLE_CHARS) in err


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_endless_table_file_exits_3_at_once():
    start = time.perf_counter()
    code, out, err = run_cli(table_argv("/dev/zero"))
    assert time.perf_counter() - start < 2
    assert (code, out) == (3, "")
    assert err.startswith("error: table: ") and str(MAX_TABLE_CHARS) in err


def run_child(argv, **kwargs):
    """The CLI in a child process, which a timeout can stop if it blocks."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).resolve().parent.parent / "src")}
    argv = [sys.executable, "-m", "loopspace.cli", *argv]
    return subprocess.run(argv, env=env, capture_output=True, timeout=20, **kwargs)


@pytest.mark.parametrize("kind", ["fifo", "directory"])
def test_fifo_with_no_writer_or_directory_exits_3_at_once(tmp_path, kind):
    # open() used to wait for a FIFO's writer for good
    path = tmp_path / "table"
    if kind == "fifo":
        if not hasattr(os, "mkfifo"):
            pytest.skip("no os.mkfifo")
        os.mkfifo(path)
    else:
        path.mkdir()
    start = time.perf_counter()
    proc = run_child(table_argv(path))
    assert time.perf_counter() - start < 2
    assert (proc.returncode, proc.stdout) == (3, b"")
    err = proc.stderr.decode()
    assert err.startswith("error: table: ") and err.count("\n") == 1 and kind in err.lower()


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_table_piped_through_stdin_loads(tmp_path):
    # a pipe is a FIFO with a writer: it is read, not refused
    path = tmp_path / "table.tsv"
    write_table(path, 200)
    proc = run_child(table_argv("/dev/stdin"), input=path.read_bytes())
    assert (proc.returncode, proc.stdout.decode()) == run_cli(table_argv(path))[:2]
