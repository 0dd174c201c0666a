"""The command-first parse of `cli.parse_args` against the full parser it stands in for.

A call that names its command builds only that command's parser; every other
call, and every call with a leftover argument, is parsed by `build_parser()`.
Either way a run must print and exit exactly as a parse by the full parser does.
These tests live apart from test_cli.py, whose source the benchmark reads.
"""

import argparse
import contextlib
import io

import pytest

from loopspace import cli

MANIFOLD = ["--n", "2", "--r", "1"]

ARGVS = [
    # every command, with valid options
    ["report", *MANIFOLD, "--cap", "3"],
    ["report", "--n", "3", "--r", "2", "--torsion", "2", "--cap", "4", "--json"],
    ["report", "--n", "2", "--r", "0"],
    ["report", "--n", "10001", "--r", "1"],
    ["homotopy", *MANIFOLD, "--k", "4"],
    ["homotopy", *MANIFOLD, "--torsion", "3", "--k", "5", "--json"],
    ["homotopy", *MANIFOLD, "--k", "4", "--table", ""],
    ["selftest", "--seed", "3", "--fuzz", "2"],
    # help at both levels
    ["--help"],
    ["-h"],
    ["report", "--help"],
    ["homotopy", "-h"],
    ["selftest", "--help"],
    ["report", "--n", "2", "--help", "extra"],
    # a missing required option, a bad int, an unknown option
    ["report", "--r", "1"],
    ["homotopy", *MANIFOLD],
    ["report", "--n", "x", "--r", "1"],
    ["report", "--n", "-3", "--r", "1"],
    ["selftest", "--fuzz", "1.5"],
    ["report", *MANIFOLD, "--bogus"],
    ["report", *MANIFOLD, "-x"],
    ["selftest", "--k", "3"],
    # abbreviated and ambiguous options
    ["report", *MANIFOLD, "--ca", "5"],
    ["report", *MANIFOLD, "--cap", "2", "--j"],
    ["homotopy", *MANIFOLD, "--k", "4", "--t", "3"],
    # option=value, a leftover positional, --, a repeated flag
    ["report", "--n=2", "--r=1", "--cap=3"],
    ["report", *MANIFOLD, "extra"],
    ["selftest", "extra", "--fuzz", "1"],
    ["report", "--", *MANIFOLD],
    ["report", *MANIFOLD, "--cap", "2", "--"],
    ["report", *MANIFOLD, "--", "extra"],
    ["report", *MANIFOLD, "--cap", "2", "--json", "--json"],
    # no command, an unknown or abbreviated command, options before the command
    [],
    None,
    ["rep", *MANIFOLD],
    ["Report"],
    ["bogus", "--help"],
    ["--n", "2", "report", "--r", "1"],
    ["-h", "report"],
]


def full_parse(argv):
    return cli.build_parser().parse_args(argv)


def outcome(argv):
    """(exit code or ("SystemExit", code), stdout, stderr) of one cli.main run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = ("SystemExit", e.code)
    return code, out.getvalue(), err.getvalue()


def reference_outcome(argv, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(cli, "parse_args", full_parse)
        return outcome(argv)


@pytest.fixture(autouse=True)
def pinned_terminal_and_argv(monkeypatch):
    # argparse wraps help and usage at the terminal width, read from COLUMNS;
    # main(None) reads sys.argv, so the None case parses no arguments
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr("sys.argv", ["loopspace"])


def argv_id(argv):
    return "None" if argv is None else repr(" ".join(argv))


@pytest.mark.parametrize("argv", ARGVS, ids=argv_id)
def test_command_parser_prints_and_exits_as_the_full_parser(argv, monkeypatch):
    assert outcome(argv) == reference_outcome(argv, monkeypatch)


def test_argv_none_reads_sys_argv(monkeypatch):
    monkeypatch.setattr("sys.argv", ["loopspace", "report", *MANIFOLD, "--cap", "2"])
    from_sys_argv = outcome(None)
    assert from_sys_argv == outcome(["report", *MANIFOLD, "--cap", "2"])
    assert from_sys_argv[0] == 0


def patch_parser_init(m, wrapper):
    """Run every argparse.ArgumentParser construction through wrapper(init, self, args, kwargs)."""
    init = argparse.ArgumentParser.__init__

    def patched(self, *args, **kwargs):
        wrapper(init, self, args, kwargs)

    m.setattr(argparse.ArgumentParser, "__init__", patched)


def top_level_prog(init, self, args, kwargs):
    # a broken command parser: named as the top-level parser, not as its command
    init(self, *args, **{**kwargs, "prog": "loopspace"})


@pytest.mark.parametrize("argv", [["report", "--help"], ["report", "--n", "x", "--r", "1"]])
def test_comparison_catches_a_misnamed_command_parser(argv, monkeypatch):
    reference = reference_outcome(argv, monkeypatch)
    with monkeypatch.context() as m:
        patch_parser_init(m, top_level_prog)
        broken = outcome(argv)
    assert broken[0] == reference[0]
    assert broken != reference


@pytest.fixture
def built(monkeypatch):
    """The prog of every argparse parser constructed while the test runs."""
    progs = []

    def counting(init, self, args, kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    patch_parser_init(monkeypatch, counting)
    return progs


@pytest.mark.parametrize(
    "argv",
    [
        ["report", *MANIFOLD, "--cap", "2"],
        ["report", *MANIFOLD, "--cap", "2", "--json"],
        ["homotopy", *MANIFOLD, "--k", "4"],
        ["selftest", "--fuzz", "1"],
    ],
)
def test_a_command_call_builds_one_parser(argv, built, capsys):
    assert cli.main(argv) == 0
    assert built == [f"loopspace {argv[0]}"]


FULL = ["loopspace", "loopspace report", "loopspace homotopy", "loopspace selftest"]


@pytest.mark.parametrize(
    "argv, progs",
    [
        (["--help"], FULL),
        ([], FULL),
        (["rep"], FULL),
        (["report", *MANIFOLD, "extra"], ["loopspace report", *FULL]),
        (["report", "--help"], ["loopspace report"]),
    ],
)
def test_only_top_level_help_and_errors_build_the_full_parser(argv, progs, built, capsys):
    with pytest.raises(SystemExit):
        cli.main(argv)
    assert built == progs
