"""`cli.parse_args` against the full parser it stands in for.

A canonical call (`cli.parse_canonical`) builds no parser; every other call
is parsed by `build_parser()`, the full parser.  Either way a run must print
and exit exactly as a parse by the full parser does.  These tests live apart
from test_cli.py, whose source the benchmark reads.
"""

import argparse
import contextlib
import functools
import inspect
import io
import random

import pytest

from loopspace import cli, selftest

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
def test_a_canonical_call_builds_no_parser(argv, built, capsys):
    assert cli.main(argv) == 0
    assert built == []


FULL = ["loopspace", "loopspace report", "loopspace homotopy", "loopspace selftest"]


@pytest.mark.parametrize(
    "argv",
    [
        ["report", *MANIFOLD, "--ca", "2"],
        ["report", "--n=2", "--r", "1"],
        ["homotopy", *MANIFOLD, "--k", "4", "--torsion", "--"],
        ["selftest", "--fuzz", "-1"],
    ],
)
def test_any_other_command_call_builds_the_full_parser(argv, built, capsys):
    with contextlib.suppress(SystemExit):
        cli.main(argv)
    assert built == FULL


@pytest.mark.parametrize("argv", [["--help"], [], ["rep"], ["report", *MANIFOLD, "extra"], ["report", "--help"]])
def test_help_and_errors_build_the_full_parser(argv, built, capsys):
    with pytest.raises(SystemExit):
        cli.main(argv)
    assert built == FULL


# The corpus: argv drawn from exact and abbreviated option names, --opt=value,
# odd values, --, -h, repeated options and dropped values, so that the
# canonical parse both accepts and refuses many of them.
ODD_VALUES = ("-", "", "-1", "-x", "x", "1_0", " 7", "2,3")
GOOD_VALUES = {int: ("2", "3", "1", "0"), str: ("-", "2", "2,3", "3")}
NOISE = ("--", "-h", "--help", "--ca", "--t", "--bogus", "extra", "--json", "--n=2", "--cap=3")


def option_tokens(rng, name, kind):
    if kind is bool:
        return [f"--{name}"]
    value = rng.choice(ODD_VALUES if rng.random() < 0.12 else GOOD_VALUES[kind])
    roll = rng.random()
    if roll < 0.06:
        return [f"--{name}={value}"]
    if roll < 0.12:
        return [f"--{name[:rng.randrange(1, len(name))]}" if len(name) > 1 else f"--{name}", value]
    if roll < 0.16:
        return [f"--{name}"]  # its value dropped
    return [f"--{name}", value]


def corpus_argv(rng):
    command = rng.choice((*cli.COMMANDS, "rep", "-h")) if rng.random() < 0.05 else rng.choice(list(cli.COMMANDS))
    options = cli.COMMANDS.get(command, cli.COMMANDS["report"])[2]
    argv = []
    for name, kind, default, _help in rng.sample(options, len(options)):
        if default is cli.REQUIRED or rng.random() < 0.6:
            argv += option_tokens(rng, name, kind)
        if rng.random() < 0.08:
            argv += option_tokens(rng, name, kind)
    for _ in range(rng.choice((0, 0, 0, 0, 1, 2))):
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(NOISE))
    return [command, *argv]


CORPUS = [corpus_argv(random.Random(f"argv {i}")) for i in range(2000)]


@functools.cache
def reference_vars(argv):
    """vars of the full parser's namespace for the argv tuple, or the code it exits with."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(full_parse(list(argv)))
        except SystemExit as e:
            return ("SystemExit", e.code)


def disagreements(parse):
    """The corpus argv that parse accepts with other vars than the full parser's."""
    return [
        argv for argv in CORPUS if (args := parse(argv)) is not None and vars(args) != reference_vars(tuple(argv))
    ]


def test_corpus_mixes_canonical_and_other_calls():
    accepted = [argv for argv in CORPUS if cli.parse_canonical(argv) is not None]
    assert 500 <= len(accepted) <= 1500
    assert {argv[0] for argv in accepted} == set(cli.COMMANDS)
    assert any(len(set(argv)) < len(argv) for argv in accepted)  # a repeated option or value


def test_canonical_parse_agrees_with_the_full_parser_on_the_corpus():
    assert disagreements(cli.parse_canonical) == []


def corpus_outcomes(monkeypatch, parse_args):
    """outcome of main on every corpus argv, with cli.parse_args replaced by parse_args."""
    def fake_selftest(seed, fuzz_count):
        print(f"selftest seed={seed} fuzz={fuzz_count}")
        return True

    with monkeypatch.context() as m:
        # the suites take tens of milliseconds; the parse is what is compared
        m.setattr(selftest, "run_selftest", fake_selftest)
        m.setattr(cli, "parse_args", parse_args)
        return [outcome(argv) for argv in CORPUS]


def test_main_prints_and_exits_as_the_full_parser_on_the_corpus(monkeypatch):
    ours = corpus_outcomes(monkeypatch, cli.parse_args)
    reference = corpus_outcomes(monkeypatch, full_parse)
    assert [argv for argv, a, b in zip(CORPUS, ours, reference) if a != b] == []
    assert {code for code, _out, _err in ours} >= {0, 2, 3, ("SystemExit", 0), ("SystemExit", 2)}


def mutant(old, new):
    """cli.parse_canonical compiled with its one line `old` replaced by `new`."""
    source = inspect.getsource(cli.parse_canonical)
    assert source.count(old) == 1
    namespace = dict(vars(cli))
    exec(compile(source.replace(old, new), cli.__file__, "exec"), namespace)
    return namespace["parse_canonical"]


@pytest.mark.parametrize(
    "old, new, argv",
    [
        # abbreviations such as --ca: every prefix of an option name from --x on
        (
            'spec = {f"--{name}": (name, kind) for name, kind, _default, _help in options}',
            'spec = {f"--{name}"[:i]: (name, kind) for name, kind, _default, _help in options'
            " for i in range(3, len(name) + 3)}",
            ["report", *MANIFOLD, "--ca", "5"],
        ),
        # values starting with "-", such as -1
        ('value.startswith("-") and value != "-"', "False", ["report", "--n", "-1", "--r", "1"]),
    ],
    ids=["abbreviations", "dash-values"],
)
def test_corpus_comparison_catches_a_broken_canonical_parse(old, new, argv):
    broken = mutant(old, new)
    assert cli.parse_canonical(argv) is None and broken(argv) is not None
    assert disagreements(broken) != []
