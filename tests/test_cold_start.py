"""What a fresh `loopspace` process loads and reads.

Each CLI question runs in its own interpreter, so `import loopspace.cli` is
paid on every answer.  These tests run the package in a subprocess under
`python -S`, because `site` and its `.pth` files may preload stdlib modules
that loopspace itself does not need.
"""

import ast
import contextlib
import io
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import loopspace
from loopspace import cli, selftest
from loopspace.spheres import load_table_file

from test_bench_spans import span_names

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# stdlib modules no report, homotopy or selftest answer needs at import time
NOT_AT_IMPORT = (
    "dataclasses", "inspect", "json", "random", "importlib.resources", "fractions", "decimal",
    "argparse", "gettext",
)


def bare_process(args, **env):
    """Run `python -S <args>` with only src/ on the path; returns the finished process.

    No bytecode is written: a stale src/ __pycache__ would skew later timings.
    """
    full_env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    full_env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1", **env)
    return subprocess.run([sys.executable, "-S", *args], env=full_env, capture_output=True, timeout=60)


def run_bare(args, **env):
    """The stdout bytes of bare_process(args), which must exit 0."""
    proc = bare_process(args, **env)
    proc.check_returncode()
    return proc.stdout


def test_cli_import_loads_traced_modules_but_not_unused_stdlib():
    code = "import loopspace.cli, sys; print(' '.join(sys.modules))"
    loaded = set(run_bare(["-c", code]).decode().split())
    assert not loaded & set(NOT_AT_IMPORT)
    wanted = {"loopspace." + span.partition(".")[0] for span in span_names()}
    assert "loopspace.cli" in wanted and "loopspace.lyndon" in wanted
    assert wanted <= loaded


def loaded_modules(argv):
    """The modules that one bare-interpreter CLI run on argv loads."""
    code = "import sys; from loopspace import cli; cli.main(sys.argv[1:]); print(' '.join(sys.modules))"
    return set(run_bare(["-c", code, *argv]).decode().splitlines()[-1].split())


# The modules the package registers lazily: in sys.modules from the start,
# run on their first attribute read.
LAZY = {"loopspace.linalg", "loopspace.lyndon", "loopspace.selftest"}

# Defines state(), which writes to stderr the loopspace.* modules in
# sys.modules and those whose bodies have run.  A lazily registered module
# that nothing has read holds only the dunders module_from_spec sets, and
# object.__getattribute__ reads its __dict__ without running it.
STATE = """import sys
def state():
    package = {k: m for k, m in sys.modules.items() if k.startswith("loopspace.")}
    ran = [k for k, m in package.items()
           if any(not a.startswith("__") for a in object.__getattribute__(m, "__dict__"))]
    print(repr((sorted(package), sorted(ran))), file=sys.stderr)
"""


def package_states(code, *args):
    """[(registered, ran)] sets, one per state() call of `python -S -c STATE + code`."""
    proc = bare_process(["-c", STATE + code, *args])
    assert proc.returncode == 0, proc.stderr.decode()
    return [tuple(map(set, ast.literal_eval(line))) for line in proc.stderr.decode().splitlines()]


def ran_package_modules(argv):
    """The loopspace.* modules whose bodies one bare-interpreter CLI run on argv runs."""
    [(_registered, ran)] = package_states("from loopspace import cli\ncli.main(sys.argv[1:])\nstate()\n", *argv)
    return ran


REPORT_JSON = ["report", "--n", "2", "--r", "2", "--torsion", "2", "--cap", "8", "--json"]
HOMOTOPY = ["homotopy", "--n", "2", "--r", "1", "--torsion", "-", "--k", "4"]


def test_canonical_calls_load_no_argparse():
    # a well-formed call is parsed without argparse, which only prints help and errors
    for argv in (REPORT_JSON, HOMOTOPY):
        assert not loaded_modules(argv) & {"argparse", "gettext"}


def test_json_answer_loads_no_json_package():
    # the JSON writer takes its one C function from _json, as json.encoder does
    loaded = loaded_modules(REPORT_JSON)
    assert "loopspace.jsontext" in loaded and "_json" in loaded
    assert not {m for m in loaded if m == "json" or m.startswith("json.")}


def test_json_writer_falls_back_to_json_encoder_without_the_accelerator():
    code = (
        "import sys; sys.modules['_json'] = None; import json, json.encoder; "
        "from loopspace import jsontext; doc = {'a': ['\u00e9', 1, None]}; "
        "print(jsontext.encode_basestring_ascii is json.encoder.py_encode_basestring_ascii, "
        "jsontext.json_text(doc) == json.dumps(doc, indent=2, sort_keys=True))"
    )
    assert run_bare(["-c", code]) == b"True True\n"


def test_cli_runs_load_every_package_module():
    # a module that no answer runs belongs with the tests, as the Koszul
    # oracle does; a lazily registered module counts once its body has run
    runs = (REPORT_JSON, [*HOMOTOPY, "--json"], ["selftest", "--fuzz", "20"])
    report, homotopy, self_test = map(ran_package_modules, runs)
    assert LAZY <= self_test
    package = pkgutil.iter_modules([str(ROOT / "src" / "loopspace")])
    assert {"loopspace." + info.name for info in package} - (report | homotopy | self_test) == set()


def test_tracer_installs_over_the_lazily_registered_modules():
    # bench/tracing.install looks each traced module up in sys.modules after
    # `import loopspace.cli`, and its first attribute read runs a lazy one
    code = (
        "import loopspace.cli\nstate()\n"
        f"sys.path.insert(0, {str(ROOT / 'bench')!r})\nimport tracing\n"
        "tracing.install(tracing.Tracer(), sys.argv[1:])\nstate()\n"
    )
    [(registered, ran_at_import), (_, ran_after_install)] = package_states(code, *span_names())
    assert LAZY <= registered
    assert not LAZY & ran_at_import
    assert LAZY <= ran_after_install


@pytest.mark.parametrize("argv", [REPORT_JSON[:-1], REPORT_JSON, HOMOTOPY, [*HOMOTOPY, "--json"]])
def test_report_and_homotopy_leave_the_lazy_modules_unrun(argv):
    assert not ran_package_modules(argv) & LAZY


def test_a_lyndon_name_of_the_package_runs_lyndon():
    code = "import loopspace\nstate()\nf = loopspace.lie_dims\nstate()\nassert f is loopspace.lyndon.lie_dims\n"
    [(_, ran_at_import), (_, ran_after_read)] = package_states(code)
    assert "loopspace.lyndon" in ran_after_read - ran_at_import


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from loopspace import *", namespace)
    assert set(loopspace.__all__) <= namespace.keys() & set(dir(loopspace))
    assert namespace["standard_lyndon"] is loopspace.lyndon.standard_lyndon
    assert not hasattr(loopspace, "no_such_name")


def test_cli_import_skips_the_json_writer():
    # only --json output writes JSON, so a text answer need not compile the writer
    code = "import loopspace.cli, sys; print('loopspace.jsontext' in sys.modules)"
    assert run_bare(["-c", code]) == b"False\n"


def test_bundled_table_ignores_the_locale():
    code = (
        "from loopspace.spheres import load_table_file; table = load_table_file(); "
        "print(ascii(sorted((k, str(g), table.provenance[k]) for k, g in table.entries.items())))"
    )
    out = run_bare(["-X", "utf8=0", "-c", code], LC_ALL="C", PYTHONCOERCECLOCALE="0")
    table = load_table_file()
    default = sorted((k, str(g), table.provenance[k]) for k, g in table.entries.items())
    assert out.decode() == ascii(default) + "\n"


def test_bare_interpreter_homotopy_json_matches_golden():
    argv = ["homotopy", "--n", "2", "--r", "1", "--torsion", "-", "--k", "4", "--json"]
    out = run_bare(["-m", "loopspace.cli", *argv])
    assert out == (GOLDEN / "homotopy_n2_r1_k4.json").read_bytes()


def test_bare_interpreter_help_lists_the_commands_in_order():
    out = run_bare(["-m", "loopspace.cli", "--help"], COLUMNS="80").decode()
    assert "{report,homotopy,selftest}" in out
    listed = [line.split()[0] for line in out.splitlines() if line.startswith("    ")]
    assert listed == ["report", "homotopy", "selftest"]


def test_bare_interpreter_command_help_is_the_command_parser():
    out = run_bare(["-m", "loopspace.cli", "report", "--help"], COLUMNS="80")
    assert out.startswith(b"usage: loopspace report [-h] --n N --r R")


def test_bare_interpreter_unknown_command_exits_2_naming_the_choices():
    proc = bare_process(["-m", "loopspace.cli", "bogus"], COLUMNS="80")
    assert (proc.returncode, proc.stdout) == (2, b"")
    error = proc.stderr.decode().splitlines()[-1]
    assert error.startswith("loopspace: error: argument command: invalid choice: 'bogus'")
    assert all(name in error for name in ("report", "homotopy", "selftest"))


# The process entry, cli.run, ends the process with os._exit after the answer.
# Its output and exit code must be main's, and only a normal return may skip
# the interpreter's exit (atexit hooks included).


def in_process(argv):
    """(exit code, stdout bytes, stderr bytes) of cli.main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def test_console_script_and_main_block_call_the_same_entry():
    scripts = re.search(r'^loopspace = "loopspace\.cli:(\w+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    source = ast.parse((ROOT / "src" / "loopspace" / "cli.py").read_text())
    main_block = [node for node in source.body if isinstance(node, ast.If)][-1]
    assert ast.unparse(main_block.test) == "__name__ == '__main__'"
    assert [ast.unparse(node) for node in main_block.body] == [f"{scripts.group(1)}()"]
    assert scripts.group(1) == "run"


@pytest.mark.parametrize("argv", [
    ["report", "--n", "2", "--r", "2", "--cap", "400", "--json"],  # more than a pipe buffer
    ["report", "--n", "2", "--r", "2", "--torsion", "2", "--cap", "8"],
    HOMOTOPY,
])
def test_entry_writes_main_s_answer_through_a_pipe(argv):
    proc = bare_process(["-m", "loopspace.cli", *argv])
    assert (proc.returncode, proc.stdout, proc.stderr) == in_process(argv)


MISSING_TABLE = str(ROOT / "tests" / "no-such-table.tsv")


@pytest.mark.parametrize("argv", [
    HOMOTOPY,
    ["report", "--n", "2", "--r", "1", "--cap", "0"],
    [*HOMOTOPY, "--table", MISSING_TABLE],
])
def test_entry_exit_code_and_stderr_are_main_s(argv):
    proc = bare_process(["-m", "loopspace.cli", *argv])
    code, _out, err = in_process(argv)
    assert (proc.returncode, proc.stderr) == (code, err)
    assert len(err.splitlines()) == (code != 0)
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_TABLE)


def test_entry_exits_1_when_a_selftest_suite_fails(monkeypatch):
    def failing():
        return selftest.SuiteResult("independence", False, "(independence) stub")

    argv = ["selftest", "--fuzz", "1"]
    code = (
        "import sys; from loopspace import cli, selftest; "
        "selftest.suite_independence = lambda: selftest.SuiteResult('independence', False, '(independence) stub'); "
        "cli.run()"
    )
    proc = bare_process(["-c", code, *argv])
    monkeypatch.setattr(selftest, "suite_independence", failing)
    assert (proc.returncode, proc.stdout, proc.stderr) == in_process(argv)
    assert proc.returncode == cli.EXIT_SELFTEST


ATEXIT_RUN = (
    "import atexit, runpy, sys; atexit.register(lambda: print('atexit ran', file=sys.stderr)); "
    "runpy.run_module('loopspace.cli', run_name='__main__')"
)


def test_a_normal_answer_skips_atexit_hooks():
    proc = bare_process(["-c", ATEXIT_RUN, *HOMOTOPY])
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.startswith(b"pi_4 = ")


def test_help_still_exits_through_the_interpreter():
    proc = bare_process(["-c", ATEXIT_RUN, "--help"])
    assert (proc.returncode, proc.stderr) == (0, b"atexit ran\n")
    assert proc.stdout.startswith(b"usage: loopspace ")
