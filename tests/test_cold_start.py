"""What a fresh `loopspace` process loads and reads.

Each CLI question runs in its own interpreter, so `import loopspace.cli` is
paid on every answer.  These tests run the package in a subprocess under
`python -S`, because `site` and its `.pth` files may preload stdlib modules
that loopspace itself does not need.
"""

import os
import pathlib
import pkgutil
import subprocess
import sys

from loopspace.spheres import load_table_file

from test_bench_spans import span_names

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# stdlib modules no report, homotopy or selftest answer needs at import time
NOT_AT_IMPORT = (
    "dataclasses", "inspect", "json", "random", "importlib.resources", "fractions", "decimal"
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


def loaded_package_modules(argv):
    """The loopspace.* modules that one bare-interpreter CLI run on argv loads."""
    code = (
        "import sys; from loopspace import cli; cli.main(sys.argv[1:]); "
        "print(' '.join(m for m in sys.modules if m.startswith('loopspace.')))"
    )
    return set(run_bare(["-c", code, *argv]).decode().splitlines()[-1].split())


def test_cli_runs_load_every_package_module():
    # a module that no answer loads is code that no answer runs: it belongs
    # with the tests, as the Koszul oracle does
    runs = (
        ["report", "--n", "2", "--r", "2", "--torsion", "2", "--cap", "8", "--json"],
        ["homotopy", "--n", "2", "--r", "1", "--torsion", "-", "--k", "4", "--json"],
        ["selftest", "--fuzz", "20"],
    )
    loaded = set().union(*map(loaded_package_modules, runs))
    package = pkgutil.iter_modules([str(ROOT / "src" / "loopspace")])
    assert {"loopspace." + info.name for info in package} - loaded == set()


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
