"""What a fresh `loopspace` process loads and reads.

Each CLI question runs in its own interpreter, so `import loopspace.cli` is
paid on every answer.  These tests run the package in a subprocess under
`python -S`, because `site` and its `.pth` files may preload stdlib modules
that loopspace itself does not need.
"""

import os
import pathlib
import subprocess
import sys

from test_bench_spans import span_names

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
TABLE_FILE = ROOT / "src" / "loopspace" / "data" / "sphere_table.tsv"

# stdlib modules no report, homotopy or selftest answer needs at import time
NOT_AT_IMPORT = ("dataclasses", "inspect", "json", "random", "importlib.resources")


def run_bare(args, **env):
    """Run `python -S <args>` with only src/ on the path; returns stdout bytes."""
    full_env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    full_env.update(PYTHONPATH=str(ROOT / "src"), **env)
    proc = subprocess.run(
        [sys.executable, "-S", *args], env=full_env, capture_output=True, check=True, timeout=60
    )
    return proc.stdout


def test_cli_import_loads_traced_modules_but_not_unused_stdlib():
    code = "import loopspace.cli, sys; print(' '.join(sys.modules))"
    loaded = set(run_bare(["-c", code]).decode().split())
    assert not loaded & set(NOT_AT_IMPORT)
    wanted = {"loopspace." + span.partition(".")[0] for span in span_names()}
    assert "loopspace.cli" in wanted and "loopspace.lyndon" in wanted
    assert wanted <= loaded


def test_bundled_table_ignores_the_locale():
    code = (
        "import sys; from loopspace.spheres import bundled_table_text; "
        "sys.stdout.buffer.write(bundled_table_text().encode('utf-8'))"
    )
    out = run_bare(["-X", "utf8=0", "-c", code], LC_ALL="C", PYTHONCOERCECLOCALE="0")
    assert out == TABLE_FILE.read_bytes()


def test_bare_interpreter_homotopy_json_matches_golden():
    argv = ["homotopy", "--n", "2", "--r", "1", "--torsion", "-", "--k", "4", "--json"]
    out = run_bare(["-m", "loopspace.cli", *argv])
    assert out == (GOLDEN / "homotopy_n2_r1_k4.json").read_bytes()
