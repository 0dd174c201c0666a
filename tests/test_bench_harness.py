"""The bench harness's own unit tests, run as part of the main suite.

`bench/test_bench.py` looks up names in the package (for example
`loopspace.cli.sphere_summand_counts`), so a change under `src/` can break
the benchmark while every other test passes.  Running the bench suite here
catches that before the benchmark does.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_bench_unit_tests_pass():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "bench"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
