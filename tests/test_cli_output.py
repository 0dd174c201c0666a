"""What `report` writes: a closed stdout, and a text report's work."""

import contextlib
import io
import os
import pathlib
import subprocess
import sys

import pytest

from loopspace import cli
from loopspace.abelian import GradedAbelianGroup
from loopspace.decomposition import ClassificationFlags

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_closed_stdout_exits_141_with_empty_stderr():
    # the JSON answer (about 120 kB) outgrows the pipe buffer, so the writer
    # is still writing when the reader leaves after one line, as `| head -1`
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "loopspace.cli", "report", "--n", "2", "--r", "2", "--cap", "400", "--json"]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert (code, err) == (cli.EXIT_PIPE, b"")
    assert cli.EXIT_PIPE == 141


@pytest.mark.parametrize("r", [0, 2])
def test_text_report_builds_no_json_fields(monkeypatch, r):
    def refuse(self):
        raise AssertionError(f"{type(self).__name__}.to_dict ran for a text report")

    monkeypatch.setattr(GradedAbelianGroup, "to_dict", refuse)
    monkeypatch.setattr(ClassificationFlags, "to_dict", refuse)
    monkeypatch.setattr(cli, "to_dict", refuse)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["report", "--n", "2", "--r", str(r), "--torsion", "2", "--cap", "6"]) == 0
    assert out.getvalue().startswith("manifold: n=2 ")
