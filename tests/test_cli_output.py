"""What `report` and `homotopy` write: the JSON text, a pinned sweep of
reports, a closed stdout, and a text report's work."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest

from loopspace import cli, jsontext
from loopspace.abelian import GradedAbelianGroup
from loopspace.decomposition import ClassificationFlags
from loopspace.jsontext import json_text

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Hand-made documents for the JSON writer: nested empties, keys out of
# order, non-ASCII, quotes, backslashes and control characters, the three
# constants, and integers past any fixed width.
EDGE_DOCS = [
    {},
    [],
    (),
    {"b": {}, "a": [], "c": [{}, [[]], {"d": ()}], "B": {"y": {"x": []}}},
    {
        "\u00e9t\u00e9": "\u00fcn\u00efc\u00f6d\u00e9 \u2603 \U0001d11e",
        'q"uote': "back\\slash \\\"",
        "ctl\x00\x1f\n\t": "\x7f\u2028\r\b\f",
    },
    [None, True, False, 0, -1, 10**4000 - 1, -(10**3999)],
    ({"k": (1, [2, ()])}, "", " "),
    "bare",
    -7,
    None,
]

# Every report of this sweep, text and JSON: each command line, exit code
# and stdout, as `report_sweep_digest` hashes them.  Taken while the stdlib
# `json.dumps` wrote the JSON and each fibre degree was built as a group.
REPORT_SWEEP_DIGEST = "e5ca7158df66d6a1178a12d3edf931c520a78605e79832cdf3f156eb2997f370"


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def report_sweep_digest():
    digest = hashlib.sha256()
    for n, r, torsion, cap, as_json in itertools.product(
        (2, 3, 4), (0, 1, 2, 3, 5), ("-", "2", "2,3", "4,6"), (1, 5, 13, 30), (False, True)
    ):
        argv = ["report", "--n", str(n), "--r", str(r), "--torsion", torsion, "--cap", str(cap)]
        if as_json:
            argv.append("--json")
        code, out = run_main(argv)
        digest.update(f"{' '.join(argv)}\n{code}\n{out}\n".encode())
    return digest.hexdigest()


def cli_documents(monkeypatch):
    """The JSON documents of reports and homotopy answers over a small grid."""
    docs = []

    def keep(doc):
        docs.append(doc)
        return cli.EXIT_OK

    monkeypatch.setattr(cli, "print_json", keep)
    for n, r, torsion in itertools.product((2, 3), (0, 1, 2, 3), ("-", "2", "2,3")):
        manifold = ["--n", str(n), "--r", str(r), "--torsion", torsion]
        assert cli.main(["report", *manifold, "--cap", "9", "--json"]) == 0
        for k in (2, 5, 8):
            assert cli.main(["homotopy", *manifold, "--k", str(k), "--json"]) == 0
    return docs


def stdlib_json(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


class TestJsonText:
    @pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "tests" / "golden").glob("*.json")))
    def test_golden_documents(self, name):
        text = (ROOT / "tests" / "golden" / name).read_text()
        doc = json.loads(text)
        assert json_text(doc) == stdlib_json(doc) == text[:-1]

    def test_grid_documents(self, monkeypatch):
        docs = cli_documents(monkeypatch)
        assert len(docs) == 96 and any(doc.get("fiber_homology") for doc in docs)
        for doc in docs:
            assert json_text(doc) == stdlib_json(doc)

    @pytest.mark.parametrize("doc", EDGE_DOCS)
    def test_edge_documents(self, doc):
        assert json_text(doc) == stdlib_json(doc)

    @pytest.mark.skipif(json.encoder.c_encode_basestring_ascii is None, reason="json has no C encoder here")
    def test_encoder_is_the_one_json_encoder_exports(self):
        assert jsontext.encode_basestring_ascii is json.encoder.encode_basestring_ascii

    # json.dumps would print these, as 1.5 or as the key "1": a new field of
    # such a type must fail here, not print differently
    @pytest.mark.parametrize("doc", [1.5, {"x": [0.0]}, {1: "x"}, {"a": {None: 1}}, {True: 1}, {"a": 1, 2: 3}])
    def test_float_or_non_str_key_raises(self, doc):
        with pytest.raises(TypeError):
            json_text(doc)


def test_report_sweep_is_pinned():
    assert report_sweep_digest() == REPORT_SWEEP_DIGEST


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
    def refuse(name):
        def refused(*args):
            raise AssertionError(f"{name} ran for a text report")

        return refused

    monkeypatch.setattr(GradedAbelianGroup, "to_dict", refuse("GradedAbelianGroup.to_dict"))
    monkeypatch.setattr(ClassificationFlags, "to_dict", refuse("ClassificationFlags.to_dict"))
    monkeypatch.setattr(cli, "to_dict", refuse("to_dict"))
    monkeypatch.setattr(cli, "fiber_homology", refuse("fiber_homology"))
    code, out = run_main(["report", "--n", "2", "--r", str(r), "--torsion", "2", "--cap", "6"])
    assert code == 0 and out.startswith("manifold: n=2 ")
