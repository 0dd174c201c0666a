"""Every per-layer span named in BENCHMARK.json must resolve to a function,
and a JSON report, a small certificate and a short selftest must call every
span the traced report-deep, certify and selftest runs expect.  A text report
calls all of them but the fibre homology, which it does not print.

The traced benchmark run wraps these names and exits 2 when one is missing
or an expected one is never called, so a deletion, rename or inlining under
src/ that would break it fails here first.
"""

import ast
import contextlib
import importlib
import io
import json
import pathlib
import sys
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
WORKLOADS = ROOT / "bench" / "workloads.py"


def span_names():
    """The span of each per-layer metric, in first-seen order.

    A metric is named "<span>.<stat>", and a span is "<module>.<function>"
    or "<module>.<Class>.<method>".  `cli.import_s` and the `trace.*` ratios
    are not spans.
    """
    spans = []
    for metric in json.loads(BENCHMARK.read_text())["per_layer"]:
        name = metric["name"]
        if name == "cli.import_s" or name.startswith("trace."):
            continue
        span = name.rpartition(".")[0]
        if span not in spans:
            spans.append(span)
    return spans


def test_span_list_is_nonempty():
    assert len(span_names()) > 10


@pytest.mark.parametrize("span", span_names())
def test_span_resolves_to_callable(span):
    module_name, _, qualname = span.partition(".")
    owner = importlib.import_module(f"loopspace.{module_name}")
    for part in qualname.split("."):
        owner = getattr(owner, part, None)
        assert owner is not None, f"loopspace.{span} does not resolve"
    assert callable(owner) and not isinstance(owner, type), f"loopspace.{span} is not a function"


def expected_calls(workload):
    """EXPECTED_CALLS[workload], read from the bench's workload list."""
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "EXPECTED_CALLS" for t in node.targets
        ):
            return ast.literal_eval(node.value)[workload]
    raise LookupError("EXPECTED_CALLS not found in the bench workloads")


def spy(monkeypatch, span, calls):
    """Count calls of loopspace.<span> at every name it is looked up by."""
    module_name, _, qualname = span.partition(".")
    owner = importlib.import_module(f"loopspace.{module_name}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls[span] += 1
        return original(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, attr, counted)
        return
    for name, module in list(sys.modules.items()):
        if name.startswith("loopspace") and getattr(module, attr, None) is original:
            monkeypatch.setattr(module, attr, counted)


def spy_expected(monkeypatch, workload):
    """Spy on every span EXPECTED_CALLS lists for the workload; returns (spans, counter)."""
    expected = expected_calls(workload)
    calls = Counter()
    for span in expected:
        spy(monkeypatch, span, calls)
    return expected, calls


@pytest.mark.parametrize("as_json", [False, True])
def test_report_calls_every_report_deep_span(monkeypatch, as_json):
    expected, calls = spy_expected(monkeypatch, "report-deep")
    cli = importlib.import_module("loopspace.cli")
    argv = ["report", "--n", "3", "--r", "2", "--torsion", "2", "--cap", "30"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--json"] * as_json) == 0
    fiber = "decomposition.fiber_homology"
    assert fiber in expected
    assert sorted(calls) == sorted(span for span in expected if as_json or span != fiber)
    assert calls[fiber] == as_json
    assert calls["series.sphere_summand_counts"] == 1


def test_certificate_calls_every_certify_span(monkeypatch):
    expected, calls = spy_expected(monkeypatch, "certify")
    lyndon = importlib.import_module("loopspace.lyndon")
    manifold = importlib.import_module("loopspace.manifold")
    lyndon.independence_certificate(manifold.loop_presentation(manifold.ManifoldModel(2, 2)), 4)
    assert sorted(calls) == sorted(expected)


def test_selftest_calls_every_selftest_span(monkeypatch):
    expected, calls = spy_expected(monkeypatch, "selftest")
    cli = importlib.import_module("loopspace.cli")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["selftest", "--fuzz", "20"]) == 0
    assert sorted(calls) == sorted(expected)
