"""Every per-layer span named in BENCHMARK.json must resolve to a function.

The traced benchmark run wraps these names and exits 2 when one is missing,
so a deletion or rename under src/ that would break it fails here first.
"""

import importlib
import json
import pathlib

import pytest

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


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
