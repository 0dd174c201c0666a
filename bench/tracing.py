"""Runtime spans around loopspace's layer functions, for the traced run.

The package imports functions by name (`from .series import
sphere_summand_counts`), so wrapping the defining module alone would miss
most calls.  `install` wraps each named function once and puts the wrapper on
every loopspace module attribute that holds the original, which is where the
name is looked up at call time; methods are wrapped on their class.  Nothing
under src/ is edited.

A span's self time is its duration minus the time of the spans it caused.
Time in unwrapped (substrate) code counts in the self time of the nearest
wrapped caller.
"""

import sys
from functools import wraps
from time import perf_counter


SETUP_EXIT = 3  # exit code of a rep whose traced names do not resolve


class TraceSetupError(RuntimeError):
    """A traced name is missing or not a function."""


def _terms_out(stats, args, kwargs, result):
    stats["terms_out"] += result.term_count()


def _words(stats, args, kwargs, result):
    stats["words"] += sum(len(v) for v in result.values())


def _cells(stats, args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    stats["cells"] += len(rows) * ncols


# Size counters beyond `calls`, keyed by (span, stat).
COUNTERS = {
    ("rewrite.normal_form", "terms_out"): _terms_out,
    ("rewrite.enumerate_irreducible_words", "words"): _words,
    ("lyndon.standard_lyndon", "words"): _words,
    ("linalg.rank", "cells"): _cells,
}


class Tracer:
    """Per-span statistics of one process; `covered` is time inside any span."""

    def __init__(self):
        self.stats = {}
        self.covered = 0.0
        self._stack = []

    def wrap(self, name, fn, counters=()):
        stats = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        for stat, _ in counters:
            stats[stat] = 0
        stack = self._stack

        @wraps(fn)
        def span(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stats["calls"] += 1
                stats["self_s"] += elapsed - child[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.covered += elapsed
            for _, count in counters:
                count(stats, args, kwargs, result)
            return result

        return span


def install(tracer, names):
    """Wrap each "module.function" or "module.Class.method" in `names`.

    Returns a callable that restores the originals.  Raises TraceSetupError
    if a name does not resolve to a function.
    """
    modules = [m for key, m in sys.modules.items() if key == "loopspace" or key.startswith("loopspace.")]
    undo = []
    for name in names:
        module_name, _, qualname = name.partition(".")
        owner = sys.modules.get(f"loopspace.{module_name}")
        path = qualname.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        original = getattr(owner, path[-1], None) if owner is not None else None
        if not callable(original) or isinstance(original, type):
            raise TraceSetupError(f"traced name loopspace.{name} is missing or not a function")
        counters = [(stat, fn) for (span, stat), fn in COUNTERS.items() if span == name]
        wrapper = tracer.wrap(name, original, counters)
        if len(path) > 1:
            setattr(owner, path[-1], wrapper)
            undo.append((owner, path[-1], original))
            continue
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def span_names(metric_names):
    """The spans the per-layer metric names refer to, in first-seen order.

    A per-layer name is "<module>.<function>.<stat>"; `cli.import_s` and the
    `trace.*` ratios are not spans.
    """
    spans = []
    for metric in metric_names:
        if metric == "cli.import_s" or metric.startswith("trace."):
            continue
        span = metric.rpartition(".")[0]
        if span not in spans:
            spans.append(span)
    return spans
