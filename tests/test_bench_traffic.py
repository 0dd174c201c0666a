"""Every argv the benchmark sends to the CLI is canonical.

`cli.parse_canonical` parses a well-formed call without argparse; any other
call builds the full argparse parser.  The benchmark times the first route,
so a workload that starts sending a call it refuses would time the second
one unnoticed.  This test builds the workloads' op lists as `bench/run.py`
does, and runs `bench/child.py`'s runners with the CLI call replaced by a
recorder, so each argv is the one the benchmark would send.
"""

import importlib
import pathlib
import sys

import pytest

from loopspace import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
ROUNDS = 3  # rounds drawn per seed, as run.py draws them from one generator


@pytest.fixture(scope="module")
def bench():
    """The bench modules workloads and child, imported without writing bytecode under bench/."""
    with pytest.MonkeyPatch.context() as m:
        m.syspath_prepend(str(ROOT / "bench"))
        m.setattr(sys, "dont_write_bytecode", True)
        workloads = importlib.import_module("workloads")
        child = importlib.import_module("child")
        yield workloads, child
        for name in ("workloads", "child", "calibrate", "checks", "tracing"):
            sys.modules.pop(name, None)


def sent_argv(child, runner, ops):
    """The argv child's runner passes to the CLI for each op."""
    sent = []

    def record(argv):
        sent.append(list(argv))
        return 0, "", ""

    with pytest.MonkeyPatch.context() as m:
        m.setattr(child, "_cli", record)
        for op in ops:
            runner(op)
    return sent


def refused(argvs):
    return [argv for argv in argvs if cli.parse_canonical(argv) is None]


def test_cold_calls_and_goldens_are_canonical(bench):
    workloads, child = bench
    goldens = workloads.golden_cases((ROOT / "tests" / "test_cli.py").read_text())
    for seed in SEEDS:
        ops = workloads.cold_ops(workloads.rng_for("cli-cold", seed), goldens)
        argvs = sent_argv(child, child.run_replay, ops)
        assert len(argvs) == len(ops) > workloads.COLD_MIN_OPS
        assert {argv[0] for argv in argvs} == {"report", "homotopy"}
        assert refused(argvs) == []


@pytest.mark.parametrize(
    "workload, make, runner",
    [("report-deep", "report_deep_round", "run_report"), ("selftest", "selftest_round", "run_selftest")],
)
def test_in_process_calls_are_canonical(bench, workload, make, runner):
    workloads, child = bench
    for seed in SEEDS:
        rng = workloads.rng_for(workload, seed)
        ops = [op for _ in range(ROUNDS) for proc in getattr(workloads, make)(rng) for op in proc]
        argvs = sent_argv(child, getattr(child, runner), ops)
        assert len(argvs) == len(ops) > 0
        assert refused(argvs) == []
