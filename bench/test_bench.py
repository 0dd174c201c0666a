"""Tests of the benchmark's own checkers, workloads and trace.

    python3 -m unittest discover -s bench

Each checker must pass the program's real output and fail a corrupted copy;
a corrupted output must count as a failed op.
"""

import json
import os
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

REPORT_JSON = {"n": 2, "r": 2, "torsion": "-", "cap": 10, "json": True}
REPORT_TEXT = {"n": 3, "r": 1, "torsion": "2", "cap": 8, "json": False}


def golden(name):
    return (GOLDEN / name).read_text(encoding="utf-8")


class TestIndependentRoutes(unittest.TestCase):
    def test_match_library(self):
        from loopspace.manifold import ManifoldModel, loop_presentation
        from loopspace.rewrite import hilbert_dims
        from loopspace.series import sphere_summand_counts

        for n, r, cap in ((2, 1, 20), (2, 2, 40), (3, 3, 30), (4, 5, 25), (2, 20, 15)):
            self.assertEqual(checks.summand_counts(n, r, cap), sphere_summand_counts(n, r, cap))
            self.assertEqual(checks.loop_dims(n, r, cap), hilbert_dims(loop_presentation(ManifoldModel(n, r)), cap))


class TestReportCheck(unittest.TestCase):
    def test_goldens_pass(self):
        self.assertEqual(checks.check_report(REPORT_JSON, golden("report_n2_r2_t0.json")), [])
        self.assertEqual(checks.check_report(dict(REPORT_JSON, json=False), golden("report_n2_r2_t0.txt")), [])
        self.assertEqual(checks.check_report(REPORT_TEXT, golden("report_n3_r1_t2.txt")), [])
        self.assertEqual(checks.check_report(dict(REPORT_TEXT, json=True), golden("report_n3_r1_t2.json")), [])

    def test_summand_off_by_one_fails(self):
        doc = json.loads(golden("report_n2_r2_t0.json"))
        doc["summand_counts"]["7"] += 1
        self.assertTrue(checks.check_report(REPORT_JSON, json.dumps(doc)))
        text = golden("report_n2_r2_t0.txt").replace("l[4]=10", "l[4]=11")
        self.assertTrue(checks.check_report(dict(REPORT_JSON, json=False), text))

    def test_dropped_degree_fails(self):
        doc = json.loads(golden("report_n2_r2_t0.json"))
        doc["loop_homology_dims"].pop()
        self.assertTrue(checks.check_report(REPORT_JSON, json.dumps(doc)))
        doc = json.loads(golden("report_n2_r2_t0.json"))
        del doc["summand_counts"]["10"]
        self.assertTrue(checks.check_report(REPORT_JSON, json.dumps(doc)))
        text = golden("report_n3_r1_t2.txt").replace(" l[8]=0", "")
        self.assertTrue(checks.check_report(REPORT_TEXT, text))

    def test_truncated_output_fails(self):
        self.assertTrue(checks.check_report(REPORT_JSON, golden("report_n2_r2_t0.json")[:-40]))


class TestCertificateCheck(unittest.TestCase):
    def setUp(self):
        from loopspace.lyndon import independence_certificate
        from loopspace.manifold import ManifoldModel, loop_presentation

        self.report = independence_certificate(loop_presentation(ManifoldModel(2, 2)), 5)

    def test_real_certificate_passes(self):
        self.assertEqual(checks.check_certificate(2, 2, 5, self.report), [])

    def test_rank_short_by_one_fails(self):
        count, rank, dim = self.report[4]
        bad = dict(self.report)
        bad[4] = (count, rank - 1, dim)
        self.assertTrue(checks.check_certificate(2, 2, 5, bad))

    def test_wrong_counts_fail(self):
        count, rank, dim = self.report[3]
        for corrupt in ((count + 1, rank + 1, dim), (count, rank, dim + 1)):
            bad = dict(self.report)
            bad[3] = corrupt
            self.assertTrue(checks.check_certificate(2, 2, 5, bad))
        bad = dict(self.report)
        del bad[5]
        self.assertTrue(checks.check_certificate(2, 2, 5, bad))


class TestOtherChecks(unittest.TestCase):
    PASSING = "\n".join(f"{s.ljust(17)}  PASS" for s in checks.SELFTEST_SUITES) + "\nselftest: all suites passed\n"

    def test_selftest(self):
        self.assertEqual(checks.check_selftest(0, self.PASSING), [])
        self.assertTrue(checks.check_selftest(1, self.PASSING))
        failing = self.PASSING.replace("pbw-identity       PASS", "pbw-identity       FAIL (pbw-identity)")
        self.assertTrue(checks.check_selftest(0, failing))
        self.assertTrue(checks.check_selftest(0, self.PASSING.replace("independence", "independance")))

    def test_golden_byte_changed(self):
        data = (GOLDEN / "homotopy_n2_r1_k4.txt").read_bytes()
        self.assertEqual(checks.check_golden("x", data, data), [])
        changed = data[:10] + bytes([data[10] ^ 1]) + data[11:]
        self.assertTrue(checks.check_golden("x", data, changed))
        self.assertTrue(checks.check_golden("x", data, data + b"\n"))

    def test_homotopy(self):
        spec = {"n": 2, "r": 1, "k": 4, "json": True}
        self.assertEqual(checks.check_homotopy(spec, golden("homotopy_n2_r1_k4.json")), [])
        self.assertEqual(checks.check_homotopy(dict(spec, json=False), golden("homotopy_n2_r1_k4.txt")), [])
        bad = golden("homotopy_n2_r1_k4.txt").replace("S^3 x1", "S^3 x2")
        self.assertTrue(checks.check_homotopy(dict(spec, json=False), bad))


class TestFailuresCount(unittest.TestCase):
    """Corrupted outputs flow through the runner's cli-cold checks as failed ops."""

    def test_corrupted_cold_outputs_are_failures(self):
        goldens = wl.golden_cases((ROOT / "tests" / "test_cli.py").read_text())
        ok = {"kind": "golden", "name": "homotopy_n2_r1_k4.txt", "argv": goldens["homotopy_n2_r1_k4.txt"]}
        data = (GOLDEN / ok["name"]).read_bytes()
        byte_changed = dict(ok, stdout=data.replace(b"Z/2", b"Z/3", 1))
        report = {"kind": "report", "n": 2, "r": 2, "torsion": "-", "cap": 10, "json": True}
        report["argv"] = wl.report_argv(report)
        doc = json.loads(golden("report_n2_r2_t0.json"))
        doc["summand_counts"]["3"] += 1
        off_by_one = dict(report, stdout=(json.dumps(doc, indent=2, sort_keys=True) + "\n").encode())
        good_report = dict(report, stdout=(GOLDEN / "report_n2_r2_t0.json").read_bytes())
        ops = [dict(op, code=0, stderr=b"", s=0.1, rss_kb=1)
               for op in (dict(ok, stdout=data), byte_changed, off_by_one, good_report)]
        checked = run.check_cold(ops, run.child_env())
        self.assertEqual([bool(op["errors"]) for op in checked], [False, True, True, False])


class TestWorkloads(unittest.TestCase):
    def test_report_deep_round_covers_both_modes(self):
        procs = wl.report_deep_round(wl.rng_for("report-deep", 3))
        seen = sorted((op["n"], op["r"], op["torsion"], op["cap"], op["json"]) for ops in procs for op in ops)
        self.assertEqual(seen, sorted((*triple, js) for triple in wl.REPORT_DEEP for js in (False, True)))
        for ops in procs:
            self.assertEqual(len({(op["n"], op["r"]) for op in ops}), len(ops))

    def test_cold_ops_distinct_with_goldens_early(self):
        goldens = wl.golden_cases((ROOT / "tests" / "test_cli.py").read_text())
        ops = wl.cold_ops(wl.rng_for("cli-cold", 5), goldens)
        self.assertEqual(len({tuple(op["argv"]) for op in ops}), len(ops))
        early = [op["name"] for op in ops[:wl.COLD_MIN_OPS] if op["kind"] == "golden"]
        self.assertEqual(sorted(early), sorted(goldens))

    def test_seed_fixes_inputs(self):
        a = wl.report_deep_round(wl.rng_for("report-deep", 9))
        b = wl.report_deep_round(wl.rng_for("report-deep", 9))
        self.assertEqual(a, b)


class TestTracing(unittest.TestCase):
    def test_missing_name_fails_loudly(self):
        import loopspace.cli  # noqa: F401

        with self.assertRaises(tracing.TraceSetupError):
            tracing.install(tracing.Tracer(), ["series.no_such_function"])
        with self.assertRaises(tracing.TraceSetupError):
            tracing.install(tracing.Tracer(), ["series.PowerSeries"])

    def test_wrapper_sits_where_the_name_is_looked_up(self):
        import loopspace.cli
        import loopspace.decomposition
        from loopspace.manifold import ManifoldModel

        tracer = tracing.Tracer()
        restore = tracing.install(tracer, ["series.sphere_summand_counts", "series.PowerSeries.log"])
        try:
            loopspace.decomposition.weak_product_decomposition(ManifoldModel(2, 2), 12)
        finally:
            restore()
        stats = tracer.stats
        self.assertEqual(stats["series.sphere_summand_counts"]["calls"], 1)
        self.assertEqual(stats["series.PowerSeries.log"]["calls"], 1)
        self.assertLessEqual(stats["series.sphere_summand_counts"]["self_s"] + stats["series.PowerSeries.log"]["self_s"],
                             tracer.covered + 1e-9)
        self.assertFalse(hasattr(loopspace.cli.sphere_summand_counts, "__wrapped__"))

    def test_silent_expected_layer_fails_loudly(self):
        spans = {name: {"calls": 1, "self_s": 0.1} for name in wl.EXPECTED_CALLS["certify"]}
        spans["linalg.rank"]["calls"] = 0
        rounds = [{"time_s": 1.0, "setup_s": [0.05], "traced": {"op_s": 1.0, "covered_s": 1.0, "spans": spans}}]
        with self.assertRaises(run.SetupError):
            run.per_layer("certify", rounds, ["linalg.rank.self_s"])

    def test_unknown_counter_fails_loudly(self):
        spans = {name: {"calls": 1, "self_s": 0.1} for name in wl.EXPECTED_CALLS["certify"]}
        rounds = [{"time_s": 1.0, "setup_s": [0.05], "traced": {"op_s": 1.0, "covered_s": 1.0, "spans": spans}}]
        with self.assertRaises(run.SetupError):
            run.per_layer("certify", rounds, ["linalg.rank.no_such_stat"])

    def test_benchmark_names_resolve(self):
        import loopspace.cli  # noqa: F401

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = tracing.span_names(m["name"] for m in spec["per_layer"])
        restore = tracing.install(tracing.Tracer(), names)
        restore()
        for workload, expected in wl.EXPECTED_CALLS.items():
            self.assertLessEqual(set(expected), set(names), workload)


class TestCalibration(unittest.TestCase):
    def setUp(self):
        affinity = os.sched_getaffinity(0)
        self.addCleanup(os.sched_setaffinity, 0, affinity)  # the calibrator pins this process

    def test_spawned_times_are_scaled_and_co_runner_is_reaped(self):
        with calibrate.Calibrator() as cal:
            self.assertEqual(len(os.sched_getaffinity(0)), 1)
            run.calibrator = cal
            try:
                status, _, _, seconds, _, scale = run.spawn(["-c", "pass"], run.child_env())
            finally:
                run.calibrator = None
        self.assertEqual(status, 0)
        self.assertGreater(scale, 0.1)
        self.assertLess(scale, 10)
        self.assertGreater(seconds, 0)
        self.assertEqual(len(cal.speeds), 1)
        self.assertAlmostEqual(cal.speeds[0] * scale, calibrate.REF_CHUNK_S)
        with self.assertRaises(ChildProcessError):
            os.waitpid(cal._pid, os.WNOHANG)


if __name__ == "__main__":
    unittest.main()
