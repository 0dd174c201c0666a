"""The four benchmark workloads: fixed sizes, seeded op lists.

Sizes (n, r, cap, k ranges) are fixed here, and so are the torsion groups of
report-deep.  The seed picks only the op order, the torsion group (cli-cold)
and output mode per op, and the fuzz seed.  Why each workload exists is
written down in README.md next to this file.

A *round* is the workload's unit of timed work; `round_s` estimates one
round's time.  Every round runs in fresh interpreters, and no identical call repeats
inside one interpreter, so a cache added later shows only the gain a user
running one command per process would see.
"""

import ast
import random

# (n, r, torsion, cap).  The torsion group is fixed per triple because it
# changes the work of a deep report: the JSON report at (2, 2, 400) takes
# about 1.5 times as long with Z/2 + Z/3 as with none.  A seeded choice
# would make a round's work depend on the seed.
REPORT_DEEP = ((2, 2, "-", 400), (3, 2, "2", 300), (2, 3, "-", 200), (4, 5, "3", 300), (2, 20, "-", 200),
               (3, 3, "-", 250))
CERTIFY = ((2, 2, 7), (3, 2, 13), (3, 3, 10), (2, 3, 5))
SELFTEST_FUZZ = 2000

# torsion specs as the CLI takes them: 0, Z/2, Z/2 + Z/3
TORSIONS = ("-", "2", "2,3")
COLD_N = (2, 3, 4)
COLD_R = (0, 1, 2, 3)
COLD_K = range(2, 10)  # inside the bundled table's range for every (n, r) above
COLD_CAP = 10
COLD_ROUND = 10        # cold invocations per round
COLD_MIN_OPS = 100     # so that p90 has at least ten samples beyond it


def rng_for(workload, seed):
    return random.Random(f"{workload}/{seed}")


def report_deep_round(rng):
    """Two process op lists covering every triple once as text, once as JSON.

    Text reports compute the summand counts three times and JSON reports
    twice, so a round holds both modes of every triple: its work does not
    depend on which half the seed sends to --json.
    """
    as_json = set(rng.sample(range(len(REPORT_DEEP)), len(REPORT_DEEP) // 2))
    procs = []
    for flip in (False, True):
        ops = []
        for i in rng.sample(range(len(REPORT_DEEP)), len(REPORT_DEEP)):
            n, r, torsion, cap = REPORT_DEEP[i]
            ops.append({"n": n, "r": r, "torsion": torsion, "cap": cap, "json": (i in as_json) != flip})
        procs.append(ops)
    return procs


def selftest_round(rng):
    return [[{"seed": rng.randrange(2**31), "fuzz": SELFTEST_FUZZ}]]


def certify_round(rng):
    return [[{"n": n, "r": r, "cap": cap} for n, r, cap in rng.sample(CERTIFY, len(CERTIFY))]]


def size_key(op):
    """The fields of an in-process op that fix its work; the seed picks the rest."""
    return tuple(op.get(field) for field in ("n", "r", "cap", "json"))


def report_argv(op):
    argv = ["report", "--n", str(op["n"]), "--r", str(op["r"]), "--torsion", op["torsion"],
            "--cap", str(op["cap"])]
    return argv + (["--json"] if op["json"] else [])


def homotopy_argv(op):
    argv = ["homotopy", "--n", str(op["n"]), "--r", str(op["r"]), "--torsion", op["torsion"],
            "--k", str(op["k"])]
    return argv + (["--json"] if op["json"] else [])


def golden_cases(test_cli_source):
    """GOLDEN_CASES, read from the CLI test module so both stay one list."""
    for node in ast.parse(test_cli_source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "GOLDEN_CASES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("GOLDEN_CASES not found in the CLI tests")


def cold_ops(rng, goldens):
    """The cli-cold invocation sequence: every invocation distinct.

    Two homotopy queries per `report --cap 10` while reports last, then
    homotopy only; the golden invocations sit at seeded places among the
    first COLD_MIN_OPS and are left out of the drawn pool.
    """
    taken = {tuple(argv) for argv in goldens.values()}
    homotopy, report = [], []
    for n in COLD_N:
        for r in COLD_R:
            for g in TORSIONS:
                for js in (False, True):
                    op = {"kind": "report", "n": n, "r": r, "torsion": g, "cap": COLD_CAP, "json": js}
                    report.append(dict(op, argv=report_argv(op)))
                    for k in COLD_K:
                        op = {"kind": "homotopy", "n": n, "r": r, "torsion": g, "k": k, "json": js}
                        homotopy.append(dict(op, argv=homotopy_argv(op)))
    homotopy = [op for op in homotopy if tuple(op["argv"]) not in taken]
    report = [op for op in report if tuple(op["argv"]) not in taken]
    rng.shuffle(homotopy)
    rng.shuffle(report)
    ops = []
    while homotopy:
        ops.append(homotopy.pop())
        if len(ops) % 3 == 2 and report:
            ops.append(report.pop())
    for name in sorted(goldens):
        ops.insert(rng.randrange(COLD_MIN_OPS - len(goldens)),
                   {"kind": "golden", "name": name, "argv": list(goldens[name])})
    return ops


# Traced-run expectations.  A name listed for a workload must be called there
# (the trace fails loudly otherwise); a prefix in PREDICTED_UNUSED is predicted
# never to run there, and the record says whether the trace confirms that.
EXPECTED_CALLS = {
    "report-deep": ("cli.main", "series.sphere_summand_counts", "series.PowerSeries.log",
                    "rewrite.hilbert_dims", "decomposition.weak_product_decomposition",
                    "decomposition.fiber_homology"),
    "selftest": ("cli.main", "series.sphere_summand_counts", "series.pbw_series_check",
                 "rewrite.hilbert_dims", "rewrite.normal_form", "rewrite.enumerate_irreducible_words",
                 "lyndon.lie_dims", "lyndon.standard_lyndon", "lyndon.independence_certificate",
                 "linalg.rank", "decomposition.rational_series",
                 "selftest.suite_dp_vs_enumeration", "selftest.suite_mobius_vs_lyndon",
                 "selftest.suite_pbw_identity", "selftest.suite_master_series",
                 "selftest.suite_confluence_fuzz", "selftest.suite_independence"),
    "certify": ("rewrite.normal_form", "rewrite.enumerate_irreducible_words",
                "lyndon.standard_lyndon", "lyndon.independence_certificate", "linalg.rank"),
    "cli-cold": ("cli.main", "series.sphere_summand_counts", "rewrite.hilbert_dims",
                 "decomposition.weak_product_decomposition", "decomposition.fiber_homology",
                 "spheres.load_table_file", "spheres.homotopy_of_manifold"),
}

PREDICTED_UNUSED = {
    "report-deep": ("lyndon.", "linalg.", "selftest.", "spheres."),
    "selftest": ("spheres.",),
    "certify": ("cli.", "series.", "decomposition.", "selftest.", "spheres."),
    "cli-cold": ("lyndon.", "linalg.", "selftest."),
}

# Where the time goes, as predicted: (claim, what is measured, "min" or
# "max", share).  What is measured is a tuple of span-name prefixes whose
# self time is summed.  The first claim names the predicted dominant layer,
# and its share is reported as trace.dominant_share.  A share is of traced
# op time, except on cli-cold, where it is of a cold invocation's median
# latency.  There "import" stands for `import loopspace.cli` and "outside"
# for all time not spent in the command itself: interpreter start, import
# and exit.
CLAIMS = {
    "report-deep": [("series takes at least 90% of report-deep", ("series.",), "min", 0.90)],
    "selftest": [("lyndon.lie_dims takes at least 70% of selftest", ("lyndon.lie_dims",), "min", 0.70)],
    "certify": [
        ("linalg.rank takes at least 95% of certify", ("linalg.rank",), "min", 0.95),
        ("bracketing, normal form and enumeration take under 5% together",
         ("lyndon.standard_lyndon", "rewrite."), "max", 0.05),
    ],
    "cli-cold": [
        ("import loopspace.cli takes at least a quarter of a cold invocation", "import", "min", 0.25),
        ("interpreter start, import and exit take at least half of a cold invocation", "outside", "min", 0.50),
        ("series, lyndon and linalg take under 5% of a cold invocation",
         ("series.", "lyndon.", "linalg."), "max", 0.05),
    ],
}
