"""One fresh-interpreter rep of a benchmark workload.

Reads a job as JSON on stdin, runs its ops once each inside a timed phase,
checks the outputs after the timed phase, and prints one JSON result line on
stdout.  Job fields: `kind` (report, selftest, certify or replay), `ops`,
`trace` (span names to wrap, or empty for an untraced rep), `clock`
(`process_time` or `perf_counter`) and `counters_fd` (the calibration
co-runner's shared counters, by which each op's CPU time is scaled to
calibrated time, or null; see calibrate.py).  The parent spawns this with
`src` on PYTHONPATH.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import calibrate
import checks
import tracing
from workloads import report_argv


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sys.modules["loopspace.cli"].main(argv)
    return code, out.getvalue(), err.getvalue()


def run_report(op):
    code, out, err = _cli(report_argv(op))
    return lambda: ([f"exit {code}: {err.strip()}"] if code else checks.check_report(op, out))


def run_selftest(op):
    code, out, _err = _cli(["selftest", "--seed", str(op["seed"]), "--fuzz", str(op["fuzz"])])
    return lambda: checks.check_selftest(code, out)


def run_certify(op):
    from loopspace.lyndon import independence_certificate
    from loopspace.manifold import ManifoldModel, loop_presentation

    report = independence_certificate(loop_presentation(ManifoldModel(op["n"], op["r"])), op["cap"])
    return lambda: checks.check_certificate(op["n"], op["r"], op["cap"], report)


def run_replay(op):
    """A cli-cold invocation in-process; its cold stdout, if given, must match."""
    code, out, err = _cli(op["argv"])

    def check():
        if code:
            return [f"exit {code}: {err.strip()}"]
        errors = []
        if "stdout" in op and op["stdout"] != out:
            errors.append("cold stdout differs from the in-process result")
        if op["kind"] == "report":
            errors += checks.check_report(op, out)
        elif op["kind"] == "homotopy":
            errors += checks.check_homotopy(op, out)
        return errors

    return check


RUNNERS = {"report": run_report, "selftest": run_selftest, "certify": run_certify, "replay": run_replay}


def main():
    job = json.load(sys.stdin)
    import loopspace.cli  # noqa: F401  (import time is measured by the parent's probes)

    tracer = tracing.Tracer() if job["trace"] else None
    if tracer:
        try:
            tracing.install(tracer, job["trace"])
        except tracing.TraceSetupError as e:
            print(e, file=sys.stderr)
            sys.exit(tracing.SETUP_EXIT)
    run = RUNNERS[job["kind"]]
    clock = getattr(time, job["clock"])
    counters = calibrate.Counters(job["counters_fd"]) if job["counters_fd"] is not None else None

    pending = []
    for op in job["ops"]:
        mark = counters.mark() if counters else None
        t0 = clock()
        try:
            check = run(op)
        except Exception:  # an op that raises counts as failed; the rep goes on
            error = traceback.format_exc(limit=-3)
            check = lambda error=error: [error]
        seconds = clock() - t0
        pending.append((seconds * counters.scale(mark) if counters else seconds, check))
    time_s = sum(s for s, _ in pending)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "time_s": time_s,
        "peak_rss_kb": peak_kb,
        "ops": [{"s": s, "errors": check()} for s, check in pending],
    }
    if tracer:
        result["spans"] = tracer.stats
        result["covered_s"] = tracer.covered
    print(json.dumps(result))


if __name__ == "__main__":
    main()
