"""loopspace benchmark runner (stdlib only).

    python3 bench/run.py --workload selftest --seed 1 --seconds 30 --trace 0

Workloads: report-deep, selftest, certify and cli-cold (see README.md).  Run
from a checkout: the program is imported from ./src and the metric names and
units come from ./BENCHMARK.json.  With --trace 0 the run reports the
end-to-end metrics in calibrated CPU time (calibrate.py), with --trace 1 the
per-layer metrics of the traced run in wall time.

Every rep runs in a fresh interpreter.  All outputs are checked after the
timed phase; an op that raises, exits with an unexpected code or fails its
check counts as failed, and any failure makes the run exit 1.  Set-up
problems (no ./src, a traced name missing or never called) exit 2 without a
result.  The second-to-last stdout line is the full record (Python version,
nproc, commit, seed, sample counts, trace claims); the last line is the
summary {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import contextlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import checks
import tracing
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD_TIMEOUT_S = 150
PROBES = 15
PROBE = "import time\nt = time.{0}()\nimport loopspace.cli\nprint(time.{0}() - t)\n"
IN_PROCESS = {
    "report-deep": ("report", wl.report_deep_round, 2),
    "selftest": ("selftest", wl.selftest_round, 3),
    "certify": ("certify", wl.certify_round, 2),
}
WORKLOADS = (*IN_PROCESS, "cli-cold")

# Set by main for an untraced run.  While it is set, every time is calibrated
# CPU time (see calibrate.py); otherwise, in the traced run, times are wall
# times, so that they compare with the tracer's spans.
calibrator = None


class SetupError(Exception):
    """The benchmark cannot produce a trustworthy result; nothing is printed."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env.pop("LOOPSPACE_SPHERE_TABLE", None)  # always the bundled table
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def clock_name():
    return "process_time" if calibrator else "perf_counter"


def spawn(args, env, stdin=b"", pass_fds=()):
    """Run the interpreter with `args`.

    Returns (code, stdout, stderr, seconds, peak_rss_kb, scale).  Seconds are
    the child's calibrated CPU time when a calibrator runs, and else its wall
    time from spawn to exit.  Scale turns the child's own CPU time readings
    into calibrated time (1.0 without a calibrator).  A child still running
    after CHILD_TIMEOUT_S is killed.
    """
    mark = calibrator.mark() if calibrator else None
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, pass_fds=pass_fds)
    proc.stdin.write(stdin)  # children read all of stdin before they write
    proc.stdin.close()
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {out_fd: [], err_fd: []}
    with selectors.DefaultSelector() as sel:
        for fd in chunks:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            ready = sel.select(timeout=max(0.0, start + CHILD_TIMEOUT_S - perf_counter()))
            if not ready:
                proc.kill()
            for key, _ in ready:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    _, status, usage = os.wait4(proc.pid, 0)
    if calibrator:
        scale = calibrator.scale(mark)
        seconds = (usage.ru_utime + usage.ru_stime) * scale
    else:
        scale, seconds = 1.0, perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
    proc.stdout.close()
    proc.stderr.close()
    return proc.returncode, b"".join(chunks[out_fd]), b"".join(chunks[err_fd]), seconds, usage.ru_maxrss, scale


def probe(env):
    """Seconds to `import loopspace.cli` in a fresh interpreter."""
    status, out, err, _, _, scale = spawn(["-c", PROBE.format(clock_name())], env)
    if status:
        raise SetupError(f"import loopspace.cli failed:\n{err.decode(errors='replace')}")
    return float(out) * scale


def run_child(kind, ops, env, trace=()):
    """One rep in a fresh interpreter; a crash fails every op of the rep.

    With a calibrator the rep reads the co-runner's counters itself and
    reports each op in calibrated time.
    """
    fd = calibrator.fd if calibrator else None
    job = {"kind": kind, "ops": ops, "trace": list(trace), "clock": clock_name(), "counters_fd": fd}
    status, out, err, _, _, _ = spawn([str(BENCH / "child.py")], env, stdin=json.dumps(job).encode(),
                                      pass_fds=() if fd is None else (fd,))
    lines = out.decode(errors="replace").splitlines()
    if status or not lines:
        tail = err.decode(errors="replace").strip().splitlines()[-3:]
        if status == tracing.SETUP_EXIT:
            raise SetupError(" | ".join(tail))
        error = f"{kind} child exited {status}: {' | '.join(tail)}"
        return {"time_s": None, "ops": [{"s": None, "errors": [error]} for _ in ops]}
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def measure(seconds, min_rounds, do_round, env):
    """Rounds until the next one would likely end past `seconds`.

    PROBES import probes are spread over the run, so that set-up time is
    sampled in the same machine states as the rounds.
    """
    start = perf_counter()
    rounds, durations, probes = [], [], 0
    while True:
        t = perf_counter()
        rounds.append(do_round(len(rounds)))
        setup = rounds[-1]["setup_s"] = []
        done = min(1.0, (perf_counter() - start) / seconds) if seconds > 0 else 1.0
        while probes < PROBES * done:
            setup.append(probe(env))
            probes += 1
        durations.append(perf_counter() - t)
        if len(rounds) >= min_rounds and perf_counter() - start + statistics.median(durations) > seconds:
            setup += [probe(env) for _ in range(PROBES - probes)]
            return rounds


def sum_spans(children):
    total = {}
    for child in children:
        for span, stats in child["spans"].items():
            acc = total.setdefault(span, dict.fromkeys(stats, 0))
            for stat, v in stats.items():
                acc[stat] += v
    return total


def traced_round(children):
    times = [c["time_s"] for c in children]
    if None in times:
        return None
    op_s = sum(times)
    return {"op_s": op_s, "covered_s": sum(c["covered_s"] for c in children), "spans": sum_spans(children)}


def in_process_round(workload, rng, env, trace_names, index):
    kind, make, _ = IN_PROCESS[workload]
    procs = make(rng)
    traced = bool(trace_names)
    plain, spans = [], []
    # in a traced run, alternate which of each pair runs first
    order = ((False, True) if index % 2 == 0 else (True, False)) if traced else (False,)
    for ops in procs:
        for with_trace in order:
            child = run_child(kind, ops, env, trace_names if with_trace else ())
            (spans if with_trace else plain).append(child)
    times = [c["time_s"] for c in plain]
    timed = [(wl.size_key(spec), op["s"]) for specs, c in zip(procs, plain) for spec, op in zip(specs, c["ops"])]
    return {
        "time_s": None if None in times else sum(times),
        "ops": [op for c in plain + spans for op in c["ops"]],
        "op_s": [s for _, s in timed if s is not None],
        "keyed_op_s": [(key, s) for key, s in timed if s is not None],
        "rss_kb": [c["peak_rss_kb"] for c in plain if "peak_rss_kb" in c],
        "traced": traced_round(spans) if traced else None,
    }


def cold_round(ops, env, index):
    batch = ops[index * wl.COLD_ROUND:(index + 1) * wl.COLD_ROUND]
    if not batch:
        raise SetupError("cli-cold ran out of distinct invocations")
    for op in batch:
        status, out, err, seconds, rss_kb, _ = spawn(["-m", "loopspace.cli", *op["argv"]], env)
        op.update(code=status, stdout=out, stderr=err, s=seconds, rss_kb=rss_kb)
    return {"time_s": sum(op["s"] for op in batch), "batch": batch}


def check_cold(ops, env):
    """Goldens byte for byte; every answer against the in-process result."""
    golden_dir = ROOT / "tests" / "golden"
    replay = []
    for op in ops:
        op["errors"] = []
        if op["code"] != 0:
            op["errors"].append(f"exit {op['code']}: {op['stderr'].decode(errors='replace').strip()}")
        if op["kind"] == "golden":
            op["errors"] += checks.check_golden(op["name"], (golden_dir / op["name"]).read_bytes(), op["stdout"])
        try:
            stdout = op["stdout"].decode()
        except UnicodeDecodeError:
            op["errors"].append("stdout is not UTF-8")
            continue
        replay.append((op, replay_payload(op) | {"stdout": stdout}))
    result = run_child("replay", [payload for _, payload in replay], env)
    for (op, _), checked in zip(replay, result["ops"]):
        op["errors"] += checked["errors"]
    return [{"s": op["s"], "errors": op["errors"]} for op in ops]


def replay_payload(op):
    return {k: v for k, v in op.items() if k in ("kind", "name", "argv", "n", "r", "torsion", "cap", "k", "json")}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def quantile(xs, q):
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1] if len(xs) > 1 else xs[0]


def run_in_process(workload, rng, env, seconds, trace_names):
    min_rounds = 1 if trace_names else IN_PROCESS[workload][2]  # a traced round runs every rep twice
    rounds = measure(seconds, min_rounds, lambda i: in_process_round(workload, rng, env, trace_names, i), env)
    return rounds, [op for r in rounds for op in r["ops"]]


def run_cold(workload, rng, env, seconds, trace_names):
    goldens = wl.golden_cases((ROOT / "tests" / "test_cli.py").read_text())
    ops = wl.cold_ops(rng, goldens)
    if not trace_names:
        rounds = measure(seconds, wl.COLD_MIN_OPS // wl.COLD_ROUND, lambda i: cold_round(ops, env, i), env)
        for r in rounds:
            r["op_s"] = [op["s"] for op in r["batch"]]
            r["rss_kb"] = [op["rss_kb"] for op in r["batch"]]
        return rounds, check_cold([op for r in rounds for op in r["batch"]], env)

    # Traced: a cold sample for the latency split, then the same invocations
    # replayed in-process, untraced and traced, alternating.
    sample = ops[:wl.COLD_ROUND * 2]
    cold = cold_round(sample, env, 0)
    cold["batch"] += cold_round(sample, env, 1)["batch"]
    checked = check_cold(cold["batch"], env)
    payload = [replay_payload(op) for op in ops[:wl.COLD_MIN_OPS]]

    def replay_round(index):
        children = {}
        for with_trace in (False, True) if index % 2 == 0 else (True, False):
            children[with_trace] = run_child("replay", payload, env, trace_names if with_trace else ())
        plain = children[False]
        return {
            "time_s": plain["time_s"],
            "ops": plain["ops"] + children[True]["ops"],
            "traced": traced_round([children[True]]),
        }

    spent = sum(op["s"] for op in cold["batch"])
    rounds = measure(max(0.0, seconds - spent), 1, replay_round, env)
    rounds[0]["cold_s"] = [op["s"] for op in cold["batch"]]
    rounds[0]["ops_per_replay"] = len(payload)
    return rounds, checked + [op for r in rounds for op in r["ops"]]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def collect(rounds, key):
    return [x for r in rounds for x in r.get(key) or ()]


def size_medians(rounds):
    """Each op size's median time across rounds, or None on cli-cold.

    In-process rounds repeat the same op sizes; the seed picks only which
    torsion group and fuzz seed each op gets.  So a round's time is best
    estimated by the sum of these medians, and the latency percentiles of
    the op mix by the percentiles of these medians: a slow spell of the
    machine that covers a few ops then moves no metric.  cli-cold never
    repeats an invocation, so its rounds and ops are used as measured.  In
    an untraced run every time is calibrated CPU time (calibrate.py).
    """
    by_size = {}
    for r in rounds:
        for key, s in r.get("keyed_op_s", ()):
            by_size.setdefault(key, []).append(s)
    return [statistics.median(v) for v in by_size.values()] or None


def end_to_end(rounds):
    times = [r["time_s"] for r in rounds if r["time_s"] is not None]
    op_s = collect(rounds, "op_s")
    rss = collect(rounds, "rss_kb")
    setup = collect(rounds, "setup_s")
    if not times or not op_s or not rss:
        return {}
    medians = size_medians(rounds)
    per_round = sum(medians) if medians else statistics.median(times)
    ops_ms = [s * 1000 for s in medians or op_s]
    return {
        "round_s": (per_round, len(times)),
        "op_p50_ms": (statistics.median(ops_ms), len(op_s)),
        "op_p90_ms": (quantile(ops_ms, 90), len(op_s)),
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (statistics.median(rss) / 1024, len(rss)),
    }


def span_total(spans, prefixes):
    return sum(s["self_s"] for name, s in spans.items() if name.startswith(prefixes))


def per_layer(workload, rounds, metric_names):
    """Medians over traced rounds; raises SetupError on a silent layer."""
    traced = [r["traced"] for r in rounds if r.get("traced")]
    plain = [r["time_s"] for r in rounds if r["time_s"] is not None]
    if not traced or not plain:
        return {}, []
    for span in wl.EXPECTED_CALLS[workload]:
        if any(t["spans"].get(span, {}).get("calls", 0) == 0 for t in traced):
            raise SetupError(f"{workload}: traced span {span} was never called")

    # predictions about where the time goes
    claims = []
    for claim, measured, side, threshold in wl.CLAIMS[workload]:
        if workload != "cli-cold":
            share = statistics.median(span_total(t["spans"], measured) / t["op_s"] for t in traced)
        else:
            cold_p50 = statistics.median(rounds[0]["cold_s"])
            n_ops = rounds[0]["ops_per_replay"]
            if measured == "import":
                share = statistics.median(collect(rounds, "setup_s")) / cold_p50
            elif measured == "outside":
                share = 1 - statistics.median(plain) / n_ops / cold_p50
            else:
                share = statistics.median(span_total(t["spans"], measured) for t in traced) / n_ops / cold_p50
        held = share >= threshold if side == "min" else share < threshold
        claims.append({"claim": claim, "measured_share": share, side: threshold,
                       "verdict": "confirmed" if held else "refuted"})
    dominant = claims[0]["measured_share"]
    for prefix in wl.PREDICTED_UNUSED[workload]:
        calls = sum(s["calls"] for t in traced for n, s in t["spans"].items() if n.startswith(prefix))
        claims.append({"claim": f"{prefix}* never runs in {workload}", "measured_calls": calls,
                       "verdict": "confirmed" if calls == 0 else "refuted"})

    out = {}
    n = len(traced)
    for metric in metric_names:
        if metric == "cli.import_s":
            setup = collect(rounds, "setup_s")
            out[metric] = (statistics.median(setup), len(setup))
        elif metric == "trace.overhead_ratio":
            out[metric] = (statistics.median(t["op_s"] for t in traced) / statistics.median(plain) - 1, n)
        elif metric == "trace.coverage":
            out[metric] = (statistics.median(t["covered_s"] / t["op_s"] for t in traced), n)
        elif metric == "trace.dominant_share":
            out[metric] = (dominant, n)
        else:
            span, _, stat = metric.rpartition(".")
            values = [t["spans"].get(span, {"calls": 0, "self_s": 0.0}).get(stat) for t in traced]
            if None in values:
                raise SetupError(f"per-layer metric {metric}: no counter {stat!r} on {span}")
            out[metric] = (statistics.median(values), n)
    return out, claims


# ---------------------------------------------------------------------------
# record
# ---------------------------------------------------------------------------

def commit_id():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    global calibrator
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (ROOT / "src" / "loopspace" / "cli.py").is_file():
            raise SetupError(f"no loopspace sources under {ROOT / 'src'}")
        with calibrate.Calibrator() if not args.trace else contextlib.nullcontext() as calibrator:
            result = measure_run(args)
    except SetupError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    finally:
        calibrator = None
    return report(args, *result)


def measure_run(args):
    """Runs the workload; returns (wanted metrics, rounds, ops, values, claims, speed)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = child_env()
    probe(env)  # warm-up: byte-compiles the package outside the timed runs
    rng = wl.rng_for(args.workload, args.seed)
    trace_names = tracing.span_names(m["name"] for m in spec["per_layer"]) if args.trace else ()
    run = run_cold if args.workload == "cli-cold" else run_in_process
    rounds, ops = run(args.workload, rng, env, args.seconds, trace_names)
    names = [m["name"] for m in wanted]
    if args.trace:
        values, claims = per_layer(args.workload, rounds, names)
    else:
        values, claims = end_to_end(rounds), []
    # the machine's speed during the run: the co-runner's median CPU time per chunk
    speed = {"chunk_us": statistics.median(calibrator.speeds) * 1e6,
             "ref_chunk_us": calibrate.REF_CHUNK_S * 1e6} if calibrator else None
    return wanted, rounds, ops, values, claims, speed


def report(args, wanted, rounds, ops, values, claims, speed):
    """Prints the record and the summary line; returns the exit code."""
    failed = sum(1 for op in ops if op["errors"])
    missing = [m["name"] for m in wanted if m["name"] not in values]
    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in wanted if m["name"] in values}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_id(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "rounds": len(rounds),
        "attempted": len(ops),
        "failed": failed,
        "fail_ratio": failed / len(ops),
        "metrics": {k: dict(metrics[k], samples=values[k][1]) for k in metrics},
        "speed": speed,
        "claims": claims,
        "errors": [e for op in ops for e in op["errors"]][:5],
    }
    print(json.dumps({"record": record}))
    correct = failed == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    if missing:
        print(f"bench: no value for {missing}", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
