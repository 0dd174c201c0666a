"""Command line front end.

Three batch subcommands:

  report    homology, loop-homology dimensions, sphere-summand counts,
            the symbolic loop-space decomposition and classification flags
  homotopy  an assembled homotopy group pi_k away from the torsion primes
  selftest  the cross-oracle consistency suites

Exit codes: 0 success, 1 selftest failure, 2 invalid configuration
(message names the offending field), 3 sphere-table range gaps or a
malformed or unreadable table, 141 (128 + SIGPIPE) when stdout is closed
before the answer is written, as by `| head -1`, with nothing on stderr.

Sizes are bounded before any counting starts, so that no question runs or
allocates without bound: --cap <= 1000, --n <= 10000, --r <= 10000,
--k <= 10000, 1 <= --fuzz <= 100000, and at most 16 torsion orders of at
most 10^9 each (exit 2).  --seed must be >= 0 (exit 2): Random(-s) repeats
the fuzz of s.
A --table file longer than 10^6 characters exits 3 after reading one past it.
A homotopy answer of more than 10^6 cyclic summands is refused before any
group is built (exit 2, naming r and k): --n 2 --r 5 --k 9 has 207,228,
while --r 100 --k 9 would have about 1.4 * 10^15 and once ran without end.
At each limit one answer takes at most a few seconds in a fresh process
(Python 3.11, Xeon server core): report --cap 1000 with G = Z/2 + Z/3
about 0.2 s, report --r 10000 --cap 20 about 0.2 s, homotopy --r 10000
--k 10000 about 0.8 s of CPU and 273 MB before it exits 3 on the sphere
table's gaps (Python 3.11.7, shared 2-core Xeon host, three runs),
selftest --fuzz 100000 about 1.5 s (1.3 s of it the fuzz suite), and the
worst torsion, report --n 2 --r 1 --cap 1000
--json with sixteen orders 999999937, 0.5-0.8 s of CPU and 177 MB (about
0.2 s and 17 MB as text).

Each command's options are declared once, in COMMANDS.  A call takes one
of two routes: a well-formed call (parse_canonical) is parsed without
argparse, and any other call (help, an error, --cap=3, an abbreviated
option) goes to the full parser, build_parser, the one place argparse is
imported.

main(argv) is the in-process API: it returns the exit code and never ends
the process.  run() is the process entry, called by the `loopspace` console
script and by `python -m loopspace.cli`: it calls main(), flushes stdout and
stderr, and ends the process with os._exit, skipping the interpreter's
teardown of modules the process is about to discard.  So after a normal
answer no end-of-run step runs: no atexit hook, and no report from
`python -m cProfile`, `trace` or `pdb`; profile cli.main in-process instead.
A SystemExit (help, an argparse error) or an exception from main propagates,
and the interpreter exits as usual.
"""

import os
import sys
from types import SimpleNamespace

from . import selftest
from .decomposition import (
    classify,
    loop_decomposition,
    serialize,
    to_dict,
    weak_product_decomposition,
    fiber_homology,
)
from .errors import TableFormatError, TableRangeError
from .manifold import (
    ManifoldModel,
    coefficient_ring_label,
    homology,
    loop_presentation,
    parse_torsion,
    sigma_primes,
)
from .rewrite import hilbert_dims
from .series import sphere_summand_counts
from .spheres import homotopy_of_manifold, load_table_file

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_CONFIG = 2
EXIT_TABLE = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by a closed pipe

MAX_CAP = 1000
MAX_N = 10000
MAX_R = 10000
MAX_K = 10000
MAX_FUZZ = 100000

# (least, most) value of each bounded option; None leaves that side open
_BOUNDS = {
    "n": (None, MAX_N), "r": (None, MAX_R), "cap": (1, MAX_CAP), "k": (0, MAX_K),
    "seed": (0, None), "fuzz": (1, MAX_FUZZ),
}


# One row per option: (name, type, default, help).  The type is int, str or
# bool, a flag that is False unless given; a REQUIRED option has no default.
REQUIRED = object()

_MANIFOLD_OPTIONS = (
    ("n", int, REQUIRED, "connectivity parameter, n >= 2"),
    ("r", int, REQUIRED, "middle free rank, r >= 0"),
    ("torsion", str, "-", "middle torsion as comma-separated cyclic orders, or '-' for none"),
)
_JSON_OPTION = ("json", bool, False, "emit one JSON document")
_REPORT_OPTIONS = (
    *_MANIFOLD_OPTIONS,
    ("cap", int, 10, "top degree for tables (>= 1)"),
    _JSON_OPTION,
)
_HOMOTOPY_OPTIONS = (
    *_MANIFOLD_OPTIONS,
    ("k", int, REQUIRED, "homotopy degree"),
    ("table", str, None, "sphere table path (else the bundled table)"),
    _JSON_OPTION,
)
_SELFTEST_OPTIONS = (
    ("seed", int, 0, "seed for the fuzz suite"),
    ("fuzz", int, 500, "number of fuzzed polynomials"),
)


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="loopspace",
        description="loop-space homology and homotopy groups of (n, r, G) manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, run, options) in COMMANDS.items():
        command_parser = sub.add_parser(command, help=help_line)
        for name, kind, default, help_text in options:
            if kind is bool:
                command_parser.add_argument(f"--{name}", action="store_true", help=help_text)
            else:
                command_parser.add_argument(
                    f"--{name}",
                    type=int if kind is int else None,
                    required=default is REQUIRED,
                    default=None if default is REQUIRED else default,
                    help=help_text,
                )
        command_parser.set_defaults(run=run)
    return parser


def parse_canonical(argv):
    """The namespace build_parser().parse_args(argv) returns, or None if argv
    is not in the canonical grammar `COMMAND (--FLAG | --OPTION VALUE)...`
    with every required option given.

    A VALUE is any token that does not start with "-", or a lone "-"; an int
    VALUE must convert with int().  An option name must be exact: "--ca",
    "--cap=3", "--", "-h" and any other token return None.

    Sound because, on such an argv, argparse reads the same tokens the same way:
    - the full parser hands every token after the command to the command's parser;
    - an exact option string is looked up before any prefix match;
    - a token that does not start with "-", or a lone "-", is never read
      as an option, so it is the one argument of the option before it;
    - type=int calls int(value), store_true stores True, and the last
      occurrence of an option wins;
    - an option not given takes its default, and no default is a str that
      a type would convert.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _help_line, run, options = COMMANDS[argv[0]]
    spec = {f"--{name}": (name, kind) for name, kind, _default, _help in options}
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in spec:
            return None
        name, kind = spec[token]
        if kind is bool:
            given[name] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-") and value != "-":
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        given[name] = value
    args = SimpleNamespace(command=argv[0], run=run)
    for name, _kind, default, _help in options:
        value = given.get(name, default)
        if value is REQUIRED:
            return None
        setattr(args, name, value)
    return args


def parse_args(argv):
    """build_parser().parse_args(argv); a canonical argv (parse_canonical) builds no parser."""
    args = parse_canonical(argv)
    return build_parser().parse_args(argv) if args is None else args


def print_json(doc) -> int:
    # json.dumps with an indent runs the pure-Python encoder; json_text joins C-encoded leaves.
    # Only --json output needs it: a text answer neither compiles it nor imports json.
    from .jsontext import json_text

    print(json_text(doc))
    return EXIT_OK


def fail_config(message: str):
    print(f"error: {message}", file=sys.stderr)
    return EXIT_CONFIG


def _check_bounds(args, *names):
    """Raise ValueError naming the first of the options outside its _BOUNDS."""
    for name in names:
        value = getattr(args, name)
        least, most = _BOUNDS[name]
        if least is not None and value < least:
            raise ValueError(f"{name} must be >= {least}")
        if most is not None and value > most:
            raise ValueError(f"{name} {value} is over the limit {most}")


def _validated_manifold(args):
    _check_bounds(args, "n", "r")
    try:
        torsion = parse_torsion(args.torsion)
    except ValueError as e:
        raise ValueError(f"torsion: {e}") from None
    return ManifoldModel(args.n, args.r, torsion)


def cmd_report(args) -> int:
    try:
        m = _validated_manifold(args)
        _check_bounds(args, "cap")
    except ValueError as e:
        return fail_config(str(e))

    cap = args.cap
    primes = sorted(sigma_primes(m))
    primes_text = str(set(primes) or "{}")
    hom = homology(m)
    tree = loop_decomposition(m)
    flags = classify(m)
    dims = counts = weak = None
    if m.r >= 1:
        dims = hilbert_dims(loop_presentation(m), cap)
        counts = sphere_summand_counts(m.n, m.r, cap)
        weak = serialize(weak_product_decomposition(m, cap, counts=counts))

    if args.json:
        doc = {
            "n": m.n,
            "r": m.r,
            "torsion": list(m.torsion.invariant_factors),
            "dim": m.dim,
            "homology": hom.to_dict(),
            "sigma_primes": primes,
            "coefficient_ring": coefficient_ring_label(m),
            "cap": cap,
            "decomposition": serialize(tree),
            "classification": flags.to_dict(),
            "loop_homology_dims": dims,
            "summand_counts": None if counts is None else {str(w): counts[w] for w in sorted(counts)},
            "weak_product": weak,
            "decomposition_tree": to_dict(tree),
            "fiber_homology": fiber_homology(m, cap).to_dict() if m.r >= 1 else None,
        }
        if m.r < 1:
            doc["sphere_fallback"] = f"M = S^{m.dim} after inverting {primes_text}"
        return print_json(doc)

    lines = [
        f"manifold: n={m.n} r={m.r} G={m.torsion} (dimension {m.dim})",
        f"homology: {hom}",
        f"torsion primes: {primes_text}",
        f"coefficient ring: {coefficient_ring_label(m)}",
    ]
    if m.r >= 1:
        dims_text = " ".join(str(d) for d in dims)
        counts_text = " ".join(f"l[{w}]={counts[w]}" for w in sorted(counts))
        lines += [
            f"loop homology dims (degrees 0..{cap}): {dims_text}",
            f"sphere summands: {counts_text}",
            f"decomposition: {serialize(tree)}",
            f"weak product (loop degrees <= {cap}): {weak}",
        ]
    else:
        lines.append(f"M ≃ S^{m.dim} after inverting {primes_text}")
    lines.append(f"classification: {flags.rational_type} ({flags.reason})")
    lines.append(f"exponents: {flags.no_exponent_note}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_homotopy(args) -> int:
    try:
        m = _validated_manifold(args)
        _check_bounds(args, "k")
    except ValueError as e:
        return fail_config(str(e))
    try:
        table = load_table_file(args.table)
    except (OSError, UnicodeDecodeError, TableFormatError) as e:
        print(f"error: table: {e}", file=sys.stderr)
        return EXIT_TABLE
    try:
        answer = homotopy_of_manifold(m, args.k, table)
    except TableRangeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_TABLE
    except ValueError as e:
        return fail_config(str(e))

    if args.json:
        return print_json(answer.to_dict())
    primes = set(answer.inverted_primes)
    suffix = f" (after inverting {primes})" if primes else ""
    print(f"pi_{args.k} = {answer.summand_text()}{suffix}")
    if answer.summands:
        for sphere, mult, g in answer.summands:
            print(f"  from S^{sphere} x{mult}: {g}")
        print(f"total: {answer.total}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    try:
        _check_bounds(args, "seed", "fuzz")
    except ValueError as e:
        return fail_config(str(e))
    return EXIT_OK if selftest.run_selftest(seed=args.seed, fuzz_count=args.fuzz) else EXIT_SELFTEST


# name: (help line, run function, options), in the order the help lists them
COMMANDS = {
    "report": ("full structural report", cmd_report, _REPORT_OPTIONS),
    "homotopy": ("assembled homotopy group pi_k", cmd_homotopy, _HOMOTOPY_OPTIONS),
    "selftest": ("run the cross-oracle suites", cmd_selftest, _SELFTEST_OPTIONS),
}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        code = args.run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout, as `| head -1` does: with stdout on devnull
        # run()'s final flush (or the interpreter's exit flush, after an
        # in-process call) raises no second BrokenPipeError
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    return code


def run():
    """Answer sys.argv, then end the process without interpreter teardown."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
