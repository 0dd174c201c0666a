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
A homotopy answer of more than 10^6 cyclic summands is refused before any
group is built (exit 2, naming r and k): --n 2 --r 5 --k 9 has 207,228,
while --r 100 --k 9 would have about 1.4 * 10^15 and once ran without end.
At each limit one answer takes at most a few seconds in a fresh process
(Python 3.11, Xeon server core): report --cap 1000 with G = Z/2 + Z/3
about 0.2 s, report --r 10000 --cap 20 about 0.2 s, homotopy --r 10000
--k 10000 about 1.1 s, selftest --fuzz 100000 about 1.5 s (1.3 s of it
the fuzz suite), and the worst torsion, report --n 2 --r 1 --cap 1000
--json with sixteen orders 999999937, 0.5-0.8 s of CPU and 177 MB (about
0.2 s and 17 MB as text).

A call builds only its own command's argparse parser; the full parser is
built only to print top-level help or a top-level error.
"""

import argparse
import os
import sys

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
from .selftest import run_selftest
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


def _manifold_args(sub):
    sub.add_argument("--n", type=int, required=True, help="connectivity parameter, n >= 2")
    sub.add_argument("--r", type=int, required=True, help="middle free rank, r >= 0")
    sub.add_argument(
        "--torsion",
        default="-",
        help="middle torsion as comma-separated cyclic orders, or '-' for none",
    )


def _report_options(rep):
    _manifold_args(rep)
    rep.add_argument("--cap", type=int, default=10, help="top degree for tables (>= 1)")
    rep.add_argument("--json", action="store_true", help="emit one JSON document")
    rep.set_defaults(run=cmd_report)


def _homotopy_options(hom):
    _manifold_args(hom)
    hom.add_argument("--k", type=int, required=True, help="homotopy degree")
    hom.add_argument("--table", default=None, help="sphere table path (else the bundled table)")
    hom.add_argument("--json", action="store_true")
    hom.set_defaults(run=cmd_homotopy)


def _selftest_options(st):
    st.add_argument("--seed", type=int, default=0, help="seed for the fuzz suite")
    st.add_argument("--fuzz", type=int, default=500, help="number of fuzzed polynomials")
    st.set_defaults(run=cmd_selftest)


# name: (help line, function adding the command's options), in the order the help lists them
COMMANDS = {
    "report": ("full structural report", _report_options),
    "homotopy": ("assembled homotopy group pi_k", _homotopy_options),
    "selftest": ("run the cross-oracle suites", _selftest_options),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="loopspace",
        description="loop-space homology and homotopy groups of (n, r, G) manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, options) in COMMANDS.items():
        options(sub.add_parser(name, help=help_line))
    return parser


def parse_args(argv):
    """build_parser().parse_args(argv), building only the named command's parser.

    That parser is the one `add_parser` builds, so it prints the same usage,
    help and errors.  Anything else, or a leftover argument, goes to the full parser.
    """
    if argv and argv[0] in COMMANDS:
        parser = argparse.ArgumentParser(prog=f"loopspace {argv[0]}")
        COMMANDS[argv[0]][1](parser)
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


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
    ok, _results = run_selftest(seed=args.seed, fuzz_count=args.fuzz)
    return EXIT_OK if ok else EXIT_SELFTEST


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        code = args.run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout, as `| head -1` does: with stdout on devnull
        # the interpreter's exit flush prints no second traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
