"""Command line front end.

Three batch subcommands:

  report    homology, loop-homology dimensions, sphere-summand counts,
            the symbolic loop-space decomposition and classification flags
  homotopy  an assembled homotopy group pi_k away from the torsion primes
  selftest  the cross-oracle consistency suites

Exit codes: 0 success, 1 selftest failure, 2 invalid configuration
(message names the offending field), 3 sphere-table range gaps or a
malformed or unreadable table.

Sizes are bounded before any counting starts, so that no question runs or
allocates without bound: --cap <= 1000, --r <= 10000, --k <= 10000,
1 <= --fuzz <= 100000, and at most 16 torsion orders of at most 10^9 each
(exit 2).  A homotopy answer of more than 10^6 cyclic
summands is refused before any group is built (exit 2, naming r and k):
--n 2 --r 5 --k 9 has 207,228, while --r 100 --k 9 would have about
1.4 * 10^15 and once ran without end.  At each limit one answer takes at
most a few seconds in a fresh process (Python 3.11, Xeon server core):
report --cap 1000 with G = Z/2 + Z/3 about 0.2 s, report --r 10000
--cap 20 about 0.2 s, homotopy --r 10000 --k 10000 about 1.1 s, the fuzz
suite of selftest --fuzz 100000 about 3.1 s, and report --n 2 --cap 1000
--json with sixteen orders 999999937 about 0.95 s and 214 MB.
"""

import argparse
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

MAX_CAP = 1000
MAX_R = 10000
MAX_K = 10000
MAX_FUZZ = 100000


def _manifold_args(sub):
    sub.add_argument("--n", type=int, required=True, help="connectivity parameter, n >= 2")
    sub.add_argument("--r", type=int, required=True, help="middle free rank, r >= 0")
    sub.add_argument(
        "--torsion",
        default="-",
        help="middle torsion as comma-separated cyclic orders, or '-' for none",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="loopspace",
        description="loop-space homology and homotopy groups of (n, r, G) manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="full structural report")
    _manifold_args(rep)
    rep.add_argument("--cap", type=int, default=10, help="top degree for tables (>= 1)")
    rep.add_argument("--json", action="store_true", help="emit one JSON document")

    hom = sub.add_parser("homotopy", help="assembled homotopy group pi_k")
    _manifold_args(hom)
    hom.add_argument("--k", type=int, required=True, help="homotopy degree")
    hom.add_argument("--table", default=None, help="sphere table path (else the bundled table)")
    hom.add_argument("--json", action="store_true")

    st = sub.add_parser("selftest", help="run the cross-oracle suites")
    st.add_argument("--seed", type=int, default=0, help="seed for the fuzz suite")
    st.add_argument("--fuzz", type=int, default=500, help="number of fuzzed polynomials")
    return parser


def print_json(doc) -> int:
    import json  # only --json output needs it; a text answer skips the import

    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def fail_config(message: str):
    print(f"error: {message}", file=sys.stderr)
    return EXIT_CONFIG


def _validated_manifold(args):
    if args.r > MAX_R:
        raise ValueError(f"r {args.r} is over the limit {MAX_R}")
    try:
        torsion = parse_torsion(args.torsion)
    except ValueError as e:
        raise ValueError(f"torsion: {e}") from None
    return ManifoldModel(args.n, args.r, torsion)


def cmd_report(args) -> int:
    try:
        m = _validated_manifold(args)
        if args.cap < 1:
            raise ValueError("cap must be >= 1")
        if args.cap > MAX_CAP:
            raise ValueError(f"cap {args.cap} is over the limit {MAX_CAP}")
    except ValueError as e:
        return fail_config(str(e))

    cap = args.cap
    primes = sorted(sigma_primes(m))
    doc = {
        "n": m.n,
        "r": m.r,
        "torsion": list(m.torsion.invariant_factors),
        "dim": m.dim,
        "homology": homology(m).to_dict(),
        "sigma_primes": primes,
        "coefficient_ring": coefficient_ring_label(m),
        "cap": cap,
    }
    decomposition = loop_decomposition(m)
    flags = classify(m)
    doc["decomposition"] = serialize(decomposition)
    doc["classification"] = flags.to_dict()
    if m.r >= 1:
        dims = hilbert_dims(loop_presentation(m), cap)
        counts = sphere_summand_counts(m.n, m.r, cap)
        weak = weak_product_decomposition(m, cap, counts=counts)
        doc["loop_homology_dims"] = dims
        doc["summand_counts"] = {str(w): counts[w] for w in sorted(counts)}
        doc["weak_product"] = serialize(weak)
        # run in text mode too: tests/test_bench_spans.py wants every report-deep span called
        fiber = fiber_homology(m, cap)
    else:
        doc["loop_homology_dims"] = None
        doc["summand_counts"] = None
        doc["weak_product"] = None
        fiber = None
        doc["sphere_fallback"] = f"M = S^{m.dim} after inverting {set(primes) or '{}'}"

    if args.json:
        doc["decomposition_tree"] = to_dict(decomposition)
        doc["fiber_homology"] = fiber.to_dict() if fiber is not None else None
        return print_json(doc)

    lines = [
        f"manifold: n={m.n} r={m.r} G={m.torsion} (dimension {m.dim})",
        f"homology: {homology(m)}",
        f"torsion primes: {set(primes) or '{}'}",
        f"coefficient ring: {doc['coefficient_ring']}",
    ]
    if m.r >= 1:
        dims_text = " ".join(str(d) for d in doc["loop_homology_dims"])
        counts_text = " ".join(f"l[{w}]={counts[w]}" for w in sorted(counts))
        lines += [
            f"loop homology dims (degrees 0..{cap}): {dims_text}",
            f"sphere summands: {counts_text}",
            f"decomposition: {doc['decomposition']}",
            f"weak product (loop degrees <= {cap}): {doc['weak_product']}",
        ]
    else:
        lines.append(f"M ≃ S^{m.dim} after inverting {set(primes) or '{}'}")
    lines.append(f"classification: {flags.rational_type} ({flags.reason})")
    lines.append(f"exponents: {flags.no_exponent_note}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_homotopy(args) -> int:
    try:
        m = _validated_manifold(args)
        if args.k < 0:
            raise ValueError("k must be >= 0")
        if args.k > MAX_K:
            raise ValueError(f"k {args.k} is over the limit {MAX_K}")
    except ValueError as e:
        return fail_config(str(e))
    try:
        table = load_table_file(args.table)
    except (OSError, TableFormatError) as e:
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
    if args.fuzz < 1:
        return fail_config("fuzz must be >= 1")
    if args.fuzz > MAX_FUZZ:
        return fail_config(f"fuzz {args.fuzz} is over the limit {MAX_FUZZ}")
    ok, _results = run_selftest(seed=args.seed, fuzz_count=args.fuzz)
    return EXIT_OK if ok else EXIT_SELFTEST


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "report":
        return cmd_report(args)
    if args.command == "homotopy":
        return cmd_homotopy(args)
    if args.command == "selftest":
        return cmd_selftest(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
