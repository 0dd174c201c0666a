"""Cross-oracle consistency suites, runnable from the CLI.

Each suite recomputes a family of results along two independent routes and
compares exactly: word counting by dynamic programming against brute
enumeration, Moebius summand counts against direct standard-Lyndon
enumeration, the product identity against both, the symbolic decomposition
series against the generating series, rewriting confluence on seeded random
polynomials, and independence certificates of the standard bracketings
(each normal form unitriangular on its standard word, and full rank modulo
a prime).

Each route runs once per grid point.  The product identity takes the Moebius
counts l, not a second Lyndon walk: mobius-vs-lyndon already requires
lie_dims == l at every grid point, so "PBW(l) = word counts" holds exactly
when "PBW(lie_dims) = word counts" does, and the all-pass verdict is the
same for every input.

The suite sizes are the module constants below; only the fuzz's seed and
count vary per run, set by the CLI's --seed and --fuzz.  A seed fixes the
fuzzed polynomials; the tests pin the first draws of seeds 0 and 3.
"""

from collections import namedtuple

from .decomposition import loop_decomposition, rational_series
from .errors import ComputationFailure
from .lyndon import independence_certificate, lie_dims
from .manifold import ManifoldModel, loop_presentation
from .rewrite import enumerate_irreducible_words, hilbert_dims, normal_form
from .series import loop_generating_series, pbw_series_check, sphere_summand_counts
from .words import NCPoly

GRID = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 2))
DP_CAP = 7
SERIES_CAP = 12
INDEPENDENCE_CAP = 6
FUZZ_MAX_DEGREE = 8
FUZZ_MAX_TERMS = 4


SuiteResult = namedtuple("SuiteResult", "name passed detail", defaults=("",))


def _fail(name, n=None, r=None, degree=None, extra=""):
    parts = [name]
    if n is not None:
        parts.append(f"n={n}")
    if r is not None:
        parts.append(f"r={r}")
    if degree is not None:
        parts.append(f"degree={degree}")
    detail = "(" + ", ".join(str(p) for p in parts) + ")"
    if extra:
        detail += " " + extra
    return SuiteResult(name, False, detail)


def suite_dp_vs_enumeration():
    name = "dp-vs-enumeration"
    for n, r in GRID:
        pres = loop_presentation(ManifoldModel(n, r))
        dims = hilbert_dims(pres, DP_CAP)
        words = enumerate_irreducible_words(pres, DP_CAP)
        for d in range(DP_CAP + 1):
            if dims[d] != len(words[d]):
                return _fail(name, n, r, d)
    return SuiteResult(name, True)


def suite_mobius_vs_lyndon():
    name = "mobius-vs-lyndon"
    for n, r in GRID:
        pres = loop_presentation(ManifoldModel(n, r))
        counted = lie_dims(pres, SERIES_CAP)
        try:
            mobius = sphere_summand_counts(n, r, SERIES_CAP)
        except ComputationFailure as e:
            return _fail(name, n, r, extra=str(e))
        for d in range(1, SERIES_CAP + 1):
            if counted[d] != mobius[d]:
                return _fail(name, n, r, d)
    return SuiteResult(name, True)


def suite_pbw_identity():
    name = "pbw-identity"
    cap = SERIES_CAP
    for n, r in GRID:
        pres = loop_presentation(ManifoldModel(n, r))
        if not pbw_series_check(sphere_summand_counts(n, r, cap), hilbert_dims(pres, cap), cap):
            return _fail(name, n, r)
    return SuiteResult(name, True)


def suite_master_series():
    name = "master-series"
    for n, r in GRID:
        for torsion in ((), (2,)):
            m = ManifoldModel(n, r, torsion)
            lhs = rational_series(loop_decomposition(m), SERIES_CAP)
            rhs = loop_generating_series(n, r, SERIES_CAP).inverse()
            if lhs != rhs:
                return _fail(name, n, r, extra=f"G={list(torsion)}")
    return SuiteResult(name, True)


def random_poly(pres, rng):
    """Seeded random element of the tensor algebra, degree-capped.

    Letters are drawn as ``rng.randint(1, size)`` draws them, coefficients as
    ``rng.choice`` over six values: on CPython 3.10-3.12 both take
    ``getrandbits(n.bit_length())`` until it is below n, done here inline with
    no Python frame per draw.  Terms gather as index tuples and zero sums are
    dropped at the end, so the dict keeps the order of each word's first draw.
    """
    alphabet = pres.alphabet
    weight, size = alphabet.degrees, alphabet.size
    k = size.bit_length()
    bits, random = rng.getrandbits, rng.random
    terms = {}
    for _ in range(rng.randint(1, FUZZ_MAX_TERMS)):
        indices, degree = (), 0
        while True:
            while (i := bits(k)) >= size:
                pass
            degree += weight[i]
            if degree > FUZZ_MAX_DEGREE or (indices and random() < 0.2):
                break
            indices += (i + 1,)
        while (pick := bits(3)) >= 6:
            pass
        terms[indices] = terms.get(indices, 0) + (-3, -2, -1, 1, 2, 3)[pick]
    return NCPoly._unchecked(alphabet, {t: c for t, c in terms.items() if c})


def suite_confluence_fuzz(count, seed):
    import random  # only the fuzz draws random numbers; other answers skip the import

    name = "confluence-fuzz"
    rng = random.Random(seed)
    presentations = [loop_presentation(ManifoldModel(n, r)) for n, r in GRID]
    for i in range(count):
        pres = presentations[i % len(presentations)]
        p = random_poly(pres, rng)
        left = normal_form(p, pres, strategy="leftmost")
        right = normal_form(p, pres, strategy="rightmost")
        if left != right:
            return _fail(name, extra=f"strategies differ at iteration {i}")
        if normal_form(left, pres) != left:
            return _fail(name, extra=f"not idempotent at iteration {i}")
    return SuiteResult(name, True)


def suite_independence():
    name = "independence"
    for n, r in ((2, 2), (3, 2)):
        pres = loop_presentation(ManifoldModel(n, r))
        try:
            independence_certificate(pres, INDEPENDENCE_CAP)
        except ComputationFailure as e:
            return _fail(name, n, r, extra=str(e))
    return SuiteResult(name, True)


def run_selftest(seed, fuzz_count):
    """Run every suite and print one verdict line each; returns (all_passed, results)."""
    results = [
        suite_dp_vs_enumeration(),
        suite_mobius_vs_lyndon(),
        suite_pbw_identity(),
        suite_master_series(),
        suite_confluence_fuzz(count=fuzz_count, seed=seed),
        suite_independence(),
    ]
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else f"FAIL {r.detail}"
        print(f"{r.name.ljust(width)}  {status}")
    ok = all(r.passed for r in results)
    print(f"selftest: {'all suites passed' if ok else 'FAILURES detected'}")
    return ok, results
