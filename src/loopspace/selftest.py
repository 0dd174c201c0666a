"""Cross-oracle consistency suites, runnable from the CLI.

Each suite recomputes a family of results along two independent routes and
compares exactly: word counting by dynamic programming against brute
enumeration, Moebius summand counts against direct standard-Lyndon
enumeration, the product identity against both, the symbolic decomposition
series against the generating series, rewriting confluence on seeded random
polynomials, and independence certificates of the standard bracketings
(each normal form unitriangular on its standard word, and full rank modulo
a prime).

Every suite but the fuzz runs one point check, ``check_<route>(m, cap)``,
on each of its models at its cap, through ``_on_models``.  A check returns
None when its routes agree through degree cap, else ``degree=d`` for the
first degree where they differ; the runner writes the first failure as
``(<suite>, <model>) <detail>``, a route's ComputationFailure text being
the detail.  The product identity takes the Moebius counts l, not a second
Lyndon walk: mobius-vs-lyndon already requires lie_dims == l at every grid
point, so "PBW(l) = word counts" holds exactly when "PBW(lie_dims) = word
counts" does, and the all-pass verdict is the same for every input.

The suite sizes are the module constants below; only the fuzz's seed and
count vary per run, set by the CLI's --seed and --fuzz.  A seed fixes the
fuzzed polynomials; the tests pin the first draws of seeds 0 and 3.
"""

from collections import namedtuple

from .decomposition import loop_decomposition, rational_series
from .errors import ComputationFailure, SphereFallback
from .lyndon import independence_certificate, lie_dims
from .manifold import ManifoldModel, loop_presentation, sigma_primes
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


def _first_degree(differing):
    """``degree=d`` for the first degree d that ``differing`` yields, else None."""
    d = next(differing, None)
    return None if d is None else f"degree={d}"


def check_dp_vs_enumeration(m, cap):
    """DP word counts against the enumerated words, degrees 0..cap; SphereFallback at r = 0."""
    pres = loop_presentation(m)
    dims = hilbert_dims(pres, cap)
    words = enumerate_irreducible_words(pres, cap)
    return _first_degree(d for d in range(cap + 1) if dims[d] != len(words[d]))


def check_mobius_vs_lyndon(m, cap):
    """Standard-Lyndon counts against the Moebius l[w], degrees 1..cap; SphereFallback at r = 0."""
    counted = lie_dims(loop_presentation(m), cap)
    mobius = sphere_summand_counts(m.n, m.r, cap)
    return _first_degree(d for d in range(1, cap + 1) if counted[d] != mobius[d])


def check_pbw_identity(m, cap):
    """prod (1 - t^w)^(-l[w]) against the word counts through t^cap; SphereFallback at r = 0."""
    counts = sphere_summand_counts(m.n, m.r, cap)
    dims = hilbert_dims(loop_presentation(m), cap)
    if not pbw_series_check(counts, dims, cap):
        return _first_degree(d for d in range(cap + 1) if not pbw_series_check(counts, dims, d))
    return None


def check_master_series(m, cap):
    """The decomposition's rational series against 1/q(t) through t^cap; SphereFallback at r = 0.

    q(t) = 1 - r t^(n-1) - r t^n + t^(2n-1).  At r = 0 the decomposition is
    a sphere, with no q to compare against.
    """
    if m.r < 1:
        raise SphereFallback(m.n, sigma_primes(m))
    lhs = rational_series(loop_decomposition(m), cap).coeffs
    rhs = loop_generating_series(m.n, m.r, cap).inverse().coeffs
    return _first_degree(d for d in range(cap + 1) if lhs[d] != rhs[d])


def check_independence(m, cap):
    """Certify the standard bracketings of degrees 1..cap independent; SphereFallback at r = 0.

    The certificate raises ComputationFailure where its routes fail, so a
    check that returns passed.
    """
    independence_certificate(loop_presentation(m), cap)
    return None


def _on_models(name, check, cap, models):
    """SuiteResult of check(m, cap) on each model, failing at the first failure."""
    for m in models:
        try:
            detail = check(m, cap)
        except ComputationFailure as e:
            detail = str(e)
        if detail is not None:
            return SuiteResult(name, False, f"({name}, {m!r}) {detail}")
    return SuiteResult(name, True)


def _grid_models():
    return [ManifoldModel(n, r) for n, r in GRID]


def suite_dp_vs_enumeration():
    return _on_models("dp-vs-enumeration", check_dp_vs_enumeration, DP_CAP, _grid_models())


def suite_mobius_vs_lyndon():
    return _on_models("mobius-vs-lyndon", check_mobius_vs_lyndon, SERIES_CAP, _grid_models())


def suite_pbw_identity():
    return _on_models("pbw-identity", check_pbw_identity, SERIES_CAP, _grid_models())


def suite_master_series():
    models = [ManifoldModel(n, r, torsion) for n, r in GRID for torsion in ((), (2,))]
    return _on_models("master-series", check_master_series, SERIES_CAP, models)


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
    presentations = [loop_presentation(m) for m in _grid_models()]
    for i in range(count):
        pres = presentations[i % len(presentations)]
        p = random_poly(pres, rng)
        left = normal_form(p, pres, strategy="leftmost")
        right = normal_form(p, pres, strategy="rightmost")
        if left != right:
            return SuiteResult(name, False, f"({name}) strategies differ at iteration {i}")
        if normal_form(left, pres) != left:
            return SuiteResult(name, False, f"({name}) not idempotent at iteration {i}")
    return SuiteResult(name, True)


def suite_independence():
    models = [ManifoldModel(2, 2), ManifoldModel(3, 2)]
    return _on_models("independence", check_independence, INDEPENDENCE_CAP, models)


def run_selftest(seed, fuzz_count):
    """Run every suite and print one verdict line each; returns whether all passed."""
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
    return ok
