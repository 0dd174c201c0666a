"""Word predicates and the rewriting order read straight off their
definitions, and plainer routes to the rewriting layer's results, as test
oracles.

``loopspace`` never asks these questions of a single word: its walks build
Lyndon and irreducible words directly.  The tests use them to check those
walks and the rewriting against the definitions.  The plainer routes, a
bigram search per word, a stack walk sorted afterwards and letter draws
through ``randint`` and the checked ``NCPoly`` constructor, must give the
same results as the library's, in the same order.  ``index_key`` is the
rewriting order as a sort key, the reference that ``NCPoly.max_word``,
which finds the maximum its own way, must agree with.  ``product`` is the
tensor-algebra product, which the library never forms: ``bracket`` builds
pq - qp in one pass, and this is its two-product reference.  A word is its
tuple of letter indices, as in the library.
"""

from loopspace.selftest import FUZZ_MAX_DEGREE, FUZZ_MAX_TERMS
from loopspace.words import NCPoly


def is_lyndon(indices) -> bool:
    """Strictly smaller than every proper cyclic rotation."""
    indices = tuple(indices)
    n = len(indices)
    if n == 0:
        return False
    doubled = indices + indices
    return all(indices < doubled[i : i + n] for i in range(1, n))


def index_key(degrees, indices: tuple):
    """Sort key for the rewriting order on a letter-index tuple: degree, then
    length, then reverse lex.  Larger key = larger in the rewriting order, so
    the lex-*smallest* word of a given degree and length is the maximal one.
    """
    return (sum(degrees[i - 1] for i in indices), len(indices), tuple(-i for i in indices))


def is_irreducible(word, pres) -> bool:
    """True iff the presentation's leading bigram does not occur in the word."""
    if pres.is_free:
        return True
    return pres.leading not in zip(word, word[1:])


def product(p, q):
    """The tensor-algebra product pq, term by term, through the checked ``NCPoly`` constructor."""
    terms = {}
    for u, c in p._terms.items():
        for v, e in q._terms.items():
            terms[u + v] = terms.get(u + v, 0) + c * e
    return NCPoly(p.alphabet, terms)


def homogeneous_degree(poly):
    """The degree shared by every word of the polynomial, or None."""
    degrees = {poly.alphabet.degree(word) for word in poly._terms}
    return degrees.pop() if len(degrees) == 1 else None


def find_bigram(indices: tuple, a: int, b: int, rightmost=False):
    """Position of a contiguous occurrence of letters (a, b) in a letter-index tuple, else None."""
    rng = range(len(indices) - 2, -1, -1) if rightmost else range(len(indices) - 1)
    for i in rng:
        if indices[i] == a and indices[i + 1] == b:
            return i
    return None


def normal_form_by_find_bigram(p, pres, strategy="leftmost"):
    """``rewrite.normal_form`` with the bigram found by ``find_bigram`` on every word.

    The same rewriting steps in the same order, so the result equals
    ``normal_form``'s with its terms in the same order.
    """
    if pres.is_free:
        return p
    a, b = pres.leading
    lower = list(pres.lower_terms._terms.items())
    done = {}
    pending = dict(p._terms)
    while pending:
        word, coeff = pending.popitem()
        pos = find_bigram(word, a, b, strategy == "rightmost")
        if pos is None:
            s = done.get(word, 0) + coeff
            if s:
                done[word] = s
            else:
                done.pop(word, None)
            continue
        for lower_word, lc in lower:
            w2 = word[:pos] + lower_word + word[pos + 2 :]
            s = pending.get(w2, 0) + coeff * lc
            if s:
                pending[w2] = s
            else:
                pending.pop(w2, None)
    return NCPoly._unchecked(pres.alphabet, done)


def random_poly_by_randint(pres, rng):
    """``selftest.random_poly`` drawn letter by letter with ``randint``, through
    the checked ``NCPoly`` constructor."""
    alphabet = pres.alphabet
    degrees = alphabet.degrees
    terms = {}
    for _ in range(rng.randint(1, FUZZ_MAX_TERMS)):
        indices = []
        degree = 0
        while True:
            i = rng.randint(1, alphabet.size)
            if degree + degrees[i - 1] > FUZZ_MAX_DEGREE or (indices and rng.random() < 0.2):
                break
            indices.append(i)
            degree += degrees[i - 1]
        coeff = rng.choice((-3, -2, -1, 1, 2, 3))
        word = tuple(indices)
        terms[word] = terms.get(word, 0) + coeff
    return NCPoly(alphabet, terms)


def irreducible_words_by_stack(pres, cap):
    """Every irreducible word of degree <= cap from a depth-first stack, each
    degree then sorted into (length, lex) order: {degree: [tuple]}."""
    degrees = pres.alphabet.degrees
    size = pres.alphabet.size
    forbidden = pres.leading
    by_degree = {d: [] for d in range(cap + 1)}
    by_degree[0].append(())
    stack = [((i,), degrees[i - 1]) for i in range(1, size + 1) if degrees[i - 1] <= cap]
    while stack:
        indices, deg = stack.pop()
        by_degree[deg].append(indices)
        for i in range(1, size + 1):
            if forbidden and indices[-1] == forbidden[0] and i == forbidden[1]:
                continue
            if deg + degrees[i - 1] <= cap:
                stack.append((indices + (i,), deg + degrees[i - 1]))
    for words in by_degree.values():
        words.sort(key=lambda w: (len(w), w))
    return by_degree
