"""Lyndon words over weighted alphabets and bases of quadratic Lie algebras.

A Lyndon word is lexicographically strictly smaller than all of its proper
cyclic rotations.  Enumeration is by homological degree (letters carry
positive weights), via a depth-first walk over prenecklaces: a prenecklace of
length t and period p extends by any letter >= the one p positions back, and
is Lyndon exactly when its period equals its length.  The walk prunes on the
degree cap, and optionally on a forbidden bigram, so only the words that
matter are ever visited.

Every Lyndon word longer than a letter factors as l = l1 l2 with l2 its
longest proper Lyndon suffix; the recursive commutator b(l) = [b(l1), b(l2)]
expands in the tensor algebra with the word l itself as the lex-least term.
For a presentation whose relation is a sum of commutators, the standard
words are the Lyndon words avoiding one exclusion bigram, and their
bracketings give a basis of the quotient Lie algebra; the independence
certificate checks that basis property degree by degree with exact ranks.
"""

from . import linalg
from .errors import ComputationFailure, PresentationError
from .rewrite import QuadraticPresentation, enumerate_irreducible_words, normal_form
from .words import Alphabet, NCPoly, Word, bracket


def is_lyndon(indices) -> bool:
    """Strictly smaller than every proper cyclic rotation."""
    indices = tuple(indices)
    n = len(indices)
    if n == 0:
        return False
    doubled = indices + indices
    return all(indices < doubled[i : i + n] for i in range(1, n))


def standard_factorization(indices):
    """Split l = l1 l2 with l2 the longest proper Lyndon suffix."""
    indices = tuple(indices)
    if len(indices) < 2:
        raise ValueError("single letters do not factor")
    for start in range(1, len(indices)):
        if is_lyndon(indices[start:]):
            return indices[:start], indices[start:]
    raise ComputationFailure(f"no Lyndon suffix found in {indices}")  # unreachable


class LyndonWord:
    """A Lyndon word together with its standard factorization."""

    __slots__ = ("word", "standard_factorization")

    def __init__(self, word: Word):
        if not is_lyndon(word.indices):
            raise ValueError(f"{word} is not a Lyndon word")
        object.__setattr__(self, "word", word)
        if len(word) >= 2:
            left, right = standard_factorization(word.indices)
            pair = (
                LyndonWord(Word(word.alphabet, left)),
                LyndonWord(Word(word.alphabet, right)),
            )
        else:
            pair = None
        object.__setattr__(self, "standard_factorization", pair)

    def __setattr__(self, *a):
        raise AttributeError("LyndonWord is immutable")

    @property
    def degree(self):
        return self.word.degree

    def __eq__(self, other):
        return isinstance(other, LyndonWord) and self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def __repr__(self):
        return f"LyndonWord({self.word})"

    def __str__(self):
        return str(self.word)


class LieBasisElement:
    """b(l) for a Lyndon word l: the expanded commutator in the tensor algebra.

    ``sphere_dim`` is degree + 1: the basis element in loop degree w marks a
    sphere summand S^(w+1) upstairs.
    """

    __slots__ = ("lyndon", "bracketing", "degree", "sphere_dim")

    def __init__(self, lyndon: LyndonWord, bracketing: NCPoly):
        object.__setattr__(self, "lyndon", lyndon)
        object.__setattr__(self, "bracketing", bracketing)
        object.__setattr__(self, "degree", lyndon.degree)
        object.__setattr__(self, "sphere_dim", lyndon.degree + 1)

    def __setattr__(self, *a):
        raise AttributeError("LieBasisElement is immutable")

    def __repr__(self):
        return f"b({self.lyndon}) = {self.bracketing}"


def bracket_of(l: LyndonWord, _cache=None) -> LieBasisElement:
    """Expand the recursive commutator of a Lyndon word."""
    cache = _cache if _cache is not None else {}

    def expand(lw: LyndonWord) -> NCPoly:
        key = lw.word.indices
        hit = cache.get(key)
        if hit is not None:
            return hit
        if lw.standard_factorization is None:
            poly = NCPoly.monomial(lw.word)
        else:
            left, right = lw.standard_factorization
            poly = bracket(expand(left), expand(right))
        cache[key] = poly
        return poly

    return LieBasisElement(l, expand(l))


# ---------------------------------------------------------------------------
# degree-capped generation
# ---------------------------------------------------------------------------

def _scan_lyndon(weights, cap: int, forbidden, emit):
    """DFS over prenecklaces of degree <= cap; calls emit(indices, degree)
    for each Lyndon word.  ``forbidden`` is a 0-based letter pair whose
    occurrence prunes the branch, or None.  Letters are 0-based here.
    """
    q = len(weights)
    word = []

    def rec(period, degree):
        start = word[len(word) - period]
        last = word[-1]
        for letter in range(start, q):
            if forbidden and last == forbidden[0] and letter == forbidden[1]:
                continue
            d2 = degree + weights[letter]
            if d2 > cap:
                continue
            word.append(letter)
            if letter == start:
                rec(period, d2)
            else:
                emit(word, d2)
                rec(len(word), d2)
            word.pop()

    for first in range(q):
        if weights[first] <= cap:
            word.append(first)
            emit(word, weights[first])
            rec(1, weights[first])
            word.pop()


def _count_lyndon(weights, cap: int, forbidden) -> list:
    """Counts per degree of the scan above, without materializing words."""
    q = len(weights)
    counts = [0] * (cap + 1)
    word = []
    fa, fb = forbidden if forbidden else (-1, -1)

    def rec(period, degree):
        start = word[len(word) - period]
        last = word[-1]
        for letter in range(start, q):
            if last == fa and letter == fb:
                continue
            d2 = degree + weights[letter]
            if d2 > cap:
                continue
            word.append(letter)
            if letter == start:
                rec(period, d2)
            else:
                counts[d2] += 1
                rec(len(word), d2)
            word.pop()

    for first in range(q):
        if weights[first] <= cap:
            counts[weights[first]] += 1
            word.append(first)
            rec(1, weights[first])
            word.pop()
    return counts


def enumerate_lyndon(alphabet: Alphabet, cap: int) -> dict:
    """All Lyndon words of homological degree <= cap, grouped by degree."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    by_degree = {d: [] for d in range(1, cap + 1)}
    weights = alphabet.degrees

    def emit(word0, degree):
        indices = tuple(i + 1 for i in word0)
        by_degree[degree].append(LyndonWord(Word(alphabet, indices)))

    _scan_lyndon(weights, cap, None, emit)
    for d in by_degree:
        by_degree[d].sort(key=lambda l: l.word.indices)
    return by_degree


# ---------------------------------------------------------------------------
# standard words of a quadratic Lie algebra
# ---------------------------------------------------------------------------

def exclusion_bigram(pres: QuadraticPresentation):
    """The bigram whose avoidance cuts Lyndon words down to standard ones.

    The relation must be a sum of commutators c * (xy - yx); the excluded
    bigram is then the lexicographically smallest two-letter word among the
    commutator monomials, i.e. the largest one in the length-then-reverse-lex
    order.  Returns 1-based letter indices, or None for a free presentation.
    """
    if pres.is_free:
        return None
    rel = pres.relation
    pairs = set()
    for w, c in rel.terms():
        a, b = w.indices
        if a == b:
            raise PresentationError("relation has a square term; not a sum of commutators")
        if rel.coeff(Word(pres.alphabet, (b, a))) != -c:
            raise PresentationError("relation is not antisymmetric; not a sum of commutators")
        pairs.add((a, b) if a < b else (b, a))
    return min(pairs)


def standard_lyndon(pres: QuadraticPresentation, cap: int) -> dict:
    """Standard Lyndon words of degree <= cap with their bracketings."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    excl = exclusion_bigram(pres)
    forbidden = (excl[0] - 1, excl[1] - 1) if excl else None
    alphabet = pres.alphabet
    by_degree = {d: [] for d in range(1, cap + 1)}
    cache = {}

    def emit(word0, degree):
        indices = tuple(i + 1 for i in word0)
        lw = LyndonWord(Word(alphabet, indices))
        by_degree[degree].append(bracket_of(lw, _cache=cache))

    _scan_lyndon(alphabet.degrees, cap, forbidden, emit)
    for d in by_degree:
        by_degree[d].sort(key=lambda el: el.lyndon.word.indices)
    return by_degree


def lie_dims(pres: QuadraticPresentation, cap: int) -> dict:
    """Dimension of the quotient Lie algebra in each degree 1..cap.

    Walks every standard Lyndon word and counts it (no bracketings are
    built), so the cost grows exponentially with cap: tens of seconds at
    (n, r, cap) = (2, 2, 20).  It shares no arithmetic with the Moebius
    counts, which makes it their independent oracle at small caps.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    excl = exclusion_bigram(pres)
    forbidden = (excl[0] - 1, excl[1] - 1) if excl else None
    counts = _count_lyndon(pres.alphabet.degrees, cap, forbidden)
    return {d: counts[d] for d in range(1, cap + 1)}


def independence_certificate(pres: QuadraticPresentation, cap: int) -> dict:
    """Certify that normal forms of standard bracketings are independent.

    For each degree d <= cap, stacks the normal forms of b(l) over the
    irreducible-word basis and computes the exact rank; a rank below the
    number of standard words is a hard failure (it would disprove the basis
    property and can only come from a bug).  Returns
    {degree: (count, rank, space_dim)}.  Dense linear algebra: keep cap
    small (6 is comfortable).
    """
    standard = standard_lyndon(pres, cap)
    irreducible = enumerate_irreducible_words(pres, cap)
    report = {}
    for d in range(1, cap + 1):
        elements = standard[d]
        basis_words = irreducible[d]
        index = {w: i for i, w in enumerate(basis_words)}
        rows = []
        for el in elements:
            nf = normal_form(el.bracketing, pres)
            row = [0] * len(basis_words)
            for w, c in nf._terms.items():
                row[index[w]] = c
            rows.append(row)
        rk = linalg.rank(rows, len(basis_words)) if rows else 0
        if rk != len(elements):
            raise ComputationFailure(
                f"standard bracketings of degree {d} have rank {rk} < {len(elements)}"
            )
        report[d] = (len(elements), rk, len(basis_words))
    return report
