"""Weighted alphabets, words and noncommutative polynomials.

This is the substrate for tensor algebras on a graded module: an ordered
alphabet of letters 1..size with positive integer degrees, words over it,
and finitely supported linear combinations of words with exact (integer or
Fraction) coefficients, all immutable and so safe to share between threads.
A word is the plain tuple of its letter indices, ``()`` the empty word, in
every layer and every public function; the alphabet gives a word's degree
and its spelling in labels:

>>> ab = Alphabet.from_degrees((1, 2), labels=("a", "b"))
>>> p = NCPoly(ab, {(1, 2): 1, (2, 1): -1})
>>> print(p)
ab - ba
>>> p.max_word(), ab.degree((1, 2)), ab.spell(())
((1, 2), 3, '1')
>>> NCPoly(ab, {(1, 3): 1})
Traceback (most recent call last):
    ...
ValueError: letter 3 is outside 1..2

The ``NCPoly`` constructor and the alphabet's ``degree`` and ``spell``,
where words enter from outside, check their letters.  ``NCPoly._unchecked``
does not: it is for the polynomial arithmetic, rewriting and fuzzing, which
build their words from the alphabet's own range and drop zero coefficients
themselves.  The rewriting order on words is degree, then length, then
reverse lexicographic order on letter indices; ``NCPoly.max_word`` finds
its maximum.
"""

from .errors import AlphabetMismatch


class Alphabet:
    """A fixed totally ordered list of letters 1..size, each with a degree and a label."""

    def __init__(self, degrees, labels):
        degrees, labels = tuple(degrees), tuple(labels)
        if not degrees:
            raise ValueError("alphabet must be nonempty")
        if len(labels) != len(degrees):
            raise ValueError("need one label per letter")
        if any(d < 1 for d in degrees):
            raise ValueError("letter degree must be >= 1")
        self._degrees = degrees
        self._labels = labels

    @classmethod
    def from_degrees(cls, degrees, labels=None):
        if labels is None:
            labels = [f"x{i}" for i in range(1, len(degrees) + 1)]
        return cls(degrees, labels)

    @property
    def degrees(self):
        return self._degrees

    @property
    def size(self):
        return len(self._degrees)

    def degree(self, word) -> int:
        """The degree of a word over this alphabet: the sum of its letters' degrees."""
        _check_letters(word, self.size)
        return sum(self._degrees[i - 1] for i in word)

    def spell(self, word) -> str:
        """A word over this alphabet in its letters' labels, ``"1"`` for the empty word."""
        _check_letters(word, self.size)
        return "".join(self._labels[i - 1] for i in word) or "1"

    def __eq__(self, other):
        return (
            isinstance(other, Alphabet)
            and self._degrees == other._degrees
            and self._labels == other._labels
        )

    def __hash__(self):
        return hash((self._degrees, self._labels))

    def __repr__(self):
        return f"Alphabet({', '.join(self._labels)})"


def _check_letters(word, size):
    """Raise ValueError unless every letter of the word lies in 1..size.

    A letter 0 or below would otherwise index the alphabet from its end.
    """
    for i in word:
        if not 1 <= i <= size:
            raise ValueError(f"letter {i} is outside 1..{size}")


def _same_alphabet(a, b):
    if not (a is b or a == b):
        raise AlphabetMismatch(f"{a!r} vs {b!r}")


class NCPoly:
    """Exact-coefficient noncommutative polynomial: a finite map word -> coeff.

    Words are letter-index tuples; coefficients are ints or Fractions, and
    zero terms are never stored.  Instances are immutable; arithmetic returns
    new objects.
    """

    __slots__ = ("alphabet", "_terms")

    def __init__(self, alphabet: Alphabet, terms=None):
        size = alphabet.size
        clean = {}
        for word, coeff in (terms or {}).items():
            if type(word) is not tuple:
                raise TypeError("NCPoly keys must be tuples of letter indices")
            _check_letters(word, size)
            if coeff != 0:
                clean[word] = coeff
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _unchecked(cls, alphabet: Alphabet, terms: dict) -> "NCPoly":
        """An NCPoly owning ``terms``, unchecked: valid index tuples, no zero coefficients."""
        p = object.__new__(cls)
        _set_poly_alphabet(p, alphabet)
        _set_poly_terms(p, terms)
        return p

    def __setattr__(self, *a):
        raise AttributeError("NCPoly is immutable")

    # ---- constructors -------------------------------------------------
    @classmethod
    def zero(cls, alphabet):
        return cls(alphabet, {})

    @classmethod
    def letter(cls, alphabet, index: int):
        return cls(alphabet, {(index,): 1})

    # ---- inspection ----------------------------------------------------
    def terms(self):
        """Deterministic (word, coeff) pairs, sorted by (degree, length, lex)."""
        degree = self.alphabet.degree
        return sorted(self._terms.items(), key=lambda t: (degree(t[0]), len(t[0]), t[0]))

    def coeff(self, word):
        return self._terms.get(word, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def term_count(self) -> int:  # the benchmark's trace counts normal-form terms with it
        return len(self._terms)

    def max_word(self):
        """The maximal word in the rewriting order.

        Only the terms of top degree, then of top length among those, are
        compared further; at equal degree and length the reverse-lex maximum
        is the lex-smallest index tuple.
        """
        if not self._terms:
            raise ValueError("zero polynomial has no maximal word")
        weight = (0,) + self.alphabet.degrees  # weight[i] is the degree of letter i
        top, tops = -1, []
        for t in self._terms:
            d = sum(map(weight.__getitem__, t))
            if d > top:
                top, tops = d, [t]
            elif d == top:
                tops.append(t)
        longest = max(map(len, tops))
        return min(t for t in tops if len(t) == longest)

    # ---- arithmetic ----------------------------------------------------
    def __add__(self, other: "NCPoly") -> "NCPoly":
        _same_alphabet(self.alphabet, other.alphabet)
        out = dict(self._terms)
        for w, c in other._terms.items():
            s = out.get(w, 0) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return NCPoly._unchecked(self.alphabet, out)

    def __neg__(self):
        return NCPoly._unchecked(self.alphabet, {w: -c for w, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "NCPoly":
        if c == 0:
            return NCPoly.zero(self.alphabet)
        return NCPoly._unchecked(self.alphabet, {w: c * v for w, v in self._terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, NCPoly)
            and self.alphabet == other.alphabet
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for w, c in self.terms():
            s = self.alphabet.spell(w)
            if c == 1:
                parts.append(s if parts == [] else f"+ {s}")
            elif c == -1:
                parts.append(f"- {s}")
            else:
                sign = "- " if c < 0 else ("+ " if parts else "")
                parts.append(f"{sign}{abs(c)}*{s}")
        return " ".join(parts)

    __repr__ = __str__


_set_poly_alphabet = NCPoly.alphabet.__set__
_set_poly_terms = NCPoly._terms.__set__


def bracket(p: NCPoly, q: NCPoly) -> NCPoly:
    """Commutator [p, q] = pq - qp in the tensor algebra (ungraded).

    One pass over the pairs of terms adds c * e at uv and subtracts it at vu;
    the terms that cancel are dropped once, at the end.

    >>> ab = Alphabet.from_degrees((1, 1), labels=("a", "b"))
    >>> a, b = NCPoly.letter(ab, 1), NCPoly.letter(ab, 2)
    >>> bracket(a, NCPoly(ab, {(2, 2): 3}))
    3*abb - 3*bba
    >>> bracket(a + b, a + b)
    0
    """
    _same_alphabet(p.alphabet, q.alphabet)
    out = {}
    get = out.get
    for u, c in p._terms.items():
        for v, e in q._terms.items():
            ce = c * e
            uv = u + v
            out[uv] = get(uv, 0) + ce
            vu = v + u
            out[vu] = get(vu, 0) - ce
    return NCPoly._unchecked(p.alphabet, {w: c for w, c in out.items() if c})
