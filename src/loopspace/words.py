"""Weighted alphabets, words and noncommutative polynomials.

This is the substrate for tensor algebras on a graded module: an ordered
alphabet of letters with positive integer degrees, finite words over it, and
finitely supported linear combinations of words with exact (integer or
Fraction) coefficients.  All values are immutable once built and safe to
share between threads.

Inside polynomials, and in the rewriting and Lyndon layers, a word is its
tuple of letter indices.  ``Word``, which checks its letters and knows its
degree, is the boundary type that public methods take and hand out.

``Word._unchecked`` and ``NCPoly._unchecked`` skip those checks.  They are
for code that builds its index tuples from the alphabet's own range, and so
knows them valid: the Lyndon walk, which also knows each word's degree, and
the polynomial arithmetic, rewriting and fuzzing, which drop zero
coefficients themselves.

``index_key`` is the rewriting order on index tuples, and ``rewrite_key`` on
Words: degree, then length, then reverse lexicographic order on letter
indices.
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
    def labels(self):
        return self._labels

    @property
    def size(self):
        return len(self._degrees)

    def word(self, indices) -> "Word":
        return Word(self, indices)

    def one(self) -> "Word":
        return Word(self, ())

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


def _same_alphabet(a, b):
    if not (a is b or a == b):
        raise AlphabetMismatch(f"{a!r} vs {b!r}")


class Word:
    """An immutable word; stores letter indices, not letter objects."""

    __slots__ = ("alphabet", "indices", "degree")

    def __init__(self, alphabet: Alphabet, indices):
        indices = tuple(indices)
        degs = alphabet.degrees
        for i in indices:
            if not 1 <= i <= alphabet.size:
                raise ValueError(f"letter index {i} outside alphabet")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "degree", sum(degs[i - 1] for i in indices))

    @classmethod
    def _unchecked(cls, alphabet: Alphabet, indices: tuple, degree: int) -> "Word":
        """A Word of ``indices``, unchecked: a valid index tuple of this degree."""
        w = object.__new__(cls)
        _set_word_alphabet(w, alphabet)
        _set_word_indices(w, indices)
        _set_word_degree(w, degree)
        return w

    def __setattr__(self, *a):
        raise AttributeError("Word is immutable")

    def __len__(self):
        return len(self.indices)

    def __mul__(self, other: "Word") -> "Word":
        _same_alphabet(self.alphabet, other.alphabet)
        return Word(self.alphabet, self.indices + other.indices)

    def __eq__(self, other):
        return (
            isinstance(other, Word)
            and self.indices == other.indices
            and self.alphabet == other.alphabet
        )

    def __hash__(self):
        return hash(self.indices)

    def __repr__(self):
        return f"Word({self})"

    def __str__(self):
        if not self.indices:
            return "1"
        labels = self.alphabet._labels
        return "".join(labels[i - 1] for i in self.indices)


# The unchecked constructors store each slot through its descriptor's
# __set__, one C call that bypasses the refusing __setattr__.
_set_word_alphabet = Word.alphabet.__set__
_set_word_indices = Word.indices.__set__
_set_word_degree = Word.degree.__set__


def index_key(degrees, indices: tuple):
    """Sort key for the rewriting order on a letter-index tuple: degree, then
    length, then reverse lex.  Larger key = larger in the rewriting order, so
    the lex-*smallest* word of a given degree and length is the maximal one.
    """
    return (sum(degrees[i - 1] for i in indices), len(indices), tuple(-i for i in indices))


def rewrite_key(w: Word):
    """``index_key`` of a Word."""
    return index_key(w.alphabet.degrees, w.indices)


class NCPoly:
    """Exact-coefficient noncommutative polynomial: a finite map word -> coeff.

    Terms are stored keyed by letter-index tuples, never by Words.  The
    constructor and ``coeff`` take Words; ``terms``, ``words``, ``max_word``
    and ``min_lex_word`` build the Words they return.  Coefficients are ints
    or Fractions; zero terms are never stored.  Instances are immutable;
    arithmetic returns new objects.
    """

    __slots__ = ("alphabet", "_terms")

    def __init__(self, alphabet: Alphabet, terms=None):
        clean = {}
        for word, coeff in (terms or {}).items():
            if not isinstance(word, Word):
                raise TypeError("NCPoly keys must be Words")
            _same_alphabet(alphabet, word.alphabet)
            if coeff != 0:
                clean[word.indices] = coeff
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
    def one(cls, alphabet):
        return cls(alphabet, {alphabet.one(): 1})

    @classmethod
    def monomial(cls, word: Word, coeff=1):
        return cls(word.alphabet, {word: coeff})

    @classmethod
    def letter(cls, alphabet, index: int):
        return cls.monomial(alphabet.word((index,)))

    # ---- inspection ----------------------------------------------------
    def terms(self):
        """Deterministic (word, coeff) pairs, sorted by (degree, length, lex)."""
        alphabet = self.alphabet
        return sorted(
            ((Word(alphabet, t), c) for t, c in self._terms.items()),
            key=lambda t: (t[0].degree, len(t[0]), t[0].indices),
        )

    def coeff(self, word: Word):
        """The coefficient of ``word``; 0 for a word over another alphabet."""
        if word.alphabet != self.alphabet:
            return 0
        return self._terms.get(word.indices, 0)

    def words(self):
        alphabet = self.alphabet
        return {Word(alphabet, t) for t in self._terms}

    def is_zero(self) -> bool:
        return not self._terms

    def term_count(self) -> int:
        return len(self._terms)

    def max_word(self) -> Word:
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
        return Word(self.alphabet, min(t for t in tops if len(t) == longest))

    def min_lex_word(self) -> Word:
        if not self._terms:
            raise ValueError("zero polynomial has no minimal word")
        return Word(self.alphabet, min(self._terms))

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

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        if not isinstance(other, NCPoly):
            return NotImplemented  # scalars go through scale
        _same_alphabet(self.alphabet, other.alphabet)
        out = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = w1 + w2
                s = out.get(w, 0) + c1 * c2
                if s:
                    out[w] = s
                else:
                    out.pop(w, None)
        return NCPoly._unchecked(self.alphabet, out)

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
            s = str(w)
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
    >>> bracket(a, b * b.scale(3))
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
