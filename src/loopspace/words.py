"""Weighted alphabets, words and noncommutative polynomials.

This is the substrate for tensor algebras on a graded module: an ordered
alphabet of letters with positive integer degrees, finite words over it, and
finitely supported linear combinations of words with exact (integer or
Fraction) coefficients.  All values are immutable once built and safe to
share between threads.

``rewrite_key`` is the rewriting order on words: degree, then length, then
reverse lexicographic order on letter indices.
"""

from fractions import Fraction

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
        """A Word from a tuple of valid letter indices and its known degree, unchecked."""
        w = object.__new__(cls)
        _set_alphabet(w, alphabet)
        _set_indices(w, indices)
        _set_degree(w, degree)
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

    def find_bigram(self, a: int, b: int, rightmost=False):
        """Position of a contiguous occurrence of letters (a, b), else None."""
        idx = self.indices
        rng = range(len(idx) - 2, -1, -1) if rightmost else range(len(idx) - 1)
        for i in rng:
            if idx[i] == a and idx[i + 1] == b:
                return i
        return None

    def contains_bigram(self, a: int, b: int) -> bool:
        return self.find_bigram(a, b) is not None


# Slot setters for Word._unchecked, which skips __init__ and the refusing
# __setattr__; called directly, they cost less than object.__setattr__.
_set_alphabet = Word.alphabet.__set__
_set_indices = Word.indices.__set__
_set_degree = Word.degree.__set__


def rewrite_key(w: Word):
    """Sort key for the rewriting order: degree, then length, then reverse lex.

    Larger key = larger in the rewriting order, so the lex-*smallest* word of
    a given degree and length is the maximal one.
    """
    return (w.degree, len(w), tuple(-i for i in w.indices))


class NCPoly:
    """Exact-coefficient noncommutative polynomial: a finite map Word -> coeff.

    Coefficients are ints or Fractions; zero terms are never stored.
    Instances are immutable; arithmetic returns new objects.
    """

    __slots__ = ("alphabet", "_terms")

    def __init__(self, alphabet: Alphabet, terms=None):
        clean = {}
        for word, coeff in (terms or {}).items():
            if not isinstance(word, Word):
                raise TypeError("NCPoly keys must be Words")
            _same_alphabet(alphabet, word.alphabet)
            if coeff != 0:
                clean[word] = coeff
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _unchecked(cls, alphabet: Alphabet, terms: dict) -> "NCPoly":
        """An NCPoly owning ``terms``, unchecked: Words over ``alphabet``, no zero coefficients."""
        p = object.__new__(cls)
        object.__setattr__(p, "alphabet", alphabet)
        object.__setattr__(p, "_terms", terms)
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
        return sorted(
            self._terms.items(), key=lambda t: (t[0].degree, len(t[0]), t[0].indices)
        )

    def coeff(self, word: Word):
        return self._terms.get(word, 0)

    def words(self):
        return set(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def term_count(self) -> int:
        return len(self._terms)

    def homogeneous_degree(self):
        degs = {w.degree for w in self._terms}
        if len(degs) != 1:
            return None
        return degs.pop()

    def max_word(self) -> Word:
        """The maximal word in the rewriting order."""
        if not self._terms:
            raise ValueError("zero polynomial has no maximal word")
        return max(self._terms, key=rewrite_key)

    def min_lex_word(self) -> Word:
        if not self._terms:
            raise ValueError("zero polynomial has no minimal word")
        return min(self._terms, key=lambda w: w.indices)

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
        return NCPoly(self.alphabet, {w: c * v for w, v in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        _same_alphabet(self.alphabet, other.alphabet)
        out = {}
        alphabet = self.alphabet
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = Word._unchecked(alphabet, w1.indices + w2.indices, w1.degree + w2.degree)
                s = out.get(w, 0) + c1 * c2
                if s:
                    out[w] = s
                else:
                    out.pop(w, None)
        return NCPoly._unchecked(alphabet, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

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


def bracket(p: NCPoly, q: NCPoly) -> NCPoly:
    """Commutator [p, q] = pq - qp in the tensor algebra (ungraded)."""
    return p * q - q * p
