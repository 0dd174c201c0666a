"""Single-relation diamond-lemma rewriting in a tensor algebra.

A quadratic presentation fixes one homogeneous length-2 relation whose
maximal monomial (under the degree-then-length-then-reverse-lex order) is a
bigram x_a x_b with a != b.  Rewriting that bigram away terminates and is
confluent, so every element has a unique normal form supported on the words
avoiding the bigram; those irreducible words are a basis of the quotient
algebra.

On top of the rewriting engine this module counts irreducible words per
degree (a linear recurrence over letter weights, cross-checkable against
brute enumeration), decides the single-relation Koszulness criterion, and
computes annihilator ("Koszul dual") relation spaces plus weight dimensions
of arbitrary quadratic algebras by exact rank.
"""

from collections import Counter
from fractions import Fraction

from . import linalg
from .errors import ComputationFailure, PresentationError
from .words import NCPoly, _same_alphabet


class QuadraticPresentation:
    """Alphabet plus (at most) one homogeneous length-2 relation.

    The relation is normalized so that its order-maximal word (the "leading"
    bigram) has coefficient 1; ``lower_terms`` is the polynomial it rewrites
    to, i.e. relation = leading - lower_terms, and ``_lower_items`` holds its
    (index tuple, coefficient) pairs for ``normal_form``.  A presentation
    with ``relation=None`` is the free tensor algebra.
    """

    def __init__(self, alphabet, relation: NCPoly | None = None):
        self.alphabet = alphabet
        if relation is not None and relation.is_zero():
            relation = None
        if relation is None:
            self.relation = None
            self.leading = None
            self.lower_terms = None
            self._lower_items = ()
            return

        if any(len(t) != 2 for t in relation._terms):
            raise PresentationError("relation must be homogeneous of word-length 2")
        lead = relation.max_word()
        if lead.indices[0] == lead.indices[1]:
            raise PresentationError("leading bigram must have two distinct letters")
        c = relation.coeff(lead)
        relation = relation.scale(c if c in (1, -1) else 1 / Fraction(c))
        self.relation = relation
        self.leading = lead
        self.lower_terms = NCPoly.monomial(lead) - relation
        self._lower_items = tuple(self.lower_terms._terms.items())

    @property
    def is_free(self) -> bool:
        return self.relation is None

    def leading_pair(self):
        """The (a, b) letter indices of the rewritten bigram, or None."""
        if self.is_free:
            return None
        return self.leading.indices

    def __repr__(self):
        if self.is_free:
            return f"QuadraticPresentation(free, {self.alphabet!r})"
        return f"QuadraticPresentation({self.relation} = 0, leading {self.leading})"


def normal_form(p: NCPoly, pres: QuadraticPresentation, strategy: str = "leftmost") -> NCPoly:
    """Reduce p modulo the two-sided ideal of the relation.

    Each step replaces one occurrence of the leading bigram (the leftmost or
    rightmost one, per ``strategy``) by the lower terms; both strategies
    reach the same normal form.  The result contains only irreducible words.
    """
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    _same_alphabet(p.alphabet, pres.alphabet)
    if pres.is_free:
        return p
    rightmost = strategy == "rightmost"
    a, b = pres.leading.indices
    lower = pres._lower_items

    done = {}
    pending = dict(p._terms)
    while pending:
        word, coeff = pending.popitem()
        pos = None
        if a in word:
            last = len(word) - 1
            scan = range(last - 1, -1, -1) if rightmost else range(last)
            for i in scan:
                if word[i] == a and word[i + 1] == b:
                    pos = i
                    break
        if pos is None:
            s = done.get(word, 0) + coeff
            if s:
                done[word] = s
            else:
                done.pop(word, None)
            continue
        prefix = word[:pos]
        suffix = word[pos + 2 :]
        for lower_word, lc in lower:
            w2 = prefix + lower_word + suffix
            s = pending.get(w2, 0) + coeff * lc
            if s:
                pending[w2] = s
            else:
                pending.pop(w2, None)
    return NCPoly._unchecked(pres.alphabet, done)


# ---------------------------------------------------------------------------
# counting irreducible words
# ---------------------------------------------------------------------------

def enumerate_irreducible_words(pres: QuadraticPresentation, cap: int):
    """All irreducible words of degree <= cap, grouped by degree.

    Returns {degree: [tuple]} for every degree 0..cap: each word is its tuple
    of letter indices, and ``Word(pres.alphabet, indices)`` rebuilds it.  The
    words are built one length at a time, each length's words extended in
    lex order by each allowed letter in increasing order, so every length
    comes out in lex order after all shorter words, and each degree's list is
    in (length, lex) order with no sort.  Exponential in cap; meant for
    low-degree cross-checks of the dynamic programming counts and for the
    certificate's columns.
    """
    degrees = pres.alphabet.degrees
    a, b = pres.leading_pair() or (None, None)
    letters = [(i, w) for i, w in enumerate(degrees, 1) if w <= cap]
    after_a = [(i, w) for i, w in letters if i != b]
    by_degree = {d: [] for d in range(cap + 1)}
    by_degree[0].append(())

    level = [((), 0)]  # the words of one length, in lex order, with their degrees
    while level:
        longer = []
        for word, deg in level:
            for i, w in after_a if word and word[-1] == a else letters:
                d2 = deg + w
                if d2 <= cap:
                    w2 = word + (i,)
                    longer.append((w2, d2))
                    by_degree[d2].append(w2)
        level = longer
    return by_degree


def hilbert_dims(pres: QuadraticPresentation, cap: int, weights=None) -> list:
    """Number of irreducible words in each degree 0..cap.

    ``weights`` overrides the letter degrees (e.g. all-ones for the weight
    grading).  With S_d the count in degree d and x_a x_b the forbidden
    bigram, a nonempty irreducible word is an irreducible word u followed by
    a letter x_j, and u x_j is irreducible unless u ends in x_a and j = b.
    Since a != b, appending x_a never makes the forbidden bigram, so exactly
    S_(e - w_a) words of degree e end in x_a.  Hence S_0 = 1 and

        S_d = sum_w c_w S_(d-w) - S_(d - w_a - w_b),

    with c_w the number of letters of weight w <= cap; the correction applies
    only when d >= w_a + w_b and is dropped for a free presentation.  That is
    O(distinct weights) additions per degree, O(cap) in all for a loop
    presentation, whose 2r letters have just the two weights n-1 and n.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    q = pres.alphabet.size
    wts = tuple(weights) if weights is not None else pres.alphabet.degrees
    if len(wts) != q or any(w < 1 for w in wts):
        raise ValueError("weights must assign a positive weight to every letter")
    classes = sorted(Counter(w for w in wts if w <= cap).items())  # (w, c_w), lightest first
    forbidden = pres.leading_pair()
    skip = wts[forbidden[0] - 1] + wts[forbidden[1] - 1] if forbidden else cap + 1

    dims = [1] + [0] * cap
    for d in range(1, cap + 1):
        total = 0
        for w, c in classes:
            if w > d:
                break
            total += c * dims[d - w]
        if d >= skip:
            total -= dims[d - skip]
        dims[d] = total
    return dims


def weight_dims(pres: QuadraticPresentation, cap: int) -> list:
    """Irreducible-word counts graded by word length instead of degree."""
    return hilbert_dims(pres, cap, weights=(1,) * pres.alphabet.size)


# ---------------------------------------------------------------------------
# Koszulness of a single relation
# ---------------------------------------------------------------------------

def is_koszul_single_relation(relation) -> bool:
    """Decide the one-relation Koszulness criterion.

    True iff some total reordering of the alphabet makes one bigram x_a x_b
    with a != b the strict lex-maximum of the relation's support.  Accepts a
    QuadraticPresentation or a bare length-2 NCPoly (the latter also covers
    relations, like a lone square x_a x_a, that admit no rewriting
    presentation at all).  Free presentations are Koszul.
    """
    if isinstance(relation, QuadraticPresentation):
        if relation.is_free:
            return True
        relation = relation.relation
    if relation.is_zero():
        return True
    if any(len(w) != 2 for w in relation.words()):
        raise PresentationError("relation must be homogeneous of word-length 2")
    support = [w.indices for w in relation.words()]
    for lead in support:
        a, b = lead
        if a == b:
            continue
        # constraints "x > y" needed to make `lead` the lex-max of `support`
        edges = set()
        for c, d in support:
            if (c, d) == (a, b):
                continue
            if c == a:
                edges.add((b, d))
            else:
                edges.add((a, c))
        if not _has_cycle(edges):
            return True
    return False


def _has_cycle(edges) -> bool:
    adj = {}
    for x, y in edges:
        adj.setdefault(x, set()).add(y)
    state = {}

    def visit(v):
        state[v] = 1
        for w in adj.get(v, ()):
            s = state.get(w)
            if s == 1:
                return True
            if s is None and visit(w):
                return True
        state[v] = 2
        return False

    return any(state.get(v) is None and visit(v) for v in list(adj))


# ---------------------------------------------------------------------------
# annihilator relations and generic quadratic weight dimensions
# ---------------------------------------------------------------------------

def relation_vector(relation: NCPoly, dim_v: int) -> dict:
    """A length-2 relation as a row over the dim(V)^2 coordinates of V tensor V.

    The word x_i x_j is coordinate (i-1)*dim(V) + (j-1), row-major.  A
    letter outside 1..dim(V) raises ValueError: it would land on another
    word's coordinate.
    """
    row = {}
    for word, c in relation._terms.items():
        if len(word) != 2:
            raise ValueError("relation must be homogeneous of word-length 2")
        for letter in word:
            if not 1 <= letter <= dim_v:
                raise ValueError(f"letter x{letter} is outside x1..x{dim_v}")
        i, j = word
        row[(i - 1) * dim_v + j - 1] = c
    return row


def koszul_dual(dim_v: int, relations, char: int = 0) -> list:
    """Annihilator R-perp of a relation subspace under the evaluation pairing.

    ``relations`` are linearly independent {coordinate: coefficient} rows
    over the dim(V)^2 coordinates of V tensor V.  Returns an exact basis of
    the functionals vanishing on them, as rows with coordinate
    i*dim(V) + j for (dual i) tensor (dual j); its size, dim(V)^2 -
    #relations, is by rank-nullity the independence check.
    """
    n2 = dim_v * dim_v
    perp = linalg.nullspace(relations, n2, char)
    if len(perp) != n2 - len(relations):
        raise ValueError("relations are linearly dependent")
    return perp


# Largest number of entries that quadratic_weight_dims lets its elimination
# hold for one weight.  A weight-w matrix has nrows = (w-1) * dim V^(w-2) *
# #R rows of at most nnz entries each, nnz the most entries of a relation
# row, over ncols = dim V^w columns.  The elimination holds the input rows
# plus its stored pivot rows; those number at most the rank, so at most
# min(nrows, ncols), and each has at most ncols entries.  So it never holds
# more than nrows * nnz + min(nrows, ncols) * ncols entries, and that bound is
# checked before any row is built.  The form algebra with s = r + torsion
# rank has dim V = 2s and 4s^2 - 1 kernel relations of at most 2 entries, so
# its weight-3 bound is 2 * 2s * (4s^2 - 1) * 2 + (2s)^6; the Koszul dual of
# the rank-s loop algebra has the same size.  Over Q (Python 3.11, one Xeon
# core; time, process peak RSS) s = 6 takes 0.05 s and 15 MB, and s = 7
# (bound 7,540,456) 0.08 s and 16 MB; mod 3 and mod 7, s = 7 takes 0.03 s.
# The limit admits s <= 7 and refuses s = 8 (bound 16,793,536).
MAX_CELLS = 8_000_000


def quadratic_weight_dims(dim_v: int, relations, cap: int, char: int = 0) -> list:
    """Weight dimensions of T(V)/(R) for an arbitrary relation span R.

    dim A_w = dim V^(tensor w) minus the rank of the span of all
    V^i tensor R tensor V^j with i+j = w-2, computed by exact elimination on
    sparse rows, each a relation shifted into place.  Once some weight hits
    zero all later weights are zero (the algebra is generated in weight
    one).  ``relations`` are {coordinate: coefficient} rows over V tensor V,
    as for koszul_dual; a coordinate outside 0..dim(V)^2 - 1 raises
    ValueError at every cap.  Before building a weight's rows, the bound on
    the entries its elimination can hold (see MAX_CELLS) is checked, and a
    larger one raises ComputationFailure.
    """
    rels = list(relations)
    for rel in rels:  # weights 0 and 1 eliminate nothing, and a shift can hide a bad one
        if rel and (min(rel) < 0 or max(rel) >= dim_v * dim_v):
            raise ValueError(f"a relation has a coordinate outside 0..{dim_v * dim_v - 1}")
    nnz = max((len(rel) for rel in rels), default=0)
    dims = [1]
    if cap >= 1:
        dims.append(dim_v)
    for w in range(2, cap + 1):
        ncols = dim_v**w
        if not rels:
            dims.append(ncols)
            continue
        nrows = (w - 1) * dim_v ** (w - 2) * len(rels)
        cells = nrows * nnz + min(nrows, ncols) * ncols
        if cells > MAX_CELLS:
            raise ComputationFailure(
                f"weight {w} needs {nrows} rows over {ncols} columns, up to {cells} "
                f"stored entries, over the limit of {MAX_CELLS}; refusing elimination"
            )
        rows = []
        for split in range(w - 1):
            right = dim_v ** (w - 2 - split)
            for rel in rels:
                for li in range(dim_v**split):
                    base = li * dim_v * dim_v * right
                    for ri in range(right):
                        rows.append({base + pos * right + ri: c for pos, c in rel.items()})
        dims.append(ncols - linalg.rank(rows, ncols, char))
        if dims[-1] == 0:
            dims.extend([0] * (cap - w))
            break
    return dims[: cap + 1]
