"""Single-relation diamond-lemma rewriting in a tensor algebra.

A quadratic presentation fixes one homogeneous length-2 relation whose
maximal monomial (under the degree-then-length-then-reverse-lex order) is a
bigram x_a x_b with a != b.  Rewriting that bigram away terminates and is
confluent, so every element has a unique normal form supported on the words
avoiding the bigram; those irreducible words are a basis of the quotient
algebra.

On top of the rewriting engine this module counts irreducible words per
degree (transfer-matrix dynamic programming, cross-checkable against brute
enumeration), decides the single-relation Koszulness criterion, and computes
annihilator ("Koszul dual") relation spaces plus weight dimensions of
arbitrary quadratic algebras by exact rank.
"""

from fractions import Fraction

from . import linalg
from .errors import ComputationFailure, PresentationError
from .words import NCPoly, Word, _same_alphabet, find_bigram


class QuadraticPresentation:
    """Alphabet plus (at most) one homogeneous length-2 relation.

    The relation is normalized so that its order-maximal word (the "leading"
    bigram) has coefficient 1; ``lower_terms`` is the polynomial it rewrites
    to, i.e. relation = leading - lower_terms.  A presentation with
    ``relation=None`` is the free tensor algebra.
    """

    def __init__(self, alphabet, relation: NCPoly | None = None):
        self.alphabet = alphabet
        if relation is not None and relation.is_zero():
            relation = None
        if relation is None:
            self.relation = None
            self.leading = None
            self.lower_terms = None
            return

        if any(len(w) != 2 for w in relation.words()):
            raise PresentationError("relation must be homogeneous of word-length 2")
        lead = relation.max_word()
        if lead.indices[0] == lead.indices[1]:
            raise PresentationError("leading bigram must have two distinct letters")
        c = relation.coeff(lead)
        relation = relation.scale(Fraction(1, 1) / c if c != 1 else 1)
        self.relation = relation
        self.leading = lead
        self.lower_terms = NCPoly.monomial(lead) - relation

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


def is_irreducible(word: Word, pres: QuadraticPresentation) -> bool:
    """True iff the leading bigram does not occur contiguously in the word."""
    if pres.is_free:
        return True
    a, b = pres.leading_pair()
    return find_bigram(word.indices, a, b) is None


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
    a, b = pres.leading_pair()
    lower = list(pres.lower_terms._terms.items())

    done = {}
    pending = dict(p._terms)
    while pending:
        word, coeff = pending.popitem()
        pos = find_bigram(word, a, b, rightmost)
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
    of letter indices, ``Word(pres.alphabet, indices)`` rebuilds it, and each
    list is in (length, lex) order.  Exponential in cap; meant for
    low-degree cross-checks of the dynamic programming counts and for the
    certificate's columns.
    """
    alphabet = pres.alphabet
    forbidden = pres.leading_pair()
    degrees = alphabet.degrees
    by_degree = {d: [] for d in range(cap + 1)}
    by_degree[0].append(())

    stack = [((i,), degrees[i - 1]) for i in range(1, alphabet.size + 1) if degrees[i - 1] <= cap]
    while stack:
        indices, deg = stack.pop()
        by_degree[deg].append(indices)
        last = indices[-1]
        for i in range(1, alphabet.size + 1):
            if forbidden and last == forbidden[0] and i == forbidden[1]:
                continue
            d2 = deg + degrees[i - 1]
            if d2 <= cap:
                stack.append((indices + (i,), d2))
    for words in by_degree.values():
        words.sort(key=lambda w: (len(w), w))
    return by_degree


def hilbert_dims(pres: QuadraticPresentation, cap: int, weights=None) -> list:
    """Number of irreducible words in each degree 0..cap.

    ``weights`` overrides the letter degrees (e.g. all-ones for the weight
    grading).  Transfer-matrix recursion on the last letter: appending x_j to
    the S_d words of degree d adds S_d words ending in x_j, less those ending
    in x_a when x_a x_j is the forbidden bigram: O(letters) additions per
    degree.  Degree d feeds only degrees up to d + max(weights), so only that
    many rows of per-letter counts are kept, each cleared once read.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    alphabet = pres.alphabet
    q = alphabet.size
    wts = tuple(weights) if weights is not None else alphabet.degrees
    if len(wts) != q or any(w < 1 for w in wts):
        raise ValueError("weights must assign a positive weight to every letter")
    forbidden = pres.leading_pair()
    f_last, f_next = (forbidden[0] - 1, forbidden[1] - 1) if forbidden else (None, None)

    # ring[d % width][i] = number of irreducible words of degree d ending in letter i+1
    width = min(max(wts), cap) + 1  # a letter heavier than cap is never placed
    ring = [[0] * q for _ in range(width)]
    for i in range(q):
        if wts[i] <= cap:
            ring[wts[i]][i] += 1
    dims = [0] * (cap + 1)
    for d in range(cap + 1):
        row = ring[d % width]
        ring[d % width] = [0] * q
        dims[d] = total = sum(row)
        for nxt, w in enumerate(wts):
            if d + w <= cap:
                ring[(d + w) % width][nxt] += (total - row[f_last]) if nxt == f_next else total
    dims[0] += 1  # empty word
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

def relation_vector(relation: NCPoly, dim_v: int) -> list:
    """Flatten a length-2 relation into dim(V)^2 coordinates (row-major)."""
    vec = [0] * (dim_v * dim_v)
    for w, c in relation.terms():
        if len(w) != 2:
            raise ValueError("relation must be homogeneous of word-length 2")
        i, j = w.indices
        vec[(i - 1) * dim_v + (j - 1)] = c
    return vec


class KoszulDualData:
    """Dual generators with the annihilator relation space R-perp.

    ``vdims`` echoes the graded dimensions of the input generators (the dual
    generators have the same count); ``perp_basis`` is an exact basis of the
    annihilator of the input relation span inside the dim(V)^2 coordinate
    space, row i*dim(V)+j meaning (dual i) tensor (dual j).
    """

    def __init__(self, vdims, perp_basis):
        self.vdims = tuple(vdims)
        self.perp_basis = [tuple(v) for v in perp_basis]

    @property
    def dim_v(self):
        return sum(d for _deg, d in self.vdims)

    def __repr__(self):
        return f"KoszulDualData(dim V = {self.dim_v}, dim R-perp = {len(self.perp_basis)})"


def koszul_dual(vdims, relation_vectors, char: int = 0) -> KoszulDualData:
    """Annihilator of a relation subspace under the evaluation pairing.

    ``relation_vectors`` must be linearly independent vectors of length
    dim(V)^2 (coordinates of V tensor V).  The returned basis spans all
    functionals vanishing on them; its size is dim(V)^2 - #relations.
    """
    m = sum(d for _deg, d in vdims)
    n2 = m * m
    rows = [list(v) for v in relation_vectors]
    for v in rows:
        if len(v) != n2:
            raise ValueError(f"relation vector length {len(v)} != dim(V)^2 = {n2}")
    if linalg.rank(rows, n2, char) != len(rows):
        raise ValueError("relation vectors are linearly dependent")
    perp = linalg.nullspace(rows, n2, char)
    if len(perp) != n2 - len(rows):
        raise ComputationFailure("annihilator dimension mismatch")
    return KoszulDualData(vdims, perp)


# Largest dense matrix, in rows x columns, that quadratic_weight_dims will
# build.  The form algebra with s = r + torsion rank has dim V = 2s and
# 4s^2 - 1 kernel relations, so its weight-3 matrix is 2 * 2s * (4s^2 - 1)
# rows by (2s)^3 columns, and the Koszul dual of the rank-s loop algebra has
# the same size.  Over Q (Python 3.11, x86_64 Xeon core; time, process peak
# RSS) s = 4 is 516,096 cells (0.09 s, 19 MB), s = 5 is 1,980,000 (0.26 s,
# 31 MB) and s = 6 is 5,930,496 (0.41 s, 61 MB); mod 7 each takes at most
# 0.4 s.  Since the rank is sparse, time no longer binds; the limit bounds
# the memory of the dense rows built here.  It admits s <= 6 and refuses
# s = 7 (14,982,240 cells).
MAX_CELLS = 8_000_000


def quadratic_weight_dims(dim_v: int, relation_vectors, cap: int, char: int = 0) -> list:
    """Weight dimensions of T(V)/(R) for an arbitrary relation span R.

    dim A_w = dim V^(tensor w) minus the rank of the span of all
    V^i tensor R tensor V^j with i+j = w-2, computed by exact elimination.
    Once some weight hits zero all later weights are zero (the algebra is
    generated in weight one).  Before building a weight's matrix, its size
    (w-1) * dim V^(w-2) * #R rows by dim V^w columns is checked against
    MAX_CELLS, and a larger one raises ComputationFailure.
    """
    rows0 = [tuple(v) for v in relation_vectors]
    for v in rows0:
        if len(v) != dim_v * dim_v:
            raise ValueError("relation vectors must live in dim(V)^2 coordinates")
    dims = [1]
    if cap >= 1:
        dims.append(dim_v)
    for w in range(2, cap + 1):
        ncols = dim_v**w
        if not rows0:
            dims.append(ncols)
            continue
        nrows = (w - 1) * dim_v ** (w - 2) * len(rows0)
        if nrows * ncols > MAX_CELLS:
            raise ComputationFailure(
                f"weight {w} needs {nrows} x {ncols} dense cells, over the "
                f"limit of {MAX_CELLS}; refusing elimination"
            )
        rows = []
        for split in range(w - 1):
            left = dim_v**split
            right = dim_v ** (w - 2 - split)
            for rel in rows0:
                for li in range(left):
                    for ri in range(right):
                        row = [0] * ncols
                        base = li * dim_v * dim_v * right
                        for pos, c in enumerate(rel):
                            if c:
                                row[base + pos * right + ri] = c
                        rows.append(row)
        dims.append(ncols - linalg.rank(rows, ncols, char))
        if dims[-1] == 0:
            dims.extend([0] * (cap - w))
            break
    return dims[: cap + 1]
