"""Single-relation diamond-lemma rewriting in a tensor algebra.

A quadratic presentation fixes one homogeneous length-2 relation whose
maximal word (under the degree-then-length-then-reverse-lex order) is a
bigram x_a x_b with a != b.  Rewriting that bigram away terminates and is
confluent, so every element has a unique normal form supported on the words
avoiding the bigram; those irreducible words are a basis of the quotient
algebra.

On top of the rewriting engine this module counts irreducible words per
degree, by a linear recurrence over letter weights that is
cross-checkable against brute enumeration, and lists them.  The Koszul
duality of these algebras is checked by the test suite's Koszul oracle.
"""

from collections import Counter

from .errors import PresentationError
from .words import NCPoly, _same_alphabet


class QuadraticPresentation:
    """Alphabet plus (at most) one homogeneous length-2 relation.

    The relation is normalized so that its order-maximal word, the
    ``leading`` bigram (a, b), has coefficient 1; ``lower_terms`` is the
    polynomial it rewrites to, i.e. relation = leading - lower_terms, and
    ``_lower_items`` holds its (word, coefficient) pairs for ``normal_form``.
    With ``relation=None`` (and ``leading`` None) it is the free algebra.
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
        if lead[0] == lead[1]:
            raise PresentationError("leading bigram must have two distinct letters")
        c = relation.coeff(lead)
        if c not in (1, -1):
            from fractions import Fraction  # only a non-unit leading coefficient needs it

            c = 1 / Fraction(c)
        relation = relation.scale(c)
        self.relation = relation
        self.leading = lead
        self.lower_terms = NCPoly._unchecked(relation.alphabet, {lead: 1}) - relation
        self._lower_items = tuple(self.lower_terms._terms.items())

    @property
    def is_free(self) -> bool:
        return self.relation is None

    def __repr__(self):
        if self.is_free:
            return f"QuadraticPresentation(free, {self.alphabet!r})"
        lead = self.relation.alphabet.spell(self.leading)
        return f"QuadraticPresentation({self.relation} = 0, leading {lead})"


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
    a, b = pres.leading
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

    Returns {degree: [word]} for every degree 0..cap, each word a tuple of
    letter indices.  The words are built one length at a time, each length's
    words extended in lex order by each allowed letter in increasing order,
    so every length comes out in lex order after all shorter words, and each
    degree's list is in (length, lex) order with no sort.  Exponential in
    cap; meant for low-degree cross-checks of the dynamic programming counts
    and for the certificate's columns.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    degrees = pres.alphabet.degrees
    a, b = pres.leading or (None, None)
    letters = [(i, w) for i, w in enumerate(degrees, 1) if w <= cap]
    after_a = [(i, w) for i, w in letters if i != b]
    by_degree = {d: [] for d in range(cap + 1)}
    by_degree[0].append(())
    full = cap - min((w for _, w in letters), default=0)  # the most a word may weigh to extend

    level = [((), 0)]  # the words of one length, in lex order, with their degrees
    while level:
        longer = []
        for word, deg in level:
            for i, w in after_a if word and word[-1] == a else letters:
                d2 = deg + w
                if d2 <= cap:
                    w2 = word + (i,)
                    by_degree[d2].append(w2)
                    if d2 <= full:
                        longer.append((w2, d2))
        level = longer
    return by_degree


def hilbert_dims(pres: QuadraticPresentation, cap: int) -> list:
    """Number of irreducible words in each degree 0..cap.

    With S_d the count in degree d, w_j the degree (weight) of letter x_j
    and x_a x_b the forbidden bigram, a nonempty irreducible word is an
    irreducible word u followed by a letter x_j, and u x_j is irreducible
    unless u ends in x_a and j = b.  Since a != b, appending x_a never makes
    the forbidden bigram, so exactly S_(e - w_a) words of degree e end in
    x_a.  Hence S_0 = 1 and

        S_d = sum_w c_w S_(d-w) - S_(d - w_a - w_b),

    with c_w the number of letters of weight w <= cap; the correction applies
    only when d >= w_a + w_b and is dropped for a free presentation.  That is
    O(distinct weights) additions per degree, O(cap) in all for a loop
    presentation, whose 2r letters have just the two weights n-1 and n.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    wts = pres.alphabet.degrees
    classes = sorted(Counter(w for w in wts if w <= cap).items())  # (w, c_w), lightest first
    forbidden = pres.leading
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
