"""Lyndon words over weighted alphabets and bases of quadratic Lie algebras.

A Lyndon word is lexicographically strictly smaller than all of its proper
cyclic rotations.  Every enumeration here is one depth-first walk over
prenecklaces by homological degree: a prenecklace of length t and period p
extends by any letter >= the one p positions back, and is Lyndon exactly when
its period equals its length.  The walk prunes on the degree cap, and
optionally on a forbidden bigram.  It counts the words per degree and can
list them too, already in lex order, as it emits a word before its
extensions and tries letters in increasing order.

A list of words costs a step per word, cut as in the constant-amortised-time
prenecklace walks of Cattell, Ruskey, Sawada, Serra and Miers (J.
Algorithms 2000).  The letters a node may append are precomputed, per
letter p positions back, per "last letter opens the forbidden bigram" and
per room left under the cap, so the inner loop tests neither the cap nor
the bigram.  And a child with no room for another letter, most of the
nodes, is counted (and listed) in its parent's loop, with no call of its
own.  A count need not visit each word.  Each subtree returns its counts
by degree packed into one int, and near the cap most subtrees repeat: one
with at most four letters to go depends only on the room left, the last
letter and a few letters above it.  So counting walks each repeated
subtree once and adds its packed counts wherever it recurs.  It stays an
exact count of words, sharing no arithmetic with the Moebius route.

Every Lyndon word longer than a letter factors as l = l1 l2 with l2 its
longest proper Lyndon suffix; the recursive commutator b(l) = [b(l1), b(l2)]
expands in the tensor algebra with the word l itself as the lex-least term.
For a presentation whose relation is a sum of commutators, the standard
words are the Lyndon words avoiding one exclusion bigram, and their
bracketings give a basis of the quotient Lie algebra.  The independence
certificate proves that basis property degree by degree along two routes:
each normal form is unitriangular on its standard word, and the stacked
normal forms have full rank modulo a prime.

A word is its 1-based letter-index tuple, in the walk as everywhere in the
package: ``standard_lyndon`` returns {degree: [(word, b(word))]} with the
words as the walk lists them, in lex order.  The exclusion bigram is the
presentation's own leading word, and a relation whose words differ in
degree has none:

>>> from loopspace.manifold import ManifoldModel, loop_presentation
>>> pres = loop_presentation(ManifoldModel(2, 2))
>>> exclusion_bigram(pres) == pres.leading
True
>>> [word for word, _b in standard_lyndon(pres, 3)[3]]
[(1, 1, 3), (1, 3, 3), (1, 4), (2, 3), (3, 4)]
>>> abc = Alphabet.from_degrees((1, 1, 2))
>>> x12, x13 = (bracket(NCPoly.letter(abc, 1), NCPoly.letter(abc, i)) for i in (2, 3))
>>> lie_dims(QuadraticPresentation(abc, x12 + x13), 5)
Traceback (most recent call last):
    ...
loopspace.errors.PresentationError: relation mixes degree 2 with the leading degree 3
"""

from . import linalg
from .errors import ComputationFailure, PresentationError
from .rewrite import QuadraticPresentation, enumerate_irreducible_words, normal_form
from .words import Alphabet, NCPoly, bracket


def standard_factorization(indices):
    """Split l = l1 l2 with l2 the longest proper Lyndon suffix.

    It is the lex-smallest proper suffix s: every proper suffix of s is one
    of l, hence larger than s, so s is Lyndon; a longer Lyndon suffix would
    be smaller than its proper suffix s, against the minimality of s.
    """
    indices = tuple(indices)
    if len(indices) < 2:
        raise ValueError("single letters do not factor")
    start = min(range(1, len(indices)), key=lambda i: indices[i:])
    return indices[:start], indices[start:]


# ---------------------------------------------------------------------------
# degree-capped generation
# ---------------------------------------------------------------------------

# The walk memoises the counts below a node with at most this many letters to
# go.  On selftest, three is about 15% slower, and five is about 2% slower and
# raises the peak memory by under 1%.
_MEMO_LETTERS = 4


def _walk_lyndon(degrees, cap: int, bigram, words=None) -> list:
    """Count the Lyndon words of each degree <= cap by a DFS over prenecklaces.

    Letters are 1-based, as everywhere in the package: letter i has degree
    ``degrees[i - 1]``.  ``bigram`` is a letter pair whose occurrence prunes
    the branch, as ``exclusion_bigram`` returns it, or None.  If ``words``
    holds an empty list per degree 0..cap, each word's letter tuple is
    appended to its degree's list, in lex order, instead of counted, and the
    counts returned are the lists' lengths.

    ``rec`` returns the Lyndon words strictly below its node, counted by the
    degree they gain over it.  When only counting, a parent looks up each
    child near the cap in a memo and calls it only on a miss.  Take a node
    word[:t] of period p and ``room = cap - degree``: at most
    ``j = room // least`` letters follow it, and the one appended at
    t + k (k < j) is pruned or accepted by four things only:

    * the room left, which fixes the weights that still fit;
    * the letter before it, which the forbidden bigram reads.  For k = 0
      that is word[t - 1]; later ones lie in the subtree;
    * the letter it is compared with.  While the period stays p, that is
      word[t + k - p], the periodic continuation of word[t - p:t];
    * after a strict increase at position s >= t the period becomes s + 1,
      and position s + 1 + i compares with word[i].  Since s + 1 + i <= t +
      j - 1, only i <= j - 2 occurs, so with t >= j these letters are
      word[:j - 1], fixed above the node.

    So nodes with equal room, last letter, j continuation letters and
    word[:j - 1] root equal subtrees, and each is walked once.  The key is
    (room, last letter, continuation, word[:j - 1]), the two letter runs as
    tuples of fixed length j and j - 1, so it tells nodes apart exactly as
    the flat tuple of all 2j + 1 entries would.  A child that raises the
    period has p = t + 1 >= j, so its periodic continuation, word[:t + 1]
    repeated, begins with word[:j]: its key is (room, letter, word[:j],
    word[:j - 1]).  Both runs are prefixes of length <= _MEMO_LETTERS,
    which ``heads`` holds as tuples from the shallow nodes above, so such
    a key is built without a slice (save at a node no deeper than j - 1,
    whose child's word[:j] ends in the new letter).  Only the one child per
    node that keeps the period slices its periodic continuation.
    """
    q = len(degrees)
    least, top = min(degrees), max(degrees)
    weights = (0,) + degrees  # weights[i] is the degree of letter i
    fa, fb = bigram if bigram else (0, 0)
    # Counts by degree are packed into one int, ``slot`` bits per degree.  No
    # degree holds more than q ** (cap // least + 1) words (q + ... + q ** m
    # for lengths up to m = cap // least, or one word if q = 1), so a count
    # never carries into the next slot.
    slot = (q ** (cap // least + 1)).bit_length()

    # tries[start][last][room]: the (letter, weight, shift) triples a node may
    # append, in increasing order: letter >= start, weight <= room, and not
    # fb after fa; shift = weight * slot.  Rooms past the heaviest letter
    # share one tuple.  Index 0 is no letter and never read.
    tries = [None]
    for start in range(1, q + 1):
        by_flag = []
        for after_fa in (False, True):
            rooms = [
                tuple(
                    (letter, weights[letter], weights[letter] * slot)
                    for letter in range(start, q + 1)
                    if weights[letter] <= room and not (after_fa and letter == fb)
                )
                for room in range(min(cap, top) + 1)
            ]
            by_flag.append(rooms + rooms[-1:] * (cap + 1 - len(rooms)))
        tries.append([by_flag[last == fa] for last in range(q + 1)])

    word = [0] * (cap // least + 1)
    memo = {}
    memo_room = (_MEMO_LETTERS + 1) * least if words is None else 0
    # heads[i] is tuple(word[:i]) for i <= min(t, _MEMO_LETTERS) at a node
    # word[:t]: each node of depth <= _MEMO_LETTERS sets its own on entry
    heads = [()] * (_MEMO_LETTERS + 1)

    def rec(t, period, room, key=None):
        # word[:t] is a prenecklace of this period, with room under the cap
        # for at least one more letter; its counts go to memo[key]
        if t <= _MEMO_LETTERS:
            heads[t] = tuple(word[:t])
        start = word[t - period]
        inner = room - least
        below = 0
        for letter, weight, shift in tries[start][word[t - 1]][room]:
            if letter != start:
                if words is None:
                    below += 1 << shift
                else:
                    word[t] = letter
                    words[~(room - weight)].append(tuple(word[: t + 1]))  # cap - room + weight
            if weight > inner:
                continue
            p = period if letter == start else t + 1
            word[t] = letter
            left = room - weight
            if left < memo_room and t >= (j := left // least) - 1:
                if p > period and j <= t:
                    ahead = heads[j]  # the period rose, so the continuation is word[:j]
                else:
                    ahead = tuple((word[t + 1 - p : t + 1] * j)[:j])
                k = (left, letter, ahead, heads[j - 1])
                got = memo.get(k)
                below += (rec(t + 1, p, left, k) if got is None else got) << shift
            else:
                below += rec(t + 1, p, left) << shift
        if key is not None:
            memo[key] = below
        return below

    total = 0
    for first in range(1, q + 1):
        weight = weights[first]
        if weight <= cap:
            if words is None:
                total += 1 << weight * slot
            else:
                words[weight].append((first,))
            if weight + least <= cap:
                word[0] = first
                total += rec(1, 1, cap - weight) << weight * slot
                # a key with j >= 2 holds word[0], so under the next first
                # letter only the few j = 1 keys could recur
                memo.clear()
    if words is not None:
        return [len(listed) for listed in words]
    mask = (1 << slot) - 1
    return [total >> d * slot & mask for d in range(cap + 1)]


# ---------------------------------------------------------------------------
# standard words of a quadratic Lie algebra
# ---------------------------------------------------------------------------

def exclusion_bigram(pres: QuadraticPresentation):
    """The bigram whose avoidance cuts Lyndon words down to standard ones.

    The relation must be a sum of commutators c * (xy - yx) whose words all
    have the degree of its leading word; a relation of mixed degrees spans
    no graded ideal and is refused.  The excluded bigram is then the
    presentation's ``leading`` word, the lex-least word of the relation,
    which standard words avoid (Reutenauer, Free Lie Algebras, Thm 5.1).
    Returns 1-based letter indices, or None for a free presentation.
    """
    if pres.is_free:
        return None
    rel = pres.relation
    degree = pres.alphabet.degree
    lead = degree(pres.leading)
    for (a, b), c in rel.terms():
        if a == b:
            raise PresentationError("relation has a square term; not a sum of commutators")
        if rel.coeff((b, a)) != -c:
            raise PresentationError("relation is not antisymmetric; not a sum of commutators")
        if degree((a, b)) != lead:
            raise PresentationError(f"relation mixes degree {degree((a, b))} with the leading degree {lead}")
    return pres.leading


def standard_lyndon(pres: QuadraticPresentation, cap: int) -> dict:
    """Standard Lyndon words of degree <= cap with their bracketings.

    Returns {degree: [(word, b(word))]} with the words in lex order and each
    bracketing b(l) = [b(l1), b(l2)] an NCPoly.  The factors of a standard
    word are standard words of lower degree, so bracketing the listing in
    order of degree finds each factor already bracketed.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    alphabet = pres.alphabet
    words = [[] for _ in range(cap + 1)]
    _walk_lyndon(alphabet.degrees, cap, exclusion_bigram(pres), words)
    b = {}
    for listed in words:
        for w in listed:
            if len(w) == 1:
                b[w] = NCPoly.letter(alphabet, w[0])
            else:
                left, right = standard_factorization(w)
                b[w] = bracket(b[left], b[right])
    return {d: [(w, b[w]) for w in words[d]] for d in range(1, cap + 1)}


def lie_dims(pres: QuadraticPresentation, cap: int) -> dict:
    """Dimension of the quotient Lie algebra in each degree 1..cap.

    Counts the standard Lyndon words (no bracketings are built).  The walk
    visits every prenecklace with room for more than four more letters, but
    each distinct subtree below those only once.  So the cost still grows
    exponentially with cap, but far more slowly than the number of words:
    about 0.017 s for the 860,718 words at (n, r, cap) = (2, 3, 12) and
    0.6 s for the 19,159,996 at (2, 2, 20), in CPU time on one core of a
    Xeon under Python 3.11 (medians of 21 and 5 runs).  It shares no
    arithmetic with the Moebius counts, which makes it their independent
    oracle at small caps.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    counts = _walk_lyndon(pres.alphabet.degrees, cap, exclusion_bigram(pres))
    return {d: counts[d] for d in range(1, cap + 1)}


# The prime of the certificate's rank check.
P = 2**31 - 1


def independence_certificate(pres: QuadraticPresentation, cap: int) -> dict:
    """Certify that normal forms of standard bracketings are independent.

    For each degree d <= cap, stacks the normal forms NF(b(l)) over the
    irreducible-word basis and proves the rows independent along two routes,
    each sound on its own:

    * Unitriangularity.  Each row's lex-least word (on letter indices) must
      be its own standard word l, with coefficient +-1, and these leading
      words must be pairwise distinct.  Sort the rows by leading word: the
      square submatrix on the leading columns is triangular with +-1 on the
      diagonal, so its determinant is +-1 and the rank is full over Z, over
      Q and over every F_p.  It holds in theory because b(l) is l plus
      lex-larger words (Reutenauer, Free Lie Algebras, Thm 5.1) and each
      rewriting step only raises a word in lex order.
    * Rank mod P.  Each coefficient a/b goes to its residue a * b^-1 in
      F_P, each row is a {column of its word: residue} map, and
      ``linalg.rank`` over F_P must equal the row count.  A matrix
      over Q whose denominators are prime to P, with full rank mod P, has
      full rank over Q: a minor that is nonzero mod P is nonzero.  Normal
      forms carry denominators when the relation's leading coefficient is
      not 1.

    Either failure is a hard ComputationFailure naming the degree (it would
    disprove the basis property and can only come from a bug), as is a
    denominator divisible by P (the check cannot run there).  Returns
    {degree: (count, rank, space_dim)}.  At (n, r, cap) = (2, 2, 10), whose
    top degree stacks 1500 rows over 12,816 words, it takes about 0.35 s of
    CPU under Python 3.11.7 on a shared 2-core Xeon host (median of 5 runs).
    Under cProfile about 60% of it goes to the normal forms, 15% to the
    bracketings and 7% to the rank mod P.  The rank is cheap because the
    rows arrive leading in distinct columns, so none is reduced: most of its
    time goes to copying them.
    """
    standard = standard_lyndon(pres, cap)
    irreducible = enumerate_irreducible_words(pres, cap)
    spell = pres.alphabet.spell
    report = {}
    for d in range(1, cap + 1):
        elements = standard[d]
        basis_words = irreducible[d]
        index = {w: i for i, w in enumerate(basis_words)}
        rows = []
        leads = set()
        for word, bracketing in elements:
            terms = normal_form(bracketing, pres)._terms
            if terms.get(word, 0) not in (1, -1) or min(terms) != word:
                s = spell(word)
                raise ComputationFailure(
                    f"degree {d}: NF(b({s})) is not +-{s} plus lex-larger words"
                )
            if word in leads:
                raise ComputationFailure(f"degree {d}: leading word {spell(word)} repeats")
            leads.add(word)
            row = {}
            for w, c in terms.items():
                if type(c) is not int:
                    den = c.denominator
                    if den % P == 0:
                        raise ComputationFailure(
                            f"degree {d}: coefficient {c} of NF(b({spell(word)})) "
                            f"has no residue mod {P}"
                        )
                    c = c.numerator if den == 1 else c.numerator * pow(den, -1, P)
                row[index[w]] = c % P
            rows.append(row)
        rk = linalg.rank(rows, len(basis_words), char=P) if rows else 0
        if rk != len(elements):
            raise ComputationFailure(
                f"standard bracketings of degree {d} have rank {rk} mod {P}, not {len(elements)}"
            )
        report[d] = (len(elements), rk, len(basis_words))
    return report
