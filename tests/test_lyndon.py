import hashlib
import math
import random
from fractions import Fraction

import pytest

from loopspace import linalg, numtheory, series
from loopspace.errors import ComputationFailure, PresentationError
from loopspace.lyndon import (
    _MEMO_LETTERS,
    P,
    exclusion_bigram,
    independence_certificate,
    lie_dims,
    standard_factorization,
    standard_lyndon,
    _forbidden,
    _lyndon_words,
    _walk_lyndon,
)
from loopspace.manifold import ManifoldModel, loop_alphabet, loop_presentation
from loopspace.rewrite import QuadraticPresentation, enumerate_irreducible_words, normal_form
from loopspace.selftest import GRID
from loopspace.series import sphere_summand_counts
from loopspace.words import Alphabet, NCPoly, bracket

import linalg_oracle
from linalg_oracle import sparse
from word_oracles import is_lyndon

AB = Alphabet.from_degrees((1, 1), labels=("a", "b"))


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def mobius(n):
    mu, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return mu


def necklace_count(q, m):
    """Witt formula: number of length-m Lyndon words over q letters."""
    return sum(mobius(d) * q ** (m // d) for d in divisors(m)) // m


def rotations(indices):
    return [indices[i:] + indices[:i] for i in range(1, len(indices))]


class TestIsLyndon:
    def test_rotation_criterion_brute_force(self):
        # compare against the definition on every short word over 3 letters
        for length in range(1, 6):
            for word in _all_words(3, length):
                expected = all(word < rot for rot in rotations(word))
                assert is_lyndon(word) == expected

    def test_single_letter_power_not_lyndon(self):
        assert is_lyndon((1,))
        assert not is_lyndon((1, 1))
        assert not is_lyndon((1, 1, 1))


def _all_words(q, length):
    words = [()]
    for _ in range(length):
        words = [w + (i,) for w in words for i in range(1, q + 1)]
    return words


class TestEnumeration:
    def test_two_letters_length_three(self):
        found = _lyndon_words(AB.degrees, 3, None)[3]
        assert found == [(1, 1, 2), (1, 2, 2)]
        assert len(found) == necklace_count(2, 3)

    def test_single_letter_alphabet(self):
        single = Alphabet.from_degrees((1,), labels=("a",))
        by_degree = _lyndon_words(single.degrees, 5, None)
        assert by_degree[1] == [(1,)]
        assert all(not by_degree[d] for d in range(2, 6))

    def test_manifold_alphabet_degree_two(self):
        # u1', u2' (single letters of degree 2) and u1u2; exhaustive check
        a = loop_alphabet(2, 2)
        found = {a.spell(w) for w in _lyndon_words(a.degrees, 2, None)[2]}
        assert found == {"u1'", "u2'", "u1u2"}
        brute = {
            w
            for w in _all_words(4, 1) + _all_words(4, 2)
            if sum(a.degrees[i - 1] for i in w) == 2 and is_lyndon(w)
        }
        assert len(brute) == 3

    @pytest.mark.parametrize("q", [2, 3])
    def test_witt_formula_equal_weights(self, q):
        alphabet = Alphabet.from_degrees((1,) * q)
        by_degree = _lyndon_words(alphabet.degrees, 7, None)
        for m in range(1, 8):
            assert len(by_degree[m]) == necklace_count(q, m)

    def test_lists_strictly_increasing(self):
        # the walk's preorder is the sorted order; no sort is applied
        for n, r in GRID:
            pres = loop_presentation(ManifoldModel(n, r))
            listed = _lyndon_words(pres.alphabet.degrees, 8, None)
            standard = standard_lyndon(pres, 8)
            for d in range(1, 9):
                for words in (listed[d], [w for w, _b in standard[d]]):
                    assert all(a < b for a, b in zip(words, words[1:])), (n, r, d)

    @pytest.mark.parametrize("n,r", GRID)
    def test_walk_built_words_match_checked_words(self, n, r):
        # the walk lists its letter tuples with no check: each must pass the
        # checked constructor and have the degree it is listed under
        pres = loop_presentation(ManifoldModel(n, r))
        alphabet = pres.alphabet
        listed = _lyndon_words(alphabet.degrees, 7, None)
        standard = standard_lyndon(pres, 7)
        for d in range(1, 8):
            words = listed[d] + [w for w, _b in standard[d]]
            assert all(type(word) is tuple and alphabet.degree(word) == d for word in words)
            assert NCPoly(alphabet, dict.fromkeys(words, 1))._terms.keys() == set(words)

    def test_enumeration_complete_and_duplicate_free(self):
        a = loop_alphabet(2, 2)
        by_degree = _lyndon_words(a.degrees, 5, None)
        for d in range(1, 6):
            words = by_degree[d]
            assert len(words) == len(set(words))
            brute = {
                w
                for length in range(1, d + 1)
                for w in _all_words(4, length)
                if sum(a.degrees[i - 1] for i in w) == d and is_lyndon(w)
            }
            assert set(words) == brute


# The plain recursive prenecklace walk, with the cap and bigram tests in the
# loop and a push/pop per node: the oracle for lyndon._walk_lyndon, which
# must count and list exactly the same words in the same order.
def reference_walk(weights, cap, forbidden, words=None):
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
                if words is not None:
                    words[d2].append(tuple(word))
                rec(len(word), d2)
            word.pop()

    for first in range(q):
        if weights[first] <= cap:
            counts[weights[first]] += 1
            if words is not None:
                words[weights[first]].append((first,))
            word.append(first)
            rec(1, weights[first])
            word.pop()
    return counts


def assert_walk_matches_reference(weights, cap, forbidden):
    case = (weights, cap, forbidden)
    listed = [[] for _ in range(cap + 1)]
    expected = [[] for _ in range(cap + 1)]
    counts = reference_walk(weights, cap, forbidden, expected)
    assert _walk_lyndon(weights, cap, forbidden, listed) == counts, case
    assert listed == expected, case
    assert _walk_lyndon(weights, cap, forbidden) == counts, case


def _word_count(weights, cap):
    """The number of nonempty words of degree <= cap."""
    counts = [1] + [0] * cap
    for d in range(1, cap + 1):
        counts[d] = sum(counts[d - w] for w in weights if w <= d)
    return sum(counts) - 1


def flat_key(word, period, room, j):
    """The memo key of lyndon._walk_lyndon's docstring, as one flat tuple:
    room, last letter, j continuation letters and word[:j - 1]."""
    return (room, word[-1], *(word[len(word) - period :] * j)[:j], *word[: j - 1])


def nested_key(word, period, room, j):
    """The walk's key: a node whose last letter raised the period to its
    length continues with word[:j]; only one that kept it slices its
    periodic continuation."""
    t = len(word)
    ahead = word[:j] if period == t else (word[t - period :] * j)[:j]
    return (room, word[-1], ahead, word[: j - 1])


def memo_hits(weights, cap, forbidden, key=flat_key):
    """{(j, raised): memo hits at nodes with j letters to go}, replayed on
    the plain walk: a node below a first letter whose key an earlier node
    under that first letter had.  ``raised`` tells whether the node's last
    letter raised the period (to the node's length) or kept it.  A hit's
    subtree is not walked, as in the walk itself."""
    q, least = len(weights), min(weights)
    fa, fb = forbidden if forbidden else (-1, -1)
    hits, seen = {}, set()

    def rec(word, period, degree):
        t, room = len(word), cap - degree
        j = room // least
        if t >= 2 and room < (_MEMO_LETTERS + 1) * least and t >= j:
            k = key(word, period, room, j)
            if k in seen:
                kind = (j, period == t)
                hits[kind] = hits.get(kind, 0) + 1
                return
            seen.add(k)
        start = word[t - period]
        for letter in range(start, q):
            if not (word[-1] == fa and letter == fb) and degree + weights[letter] <= cap:
                rec(word + (letter,), period if letter == start else t + 1, degree + weights[letter])

    for first in range(q):
        seen.clear()
        if weights[first] <= cap:
            rec((first,), 1, weights[first])
    return hits


# Word lists of the walk's listing mode, pinned by the digest of their repr
# (the lists by degree, in order) as the walk listed them before the memo
# lookup moved into the parent's loop.
LISTING_DIGESTS = {
    ((1, 2, 1, 2), 10, (0, 2)): "48b23479d975d98a6bd41688bcb077274a4900cf6edb23f2fd8406d054359606",
    ((2, 3, 2, 3), 14, (2, 0)): "63d5c142ae6088939bb37d2c4b171beaea4e501a19d9e005b779ea86bfe8fdbd",
    ((1, 2, 3), 9, (0, 2)): "6d02aefb6cfa5e8ed6296023915f61fa5baa7488238284706fe1a6e8bafe6693",
    ((1, 2, 3), 9, (2, 0)): "52b74ee9c747f676fa5fa63586db285b41346f23ffc62626fb64a1cb25e48412",
    ((1, 1), 12, None): "befe27ff1e1028dcce496c61eadc27c430bb6855742fbbd821d46da45f93cf1c",
}


class TestWalk:
    def test_matches_reference_on_random_alphabets(self):
        rng = random.Random(20181)
        for _ in range(400):
            q = rng.randint(1, 5)
            weights = tuple(rng.randint(1, 3) for _ in range(q))
            forbidden = rng.choice([None, (rng.randrange(q), rng.randrange(q))])
            assert_walk_matches_reference(weights, rng.randint(0, 9), forbidden)

    def test_matches_reference_where_the_memo_is_reused(self):
        # Deep walks, whose subtrees near the cap repeat at several levels.
        # Each alphabet gets the largest cap <= 13 under a word budget, and
        # the forbidden pair cycles through none, (a, a), (a, b) and (b, a).
        rng = random.Random(1605)
        for case in range(48):
            q = rng.randint(1, 4)
            weights = tuple(rng.randint(1, 3) for _ in range(q))
            a, b = sorted(rng.sample(range(q), 2)) if q > 1 else (0, 0)
            forbidden = (None, (a, a), (a, b), (b, a))[case % 4]
            cap = 13
            while _word_count(weights, cap) > 200_000:
                cap -= 1
            assert_walk_matches_reference(weights, cap, forbidden)

    @pytest.mark.parametrize("n,r", GRID)
    def test_matches_reference_on_loop_alphabets(self, n, r):
        pres = loop_presentation(ManifoldModel(n, r))
        for forbidden in (_forbidden(pres), None):
            assert_walk_matches_reference(pres.alphabet.degrees, 10, forbidden)

    # Caps deep enough that child nodes hit the memo with every number of
    # letters to go, both after raising the period and after keeping it
    # (three unit letters need cap 11 for a kept period with four to go),
    # the forbidden bigram read in both letter orders.
    @pytest.mark.parametrize("weights,cap,forbidden", [
        ((1, 2, 1, 2), 12, (0, 1)),
        ((1, 2, 1, 2), 12, (1, 0)),
        ((2, 3, 2, 3), 22, (0, 1)),
        ((2, 3, 2, 3), 22, (1, 0)),
        ((1, 1, 1), 11, (0, 2)),
        ((1, 1, 1), 11, (2, 0)),
    ])
    def test_matches_reference_where_children_hit_the_memo(self, weights, cap, forbidden):
        hits = memo_hits(weights, cap, forbidden)
        for j in range(1, _MEMO_LETTERS + 1):
            assert hits.get((j, True), 0) > 0 and hits.get((j, False), 0) > 0, (j, hits)
        assert_walk_matches_reference(weights, cap, forbidden)

    def test_nested_key_partitions_as_the_flat_key(self):
        # the walk's nested keys hit exactly where the docstring's flat keys
        # do, by letters to go and by kind, on the random alphabets above
        rng = random.Random(20181)
        total = 0
        for _ in range(400):
            q = rng.randint(1, 5)
            weights = tuple(rng.randint(1, 3) for _ in range(q))
            forbidden = rng.choice([None, (rng.randrange(q), rng.randrange(q))])
            case = (weights, rng.randint(0, 9), forbidden)
            flat = memo_hits(*case)
            assert memo_hits(*case, key=nested_key) == flat, case
            total += sum(flat.values())
        assert total > 1000

    def test_matches_reference_where_a_first_letter_is_near_the_cap(self):
        # at cap < (_MEMO_LETTERS + 1) * least + the first letter's weight,
        # the node of a first letter already has room for at most four more
        for weights in ((1, 2), (2, 3, 2, 3), (1, 1, 1), (3,), (2, 1, 4)):
            q = len(weights)
            for cap in range(1, (_MEMO_LETTERS + 1) * min(weights) + max(weights) + 1):
                for forbidden in (None, (0, q - 1), (q - 1, 0)):
                    assert_walk_matches_reference(weights, cap, forbidden)

    @pytest.mark.parametrize("case", LISTING_DIGESTS)
    def test_listing_is_pinned(self, case):
        weights, cap, forbidden = case
        listed = [[] for _ in range(cap + 1)]
        counts = _walk_lyndon(weights, cap, forbidden, listed)
        assert counts == _walk_lyndon(weights, cap, forbidden) == [len(ws) for ws in listed]
        assert hashlib.sha256(repr(listed).encode()).hexdigest() == LISTING_DIGESTS[case]


class TestFactorization:
    def test_soundness(self):
        weighted = Alphabet.from_degrees((1, 2, 3), labels=("a", "b", "c"))
        for alphabet in (AB, loop_alphabet(2, 2), weighted):
            self._check_soundness(_lyndon_words(alphabet.degrees, 7, None))

    def _check_soundness(self, by_degree):
        for words in by_degree.values():
            for idx in words:
                if len(idx) < 2:
                    continue
                left, right = standard_factorization(idx)
                assert is_lyndon(left)
                assert is_lyndon(right)
                assert left + right == idx
                assert left < right
                # right factor is the longest proper Lyndon suffix
                lengths = [
                    len(idx) - s for s in range(1, len(idx)) if is_lyndon(idx[s:])
                ]
                assert len(right) == max(lengths)

    def test_single_letters_do_not_factor(self):
        with pytest.raises(ValueError):
            standard_factorization((1,))


# The former route to the bracketings, kept as the oracle for standard_lyndon:
# each Lyndon word becomes a tree of factor objects, checked Lyndon at every
# node, and each tree is bracketed on its own with no memo.  The words come
# from reference_walk, not from the walk under test.
class _FactorTree:
    def __init__(self, indices):
        assert is_lyndon(indices), indices
        self.indices = indices
        self.factors = (
            tuple(_FactorTree(f) for f in standard_factorization(indices))
            if len(indices) >= 2
            else None
        )

    def bracketing(self, alphabet):
        if self.factors is None:
            return NCPoly(alphabet, {self.indices: 1})
        left, right = self.factors
        return bracket(left.bracketing(alphabet), right.bracketing(alphabet))


def _factor_tree_standard(pres, cap):
    """{degree: [(word, bracketing)]} by factor trees over the reference walk."""
    listed = [[] for _ in range(cap + 1)]
    reference_walk(pres.alphabet.degrees, cap, _forbidden(pres), listed)
    out = {}
    for d in range(1, cap + 1):
        trees = [_FactorTree(tuple(i + 1 for i in w)) for w in listed[d]]
        out[d] = [(t.indices, t.bracketing(pres.alphabet)) for t in trees]
    return out


def _free_bracketing(alphabet, indices):
    """b(l) for one Lyndon word, read off standard_lyndon of the free algebra."""
    degree = alphabet.degree(indices)
    return dict(standard_lyndon(QuadraticPresentation(alphabet), degree)[degree])[indices]


class TestBracketing:
    def test_single_letter(self):
        assert _free_bracketing(AB, (1,)) == NCPoly.letter(AB, 1)

    def test_two_letters(self):
        expected = NCPoly(AB, {(1, 2): 1, (2, 1): -1})
        assert _free_bracketing(AB, (1, 2)) == expected

    def test_aab_expansion(self):
        # [a,[a,b]] expanded by hand: aab - 2 aba + baa
        expected = NCPoly(AB, {(1, 1, 2): 1, (1, 2, 1): -2, (2, 1, 1): 1})
        assert _free_bracketing(AB, (1, 1, 2)) == expected

    def test_leading_term_triangularity(self):
        a = loop_alphabet(2, 2)
        by_degree = standard_lyndon(QuadraticPresentation(a), 6)
        for d in range(1, 7):
            for word, bracketing in by_degree[d]:
                assert a.degree(word) == d
                assert min(bracketing._terms) == word
                assert bracketing.coeff(word) == 1

    def test_integer_coefficients(self):
        a = loop_alphabet(2, 2)
        for _word, bracketing in standard_lyndon(QuadraticPresentation(a), 6)[6]:
            for _w, c in bracketing.terms():
                assert isinstance(c, int)

    @pytest.mark.parametrize("n,r", GRID)
    def test_matches_factor_tree_oracle_on_loop_presentations(self, n, r):
        pres = loop_presentation(ManifoldModel(n, r))
        assert standard_lyndon(pres, 8) == _factor_tree_standard(pres, 8)

    def test_matches_factor_tree_oracle_on_free_three_letters(self):
        abc = Alphabet.from_degrees((1, 1, 1), labels=("a", "b", "c"))
        pres = QuadraticPresentation(abc)
        assert standard_lyndon(pres, 7) == _factor_tree_standard(pres, 7)


class TestStandardWords:
    def test_exclusion_bigram_canonical(self):
        assert exclusion_bigram(loop_presentation(ManifoldModel(2, 2))) == (1, 2)

    def test_exclusion_for_free_presentation(self):
        assert exclusion_bigram(QuadraticPresentation(AB)) is None

    def test_non_commutator_relation_rejected(self):
        rel = NCPoly(AB, {(1, 2): 1})  # ab alone is not antisymmetric
        pres = QuadraticPresentation(AB, rel)
        with pytest.raises(PresentationError):
            exclusion_bigram(pres)

    def test_exclusion_bigram_matches_pair_rule_on_one_degree_commutators(self):
        # the pair rule, kept as the oracle: the lex-least (a, b), a < b,
        # among the commutators' words
        def pair_rule(pres):
            return min((a, b) if a < b else (b, a) for a, b in pres.relation._terms)

        rng = random.Random(28)
        for _ in range(300):
            alphabet = Alphabet.from_degrees([rng.randint(1, 3) for _ in range(rng.randint(2, 5))])
            weights = alphabet.degrees
            pairs = [(a, b) for a in range(1, len(weights) + 1) for b in range(a + 1, len(weights) + 1)]
            top = rng.choice(sorted({weights[a - 1] + weights[b - 1] for a, b in pairs}))
            chosen = [p for p in pairs if weights[p[0] - 1] + weights[p[1] - 1] == top]
            chosen = rng.sample(chosen, rng.randint(1, len(chosen)))
            relation = NCPoly.zero(alphabet)
            for a, b in chosen:
                if rng.random() < 0.5:
                    a, b = b, a  # a sign flip: [xb, xa] = -[xa, xb]
                commutator = bracket(NCPoly.letter(alphabet, a), NCPoly.letter(alphabet, b))
                relation = relation + commutator.scale(rng.choice((-3, -2, -1, 1, 2, 3)))
            pres = QuadraticPresentation(alphabet, relation)
            assert exclusion_bigram(pres) == pair_rule(pres) == pres.leading, (weights, relation)

    def test_mixed_degree_relation_refused(self):
        # [x1, x2] + [x1, x3] over degrees (1, 1, 2): its words have degrees
        # 2 and 3, so it spans no graded ideal and has no one bigram to avoid
        abc = Alphabet.from_degrees((1, 1, 2))
        x1, x2, x3 = (NCPoly.letter(abc, i) for i in (1, 2, 3))
        pres = QuadraticPresentation(abc, bracket(x1, x2) + bracket(x1, x3))
        message = "relation mixes degree 2 with the leading degree 3"
        for route in (lie_dims, standard_lyndon, independence_certificate):
            with pytest.raises(PresentationError, match=message):
                route(pres, 5)

    def test_rank_one_standard_words(self):
        pres = loop_presentation(ManifoldModel(2, 1))
        std = standard_lyndon(pres, 5)
        assert [pres.alphabet.spell(w) for w, _b in std[1]] == ["u1"]
        assert [pres.alphabet.spell(w) for w, _b in std[2]] == ["u1'"]
        assert all(not std[d] for d in range(3, 6))

    def test_rank_two_degree_three(self):
        pres = loop_presentation(ManifoldModel(2, 2))
        std = standard_lyndon(pres, 3)
        words = {pres.alphabet.spell(w) for w, _b in std[3]}
        assert len(words) == 5
        assert "u1u1'" not in words
        # PBW oracle: dim A_3 = 15 decomposes as
        # L3 + L2*L1 + C(L1 + 2, 3) with L1 = 2, L2 = 3
        l1, l2 = len(std[1]), len(std[2])
        assert (l1, l2) == (2, 3)
        l3 = 15 - l2 * l1 - math.comb(l1 + 2, 3)
        assert len(std[3]) == l3 == 5

    def test_free_standard_is_all_lyndon(self):
        pres = QuadraticPresentation(AB)
        std = standard_lyndon(pres, 5)
        all_lyndon = _lyndon_words(AB.degrees, 5, None)
        for d in range(1, 6):
            assert [w for w, _b in std[d]] == all_lyndon[d]


class TestLieDims:
    def test_rank_two(self):
        pres = loop_presentation(ManifoldModel(2, 2))
        dims = lie_dims(pres, 3)
        assert dims == {1: 2, 2: 3, 3: 5}

    def test_rank_one_abelian(self):
        pres = loop_presentation(ManifoldModel(2, 1))
        dims = lie_dims(pres, 8)
        assert dims[1] == 1 and dims[2] == 1
        assert all(dims[d] == 0 for d in range(3, 9))

    def test_n3_rank_one(self):
        pres = loop_presentation(ManifoldModel(3, 1))
        dims = lie_dims(pres, 6)
        assert dims == {1: 0, 2: 1, 3: 1, 4: 0, 5: 0, 6: 0}

    def test_counts_match_enumeration(self):
        pres = loop_presentation(ManifoldModel(2, 3))
        std = standard_lyndon(pres, 6)
        dims = lie_dims(pres, 6)
        for d in range(1, 7):
            assert dims[d] == len(std[d])

    @pytest.mark.parametrize("n,r", [(2, 1), (2, 2), (3, 2), (4, 2)])
    def test_cross_oracle_against_mobius(self, n, r):
        pres = loop_presentation(ManifoldModel(n, r))
        assert lie_dims(pres, 10) == sphere_summand_counts(n, r, 10)

    @pytest.mark.parametrize("n,r,cap", [(2, 2, 16), (2, 3, 14), (3, 3, 20)])
    def test_cross_oracle_against_mobius_past_selftest_caps(self, n, r, cap):
        pres = loop_presentation(ManifoldModel(n, r))
        assert lie_dims(pres, cap) == sphere_summand_counts(n, r, cap)

    def test_shares_no_arithmetic_with_mobius(self, monkeypatch):
        expected = sphere_summand_counts(2, 2, 10)

        def refuse(*_args, **_kwargs):
            raise AssertionError("lie_dims reached the Moebius route")

        monkeypatch.setattr(series, "mobius_counts", refuse)
        monkeypatch.setattr(series.PowerSeries, "log", refuse)
        monkeypatch.setattr(numtheory, "mobius_sieve", refuse)
        dims = lie_dims(loop_presentation(ManifoldModel(2, 2)), 10)
        assert [dims[w] for w in (1, 2, 3)] == [2, 3, 5]
        assert dims == expected


class TestIndependence:
    def test_degree_one_rank_is_letter_count(self):
        pres = loop_presentation(ManifoldModel(2, 2))
        report = independence_certificate(pres, 1)
        assert report[1] == (2, 2, 2)

    def test_rank_two_degree_three_full_rank(self):
        pres = loop_presentation(ManifoldModel(2, 2))
        report = independence_certificate(pres, 3)
        assert report[3] == (5, 5, 15)

    def test_rank_one_degree_three_empty(self):
        pres = loop_presentation(ManifoldModel(2, 1))
        report = independence_certificate(pres, 3)
        assert report[3] == (0, 0, 2)

    def test_shared_letter_relation_still_full_rank(self):
        # [a,b] + [a,c] is [a, b+c] after a change of basis, so the standard
        # words must still be independent
        abc = Alphabet.from_degrees((1, 1, 1), labels=("a", "b", "c"))
        rel = NCPoly(abc, {(1, 2): 1, (2, 1): -1, (1, 3): 1, (3, 1): -1})
        pres = QuadraticPresentation(abc, rel)
        report = independence_certificate(pres, 4)
        for d, (count, rank, _dim) in report.items():
            assert count == rank, d

    def test_rank_deficiency_is_hard_failure(self, monkeypatch):
        # force a dependent row to exercise the defensive error path
        import loopspace.lyndon as lyndon_mod

        pres = loop_presentation(ManifoldModel(2, 2))
        real = lyndon_mod.standard_lyndon

        def duplicated(p, cap):
            table = real(p, cap)
            table[1] = [table[1][0], table[1][0]]
            return table

        monkeypatch.setattr(lyndon_mod, "standard_lyndon", duplicated)
        with pytest.raises(ComputationFailure) as err:
            independence_certificate(pres, 1)
        assert str(err.value) == "degree 1: leading word u1 repeats"

    @pytest.mark.parametrize("n,r", GRID)
    def test_matches_fraction_rank_oracle(self, n, r):
        pres = loop_presentation(ManifoldModel(n, r))
        cap = 5 if (n, r) == (2, 3) else 6
        assert independence_certificate(pres, cap) == _fraction_rank_oracle(pres, cap)

    @pytest.mark.parametrize("c1,c2,ratio", [(-1, -1, Fraction(1)), (2, 3, Fraction(3, 2))])
    def test_rational_normal_forms_reduce_mod_p(self, monkeypatch, c1, c2, ratio):
        # c1 [u1, u1'] + c2 [u2, u2'] is scaled by 1/c1, so the normal forms
        # carry +-c2/c1; every entry must reach the rank as a residue mod P
        pres = QuadraticPresentation(U, _two_commutators(c1, c2))
        oracle = _fraction_rank_oracle(pres, 6)
        real_rank = linalg.rank
        entries = set()

        def spy(rows, ncols, char=0):
            entries.update(x for row in rows for x in row.values())
            return real_rank(rows, ncols, char)

        monkeypatch.setattr(linalg, "rank", spy)
        assert independence_certificate(pres, 6) == oracle
        assert all(type(x) is int and 0 <= x < P for x in entries)
        assert ratio.numerator * pow(ratio.denominator, -1, P) % P in entries

    def test_denominator_divisible_by_p_is_refused(self):
        pres = QuadraticPresentation(U, _two_commutators(P, 1))
        with pytest.raises(ComputationFailure) as err:
            independence_certificate(pres, 4)
        assert "degree 4" in str(err.value)
        assert f"no residue mod {P}" in str(err.value)

    def test_doubled_leading_coefficient_fails_triangularity_only(self, monkeypatch):
        import loopspace.lyndon as lyndon_mod

        pres = loop_presentation(ManifoldModel(2, 2))
        word, target = standard_lyndon(pres, 3)[3][1]

        def doubled(p, pr):
            nf = normal_form(p, pr)
            if p == target:
                nf = nf + NCPoly(pr.alphabet, {word: nf.coeff(word)})
            return nf

        # the broken rows still have full rank mod P: 2 is a unit there
        basis = enumerate_irreducible_words(pres, 3)[3]
        rows = [_nf_row(doubled(b, pres), basis) for _w, b in standard_lyndon(pres, 3)[3]]
        assert linalg.rank([sparse(row) for row in rows], len(basis), char=P) == len(rows)
        monkeypatch.setattr(lyndon_mod, "normal_form", doubled)
        with pytest.raises(ComputationFailure) as err:
            independence_certificate(pres, 3)
        spelled = pres.alphabet.spell(word)
        assert str(err.value) == f"degree 3: NF(b({spelled})) is not +-{spelled} plus lex-larger words"
        assert spelled == "u1u2u2"

    def test_lex_smaller_term_fails_triangularity(self, monkeypatch):
        import loopspace.lyndon as lyndon_mod

        pres = loop_presentation(ManifoldModel(2, 2))
        word, target = standard_lyndon(pres, 3)[3][1]
        smaller = (1, 1, 1)
        assert smaller < word and pres.alphabet.degree(smaller) == 3

        def lowered(p, pr):
            nf = normal_form(p, pr)
            return nf + NCPoly(pr.alphabet, {smaller: 5}) if p == target else nf

        monkeypatch.setattr(lyndon_mod, "normal_form", lowered)
        with pytest.raises(ComputationFailure) as err:
            independence_certificate(pres, 3)
        assert str(err.value) == "degree 3: NF(b(u1u2u2)) is not +-u1u2u2 plus lex-larger words"

    def test_row_summing_two_others_is_hard_failure(self, monkeypatch):
        import loopspace.lyndon as lyndon_mod

        pres = loop_presentation(ManifoldModel(2, 2))
        real = lyndon_mod.standard_lyndon

        def summed(p, cap):
            table = real(p, cap)
            (_wa, a), (_wb, b), (wc, _c) = table[3][:3]
            table[3][2] = (wc, a + b)
            return table

        monkeypatch.setattr(lyndon_mod, "standard_lyndon", summed)
        with pytest.raises(ComputationFailure) as err:
            independence_certificate(pres, 3)
        assert str(err.value) == "degree 3: NF(b(u1u2')) is not +-u1u2' plus lex-larger words"

    def test_negated_bracketing_takes_the_rescale_path(self, monkeypatch):
        # -b(l) leads with -1, so its row leads with P - 1 and linalg must
        # rescale it; the certificate holds all the same
        import loopspace.lyndon as lyndon_mod

        pres = loop_presentation(ManifoldModel(2, 2))
        expected = independence_certificate(pres, 5)
        real_standard, real_rank = lyndon_mod.standard_lyndon, linalg.rank
        leads = []

        def negated(p, cap):
            table = real_standard(p, cap)
            word, b = table[4][1]
            table[4][1] = (word, -b)
            return table

        def spy(rows, ncols, char=0):
            leads.append(sorted(row[min(row)] for row in rows))
            return real_rank(rows, ncols, char)

        monkeypatch.setattr(lyndon_mod, "standard_lyndon", negated)
        monkeypatch.setattr(linalg, "rank", spy)
        assert independence_certificate(pres, 5) == expected
        assert [d for d, got in enumerate(leads, 1) if got != [1] * len(got)] == [4]
        assert leads[3].count(P - 1) == 1

    def test_rank_check_runs_mod_p(self, monkeypatch):
        calls = []

        def short(rows, ncols, char=0):
            calls.append(char)
            return len(rows) - 1

        monkeypatch.setattr(linalg, "rank", short)
        with pytest.raises(ComputationFailure) as err:
            independence_certificate(loop_presentation(ManifoldModel(2, 2)), 1)
        assert str(err.value) == f"standard bracketings of degree 1 have rank 1 mod {P}, not 2"
        assert calls == [P]


U = loop_alphabet(2, 2)


def _two_commutators(c1, c2):
    """c1 (u1 u1' - u1' u1) + c2 (u2 u2' - u2' u2)."""
    return NCPoly(
        U,
        {(1, 2): c1, (2, 1): -c1, (3, 4): c2, (4, 3): -c2},
    )


def _fraction_rank_oracle(pres, cap):
    """{d: (count, rank, space_dim)} by dense Fraction rank of the stacked normal forms."""
    standard = standard_lyndon(pres, cap)
    irreducible = enumerate_irreducible_words(pres, cap)
    oracle = {}
    for d in range(1, cap + 1):
        rows = [_nf_row(normal_form(b, pres), irreducible[d]) for _w, b in standard[d]]
        rank = linalg_oracle.rank(rows, len(irreducible[d]))
        oracle[d] = (len(rows), rank, len(irreducible[d]))
    return oracle


# Builds the certificate's row layout again on purpose, as an independent
# oracle: keep it apart from independence_certificate.
def _nf_row(nf, basis_words):
    """A normal form as a row of its exact coefficients over the basis words' index tuples."""
    index = {w: i for i, w in enumerate(basis_words)}
    row = [0] * len(basis_words)
    for w, c in nf.terms():
        row[index[w]] = c
    return row
