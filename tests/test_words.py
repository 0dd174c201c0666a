import hashlib
import random
from fractions import Fraction

import pytest

from loopspace.errors import AlphabetMismatch
from loopspace.lyndon import _lyndon_words, standard_lyndon
from loopspace.manifold import ManifoldModel, loop_alphabet, loop_presentation
from loopspace.rewrite import QuadraticPresentation, enumerate_irreducible_words, normal_form
from loopspace import selftest
from loopspace.words import Alphabet, NCPoly, bracket

from word_oracles import (
    find_bigram,
    homogeneous_degree,
    index_key,
    normal_form_by_find_bigram,
    product,
    random_poly_by_randint,
)


A22 = loop_alphabet(2, 2)   # u1 < u1' < u2 < u2', degrees 1, 2, 1, 2
AB = Alphabet.from_degrees((1, 1), labels=("a", "b"))


def random_word(rng, alphabet, max_len=5):
    return tuple(rng.randint(1, alphabet.size) for _ in range(rng.randint(0, max_len)))


def random_poly(rng, alphabet, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        word = random_word(rng, alphabet)
        terms[word] = terms.get(word, 0) + rng.choice((-2, -1, 1, 2))
    return NCPoly(alphabet, terms)


def rewrite_order(word):
    """``index_key`` over A22."""
    return index_key(A22.degrees, word)


# lex order on letter indices (Lyndon words, NCPoly.terms) and the rewriting order
ORDER_KEYS = {"lex": lambda word: word, "rewrite": rewrite_order}


class TestOrders:
    def test_reflexivity(self):
        for key in ORDER_KEYS.values():
            assert key((1,)) == key((1,))

    @pytest.mark.parametrize("scheme", ["lex", "rewrite"])
    def test_total_order_properties(self, scheme):
        # the key determines the word, so comparing keys totally orders words
        key = ORDER_KEYS[scheme]
        rng = random.Random(11)
        words = [random_word(rng, A22) for _ in range(40)]
        for a in words:
            for b in words:
                assert (key(a) == key(b)) == (a == b)
                assert (key(a) < key(b)) != (key(b) < key(a)) or a == b
        for _ in range(300):
            a, b, c = rng.sample(words, 3)
            if key(a) <= key(b) and key(b) <= key(c):
                assert key(a) <= key(c)


class TestRewriteKey:
    def test_degree_dominates_length(self):
        assert rewrite_order((1, 1, 1)) < rewrite_order((4, 4))   # degree 3 < 4
        assert rewrite_order((2,)) < rewrite_order((1, 1))         # degree 2, length 1 < 2

    def test_equal_degree_and_length_reverses_lex(self):
        # u2u2' is lex-bigger than u1u1', so it is the smaller word
        assert rewrite_order((3, 4)) < rewrite_order((1, 2))
        assert rewrite_order((3, 1)) < rewrite_order((1, 3))

    def test_compatible_with_concatenation(self):
        # u < v implies a u b < a v b: the rewriting order is a monomial order,
        # which the diamond lemma needs for rewriting to terminate
        rng = random.Random(5)
        pool = [random_word(rng, A22, max_len=4) for _ in range(60)]
        checked = 0
        for w1 in pool:
            for w2 in pool:
                if not rewrite_order(w1) < rewrite_order(w2):
                    continue
                a, b = random_word(rng, A22, 2), random_word(rng, A22, 2)
                assert rewrite_order(a + w1 + b) < rewrite_order(a + w2 + b)
                checked += 1
        assert checked > 10

    def test_max_word_is_rewrite_maximum(self):
        p = NCPoly(A22, {(1, 2): 1, (2, 1): -1, (3, 4): 2, (1, 1): 5})
        assert p.max_word() == (1, 2)

    @pytest.mark.parametrize("degrees", [(1, 2, 1, 2), (1, 1, 2, 3), (2, 2, 2)])
    def test_max_word_is_index_key_max(self, degrees):
        # short words over repeated degrees: the top degree and length are often shared
        alphabet = Alphabet.from_degrees(degrees)
        rng = random.Random(f"max_word/{degrees}")
        tied = 0
        for _ in range(300):
            terms = {}
            for _ in range(rng.randint(1, 8)):
                word = tuple(rng.randint(1, len(degrees)) for _ in range(rng.randint(0, 3)))
                terms[word] = rng.choice((-1, 1, 2))
            p = NCPoly(alphabet, terms)
            keys = sorted((index_key(degrees, t) for t in p._terms), reverse=True)
            tied += len(keys) > 1 and keys[0][:2] == keys[1][:2]
            assert p.max_word() == max(p._terms, key=lambda t: index_key(degrees, t))
        assert tied >= 20


class TestNCPoly:
    def test_zero_terms_pruned(self):
        u1 = NCPoly.letter(A22, 1)
        assert (u1 - u1).is_zero()
        assert (u1 - u1).term_count() == 0

    def test_degree_additivity(self):
        rng = random.Random(3)
        for _ in range(50):
            d1, d2 = rng.randint(1, 4), rng.randint(1, 4)
            p = _random_homogeneous(rng, d1)
            q = _random_homogeneous(rng, d2)
            if p.is_zero() or q.is_zero():
                continue
            commutator = bracket(p, q)
            assert commutator.is_zero() or homogeneous_degree(commutator) == d1 + d2

    def test_mismatched_alphabets_rejected(self):
        # sums and differences check the alphabet; equality only compares it
        p, q = NCPoly.letter(A22, 1), NCPoly.letter(AB, 1)
        with pytest.raises(AlphabetMismatch):
            p + q
        with pytest.raises(AlphabetMismatch):
            NCPoly.zero(AB) - NCPoly.zero(A22)
        assert p != NCPoly(AB, {(1,): 1})

    def test_scalars_multiply_only_through_scale(self):
        p = NCPoly.letter(A22, 1)
        for scalar in (2, Fraction(1, 2)):
            with pytest.raises(TypeError):
                p * scalar
            with pytest.raises(TypeError):
                scalar * p
        assert p.scale(2) == p + p


def _random_homogeneous(rng, degree):
    free = QuadraticPresentation(A22)
    words = enumerate_irreducible_words(free, degree)[degree]
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[rng.choice(words)] = rng.choice((-2, -1, 1, 2))
    return NCPoly(A22, terms)


class TestBracket:
    def test_antisymmetry_on_self(self):
        rng = random.Random(9)
        for _ in range(20):
            p = random_poly(rng, A22)
            assert bracket(p, p).is_zero()

    def test_definition(self):
        u1 = NCPoly.letter(A22, 1)
        u1p = NCPoly.letter(A22, 2)
        expected = NCPoly(A22, {(1, 2): 1, (2, 1): -1})
        assert bracket(u1, u1p) == expected

    def test_antisymmetry_pairs(self):
        rng = random.Random(13)
        for _ in range(30):
            p, q = random_poly(rng, A22), random_poly(rng, A22)
            assert bracket(p, q) == -bracket(q, p)

    def test_jacobi(self):
        rng = random.Random(17)
        for _ in range(25):
            a, b, c = (random_poly(rng, A22, max_terms=3) for _ in range(3))
            total = (
                bracket(bracket(a, b), c)
                + bracket(bracket(b, c), a)
                + bracket(bracket(c, a), b)
            )
            assert total.is_zero()

    @staticmethod
    def mixed_poly(rng):
        """Up to five terms over A22: words of length 0-4, int and Fraction coefficients."""
        terms = {}
        for _ in range(rng.randint(0, 5)):
            word = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 4)))
            c = rng.choice((-2, -1, 1, 3, Fraction(1, 2), Fraction(-5, 3)))
            terms[word] = terms.get(word, 0) + c
        return NCPoly(A22, terms)

    def test_one_pass_equals_two_products(self):
        rng = random.Random(20)
        cancelled = 0
        for _ in range(300):
            p, q = self.mixed_poly(rng), self.mixed_poly(rng)
            if rng.random() < 0.3:
                q = q + p.scale(Fraction(2, 3))  # shared words make uv = vu collisions likely
            got = bracket(p, q)
            assert got == product(p, q) - product(q, p)
            assert 0 not in got._terms.values()
            cancelled += got.term_count() < 2 * p.term_count() * q.term_count()
        assert cancelled >= 50  # terms really do cancel or merge

    def test_exact_cancellation(self):
        rng = random.Random(21)
        x, y = NCPoly.letter(A22, 1), NCPoly.letter(A22, 2)
        assert (bracket(x, y) + bracket(y, x)).is_zero()
        assert bracket(x, x)._terms == {}
        # words that commute cancel too: powers of one letter, and the unit
        power = NCPoly(A22, {(3, 3): Fraction(7, 2)})
        assert bracket(power, NCPoly.letter(A22, 3))._terms == {}
        unit = NCPoly(A22, {(): Fraction(-1, 4)})
        for _ in range(50):
            p = self.mixed_poly(rng)
            assert bracket(p, p)._terms == {}
            assert bracket(p, unit)._terms == {}

    def test_mismatched_alphabets_rejected(self):
        with pytest.raises(AlphabetMismatch):
            bracket(NCPoly.letter(A22, 1), NCPoly.letter(AB, 1))
        with pytest.raises(AlphabetMismatch):
            bracket(NCPoly.zero(AB), NCPoly.zero(A22))


def assert_plain_words(words, size):
    """Each word is a plain tuple of int letters in 1..size."""
    for word in words:
        assert type(word) is tuple, word
        assert all(type(i) is int and 1 <= i <= size for i in word), word


class TestWordBoundary:
    """A word is a plain letter-index tuple on the way in and on the way out."""

    def mixed(self):
        """Degrees 3, 4, 6 and 1 over A22, with int and Fraction coefficients."""
        u1, u1p, u2 = (NCPoly.letter(A22, i) for i in (1, 2, 3))
        cube = product(product(u1p, u1p), u1p)
        return product(u1, u1p) - product(product(u2, u2), u1p).scale(Fraction(3, 2)) + cube.scale(2) - u2

    def test_constructor_refuses_letters_outside_the_alphabet(self):
        for letter in (0, A22.size + 1):
            with pytest.raises(ValueError, match=rf"letter {letter} is outside 1\.\.4"):
                NCPoly(A22, {(1, 2): 1, (3, letter): 1})
        with pytest.raises(ValueError, match="letter 3 is outside 1..2"):
            NCPoly.letter(AB, 3)
        with pytest.raises(TypeError, match="tuples of letter indices"):
            NCPoly(A22, {1: 1})

    @pytest.mark.parametrize("method", ["degree", "spell"])
    @pytest.mark.parametrize("letter", [0, -1, 5])
    def test_alphabet_refuses_letters_outside_it(self, method, letter):
        # 0 and -1 would index the degree and label tuples from their end
        with pytest.raises(ValueError, match=rf"letter {letter} is outside 1\.\.4"):
            getattr(A22, method)((1, letter))

    def test_handed_out_words_rebuild_with_their_degree(self):
        p = self.mixed()
        assert homogeneous_degree(p) is None
        handed = [word for word, _c in p.terms()] + list(p._terms) + [p.max_word()]
        assert_plain_words(handed, A22.size)
        assert p == NCPoly(A22, {word: p.coeff(word) for word in p._terms})
        assert [A22.degree(word) for word, _c in p.terms()] == [1, 3, 4, 6]
        assert p.max_word() == (2, 2, 2)
        assert [A22.spell(word) for word, _c in p.terms()] == ["u2", "u1u1'", "u2u2u1'", "u1'u1'u1'"]
        assert A22.spell(()) == "1" and A22.degree(()) == 0

    def test_arithmetic_and_constructor_agree_and_hash_alike(self):
        built = NCPoly(
            A22, {(1, 2): 1, (3, 3, 2): Fraction(-3, 2), (2, 2, 2): 2, (3,): -1}
        )
        p = self.mixed()
        assert p == built and hash(p) == hash(built)

    @pytest.mark.parametrize("n,r", selftest.GRID)
    def test_every_returned_word_is_a_plain_tuple(self, n, r):
        pres = loop_presentation(ManifoldModel(n, r))
        alphabet = pres.alphabet
        handed = [pres.leading]
        for words in enumerate_irreducible_words(pres, 6).values():
            handed += words
        for words in _lyndon_words(alphabet.degrees, 6, None).values():
            handed += words
        polys = [pres.relation, pres.lower_terms]
        for pairs in standard_lyndon(pres, 6).values():
            for word, bracketing in pairs:
                handed.append(word)
                polys += [bracketing, normal_form(bracketing, pres)]
        for p in polys:
            handed += [word for word, _c in p.terms()] + list(p._terms) + [p.max_word()]
        assert len(handed) > 30  # every source handed out words
        assert_plain_words(handed, alphabet.size)


# Sums, negation, scaling, brackets and normal forms build their NCPolys with
# the internal unchecked constructor, and the irreducible-word walk returns
# bare tuples.  Each result must equal its rebuild through the checked
# constructor, which checks every letter of every word.
def assert_rebuilds(p):
    assert p == NCPoly(p.alphabet, dict(p.terms()))


# x3 x2 -> 2 x1 x1 lowers the degree by 3: the normal form must shift it
A1234 = Alphabet.from_degrees((1, 2, 3, 4))
NON_HOMOGENEOUS = QuadraticPresentation(A1234, NCPoly(A1234, {(3, 2): 1, (1, 1): -2}))
FUZZ_PRESENTATIONS = {
    f"{n},{r}": loop_presentation(ManifoldModel(n, r)) for n, r in selftest.GRID
}
REWRITTEN = {**FUZZ_PRESENTATIONS, "non-homogeneous": NON_HOMOGENEOUS}
# free alphabets of 1, 3 and 5 letters: the draw of a one-letter alphabet
# still takes a bit, and 3 and 5 letters reject some of their draws
FREE = {
    f"free-{size}": QuadraticPresentation(Alphabet.from_degrees((1, 2, 3, 1, 2)[:size]))
    for size in (1, 3, 5)
}


class TestUncheckedConstructors:
    @pytest.mark.parametrize("name", REWRITTEN)
    @pytest.mark.parametrize("strategy", ["leftmost", "rightmost"])
    def test_normal_form_terms_rebuild(self, name, strategy):
        pres = REWRITTEN[name]
        rng = random.Random(f"unchecked/{name}")
        reduced = 0
        for _ in range(100):
            p = selftest.random_poly(pres, rng)
            nf = normal_form(p, pres, strategy=strategy)
            assert_rebuilds(nf)
            reduced += nf != p
        assert reduced >= 5  # the inputs do get rewritten

    def test_normal_form_still_refuses_a_foreign_alphabet(self):
        p = NCPoly(AB, {(1, 2): 1})
        with pytest.raises(AlphabetMismatch):
            normal_form(p, FUZZ_PRESENTATIONS["2,2"])

    def test_non_homogeneous_degree_shift(self):
        a = NON_HOMOGENEOUS.alphabet
        nf = normal_form(NCPoly(a, {(4, 3, 2, 1): 1}), NON_HOMOGENEOUS)
        assert nf == NCPoly(a, {(4, 1, 1, 1): 2})
        assert [a.degree(word) for word, _c in nf.terms()] == [7]

    @pytest.mark.parametrize("name", FUZZ_PRESENTATIONS)
    def test_bracketings_rebuild(self, name):
        for pairs in standard_lyndon(FUZZ_PRESENTATIONS[name], 7).values():
            for _word, bracketing in pairs:
                assert_rebuilds(bracketing)
                assert_rebuilds(-bracketing)

    def test_unchecked_objects_equal_checked_twins_and_stay_immutable(self):
        # the unchecked constructor stores its slots past __setattr__, which
        # must still refuse every assignment afterwards
        terms = {(1, 2): 1, (3,): Fraction(-3, 2)}
        poly = NCPoly._unchecked(A22, terms)
        twin = NCPoly(A22, {(1, 2): 1, (3,): Fraction(-3, 2)})
        assert poly == twin and hash(poly) == hash(twin)
        assert poly._terms is terms and poly.alphabet is A22
        for name in ("alphabet", "_terms", "other"):
            with pytest.raises(AttributeError):
                setattr(poly, name, None)
        assert poly._terms is terms

    @pytest.mark.parametrize("name", REWRITTEN)
    def test_irreducible_words_rebuild(self, name):
        alphabet = REWRITTEN[name].alphabet
        for degree, words in enumerate_irreducible_words(REWRITTEN[name], 8).items():
            assert words == sorted(words, key=lambda t: (len(t), t))
            assert_plain_words(words, alphabet.size)
            assert all(alphabet.degree(word) == degree for word in words)
            assert NCPoly(alphabet, dict.fromkeys(words, 1)).term_count() == len(words)


# The fuzz's polynomials are fixed by its seed: the letter draws, the term
# order and the dropped zero sums must match the plain randint route, and
# the first draws of seeds 0 and 3 are pinned by digest.
FUZZ_DIGESTS = {
    0: "d7115cb1762553efb562ecb612dabb895b1f9daac2e07c81643e0dfcf02800f9",
    3: "7a0ff4d785f8289d8cf132f079d5bee2683a991527dba4d9cd97f4468baa1690",
}


class TestFuzzOracles:
    @pytest.mark.parametrize("name", {**REWRITTEN, **FREE})
    def test_random_poly_draws_as_randint_does(self, name):
        pres = {**REWRITTEN, **FREE}[name]
        for seed in range(5):
            fast, plain = random.Random(seed), random.Random(seed)
            for _ in range(200):
                p, q = selftest.random_poly(pres, fast), random_poly_by_randint(pres, plain)
                assert p.alphabet is pres.alphabet
                assert list(p._terms.items()) == list(q._terms.items())
            assert fast.random() == plain.random()  # the same number of draws

    def test_random_poly_drops_zero_sums(self):
        pres = FUZZ_PRESENTATIONS["3,1"]  # two letters: words repeat, and some cancel out
        rng = random.Random(1)
        polys = [selftest.random_poly(pres, rng) for _ in range(2000)]
        assert all(0 not in p._terms.values() for p in polys)
        assert sum(p.is_zero() for p in polys) >= 3

    @pytest.mark.parametrize("seed", sorted(FUZZ_DIGESTS))
    def test_fuzz_inputs_are_pinned(self, seed):
        presentations = list(FUZZ_PRESENTATIONS.values())  # GRID order, as the fuzz cycles
        rng = random.Random(seed)
        digest = hashlib.sha256()
        for i in range(50):
            p = selftest.random_poly(presentations[i % len(presentations)], rng)
            digest.update(repr(list(p._terms.items())).encode())
        assert digest.hexdigest() == FUZZ_DIGESTS[seed]

    def test_find_bigram(self):
        assert find_bigram((3, 1, 2, 1, 2), 1, 2) == 1
        assert find_bigram((3, 1, 2, 1, 2), 1, 2, rightmost=True) == 3
        assert find_bigram((2, 1, 3, 1), 1, 2) is None

    @pytest.mark.parametrize("name", REWRITTEN)
    @pytest.mark.parametrize("strategy", ["leftmost", "rightmost"])
    def test_normal_form_matches_find_bigram_route(self, name, strategy):
        pres = REWRITTEN[name]
        a, b = pres.leading
        alphabet = pres.alphabet
        edge_cases = [
            (b, b, a, b),        # the bigram at the last position
            (a, b),              # the bigram alone
            (b, a, a),           # a, but never followed by b
            (a, a, a),
            (a, b, b, a, b),     # repeated ab
            (a, b, a, b),
            (a, a, b, b),
        ]
        polys = [NCPoly(alphabet, {word: 1}) for word in edge_cases]
        polys.append(NCPoly(alphabet, {word: k for k, word in enumerate(edge_cases, 1)}))
        rng = random.Random(f"find_bigram/{name}")
        polys += [selftest.random_poly(pres, rng) for _ in range(200)]
        for p in polys:
            got = normal_form(p, pres, strategy=strategy)
            want = normal_form_by_find_bigram(p, pres, strategy=strategy)
            assert got == want
            assert list(got._terms.items()) == list(want._terms.items())  # the same steps
