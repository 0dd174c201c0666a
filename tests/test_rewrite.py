import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from loopspace import linalg
from loopspace.decomposition import fiber_homology, polynomial_ring_dims
from loopspace.errors import AlphabetMismatch, ComputationFailure, PresentationError
from loopspace.manifold import ManifoldModel, loop_alphabet, loop_presentation, loop_relation
from loopspace.rewrite import (
    QuadraticPresentation,
    enumerate_irreducible_words,
    hilbert_dims,
    normal_form,
)
from loopspace.selftest import GRID
from loopspace.series import PowerSeries, loop_generating_series, sphere_summand_counts
from loopspace.words import Alphabet, NCPoly

from koszul_oracle import (
    MAX_CELLS,
    is_koszul_single_relation,
    koszul_dual,
    quadratic_weight_dims,
    relation_vector,
    weight_dims,
)
from linalg_oracle import sparse
from word_oracles import irreducible_words_by_stack, is_irreducible

P21 = loop_presentation(ManifoldModel(2, 1))
P22 = loop_presentation(ManifoldModel(2, 2))


def brute_force_counts(pres, cap):
    """Count bigram-avoiding words per degree by exhaustive generation."""
    degrees = pres.alphabet.degrees
    forbidden = pres.leading
    counts = [0] * (cap + 1)
    counts[0] = 1
    stack = [((i,), degrees[i - 1]) for i in range(1, pres.alphabet.size + 1)]
    while stack:
        word, deg = stack.pop()
        if deg > cap:
            continue
        counts[deg] += 1
        for i in range(1, pres.alphabet.size + 1):
            if forbidden and word[-1] == forbidden[0] and i == forbidden[1]:
                continue
            if deg + degrees[i - 1] <= cap:
                stack.append((word + (i,), deg + degrees[i - 1]))
    return counts


def per_pair_hilbert_dims(pres, cap):
    """The transfer loop over every (last, next) letter pair: the oracle."""
    q = pres.alphabet.size
    wts = pres.alphabet.degrees
    forbidden = pres.leading
    counts = [[0] * q for _ in range(cap + 1)]
    for i in range(q):
        if wts[i] <= cap:
            counts[wts[i]][i] += 1
    for d in range(cap + 1):
        for last in range(q):
            for nxt in range(q):
                if forbidden and forbidden[0] == last + 1 and forbidden[1] == nxt + 1:
                    continue
                if d + wts[nxt] <= cap:
                    counts[d + wts[nxt]][nxt] += counts[d][last]
    dims = [sum(row) for row in counts]
    dims[0] += 1
    return dims


def inverse_q_dims(n, r, cap):
    """Coefficients of 1/q(t), q = 1 - r t^(n-1) - r t^n + t^(2n-1), in integers."""
    a = [1] + [0] * cap
    for d in range(1, cap + 1):
        for e, c in ((n - 1, r), (n, r), (2 * n - 1, -1)):
            if d >= e:
                a[d] += c * a[d - e]
    return a


class TestNormalForm:
    def test_already_irreducible(self):
        p = NCPoly(P21.alphabet, {(2, 1): 1})
        assert normal_form(p, P21) == p

    def test_manifold_relation_rewrite(self):
        # u1u1' -> u1'u1 - u2u2' + u2'u2 for the rank-2 relation
        a = P22.alphabet
        got = normal_form(NCPoly(a, {(1, 2): 1}), P22)
        expected = NCPoly(a, {(2, 1): 1, (3, 4): -1, (4, 3): 1})
        assert got == expected

    def test_overlap_strategies_agree(self):
        a = P22.alphabet
        p = NCPoly(a, {(1, 2, 2): 1})  # u1 u1' u1'
        left = normal_form(p, P22, strategy="leftmost")
        right = normal_form(p, P22, strategy="rightmost")
        assert left == right

    def test_idempotent(self):
        a = P22.alphabet
        p = NCPoly(a, {(1, 1, 2, 2): 3})
        nf = normal_form(p, P22)
        assert normal_form(nf, P22) == nf

    def test_result_is_irreducible(self):
        rng = random.Random(23)
        a = P22.alphabet
        for _ in range(30):
            indices = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 6)))
            nf = normal_form(NCPoly(a, {indices: 1}), P22)
            assert all(is_irreducible(word, P22) for word in nf._terms)

    def test_equivalence_modulo_ideal(self):
        # p - nf(p) must reduce to zero too (difference lies in the ideal)
        a = P22.alphabet
        p = NCPoly(a, {(1, 2, 1, 2): 1})
        nf = normal_form(p, P22)
        assert normal_form(p - nf, P22).is_zero()

    @pytest.mark.parametrize("pres", [QuadraticPresentation(loop_alphabet(2, 2)), P22])
    def test_foreign_alphabet_rejected_free_or_not(self, pres):
        # a free presentation used to return the polynomial before any check
        other = Alphabet((1, 1), ("a", "b"))
        with pytest.raises(AlphabetMismatch):
            normal_form(NCPoly(other, {(1, 2): 1}), pres)

    @pytest.mark.parametrize("pres", [QuadraticPresentation(loop_alphabet(2, 2)), P22])
    def test_unknown_strategy_rejected_free_or_not(self, pres):
        p = NCPoly(pres.alphabet, {(1, 2): 1})
        with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
            normal_form(p, pres, strategy="bogus")


class TestIrreducible:
    def test_empty_word(self):
        assert is_irreducible((), P22)

    def test_factor_at_start(self):
        assert not is_irreducible((1, 2, 3), P22)

    def test_reversed_bigram_fine(self):
        assert is_irreducible((2, 1), P22)


class TestPresentation:
    def test_leading_is_canonical_bigram(self):
        assert P22.leading == (1, 2)

    def test_square_leading_rejected(self):
        a = Alphabet.from_degrees((1,))
        rel = NCPoly(a, {(1, 1): 1})
        with pytest.raises(PresentationError):
            QuadraticPresentation(a, rel)

    def test_inhomogeneous_rejected(self):
        a = loop_alphabet(2, 1)
        rel = NCPoly(a, {(1, 2): 1, (1,): 1})
        with pytest.raises(PresentationError):
            QuadraticPresentation(a, rel)

    def test_leading_normalized_to_coefficient_one(self):
        a = loop_alphabet(2, 1)
        rel = loop_relation(a).scale(7)
        pres = QuadraticPresentation(a, rel)
        assert pres.relation.coeff(pres.leading) == 1

    def test_unit_leading_coefficient_keeps_integer_coefficients(self):
        a = loop_alphabet(2, 1)
        pres = QuadraticPresentation(a, loop_relation(a).scale(-1))
        assert pres.relation == loop_relation(a)
        assert all(type(c) is int for _w, c in pres.relation.terms())
        halved = QuadraticPresentation(a, loop_relation(a).scale(2)).relation
        assert {c for _w, c in halved.terms()} == {Fraction(1), Fraction(-1)}


class TestHilbertDims:
    def test_rank_one_dims(self):
        # coefficients of 1/((1-t)(1-t^2))
        assert hilbert_dims(P21, 6) == [1, 1, 2, 2, 3, 3, 4]

    def test_rank_one_matches_series_oracle(self):
        series = loop_generating_series(2, 1, 12).inverse()
        assert hilbert_dims(P21, 12) == [c.numerator for c in series.coefficients()]

    def test_rank_two_recurrence_oracle(self):
        dims = hilbert_dims(P22, 10)
        assert dims[:4] == [1, 2, 6, 15]
        for d in range(3, 11):  # a_d = 2a_{d-1} + 2a_{d-2} - a_{d-3}
            assert dims[d] == 2 * dims[d - 1] + 2 * dims[d - 2] - dims[d - 3]

    def test_free_single_letter(self):
        pres = QuadraticPresentation(Alphabet.from_degrees((1,)))
        assert hilbert_dims(pres, 9) == [1] * 10

    @pytest.mark.parametrize("n,r", [(2, 1), (2, 2), (3, 2)])
    def test_dp_matches_brute_force(self, n, r):
        pres = loop_presentation(ManifoldModel(n, r))
        cap = 8
        assert hilbert_dims(pres, cap) == brute_force_counts(pres, cap)

    def test_dp_matches_enumeration_lists(self):
        words = enumerate_irreducible_words(P22, 6)
        dims = hilbert_dims(P22, 6)
        for d in range(7):
            assert len(words[d]) == dims[d]

    def test_dp_scales_to_degree_forty(self):
        # enumeration is exponential; the weight-class recurrence is linear in
        # the cap and must match the series inverse far beyond desk scale
        pres = loop_presentation(ManifoldModel(2, 3))
        series = loop_generating_series(2, 3, 40).inverse()
        assert hilbert_dims(pres, 40) == [c.numerator for c in series.coefficients()]

    @pytest.mark.parametrize("n,r", list(GRID) + [(2, 20), (3, 20), (2, 50)])
    def test_matches_per_pair_oracle(self, n, r):
        pres = loop_presentation(ManifoldModel(n, r))
        free = QuadraticPresentation(pres.alphabet)
        # the same forbidden bigram with every letter of degree 1 counts by length
        ones = (1,) * pres.alphabet.size
        unit, unit_free = monomial_presentation(ones, pres.leading), monomial_presentation(ones, None)
        for cap in (0, 1, 2, 25):
            assert hilbert_dims(pres, cap) == per_pair_hilbert_dims(pres, cap)
            assert weight_dims(pres, cap) == per_pair_hilbert_dims(unit, cap)
            assert hilbert_dims(free, cap) == per_pair_hilbert_dims(free, cap)
            assert weight_dims(free, cap) == per_pair_hilbert_dims(unit_free, cap)
        assert hilbert_dims(pres, 25) == inverse_q_dims(n, r, 25)
        # graded by length, q becomes 1 - 2r t + t^2; the free algebra is (2r)^w
        by_length = [1, 2 * r]
        for _ in range(24):
            by_length.append(2 * r * by_length[-1] - by_length[-2])
        assert weight_dims(pres, 25) == by_length
        assert weight_dims(free, 25) == [(2 * r) ** w for w in range(26)]

    def test_peak_memory_is_a_window_of_rows(self):
        # a row per degree, (cap + 1) * 2r counts, is about 34 MB at r = cap = 300,
        # and a window of min(max weight, cap) + 1 per-letter rows about 0.7 MB;
        # summing over weight classes keeps no per-letter row at all
        r = cap = 300
        pres = loop_presentation(ManifoldModel(2, r))
        tracemalloc.start()
        try:
            dims = hilbert_dims(pres, cap)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        width = min(max(pres.alphabet.degrees), cap) + 1
        largest = sys.getsizeof(dims[-1]) + 8  # a count and its list slot
        window = width * pres.alphabet.size * largest
        returned = sys.getsizeof(dims) + sum(sys.getsizeof(d) for d in dims)
        assert peak < 2 * (window + returned) < 2_000_000
        assert peak < 2 * returned < window

    def test_forbidden_pair_of_later_letters(self):
        # the forbidden bigram x_3 x_2 runs backwards, away from letters 1 and 2
        a = Alphabet.from_degrees((1, 2, 3, 4))
        rel = NCPoly(a, {(3, 2): 1}) - NCPoly(a, {(1, 1): 1})
        pres = QuadraticPresentation(a, rel)
        assert pres.leading == (3, 2)
        assert hilbert_dims(pres, 20) == per_pair_hilbert_dims(pres, 20)
        assert hilbert_dims(pres, 12) == brute_force_counts(pres, 12)
        # with these degrees x_1 x_1 weighs as much as x_3 x_2 and would lead,
        # so the same bigram is forbidden by the monomial relation
        for degrees in ((1, 1, 1, 1), (2, 1, 3, 1)):
            pres = monomial_presentation(degrees, (3, 2))
            assert hilbert_dims(pres, 20) == per_pair_hilbert_dims(pres, 20)

    def test_relation_sign_does_not_change_dims(self):
        a = loop_alphabet(2, 2)
        plus = QuadraticPresentation(a, loop_relation(a))
        minus = QuadraticPresentation(a, -loop_relation(a))
        assert hilbert_dims(plus, 12) == hilbert_dims(minus, 12)


def monomial_presentation(degrees, pair):
    """The alphabet with these degrees, modulo x_a x_b = 0 for pair (a, b), or free for None."""
    alphabet = Alphabet.from_degrees(degrees)
    if pair is None:
        return QuadraticPresentation(alphabet)
    return QuadraticPresentation(alphabet, NCPoly(alphabet, {pair: 1}))


def random_weighted_presentation(rng, kind, cap):
    """q <= 5 letters of weight 1-4 (so weights repeat), sometimes one heavier
    than cap; ``kind`` picks the forbidden pair: "free", "equal" (its two
    letters share a weight) or "unequal"."""
    q = rng.randint(1 if kind == "free" else 2, 5)
    degrees = [rng.randint(1, 4) for _ in range(q)]
    if rng.random() < 0.3:
        degrees[rng.randrange(q)] = cap + rng.randint(1, 3)
    if kind == "free":
        return monomial_presentation(degrees, None)
    a, b = rng.sample(range(1, q + 1), 2)
    if kind == "equal":
        degrees[b - 1] = degrees[a - 1]
    elif degrees[b - 1] == degrees[a - 1]:
        degrees[b - 1] += rng.randint(1, 2)
    return monomial_presentation(degrees, (a, b))


@pytest.mark.parametrize(
    "count",
    [
        lambda cap: hilbert_dims(P21, cap),
        lambda cap: enumerate_irreducible_words(P21, cap),
        lambda cap: fiber_homology(ManifoldModel(2, 1), cap),
        lambda cap: sphere_summand_counts(2, 1, cap),
        lambda cap: polynomial_ring_dims(2, cap),
        lambda cap: quadratic_weight_dims(2, [], cap),
    ],
    ids=["hilbert_dims", "enumerate_irreducible_words", "fiber_homology", "sphere_summand_counts",
         "polynomial_ring_dims", "quadratic_weight_dims"],
)
def test_negative_cap_is_refused_alike(count):
    with pytest.raises(ValueError, match="cap must be >= 0"):
        count(-1)


@pytest.mark.parametrize(
    "count",
    [
        lambda n: polynomial_ring_dims(n, 5),
        lambda n: loop_generating_series(n, 1, 5),
        lambda n: sphere_summand_counts(n, 1, 5),
        lambda n: sphere_summand_counts(n, 0, 5),
    ],
    ids=["polynomial_ring_dims", "loop_generating_series", "sphere_summand_counts",
         "sphere_summand_counts_r0"],
)
@pytest.mark.parametrize("n", [1, 0, -1])
def test_n_below_two_is_refused_alike(count, n):
    # polynomial_ring_dims(1, 5) used to return [2, 2, 2, 2, 2, 2], and n <= 0
    # raised a bare IndexError
    with pytest.raises(ValueError, match="n must be >= 2"):
        count(n)


class TestWeightClassRecurrence:
    """hilbert_dims sums over weight classes; the per-letter-pair transfer
    loop and exhaustive enumeration are its oracles."""

    KINDS = ("free", "equal", "unequal")

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_per_pair_oracle_on_random_alphabets(self, kind):
        rng = random.Random(f"weights-{kind}")
        for _ in range(150):
            cap = rng.randint(0, 30)
            pres = random_weighted_presentation(rng, kind, cap)
            degrees = pres.alphabet.degrees
            assert hilbert_dims(pres, cap) == per_pair_hilbert_dims(pres, cap), (degrees, cap)
            # the same forbidden pair over the letters re-weighted
            weights = [rng.randint(1, 4) for _ in degrees]
            pres = monomial_presentation(weights, pres.leading)
            assert hilbert_dims(pres, cap) == per_pair_hilbert_dims(pres, cap), (weights, cap)

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_brute_force_on_random_alphabets(self, kind):
        rng = random.Random(f"brute-{kind}")
        for _ in range(60):
            cap = rng.randint(0, 7)
            pres = random_weighted_presentation(rng, kind, cap)
            assert hilbert_dims(pres, cap) == brute_force_counts(pres, cap), (
                pres.alphabet.degrees, pres.leading, cap)

    @pytest.mark.parametrize("degrees,pair", [
        ((1, 1, 2, 2), (1, 2)),   # repeated weights, the pair shares one
        ((1, 1, 2, 2), (2, 3)),   # repeated weights, the pair's differ
        ((2, 1, 9), (1, 2)),      # the third letter is heavier than every cap below
        ((3, 1, 1), (3, 2)),      # pair (a, b) with a > b and w_a > w_b
        ((1, 2, 3), None),
    ])
    def test_named_cases_at_small_caps(self, degrees, pair):
        pres = monomial_presentation(degrees, pair)
        for cap in (0, 1, 2, 3, 8):
            assert hilbert_dims(pres, cap) == brute_force_counts(pres, cap), cap
            assert hilbert_dims(pres, cap) == per_pair_hilbert_dims(pres, cap), cap
        assert hilbert_dims(pres, 0) == [1]
        assert hilbert_dims(pres, 1) == [1, sum(1 for w in degrees if w == 1)]

    def test_weight_dims_ignore_letter_degrees(self):
        # by length: (3^w words) less those holding x1 x2
        by_length = monomial_presentation((1, 1, 1), (1, 2))
        assert hilbert_dims(by_length, 4) == [1, 3, 8, 21, 55]
        assert hilbert_dims(by_length, 4) == per_pair_hilbert_dims(by_length, 4)
        assert weight_dims(monomial_presentation((5, 7, 9), (1, 2)), 4) == [1, 3, 8, 21, 55]

    def test_rank_twenty_at_cap_two_hundred_is_one_over_q(self):
        pres = loop_presentation(ManifoldModel(2, 20))
        assert hilbert_dims(pres, 200) == inverse_q_dims(2, 20, 200)


class TestEnumerationOrder:
    """The length-by-length walk lists each degree in (length, lex) order as
    built; a stack walk sorted afterwards is its oracle, order included."""

    @pytest.mark.parametrize("kind", TestWeightClassRecurrence.KINDS)
    def test_matches_stack_and_sort_on_random_alphabets(self, kind):
        rng = random.Random(f"enumeration-{kind}")
        for cap in range(10):
            for _ in range(8):
                pres = random_weighted_presentation(rng, kind, cap)
                assert enumerate_irreducible_words(pres, cap) == irreducible_words_by_stack(pres, cap), (
                    pres.alphabet.degrees, pres.leading, cap)

    @pytest.mark.parametrize("n,r", GRID)
    def test_matches_stack_and_sort_on_the_grid(self, n, r):
        pres = loop_presentation(ManifoldModel(n, r))
        assert enumerate_irreducible_words(pres, 9) == irreducible_words_by_stack(pres, 9)

    # Words heavier than cap - least are listed but not extended; with two
    # weights that bound cuts through a length at every cap.
    @pytest.mark.parametrize("degrees", [(1, 2) * 3, (2, 3) * 2])
    @pytest.mark.parametrize("pair", [None, (1, 2), (2, 1), (2, 4)])
    def test_matches_stack_and_sort_at_every_small_cap(self, degrees, pair):
        pres = monomial_presentation(degrees, pair)
        for cap in range(1, 9):
            assert enumerate_irreducible_words(pres, cap) == irreducible_words_by_stack(pres, cap), cap


class TestBasisProperty:
    @pytest.mark.parametrize("char", [0, 2, 3, 5])
    def test_normal_forms_span_full_dimension(self, char):
        # normal forms of all degree-d words span exactly dims[d] dimensions,
        # over the rationals and reduced mod small primes
        free = QuadraticPresentation(P22.alphabet)
        dims = hilbert_dims(P22, 4)
        irreducible = enumerate_irreducible_words(P22, 4)
        all_words = enumerate_irreducible_words(free, 4)
        for d in range(1, 5):
            index = {w: i for i, w in enumerate(irreducible[d])}
            rows = []
            for word in all_words[d]:
                nf = normal_form(NCPoly(P22.alphabet, {word: 1}), P22)
                row = [0] * len(index)
                for w2, c in nf.terms():
                    row[index[w2]] = c
                rows.append(row)
            assert linalg.rank([sparse(row) for row in rows], len(index), char) == dims[d]


class TestKoszul:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_manifold_relation_is_koszul(self, r):
        assert is_koszul_single_relation(loop_presentation(ManifoldModel(2, r)))

    def test_square_relation_not_koszul(self):
        a = Alphabet.from_degrees((1, 1))
        assert not is_koszul_single_relation(NCPoly(a, {(1, 1): 1}))

    def test_single_offdiagonal_bigram_koszul(self):
        a = Alphabet.from_degrees((1, 1))
        assert is_koszul_single_relation(NCPoly(a, {(1, 2): 1}))


class TestKoszulDual:
    def test_zero_relations_full_annihilator(self):
        dual = koszul_dual(2, [])
        assert dual == [{0: 1}, {1: 1}, {2: 1}, {3: 1}]

    def test_commutator_annihilator_oracle(self):
        # R = span(v1 v2 - v2 v1) inside (k^2)^(x2); the annihilator is
        # spanned by v1*v1*, v1*v2* + v2*v1*, v2*v2* (4x1 nullspace, frozen)
        dual = koszul_dual(2, [{1: 1, 2: -1}])
        assert dual == [{0: 1}, {1: 1, 2: 1}, {3: 1}]

    def test_manifold_relation_rank_one_dual(self):
        pres = loop_presentation(ManifoldModel(2, 1))
        vec = relation_vector(pres.relation, 2)
        assert vec == {1: 1, 2: -1}
        dual = koszul_dual(2, [vec])
        assert len(dual) == 3

    def test_dependent_relations_rejected(self):
        with pytest.raises(ValueError):
            koszul_dual(2, [{1: 1, 2: -1}, {1: 2, 2: -2}])

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_coordinate_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match=r"outside 0\.\.3"):
            koszul_dual(2, [{1: 1, bad: -1}])

    @pytest.mark.parametrize("length", [1, 3])
    def test_relation_vector_rejects_other_lengths(self, length):
        a = Alphabet.from_degrees((1, 1))
        rel = NCPoly(a, {(1, 2): 1, (2,) * length: -1})
        with pytest.raises(ValueError, match="word-length 2"):
            relation_vector(rel, 2)

    def test_relation_vector_rejects_letters_past_dim_v(self):
        # x1x3 and x2x1 both land on coordinate 2 when dim(V) = 2
        a = Alphabet.from_degrees((1, 1, 1))
        rel = NCPoly(a, {(1, 3): 1, (2, 1): -1})
        with pytest.raises(ValueError, match=r"x3 is outside x1\.\.x2"):
            relation_vector(rel, 2)
        assert relation_vector(rel, 3) == {2: 1, 3: -1}


class TestQuadraticWeightDims:
    def test_free_algebra(self):
        assert quadratic_weight_dims(2, [], 4) == [1, 2, 4, 8, 16]

    def test_full_relation_space(self):
        rels = [{i: 1} for i in range(4)]
        assert quadratic_weight_dims(2, rels, 5) == [1, 2, 0, 0, 0, 0]

    @pytest.mark.parametrize("r", [1, 2])
    def test_rank_route_matches_dp_route(self, r):
        # generic elimination and the weight-class recurrence agree on the
        # single-relation algebra, letter weights all one
        pres = loop_presentation(ManifoldModel(2, r))
        vec = relation_vector(pres.relation, 2 * r)
        assert quadratic_weight_dims(2 * r, [vec], 4) == weight_dims(pres, 4)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_numerical_koszul_duality(self, r):
        # h_A(z) * h_dual(-z) = 1 mod z^10, the two factors computed by
        # independent routes (word DP vs exact elimination)
        pres = loop_presentation(ManifoldModel(2, r))
        m = 2 * r
        h_a = weight_dims(pres, 9)
        dual = koszul_dual(m, [relation_vector(pres.relation, m)])
        h_dual = quadratic_weight_dims(m, dual, 9)
        lhs = PowerSeries(h_a, 9)
        rhs = PowerSeries([c * (-1) ** i for i, c in enumerate(h_dual)], 9)
        assert lhs * rhs == PowerSeries.one(9)

    @pytest.mark.parametrize("r", [4, 5])
    def test_large_koszul_dual_stops_at_weight_three(self, r):
        # the rank-r dual's weight-3 matrix is 2 * 2r * (4r^2 - 1) rows by
        # (2r)^3 columns, inside MAX_CELLS; mod 7 to keep it quick
        pres = loop_presentation(ManifoldModel(2, r))
        m = 2 * r
        dual = koszul_dual(m, [relation_vector(pres.relation, m)], char=7)
        assert quadratic_weight_dims(m, dual, 9, char=7) == [1, m, 1] + [0] * 7

    @pytest.mark.parametrize("cap", [0, 1, 3])
    @pytest.mark.parametrize("bad", [-1, 4, 5])
    def test_coordinate_out_of_range_rejected_at_every_cap(self, cap, bad):
        # weights 0 and 1 build no matrix for linalg to check, so the
        # relations are checked before any weight
        with pytest.raises(ValueError, match=r"relation has a coordinate outside 0\.\.3"):
            quadratic_weight_dims(2, [{1: 1, bad: -1}], cap)

    def test_free_algebra_builds_no_matrix(self, monkeypatch):
        # no relations: dim V^w directly, even where dim V^w columns would be
        # far past any dense limit
        monkeypatch.setattr(linalg, "rank", None)
        assert quadratic_weight_dims(2, [], 40)[40] == 2**40

    @pytest.mark.parametrize("dim_v,cap", [(4, 9), (64, 3)])
    def test_refuses_oversized_matrix_before_building_it(self, monkeypatch, dim_v, cap):
        # one relation x1 x2 - x2 x1, so nnz = 2; a weight-w matrix has
        # (w-1) * dim_v^(w-2) * #rel rows over dim_v^w columns, and its
        # elimination holds at most nrows * nnz + min(nrows, ncols) * ncols
        # entries.  The refused weight is the first whose bound passes
        # MAX_CELLS, and no matrix past the bound is built; at (4, 9) weight 9
        # alone would have 131072 rows over 262144 columns.  Only sizes matter
        # here, so the spy records them and skips the elimination.
        rel = {1: 1, dim_v: -1}
        shapes = {w: ((w - 1) * dim_v ** (w - 2), dim_v**w) for w in range(2, cap + 1)}
        bounds = {w: nrows * 2 + min(nrows, ncols) * ncols for w, (nrows, ncols) in shapes.items()}
        weight = min(w for w, cells in bounds.items() if cells > MAX_CELLS)
        nrows, ncols = shapes[weight]
        built = []

        def spy(rows, n, char=0):
            assert all(len(row) == 2 for row in rows)
            built.append(len(rows) * 2 + min(len(rows), n) * n)
            return 0

        monkeypatch.setattr(linalg, "rank", spy)
        start = time.monotonic()
        with pytest.raises(ComputationFailure) as err:
            quadratic_weight_dims(dim_v, [rel], cap)
        assert time.monotonic() - start < 2.0
        assert (
            f"weight {weight} needs {nrows} rows over {ncols} columns, "
            f"up to {bounds[weight]} stored entries" in str(err.value)
        )
        assert built == [bounds[w] for w in shapes if w < weight]
        assert max(built, default=0) <= MAX_CELLS
