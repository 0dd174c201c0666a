import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from loopspace import linalg
from loopspace.errors import AlphabetMismatch, ComputationFailure, PresentationError
from loopspace.manifold import ManifoldModel, loop_alphabet, loop_presentation, loop_relation
from loopspace.rewrite import (
    MAX_CELLS,
    QuadraticPresentation,
    enumerate_irreducible_words,
    hilbert_dims,
    is_irreducible,
    is_koszul_single_relation,
    koszul_dual,
    normal_form,
    quadratic_weight_dims,
    relation_vector,
    weight_dims,
)
from loopspace.selftest import GRID
from loopspace.series import PowerSeries, loop_generating_series
from loopspace.words import Alphabet, NCPoly, Word

P21 = loop_presentation(ManifoldModel(2, 1))
P22 = loop_presentation(ManifoldModel(2, 2))


def brute_force_counts(pres, cap):
    """Count bigram-avoiding words per degree by exhaustive generation."""
    degrees = pres.alphabet.degrees
    forbidden = pres.leading_pair()
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


def per_pair_hilbert_dims(pres, cap, weights=None):
    """The transfer loop over every (last, next) letter pair: the oracle."""
    q = pres.alphabet.size
    wts = tuple(weights) if weights is not None else pres.alphabet.degrees
    forbidden = pres.leading_pair()
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
        p = NCPoly.monomial(Word(P21.alphabet, (2, 1)))
        assert normal_form(p, P21) == p

    def test_manifold_relation_rewrite(self):
        # u1u1' -> u1'u1 - u2u2' + u2'u2 for the rank-2 relation
        a = P22.alphabet
        got = normal_form(NCPoly.monomial(Word(a, (1, 2))), P22)
        expected = NCPoly(a, {Word(a, (2, 1)): 1, Word(a, (3, 4)): -1, Word(a, (4, 3)): 1})
        assert got == expected

    def test_overlap_strategies_agree(self):
        a = P22.alphabet
        p = NCPoly.monomial(Word(a, (1, 2, 2)))  # u1 u1' u1'
        left = normal_form(p, P22, strategy="leftmost")
        right = normal_form(p, P22, strategy="rightmost")
        assert left == right

    def test_idempotent(self):
        a = P22.alphabet
        p = NCPoly.monomial(Word(a, (1, 1, 2, 2)), 3)
        nf = normal_form(p, P22)
        assert normal_form(nf, P22) == nf

    def test_result_is_irreducible(self):
        rng = random.Random(23)
        a = P22.alphabet
        for _ in range(30):
            indices = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 6)))
            nf = normal_form(NCPoly.monomial(Word(a, indices)), P22)
            assert all(is_irreducible(word, P22) for word in nf.words())

    def test_equivalence_modulo_ideal(self):
        # p - nf(p) must reduce to zero too (difference lies in the ideal)
        a = P22.alphabet
        p = NCPoly.monomial(Word(a, (1, 2, 1, 2)))
        nf = normal_form(p, P22)
        assert normal_form(p - nf, P22).is_zero()

    @pytest.mark.parametrize("pres", [QuadraticPresentation(loop_alphabet(2, 2)), P22])
    def test_foreign_alphabet_rejected_free_or_not(self, pres):
        # a free presentation used to return the polynomial before any check
        other = Alphabet((1, 1), ("a", "b"))
        with pytest.raises(AlphabetMismatch):
            normal_form(NCPoly.monomial(Word(other, (1, 2))), pres)

    @pytest.mark.parametrize("pres", [QuadraticPresentation(loop_alphabet(2, 2)), P22])
    def test_unknown_strategy_rejected_free_or_not(self, pres):
        p = NCPoly.monomial(Word(pres.alphabet, (1, 2)))
        with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
            normal_form(p, pres, strategy="bogus")


class TestIrreducible:
    def test_empty_word(self):
        assert is_irreducible(P22.alphabet.one(), P22)

    def test_factor_at_start(self):
        assert not is_irreducible(Word(P22.alphabet, (1, 2, 3)), P22)

    def test_reversed_bigram_fine(self):
        assert is_irreducible(Word(P22.alphabet, (2, 1)), P22)


class TestPresentation:
    def test_leading_is_canonical_bigram(self):
        assert P22.leading.indices == (1, 2)

    def test_square_leading_rejected(self):
        a = Alphabet.from_degrees((1,))
        rel = NCPoly.monomial(Word(a, (1, 1)))
        with pytest.raises(PresentationError):
            QuadraticPresentation(a, rel)

    def test_inhomogeneous_rejected(self):
        a = loop_alphabet(2, 1)
        rel = NCPoly(a, {Word(a, (1, 2)): 1, Word(a, (1,)): 1})
        with pytest.raises(PresentationError):
            QuadraticPresentation(a, rel)

    def test_leading_normalized_to_coefficient_one(self):
        a = loop_alphabet(2, 1)
        rel = loop_relation(a) * 7
        pres = QuadraticPresentation(a, rel)
        assert pres.relation.coeff(pres.leading) == 1


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
        # enumeration is exponential; the transfer-matrix count is linear in
        # the cap and must match the series inverse far beyond desk scale
        pres = loop_presentation(ManifoldModel(2, 3))
        series = loop_generating_series(2, 3, 40).inverse()
        assert hilbert_dims(pres, 40) == [c.numerator for c in series.coefficients()]

    @pytest.mark.parametrize("n,r", list(GRID) + [(2, 20), (3, 20), (2, 50)])
    def test_matches_per_pair_oracle(self, n, r):
        pres = loop_presentation(ManifoldModel(n, r))
        ones = (1,) * pres.alphabet.size
        free = QuadraticPresentation(pres.alphabet)
        for cap in (0, 1, 2, 25):
            assert hilbert_dims(pres, cap) == per_pair_hilbert_dims(pres, cap)
            assert weight_dims(pres, cap) == per_pair_hilbert_dims(pres, cap, ones)
            assert hilbert_dims(free, cap) == per_pair_hilbert_dims(free, cap)
            assert weight_dims(free, cap) == per_pair_hilbert_dims(free, cap, ones)
        assert hilbert_dims(pres, 25) == inverse_q_dims(n, r, 25)
        # graded by length, q becomes 1 - 2r t + t^2; the free algebra is (2r)^w
        by_length = [1, 2 * r]
        for _ in range(24):
            by_length.append(2 * r * by_length[-1] - by_length[-2])
        assert weight_dims(pres, 25) == by_length
        assert weight_dims(free, 25) == [(2 * r) ** w for w in range(26)]

    def test_peak_memory_is_a_window_of_rows(self):
        # a row per degree, (cap + 1) * 2r counts, is about 34 MB at r = cap = 300;
        # only min(max weight, cap) + 1 rows may be alive at once
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

    def test_forbidden_pair_of_later_letters(self):
        # the forbidden bigram x_3 x_2 runs backwards, away from letters 1 and 2
        a = Alphabet.from_degrees((1, 2, 3, 4))
        rel = NCPoly.monomial(Word(a, (3, 2))) - NCPoly.monomial(Word(a, (1, 1)))
        pres = QuadraticPresentation(a, rel)
        assert pres.leading_pair() == (3, 2)
        for weights in (None, (1, 1, 1, 1), (2, 1, 3, 1)):
            assert hilbert_dims(pres, 20, weights) == per_pair_hilbert_dims(pres, 20, weights)
        assert hilbert_dims(pres, 12) == brute_force_counts(pres, 12)

    def test_relation_sign_does_not_change_dims(self):
        a = loop_alphabet(2, 2)
        plus = QuadraticPresentation(a, loop_relation(a))
        minus = QuadraticPresentation(a, -loop_relation(a))
        assert hilbert_dims(plus, 12) == hilbert_dims(minus, 12)


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
                nf = normal_form(NCPoly.monomial(Word(P22.alphabet, word)), P22)
                row = [0] * len(index)
                for w2, c in nf.terms():
                    row[index[w2.indices]] = c
                rows.append(row)
            assert linalg.rank(rows, len(index), char) == dims[d]


class TestKoszul:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_manifold_relation_is_koszul(self, r):
        assert is_koszul_single_relation(loop_presentation(ManifoldModel(2, r)))

    def test_square_relation_not_koszul(self):
        a = Alphabet.from_degrees((1, 1))
        assert not is_koszul_single_relation(NCPoly.monomial(Word(a, (1, 1))))

    def test_single_offdiagonal_bigram_koszul(self):
        a = Alphabet.from_degrees((1, 1))
        assert is_koszul_single_relation(NCPoly.monomial(Word(a, (1, 2))))


class TestKoszulDual:
    def test_zero_relations_full_annihilator(self):
        dual = koszul_dual(((1, 2),), [])
        assert len(dual.perp_basis) == 4

    def test_commutator_annihilator_oracle(self):
        # R = span(v1 v2 - v2 v1) inside (k^2)^(x2); the annihilator is
        # spanned by v1*v1*, v1*v2* + v2*v1*, v2*v2* (4x1 nullspace, frozen)
        dual = koszul_dual(((1, 2),), [[0, 1, -1, 0]])
        assert set(dual.perp_basis) == {
            (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(0), Fraction(1)),
        }

    def test_manifold_relation_rank_one_dual(self):
        pres = loop_presentation(ManifoldModel(2, 1))
        vec = relation_vector(pres.relation, 2)
        dual = koszul_dual(((1, 2),), [vec])
        assert len(dual.perp_basis) == 3

    def test_dependent_relations_rejected(self):
        with pytest.raises(ValueError):
            koszul_dual(((1, 2),), [[0, 1, -1, 0], [0, 2, -2, 0]])


class TestQuadraticWeightDims:
    def test_free_algebra(self):
        assert quadratic_weight_dims(2, [], 4) == [1, 2, 4, 8, 16]

    def test_full_relation_space(self):
        rels = []
        for i in range(4):
            row = [0] * 4
            row[i] = 1
            rels.append(row)
        assert quadratic_weight_dims(2, rels, 5) == [1, 2, 0, 0, 0, 0]

    @pytest.mark.parametrize("r", [1, 2])
    def test_rank_route_matches_dp_route(self, r):
        # generic elimination and transfer-matrix counting agree on the
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
        dual = koszul_dual(((1, m),), [relation_vector(pres.relation, m)])
        h_dual = quadratic_weight_dims(m, dual.perp_basis, 9)
        lhs = PowerSeries(h_a, 9)
        rhs = PowerSeries([c * (-1) ** i for i, c in enumerate(h_dual)], 9)
        assert lhs * rhs == PowerSeries.one(9)

    @pytest.mark.parametrize("r", [4, 5])
    def test_large_koszul_dual_stops_at_weight_three(self, r):
        # the rank-r dual's weight-3 matrix is 2 * 2r * (4r^2 - 1) rows by
        # (2r)^3 columns, inside MAX_CELLS; mod 7 to keep it quick
        pres = loop_presentation(ManifoldModel(2, r))
        m = 2 * r
        dual = koszul_dual(((1, m),), [relation_vector(pres.relation, m)], char=7)
        assert quadratic_weight_dims(m, dual.perp_basis, 9, char=7) == [1, m, 1] + [0] * 7

    def test_free_algebra_builds_no_matrix(self, monkeypatch):
        # no relations: dim V^w directly, even where dim V^w columns would be
        # far past any dense limit
        monkeypatch.setattr(linalg, "rank", None)
        assert quadratic_weight_dims(2, [], 40)[40] == 2**40

    @pytest.mark.parametrize("dim_v,cap", [(4, 9), (64, 3)])
    def test_refuses_oversized_matrix_before_building_it(self, monkeypatch, dim_v, cap):
        # one relation x1 x2 - x2 x1; the refused weight is the first whose
        # (w-1) * dim_v^(w-2) * #rel rows by dim_v^w columns pass MAX_CELLS,
        # and no matrix that large is built; at (4, 9) weight 9 alone would
        # need 131072 x 262144 cells.  Only sizes matter here, so the spy
        # records them and skips the elimination.
        rel = [0] * (dim_v * dim_v)
        rel[1], rel[dim_v] = 1, -1
        sizes = {w: ((w - 1) * dim_v ** (w - 2), dim_v**w) for w in range(2, cap + 1)}
        weight = min(w for w, (nrows, ncols) in sizes.items() if nrows * ncols > MAX_CELLS)
        nrows, ncols = sizes[weight]
        built = []

        def spy(rows, n, char=0):
            built.append(len(rows) * n)
            return 0

        monkeypatch.setattr(linalg, "rank", spy)
        start = time.monotonic()
        with pytest.raises(ComputationFailure) as err:
            quadratic_weight_dims(dim_v, [rel], cap)
        assert time.monotonic() - start < 2.0
        assert f"weight {weight} needs {nrows} x {ncols} dense cells" in str(err.value)
        assert built == [r * c for w, (r, c) in sizes.items() if w < weight]
        assert max(built, default=0) <= MAX_CELLS
