from fractions import Fraction

import pytest

from loopspace import linalg
from loopspace.abelian import FgAbelianGroup, FiniteAbelianGroup
from loopspace.errors import SphereFallback
from loopspace.manifold import (
    ManifoldModel,
    coefficient_ring_label,
    homology,
    loop_presentation,
    parse_torsion,
    sigma_primes,
)
from loopspace.rewrite import hilbert_dims
from loopspace.series import loop_generating_series

from koszul_oracle import (
    FormAlgebra,
    form_algebra_of,
    is_quadratic,
    kernel_relations,
    quadratic_weight_dims,
)
from linalg_oracle import sparse


def rank(rows, ncols):
    """linalg.rank over Q of dense rows."""
    return linalg.rank([sparse(r) for r in rows], ncols)


def in_row_span(vector, rows, ncols):
    """True iff the dense vector lies in the span of the {column: value} rows."""
    return linalg.rank(list(rows) + [sparse(vector)], ncols) == linalg.rank(rows, ncols)


class TestModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ManifoldModel(1, 2)
        with pytest.raises(ValueError):
            ManifoldModel(2, -1)

    @pytest.mark.parametrize("n, r", [(2.5, 1), (2, 1.0), ("2", 1)])
    def test_non_integer_n_or_r_rejected(self, n, r):
        # ManifoldModel(2.5, 1) used to be accepted
        with pytest.raises(TypeError):
            ManifoldModel(n, r)

    def test_parse_torsion(self):
        assert parse_torsion("-").is_trivial()
        assert parse_torsion("2,4,3").invariant_factors == (2, 12)
        with pytest.raises(ValueError):
            parse_torsion("2,x")
        with pytest.raises(ValueError):
            parse_torsion("1,2")


class TestHomology:
    def test_pattern_with_torsion(self):
        h = homology(ManifoldModel(2, 2, (3,)))
        parts = {
            0: FgAbelianGroup(1),
            2: FgAbelianGroup(2, FiniteAbelianGroup((3,))),
            3: FgAbelianGroup(2),
            5: FgAbelianGroup(1),
        }
        assert h.to_dict() == {str(d): str(part) for d, part in parts.items()}

    def test_sphere_pattern(self):
        h = homology(ManifoldModel(2, 0))
        assert h.to_dict() == {"0": "Z", "5": "Z"}

    @pytest.mark.parametrize("n,r", [(2, 0), (2, 2), (3, 1), (4, 3)])
    def test_poincare_symmetry_of_free_ranks(self, n, r):
        m = ManifoldModel(n, r, (2,))
        ranks = {d: rank for d, (rank, _copies) in homology(m)._counts.items()}
        for d in range(2 * n + 2):
            assert ranks.get(d, 0) == ranks.get(2 * n + 1 - d, 0)


class TestSigma:
    def test_examples(self):
        assert sigma_primes(ManifoldModel(2, 1, (12, 5))) == {2, 3, 5}
        assert sigma_primes(ManifoldModel(2, 1)) == set()
        assert sigma_primes(ManifoldModel(2, 1, (4,))) == {2}

    def test_ring_label(self):
        assert coefficient_ring_label(ManifoldModel(2, 1)) == "Z"
        assert coefficient_ring_label(ManifoldModel(2, 1, (12,))) == "Z[1/2,1/3]"


class TestLoopPresentation:
    def test_rank_one_shape(self):
        pres = loop_presentation(ManifoldModel(2, 1))
        assert pres.alphabet.degrees == (1, 2)
        assert [pres.alphabet.spell((i,)) for i in (1, 2)] == ["u1", "u1'"]
        assert dict(pres.relation.terms()) == {(1, 2): 1, (2, 1): -1}

    def test_degree_assignment(self):
        pres = loop_presentation(ManifoldModel(3, 2))
        assert pres.alphabet.degrees == (2, 3, 2, 3)
        assert pres.leading == (1, 2)

    def test_dims_match_generating_series(self):
        pres = loop_presentation(ManifoldModel(2, 2))
        series = loop_generating_series(2, 2, 12).inverse()
        assert hilbert_dims(pres, 12) == [c.numerator for c in series.coefficients()]

    def test_rank_zero_sphere_fallback(self):
        with pytest.raises(SphereFallback) as err:
            loop_presentation(ManifoldModel(2, 0, (2,)))
        assert "S^5" in str(err.value)
        assert err.value.primes == frozenset({2})


class TestFormAlgebra:
    def test_s_counts(self):
        m = ManifoldModel(2, 1, (3,))
        assert form_algebra_of(m, 3).dim_v == 4     # s = 2
        assert form_algebra_of(m, 5).dim_v == 2     # s = 1
        assert form_algebra_of(m, 0).dim_v == 2     # s = r

    def test_graded_symmetry_enforced(self):
        with pytest.raises(ValueError):
            FormAlgebra(((2, 1), (3, 1)), [[0, 1], [-1, 0]])  # even pairing degrees
        FormAlgebra(((2, 1), (3, 1)), [[0, 1], [1, 0]])

    @pytest.mark.parametrize("vdims", [((2.5, 1),), ((2, 1.0),), (("2", 1),)])
    def test_non_integer_vdims_rejected(self, vdims):
        # int() used to truncate a degree 2.5 to 2
        with pytest.raises(TypeError):
            FormAlgebra(vdims, [[1]])

    def test_manifold_form_is_quadratic(self):
        for p in (0, 2, 3):
            form = form_algebra_of(ManifoldModel(2, 2, (3,)), p)
            assert is_quadratic(form)

    def test_counterexample_not_quadratic(self):
        # phi(v1, v1) = 1 and nothing else pairs
        form = FormAlgebra(((2, 2),), [[1, 0], [0, 0]])
        assert not is_quadratic(form)

    def test_empty_v_vacuously_quadratic(self):
        m = ManifoldModel(2, 0)
        form = form_algebra_of(m, 0)
        assert form.dim_v == 0
        assert is_quadratic(form)

    def test_rational_gram_entries_stay_integers(self):
        form = form_algebra_of(ManifoldModel(2, 2), 0)
        assert all(type(x) is int for row in form.matrix for x in row)
        # the kernel is what Fraction entries gave, value for value and type for type
        as_fractions = FormAlgebra(form.vdims, [[Fraction(x) for x in row] for row in form.matrix])
        typed = [[(j, type(x), x) for j, x in v.items()] for v in kernel_relations(form)]
        assert typed == [[(j, type(x), x) for j, x in v.items()] for v in kernel_relations(as_fractions)]

    def test_kernel_dimension(self):
        form = form_algebra_of(ManifoldModel(2, 1), 0)
        assert len(kernel_relations(form)) == 3
        form2 = form_algebra_of(ManifoldModel(2, 2), 0)
        assert len(kernel_relations(form2)) == 15

    def test_kernel_contains_textbook_spanning_set(self):
        # w_i w_j, w_i' w_j', w_i w_i' - w_i' w_i, and the off-diagonal
        # cross terms all pair to zero; together with the diagonal
        # differences w_i w_i' - w_j w_j' they exhaust the kernel
        s = 2
        form = form_algebra_of(ManifoldModel(2, s), 0)
        dim = 2 * s
        kernel = kernel_relations(form)

        def e(i, j):
            v = [0] * (dim * dim)
            v[i * dim + j] = Fraction(1)
            return v

        def minus(a, b):
            return [x - y for x, y in zip(a, b)]

        listed = []
        for i in range(s):
            for j in range(s):
                listed.append(e(i, j))                    # w_i w_j
                listed.append(e(s + i, s + j))            # w_i' w_j'
                if i != j:
                    listed.append(e(i, s + j))            # w_i w_j', i != j
                    listed.append(e(s + i, j))            # w_i' w_j, i != j
            listed.append(minus(e(i, s + i), e(s + i, i)))  # w_i w_i' - w_i' w_i
        for row in listed:
            assert in_row_span(row, kernel, dim * dim)
        assert rank(listed, dim * dim) == 4 * s * s - s
        extra = minus(e(0, s), e(1, s + 1))               # w_1 w_1' - w_2 w_2'
        assert in_row_span(extra, kernel, dim * dim)
        assert rank(listed + [extra], dim * dim) == 4 * s * s - s + 1

    def test_kernel_equals_span_for_s_one(self):
        form = form_algebra_of(ManifoldModel(2, 1), 0)
        kernel = kernel_relations(form)
        listed = [
            [1, 0, 0, 0],   # w1 w1
            [0, 0, 0, 1],   # w1' w1'
            [0, 1, -1, 0],  # w1 w1' - w1' w1
        ]
        assert linalg.rank(kernel, 4) == rank(listed, 4) == 3
        for row in listed:
            assert in_row_span(row, kernel, 4)


class TestWeightThree:
    def test_manifold_form_weight_three_vanishes(self):
        form = form_algebra_of(ManifoldModel(2, 1), 0)
        assert quadratic_weight_dims(form.dim_v, kernel_relations(form), 3)[3] == 0

    @pytest.mark.parametrize(
        "m,p", [(ManifoldModel(2, 4), 0), (ManifoldModel(2, 2, (3, 3)), 3), (ManifoldModel(2, 5), 5)]
    )
    def test_large_form_weight_three_vanishes(self, m, p):
        # s = 4 and s = 5: weight-3 matrices of 1008 x 512 and 1980 x 1000,
        # whose entry bounds (264,160 and 1,003,960) are inside koszul.MAX_CELLS
        form = form_algebra_of(m, p)
        assert form.dim_v in (8, 10)
        assert quadratic_weight_dims(form.dim_v, kernel_relations(form), 3, p)[3] == 0

    def test_counterexample_cube_survives(self):
        form = FormAlgebra(((2, 1),), [[1]])
        rels = kernel_relations(form)
        assert rels == []
        assert quadratic_weight_dims(1, rels, 3)[3] == 1
        form2 = FormAlgebra(((2, 2),), [[1, 0], [0, 0]])
        assert quadratic_weight_dims(2, kernel_relations(form2), 3)[3] == 1

    def test_full_relation_space_kills_everything(self):
        assert quadratic_weight_dims(2, [{j: 1} for j in range(4)], 3)[3] == 0

    @pytest.mark.parametrize("p", [5, 7])
    def test_good_prime_matches_rational_dims(self, p):
        # p outside the torsion set: s = r and the kernel-relation algebra
        # has weight dims (1, 2r, 1, 0) over GF(p) and over Q alike
        m = ManifoldModel(2, 2, (6,))
        assert p not in sigma_primes(m)
        form_p = form_algebra_of(m, p)
        form_q = form_algebra_of(m, 0)
        assert form_p.dim_v == form_q.dim_v == 2 * m.r
        dims_p = quadratic_weight_dims(form_p.dim_v, kernel_relations(form_p), 4, char=p)
        dims_q = quadratic_weight_dims(form_q.dim_v, kernel_relations(form_q), 4)
        assert dims_p == dims_q == [1, 2 * m.r, 1, 0, 0]
