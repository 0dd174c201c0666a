import json

import pytest

from loopspace.abelian import FgAbelianGroup, FiniteAbelianGroup, GradedAbelianGroup
from loopspace.decomposition import (
    LocalizedAt,
    Loop,
    Moore,
    Point,
    Sphere,
    Wedge,
    classify,
    decomposition_report,
    fiber_homology,
    loop,
    loop_decomposition,
    polynomial_ring_dims,
    product,
    rational_series,
    serialize,
    smash,
    to_dict,
    torsion_wedge,
    wedge,
    weak_product_decomposition,
)
from loopspace.errors import SphereFallback
from loopspace.manifold import ManifoldModel
from loopspace.selftest import GRID
from loopspace.series import PowerSeries, loop_generating_series

# 0, Z/2, Z/2 + Z/3, Z/4 + Z/8 + Z/3, Z/2 + Z/2 as cyclic orders
FIBER_TORSIONS = ((), (2,), (2, 3), (4, 8, 3), (2, 2))


def series_poly(d, cap):
    return PowerSeries.from_polynomial(d, cap)


class TestTreeShapes:
    def test_rank_one_torsion_free(self):
        m = ManifoldModel(2, 1)
        assert serialize(loop_decomposition(m)) == "L(S2) x L(S3)"

    def test_rank_two(self):
        got = serialize(loop_decomposition(ManifoldModel(2, 2)))
        assert got == "L(S2) x L(S3) x L(W(S2, S3, Sm(W(S2, S3), L(S2 x S3))))"

    def test_rank_one_with_torsion(self):
        got = serialize(loop_decomposition(ManifoldModel(3, 1, (2,))))
        assert got == "L(S3) x L(S4) x L(W(M(Z/2,3), Sm(M(Z/2,3), L(S3 x S4))))"

    def test_rank_zero_falls_back_to_localized_sphere(self):
        got = loop_decomposition(ManifoldModel(2, 0, (2,)))
        assert got == LocalizedAt((2,), Sphere(5))
        assert serialize(got) == "S5[1/2]"
        assert serialize(loop_decomposition(ManifoldModel(3, 0))) == "S7"

    def test_torsion_wedge_contents(self):
        z = torsion_wedge(ManifoldModel(2, 3, (2, 4)))
        assert isinstance(z, Wedge)
        assert z.children == (
            Sphere(2),
            Sphere(2),
            Sphere(3),
            Sphere(3),
            Moore(FiniteAbelianGroup((2, 4)), 2),
        )

    def test_json_tree_round_trip(self):
        for m in (ManifoldModel(2, 2, (2,)), ManifoldModel(3, 1, (4, 3)), ManifoldModel(2, 0, (5,))):
            tree = loop_decomposition(m)
            doc = to_dict(tree)
            assert json.loads(json.dumps(doc)) == doc  # must be JSON-serializable

    def test_localization_tag_only_with_torsion(self):
        with_g = weak_product_decomposition(ManifoldModel(2, 2, (2,)), 2)
        without_g = weak_product_decomposition(ManifoldModel(2, 2), 2)
        assert all(isinstance(e, LocalizedAt) for e, _ in with_g.factors)
        assert all(isinstance(e, Loop) for e, _ in without_g.factors)


class TestConstructors:
    def test_wedge_unit_laws(self):
        assert wedge([]) == Point()
        assert wedge([Sphere(2)]) == Sphere(2)
        assert wedge([Point(), Sphere(2), Point()]) == Sphere(2)
        assert wedge([wedge([Sphere(2), Sphere(3)]), Sphere(4)]).children == (
            Sphere(2),
            Sphere(3),
            Sphere(4),
        )

    def test_smash_with_point_collapses(self):
        assert smash([Sphere(2), Point()]) == Point()

    def test_loop_of_point(self):
        assert loop(Point()) == Point()

    def test_moore_rejects_trivial_group(self):
        with pytest.raises(ValueError):
            Moore(FiniteAbelianGroup.trivial(), 2)
        with pytest.raises(ValueError):
            Moore(FiniteAbelianGroup((2,)), 1)


class TestRationalSeries:
    def test_odd_sphere_loops(self):
        assert rational_series(loop(Sphere(3)), 8) == series_poly({0: 1, 2: -1}, 8).inverse()

    def test_even_sphere_loops(self):
        got = rational_series(loop(Sphere(2)), 8)
        expected = series_poly({0: 1, 1: 1}, 8) * series_poly({0: 1, 2: -1}, 8).inverse()
        assert got == expected
        # and that telescopes to 1/(1-t)
        assert got == series_poly({0: 1, 1: -1}, 8).inverse()

    def test_moore_rationally_trivial(self):
        assert rational_series(Moore(FiniteAbelianGroup((4,)), 3), 6) == PowerSeries.one(6)

    def test_wedge_and_smash_rules(self):
        w = wedge([Sphere(2), Sphere(3)])
        assert rational_series(w, 6) == series_poly({0: 1, 2: 1, 3: 1}, 6)
        s = smash([Sphere(2), Sphere(3)])
        assert rational_series(s, 6) == series_poly({0: 1, 5: 1}, 6)

    def test_loop_rejects_circle_and_unsupported(self):
        with pytest.raises(ValueError):
            rational_series(loop(Sphere(1)), 4)
        with pytest.raises(ValueError):
            rational_series(Loop(Loop(Sphere(3))), 4)

    def test_loop_of_wedge_tensor_rule(self):
        # H(Loop SIGMA W) = tensor algebra on desuspended reduced homology
        w = wedge([Sphere(2), Sphere(2), Sphere(3)])
        got = rational_series(loop(w), 10)
        assert got == series_poly({0: 1, 1: -2, 2: -1}, 10).inverse()

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("orders", [(), (2,), (2, 3)])
    def test_master_identity(self, n, r, orders):
        m = ManifoldModel(n, r, orders)
        lhs = rational_series(loop_decomposition(m), 15)
        rhs = loop_generating_series(n, r, 15).inverse()
        assert lhs == rhs

    def test_weak_product_identity(self):
        for n, r in ((2, 1), (2, 2), (3, 2)):
            wp = weak_product_decomposition(ManifoldModel(n, r), 15)
            assert rational_series(wp, 15) == loop_generating_series(n, r, 15).inverse()

    def test_fibration_factorization(self):
        # Loop(M) = Loop(F) x Loop(Q) with F = (Loop Q) |x Z = Z v (Loop Q ^ Z)
        m = ManifoldModel(2, 2)
        z = torsion_wedge(m)
        omega_q = loop(product([Sphere(2), Sphere(3)]))
        f = wedge([z, smash([omega_q, z])])
        total = product([loop(f), loop(Sphere(2)), loop(Sphere(3))])
        assert rational_series(total, 15) == loop_generating_series(2, 2, 15).inverse()


def pair_walk_ring_dims(n, cap):
    """Z[u, v] dimensions by walking every monomial u^a v^b: the oracle."""
    dims = [0] * (cap + 1)
    for a in range(cap // (n - 1) + 1):
        base = a * (n - 1)
        for b in range((cap - base) // n + 1):
            dims[base + b * n] += 1
    return dims


def chained_fiber_homology(m, cap):
    """Each degree accumulated piece by piece, renormalising the torsion at
    every power and direct sum, as the fibre homology was first built: the
    oracle."""
    poly = pair_walk_ring_dims(m.n, cap)
    z_parts = {m.n: (m.r - 1, m.torsion.invariant_factors), m.n + 1: (m.r - 1, ())}
    acc = {}
    for d, c in enumerate(poly):
        for e, (rank, orders) in z_parts.items():
            if not c or d + e > cap or not (rank or orders):
                continue
            chunk = FgAbelianGroup(rank * c, FiniteAbelianGroup.from_cyclic_orders(orders * c))
            if d + e in acc:
                prev = acc[d + e]
                chunk = FgAbelianGroup(
                    prev.rank + chunk.rank,
                    FiniteAbelianGroup.from_cyclic_orders(
                        prev.torsion.invariant_factors + chunk.torsion.invariant_factors
                    ),
                )
            acc[d + e] = chunk
    return GradedAbelianGroup(acc)


class TestFiberHomology:
    def test_polynomial_ring_dims(self):
        assert polynomial_ring_dims(2, 7) == [1, 1, 2, 2, 3, 3, 4, 4]
        assert polynomial_ring_dims(3, 6) == [1, 0, 1, 1, 1, 1, 2]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_polynomial_ring_dims_match_pair_walk(self, n):
        for cap in range(81):
            assert polynomial_ring_dims(n, cap) == pair_walk_ring_dims(n, cap), cap

    @pytest.mark.parametrize("n,r", GRID)
    @pytest.mark.parametrize("orders", FIBER_TORSIONS)
    def test_closed_form_matches_chained_oracle(self, n, r, orders):
        m = ManifoldModel(n, r, orders)
        for cap in (0, 1, n, 60):
            assert fiber_homology(m, cap) == chained_fiber_homology(m, cap), cap

    def test_rank_one_torsion_free_is_contractible(self):
        h = fiber_homology(ManifoldModel(2, 1), 8)
        assert h.degrees() == []

    def test_rank_two(self):
        h = fiber_homology(ManifoldModel(2, 2), 4)
        assert h.part(2) == FgAbelianGroup(1)
        assert h.part(3) == FgAbelianGroup(2)
        assert h.part(4) == FgAbelianGroup(3)

    def test_torsion_only(self):
        h = fiber_homology(ManifoldModel(2, 1, (3,)), 5)
        z3 = FiniteAbelianGroup((3,))
        assert h.part(2) == FgAbelianGroup(0, z3)
        assert h.part(3) == FgAbelianGroup(0, z3)
        assert h.part(4) == FgAbelianGroup(0, z3.power(2))
        assert h.part(5) == FgAbelianGroup(0, z3.power(2))

    def test_against_convolution_oracle(self):
        # direct double loop over monomials and wedge pieces
        m = ManifoldModel(3, 3, (2, 4))
        cap = 12
        got = fiber_homology(m, cap)
        poly = polynomial_ring_dims(m.n, cap)
        for degree in range(cap + 1):
            rank = 0
            torsion_copies = 0
            for d in range(degree + 1):
                if poly[d] == 0:
                    continue
                if degree - d == m.n:
                    rank += poly[d] * (m.r - 1)
                    torsion_copies += poly[d]
                if degree - d == m.n + 1:
                    rank += poly[d] * (m.r - 1)
            expected = FgAbelianGroup(rank, m.torsion.power(torsion_copies))
            assert got.part(degree) == expected, degree

    def test_rank_zero_raises(self):
        with pytest.raises(SphereFallback):
            fiber_homology(ManifoldModel(2, 0), 5)


class TestReportFacade:
    def test_bundles_all_pieces(self):
        rep = decomposition_report(ManifoldModel(2, 2, (2,)), 6)
        assert rep.flags.rational_type == "hyperbolic"
        assert rep.fiber is not None
        assert rep.weak_product.factors[0] == (LocalizedAt((2,), Loop(Sphere(2))), 2)

    def test_rank_zero_has_no_fiber(self):
        rep = decomposition_report(ManifoldModel(2, 0), 6)
        assert rep.fiber is None
        assert rep.main == Sphere(5)


class TestClassify:
    def test_rank_zero_elliptic(self):
        flags = classify(ManifoldModel(2, 0))
        assert flags.rational_type == "elliptic"
        assert "S^5" in flags.reason
        assert flags.retract is None

    def test_rank_one_elliptic(self):
        flags = classify(ManifoldModel(3, 1))
        assert flags.rational_type == "elliptic"
        assert "S^3 x S^4" in flags.reason

    def test_rank_two_hyperbolic_no_exponent(self):
        flags = classify(ManifoldModel(2, 2, (2,)))
        assert flags.rational_type == "hyperbolic"
        assert flags.no_exponent
        assert flags.retract == "L(W(S2, S3))"
        assert "no homotopy exponent at any prime" in flags.no_exponent_note

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_elliptic_iff_rank_at_most_one(self, r):
        flags = classify(ManifoldModel(2, r))
        assert (flags.rational_type == "elliptic") == (r <= 1)


class TestResultTypes:
    def test_fields_cannot_be_assigned(self):
        flags = classify(ManifoldModel(2, 2))
        rep = decomposition_report(ManifoldModel(2, 2), 4)
        fields = [
            (flags, ("rational_type", "reason", "no_exponent", "no_exponent_note", "retract")),
            (rep, ("main", "weak_product", "fiber", "flags")),
        ]
        for obj, names in fields:
            for field in names:
                with pytest.raises(AttributeError):
                    setattr(obj, field, None)
            with pytest.raises(AttributeError):
                obj.extra = 1

    def test_same_query_results_compare_equal(self):
        m = ManifoldModel(2, 2, (2,))
        assert classify(m) == classify(ManifoldModel(2, 2, (2,)))
        assert decomposition_report(m, 6) == decomposition_report(m, 6)
        assert classify(m) != classify(ManifoldModel(2, 1, (2,)))

    def test_flags_to_dict_unchanged(self):
        assert classify(ManifoldModel(2, 0, (2,))).to_dict() == {
            "rational_type": "elliptic",
            "reason": "rational cohomology of S^5",
            "no_exponent": False,
            "no_exponent_note": "rationally elliptic; exponent question deferred to sphere literature",
            "retract": None,
        }
        assert classify(ManifoldModel(2, 2, (2, 3))).to_dict() == {
            "rational_type": "hyperbolic",
            "reason": "middle rank r >= 2 forces exponential homotopy growth",
            "no_exponent": True,
            "no_exponent_note": (
                "no homotopy exponent at any prime: L(W(S2, S3)) is a retract of the loop "
                "space, and away from [2, 3] sphere summands of unbounded dimension already appear"
            ),
            "retract": "L(W(S2, S3))",
        }
