import copy
import json

import pytest

from loopspace.abelian import FgAbelianGroup, FiniteAbelianGroup
from loopspace.cli import main
from loopspace.decomposition import (
    LocalizedAt,
    Loop,
    Moore,
    Point,
    Product,
    Smash,
    SpaceExpr,
    Sphere,
    WeakProduct,
    Wedge,
    classify,
    fiber_homology,
    localized,
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
from loopspace.manifold import ManifoldModel, sigma_primes
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
        assert loop_decomposition(ManifoldModel(2, 0)) == Sphere(5)

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

    @pytest.mark.parametrize("n,torsion", [(2, ()), (2, (2,)), (3, (2, 3)), (5, (5, 7))])
    def test_rank_zero_weak_product_follows_the_cap(self, n, torsion):
        # the looped top sphere, localized off the torsion, is the factor of
        # loop degree 2n, so it is present exactly from cap = 2n on
        m = ManifoldModel(n, 0, torsion)
        primes = sigma_primes(m)
        for cap in range(1, 2 * n + 4):
            expected = WeakProduct([(2 * n, 1)] if cap >= 2 * n else [], primes)
            assert weak_product_decomposition(m, cap) == expected, cap
        assert weak_product_decomposition(m, 2 * n).counts == ((m.dim - 1, 1),)

    def test_localization_tag_only_with_torsion(self):
        with_g = weak_product_decomposition(ManifoldModel(2, 2, (2,)), 2)
        without_g = weak_product_decomposition(ManifoldModel(2, 2), 2)
        assert (with_g.primes, without_g.primes) == ((2,), ())
        assert with_g.counts == without_g.counts == ((1, 2), (2, 3))
        assert serialize(with_g) == "PI[L(S2)[1/2]^2, L(S3)[1/2]^3]"

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    @pytest.mark.parametrize("orders", [(), (2,), (2, 3)])
    def test_counted_text_matches_the_per_factor_text(self, n, r, orders):
        # the former rule serialized one localized looped-sphere node per factor
        m = ManifoldModel(n, r, orders)
        for cap in range(1, 31):
            wp = weak_product_decomposition(m, cap)
            factors = [(localized(wp.primes, Loop(Sphere(w + 1))), k) for w, k in wp.counts]
            per_factor = "PI[" + ", ".join(f"{serialize(e)}^{k}" for e, k in factors) + "]"
            assert serialize(wp) == per_factor, cap


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

    def test_weak_product_rejects_negative_multiplicity(self):
        # a multiplicity counts copies; zero copies is an empty factor
        with pytest.raises(ValueError, match="multiplicity -1 of L\\(S3\\) is negative"):
            WeakProduct([(2, -1)])
        assert serialize(WeakProduct([(2, 0)])) == "PI[L(S3)^0]"

    @pytest.mark.parametrize("mult", [2.5, 2.0, "2"])
    def test_weak_product_rejects_non_integer_multiplicity(self, mult):
        # int() used to truncate a multiplicity 2.5 to 2
        with pytest.raises(TypeError):
            WeakProduct([(1, mult)])
        with pytest.raises(TypeError):
            WeakProduct([(mult, 1)])

    @pytest.mark.parametrize("w", [0, -1])
    def test_weak_product_rejects_loop_degree_below_one(self, w):
        # Loop(S^1) is not simply connected and S^0 is no sphere here
        with pytest.raises(ValueError, match=f"loop degree {w} must be >= 1"):
            WeakProduct([(w, 1)])

    def test_weak_product_normalises_its_primes(self):
        wp = WeakProduct([(1, 2)], [3, 2, 3])
        assert wp.primes == (2, 3)
        assert wp == WeakProduct([(1, 2)], (2, 3))
        assert serialize(wp) == "PI[L(S2)[1/2,1/3]^2]"
        assert WeakProduct([(1, 2)]).primes == ()


G2 = FiniteAbelianGroup((2,))

# one node of every class, each field holding a distinct value
NODES = [
    Point(),
    Sphere(3),
    Moore(G2, 2),
    Wedge([Sphere(2), Sphere(3)]),
    Product([Sphere(2), Sphere(3)]),
    Smash([Sphere(2), Sphere(3)]),
    Loop(Sphere(3)),
    LocalizedAt([2], Sphere(3)),
    WeakProduct([(2, 2)], [3]),
]


def concrete_node_classes(cls=SpaceExpr):
    for sub in cls.__subclasses__():
        if not sub.__name__.startswith("_"):
            yield sub
        yield from concrete_node_classes(sub)


class TestNodeFields:
    def test_every_node_class_is_listed(self):
        assert {type(node) for node in NODES} == set(concrete_node_classes())

    @pytest.mark.parametrize("node", NODES, ids=lambda node: type(node).__name__)
    def test_fields_are_exactly_the_constructor_attributes(self, node):
        assert set(vars(node)) == set(type(node)._fields)

    @pytest.mark.parametrize("node", NODES, ids=lambda node: type(node).__name__)
    def test_equality_follows_every_field(self, node):
        twin = copy.copy(node)
        assert twin == node and hash(twin) == hash(node)
        for field in type(node)._fields:
            changed = copy.copy(node)
            setattr(changed, field, object())
            assert changed != node, field

    def test_same_fields_of_another_class_are_unequal(self):
        children = [Sphere(2), Sphere(3)]
        assert len({Wedge(children), Product(children), Smash(children)}) == 3
        assert Loop(Sphere(3)) != LocalizedAt([], Sphere(3))


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

    @pytest.mark.parametrize("m", range(2, 10))
    def test_loop_of_a_sphere_is_the_tensor_algebra_on_one_class(self, m):
        # Bott-Samelson, for both parities of m
        expected = PowerSeries.from_polynomial({0: 1, m - 1: -1}, 30).inverse()
        assert rational_series(Loop(Sphere(m)), 30) == expected

    def test_loop_of_a_point_is_one(self):
        assert rational_series(Loop(Point()), 30) == PowerSeries.one(30)

    def test_loop_rejects_circle_and_unsupported(self):
        with pytest.raises(ValueError, match="non-simply-connected"):
            rational_series(loop(Sphere(1)), 4)
        with pytest.raises(ValueError):
            rational_series(Loop(Loop(Sphere(3))), 4)

    @pytest.mark.parametrize(
        "space",
        [
            wedge([loop(Sphere(3)), Sphere(2)]),  # true series (1+t)/(1-t-t^2)
            wedge([product([Sphere(2), Sphere(2)]), Sphere(5)]),  # true 1/(1-2t+t^2-t^4)
            smash([loop(Sphere(3)), loop(Sphere(3))]),  # nonzero cup products
        ],
        ids=str,
    )
    def test_loop_rule_refuses_what_is_not_a_suspension(self, space):
        # the tensor-algebra rule once gave 1 + 2t + 4t^2 + 9t^3 for the first two
        with pytest.raises(ValueError, match="unsupported loop argument"):
            rational_series(loop(space), 6)

    def test_loop_rule_takes_a_smash_with_one_suspension_factor(self):
        # X ^ S^3 is the suspension S^3 ^ X, so Loop of it is the tensor algebra
        # on t^2 times the reduced series of X = Loop(S^2 x S^3), 1/((1-t)(1-t^2))
        one = PowerSeries.one(10)
        loops_x = (series_poly({0: 1, 1: -1}, 10) * series_poly({0: 1, 2: -1}, 10)).inverse()
        expected = (one - series_poly({2: 1}, 10) * (loops_x - one)).inverse()
        x = loop(product([Sphere(2), Sphere(3)]))
        assert rational_series(loop(smash([x, localized([2], Sphere(3))])), 10) == expected

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


def printed_degrees(parts):
    """{degree: FgAbelianGroup} as to_dict() prints it: zero degrees dropped."""
    return {str(d): str(g) for d, g in sorted(parts.items()) if not g.is_zero()}


def chained_fiber_homology(m, cap):
    """Each degree accumulated piece by piece, renormalising the torsion at
    every power and direct sum, as the fibre homology was first built: the
    oracle, printed degree by degree."""
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
    return printed_degrees(acc)


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
            assert fiber_homology(m, cap).to_dict() == chained_fiber_homology(m, cap), cap

    def test_rank_one_torsion_free_is_contractible(self):
        h = fiber_homology(ManifoldModel(2, 1), 8)
        assert h.to_dict() == {} and str(h) == "0"

    def test_rank_two(self):
        h = fiber_homology(ManifoldModel(2, 2), 4)
        assert h.to_dict() == {"2": "Z", "3": "Z^2", "4": "Z^3"}

    def test_torsion_only(self):
        h = fiber_homology(ManifoldModel(2, 1, (3,)), 5)
        z3 = FiniteAbelianGroup((3,))
        parts = {2: z3, 3: z3, 4: z3.power(2), 5: z3.power(2)}
        assert h.to_dict() == {str(d): str(FgAbelianGroup(0, part)) for d, part in parts.items()}

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
            assert got.to_dict().get(str(degree), "0") == str(expected), degree

    @pytest.mark.parametrize("n,r,orders", [(3, 2, (2,)), (4, 5, (3,))])
    def test_dict_matches_checked_constructor(self, n, r, orders):
        # the closed form with every torsion part re-checked by FiniteAbelianGroup
        m = ManifoldModel(n, r, orders)
        cap = 60
        poly = polynomial_ring_dims(n, cap)
        expected = {}
        for d in range(cap - n + 1):
            below = poly[d - 1] if d else 0
            torsion = FiniteAbelianGroup(sorted(m.torsion.invariant_factors * poly[d]))
            expected[d + n] = FgAbelianGroup((r - 1) * (poly[d] + below), torsion)
        assert fiber_homology(m, cap).to_dict() == printed_degrees(expected)

    def test_rank_zero_raises(self):
        with pytest.raises(SphereFallback):
            fiber_homology(ManifoldModel(2, 0), 5)

    def test_rank_zero_report_has_no_fiber(self, capsys):
        assert main(["report", "--n", "2", "--r", "0", "--torsion", "-", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fiber_homology"] is None
        assert doc["decomposition"] == "S5"


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
        for field in ("rational_type", "reason", "no_exponent", "no_exponent_note", "retract"):
            with pytest.raises(AttributeError):
                setattr(flags, field, None)
        with pytest.raises(AttributeError):
            flags.extra = 1

    def test_same_query_results_compare_equal(self):
        m, same = ManifoldModel(2, 2, (2,)), ManifoldModel(2, 2, (2,))
        assert classify(m) == classify(same)
        assert loop_decomposition(m) == loop_decomposition(same)
        assert weak_product_decomposition(m, 6) == weak_product_decomposition(same, 6)
        assert fiber_homology(m, 6).to_dict() == fiber_homology(same, 6).to_dict()
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
