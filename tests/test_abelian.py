import random
from collections import defaultdict

import pytest

from loopspace.abelian import FgAbelianGroup, FiniteAbelianGroup, GradedAbelianGroup
from loopspace.manifold import ManifoldModel
from loopspace.numtheory import factorint


def per_index_sorting_from_cyclic_orders(orders):
    """The former normalisation, which re-sorts each prime's exponents for
    every invariant factor: the oracle."""
    by_prime = defaultdict(list)
    for o in orders:
        for p, e in factorint(int(o)):
            by_prime[p].append(e)
    width = max((len(v) for v in by_prime.values()), default=0)
    factors = []
    for i in range(width):
        d = 1
        for p, exps in by_prime.items():
            exps = sorted(exps, reverse=True)
            if i < len(exps):
                d *= p ** exps[i]
        factors.append(d)
    return FiniteAbelianGroup(sorted(factors))


def per_factor_str(g):
    """The former text form, one join item per invariant factor: the oracle."""
    if not g.invariant_factors:
        return "0"
    return " + ".join(f"Z/{d}" for d in g.invariant_factors)


def keep_away(order, invert):
    """The part of a cyclic order prime to every p in invert."""
    for p, e in factorint(order):
        if p in invert:
            order //= p**e
    return order


def random_orders(rng):
    return [rng.choice((1, 1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 25, 27, 30, 49, 360))
            for _ in range(rng.randrange(12))]


class TestFiniteAbelianGroup:
    def test_normalization_to_invariant_factors(self):
        g = FiniteAbelianGroup.from_cyclic_orders([2, 4, 3])
        assert g.invariant_factors == (2, 12)

    def test_order_one_summands_dropped(self):
        assert FiniteAbelianGroup.from_cyclic_orders([1, 1, 6]).invariant_factors == (6,)

    def test_broken_chain_rejected(self):
        with pytest.raises(ValueError):
            FiniteAbelianGroup((4, 6))
        with pytest.raises(ValueError):
            FiniteAbelianGroup((1,))

    def test_chinese_remainder_recombination(self):
        g = FiniteAbelianGroup.from_cyclic_orders([8, 4, 2, 9, 3, 5])
        assert g.invariant_factors == (2, 12, 360)

    def test_primes(self):
        assert FiniteAbelianGroup.from_cyclic_orders([12, 5]).primes() == {2, 3, 5}
        assert FiniteAbelianGroup.from_cyclic_orders([4]).primes() == {2}
        assert FiniteAbelianGroup.trivial().primes() == set()

    def test_tensor_dim(self):
        g = FiniteAbelianGroup.from_cyclic_orders([2, 4, 3])  # Z/2 + Z/12
        assert g.tensor_dim_mod(2) == 2
        assert g.tensor_dim_mod(3) == 1
        assert g.tensor_dim_mod(5) == 0

    def test_localize(self):
        g = FiniteAbelianGroup.from_cyclic_orders([12])
        assert g.localize({2}) == FiniteAbelianGroup((3,))
        assert g.localize({2, 3}).is_trivial()
        assert g.localize(set()) == g

    def test_power_and_direct_sum(self):
        g = FiniteAbelianGroup.from_cyclic_orders([3])
        assert g.power(2).invariant_factors == (3, 3)
        h = FiniteAbelianGroup.from_cyclic_orders([2])
        assert g.direct_sum(h).invariant_factors == (6,)

    def test_normalization_matches_per_index_sorting_oracle(self):
        rng = random.Random(7)
        for _ in range(300):
            orders = random_orders(rng)
            assert FiniteAbelianGroup.from_cyclic_orders(orders) == per_index_sorting_from_cyclic_orders(
                orders
            ), orders

    def test_power_repeats_factors_as_normalised_sum_would(self):
        rng = random.Random(8)
        for _ in range(100):
            g = FiniteAbelianGroup.from_cyclic_orders(random_orders(rng))
            for k in (0, 1, 2, 5):
                assert g.power(k) == per_index_sorting_from_cyclic_orders(g.invariant_factors * k)
        assert FiniteAbelianGroup((2, 12)).power(2).invariant_factors == (2, 2, 12, 12)

    def test_str(self):
        assert str(FiniteAbelianGroup.trivial()) == "0"
        assert str(FiniteAbelianGroup((2, 12))) == "Z/2 + Z/12"

    def test_power_matches_checked_constructor(self):
        rng = random.Random(9)
        for _ in range(200):
            g = FiniteAbelianGroup.from_cyclic_orders(random_orders(rng))
            for k in range(6):
                got = g.power(k)
                assert got == FiniteAbelianGroup(sorted(g.invariant_factors * k)), (g, k)
                assert type(got.invariant_factors) is tuple
        with pytest.raises(ValueError):
            FiniteAbelianGroup((2,)).power(-1)

    def test_stays_immutable(self):
        g = FiniteAbelianGroup((2, 4, 12))
        for group in (g, g.power(3)):
            for name in ("invariant_factors", "_counts", "other"):
                with pytest.raises(AttributeError):
                    setattr(group, name, (3,))
        assert g.invariant_factors == (2, 4, 12)
        assert g.power(3).invariant_factors == (2, 2, 2, 4, 4, 4, 12, 12, 12)

    def test_power_too_large_to_list_builds_at_once(self):
        g = FiniteAbelianGroup((2, 12)).power(10**15)
        assert g.tensor_dim_mod(2) == 2 * 10**15
        assert g.tensor_dim_mod(3) == 10**15 and g.primes() == {2, 3}
        assert g == FiniteAbelianGroup((2, 12)).power(10**15) != g.power(2)
        assert g.localize({2}) == FiniteAbelianGroup((3,)).power(10**15)

    def test_counts_agree_with_invariant_factors_and_per_index_sorting_oracle(self):
        rng = random.Random(7)  # the groups of test_normalization_matches_per_index_sorting_oracle
        orders = [random_orders(rng) for _ in range(300)]
        groups = [FiniteAbelianGroup.from_cyclic_orders(o) for o in orders]
        for i, (g, o) in enumerate(zip(groups, orders)):
            # the derived chain is a chain with g's elementary divisors, so it is g's
            assert FiniteAbelianGroup(g.invariant_factors) == g, o
            for h in groups[:40]:
                assert (g == h) == (g.invariant_factors == h.invariant_factors), (g, h)
                assert g != h or hash(g) == hash(h)
            h, other = groups[i - 1], orders[i - 1]
            assert g.direct_sum(h) == per_index_sorting_from_cyclic_orders(o + other), (o, other)
            for k in (0, 1, 3):
                assert g.power(k) == per_index_sorting_from_cyclic_orders(o * k), (o, k)
            for invert in (set(), {2}, {3, 5}, {2, 3, 5, 7}):
                kept = [keep_away(d, invert) for d in o]
                assert g.localize(invert) == per_index_sorting_from_cyclic_orders(kept), (o, invert)

    def test_str_matches_per_factor_join(self):
        rng = random.Random(10)
        for _ in range(200):
            g = FiniteAbelianGroup.from_cyclic_orders(random_orders(rng))
            for k in (0, 1, 3):
                assert str(g.power(k)) == per_factor_str(g.power(k))
        for factors in ((), (2,), (2, 2), (2, 4, 4, 4, 8), (3, 3, 6, 12, 12)):
            g = FiniteAbelianGroup(factors)
            assert str(g) == per_factor_str(g)

    @pytest.mark.parametrize("bad", [(2.5, 4.0), (2.0,), ("6",), (2, 4.0)])
    def test_non_integer_factors_rejected(self, bad):
        with pytest.raises(TypeError):
            FiniteAbelianGroup(bad)

    @pytest.mark.parametrize("bad", [[2.9, 4], [4, 2.0], ["6"]])
    def test_non_integer_cyclic_orders_rejected(self, bad):
        with pytest.raises(TypeError):
            FiniteAbelianGroup.from_cyclic_orders(bad)

    def test_non_integer_manifold_torsion_rejected(self):
        with pytest.raises(TypeError):
            ManifoldModel(2, 1, [2.7])
        assert ManifoldModel(2, 1, [2, 3]).torsion.invariant_factors == (6,)


class TestFgAbelianGroup:
    def test_str_formats(self):
        assert str(FgAbelianGroup(0)) == "0"
        assert str(FgAbelianGroup(1)) == "Z"
        g = FgAbelianGroup(2, FiniteAbelianGroup((3, 9)))
        assert str(g) == "Z^2 + Z/3 + Z/9"

    def test_localize_keeps_rank(self):
        g = FgAbelianGroup(1, FiniteAbelianGroup((12,)))
        assert g.localize({2, 3}) == FgAbelianGroup(1)

    def test_localize_partial(self):
        g = FgAbelianGroup(0, FiniteAbelianGroup((12,)))
        assert g.localize({2}) == FgAbelianGroup(0, FiniteAbelianGroup((3,)))

    def test_localize_identity_at_empty_set(self):
        g = FgAbelianGroup(2, FiniteAbelianGroup.from_cyclic_orders([4, 3]))
        assert g.localize(set()) == g

    @pytest.mark.parametrize("bad", [1.5, 2.0, "1"])
    def test_non_integer_rank_rejected(self, bad):
        with pytest.raises(TypeError):
            FgAbelianGroup(bad)

    @pytest.mark.parametrize("bad", [(2,), [2, 4], 6])
    def test_torsion_must_be_a_finite_group(self, bad):
        with pytest.raises(TypeError, match="torsion must be a FiniteAbelianGroup"):
            FgAbelianGroup(1, bad)

    def test_power(self):
        g = FgAbelianGroup(1, FiniteAbelianGroup((2,)))
        assert g.power(3) == FgAbelianGroup(3, FiniteAbelianGroup((2, 2, 2)))
        assert g.power(0).is_zero()


class TestGradedAbelianGroup:
    def test_zero_parts_dropped(self):
        g = GradedAbelianGroup(FiniteAbelianGroup.trivial(), {0: (1, 0), 3: (0, 0)})
        assert g.to_dict() == {"0": "Z"}

    def test_zero_degrees_dropped(self):
        h = GradedAbelianGroup(FiniteAbelianGroup.trivial(), {2: (0, 5), 3: (2, 5)})  # copies of the trivial group
        assert h.to_dict() == {"3": "Z^2"} and str(h) == "H_3 = Z^2"
        assert str(GradedAbelianGroup(FiniteAbelianGroup((2,)), {4: (0, 0)})) == "0"

    def test_str_and_dict(self):
        g = GradedAbelianGroup(FiniteAbelianGroup((3,)), {2: (2, 1)})
        assert str(g) == "H_2 = Z^2 + Z/3"
        assert g.to_dict() == {"2": "Z^2 + Z/3"}

    @pytest.mark.parametrize("bad", [2.5, 2.0, "2"])
    def test_non_integer_degree_rejected(self, bad):
        # int() used to truncate 2.5 to degree 2
        with pytest.raises(TypeError):
            GradedAbelianGroup(FiniteAbelianGroup.trivial(), {bad: (1, 0)})

    @pytest.mark.parametrize("counts", [(-1, 0), (1, -2)])
    def test_negative_counts_rejected(self, counts):
        # they used to print as "Z^-1", or vanish from the text
        with pytest.raises(ValueError, match="must be >= 0"):
            GradedAbelianGroup(FiniteAbelianGroup((2,)), {2: counts})

    def test_matches_the_groups_of_its_parts(self):
        # each degree built as a group of its own and printed by
        # FgAbelianGroup is the oracle for the counts' printed form
        rng = random.Random(31)
        for _ in range(200):
            g = FiniteAbelianGroup.from_cyclic_orders(random_orders(rng))
            degrees = rng.sample(range(31), rng.randint(0, 6))
            counts = {d: (rng.randint(0, 3), rng.randint(0, 4)) for d in degrees}
            got = GradedAbelianGroup(g, counts)
            parts = {d: FgAbelianGroup(rank, g.power(copies)) for d, (rank, copies) in sorted(counts.items())}
            parts = {d: part for d, part in parts.items() if not part.is_zero()}
            assert got.to_dict() == {str(d): str(part) for d, part in parts.items()}
            assert str(got) == (", ".join(f"H_{d} = {part}" for d, part in parts.items()) or "0")
