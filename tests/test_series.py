import math
import random
import re
from fractions import Fraction

import pytest

from loopspace.decomposition import Sphere, WeakProduct, loop, rational_series
from loopspace.errors import ComputationFailure
from loopspace.lyndon import _lyndon_words, lie_dims
from loopspace.manifold import ManifoldModel, loop_alphabet, loop_presentation
from loopspace.numtheory import mobius_sieve
from loopspace.rewrite import hilbert_dims
from loopspace.selftest import GRID
from loopspace.series import (
    PowerSeries,
    euler_product,
    loop_generating_series,
    mobius_counts,
    pbw_series_check,
    sphere_summand_counts,
)


def poly(d, cap):
    return PowerSeries.from_polynomial(d, cap)


def random_unit_series(rng, cap):
    return PowerSeries([1] + [rng.randint(-4, 4) for _ in range(cap)], cap)


def power(series, e):
    """series^e by repeated multiplication (by the inverse for e < 0)."""
    base = series if e >= 0 else series.inverse()
    out = PowerSeries.one(series.cap)
    for _ in range(abs(e)):
        out = out * base
    return out


class TestRingOps:
    def test_geometric_series(self):
        inv = poly({0: 1, 1: -1}, 8).inverse()
        assert inv.coefficients() == [1] * 9

    def test_log_of_product_oracle(self):
        # log((1-t)(1-t^2)) = -sum t^k/k - sum t^(2k)/k, summed directly;
        # log() returns k times the t^k coefficient
        cap = 8
        got = (poly({0: 1, 1: -1}, cap) * poly({0: 1, 2: -1}, cap)).log()
        expected = [Fraction(0)] * (cap + 1)
        for k in range(1, cap + 1):
            expected[k] -= Fraction(1, k)
            if 2 * k <= cap:
                expected[2 * k] -= Fraction(1, k)
        assert got.coefficients() == [k * e for k, e in enumerate(expected)]
        assert got.coefficients()[1:5] == [-1, -3, -1, -3]

    def test_inverse_linear_recurrence_oracle(self):
        # 1/(1 - 2t - 2t^2 + t^3) satisfies a_d = 2a_(d-1) + 2a_(d-2) - a_(d-3)
        cap = 10
        inv = poly({0: 1, 1: -2, 2: -2, 3: 1}, cap).inverse()
        a = [1, 2, 6]
        for d in range(3, cap + 1):
            a.append(2 * a[d - 1] + 2 * a[d - 2] - a[d - 3])
        assert inv.coefficients() == a
        assert a[:4] == [1, 2, 6, 15]

    def test_mul_inverse_identity(self):
        rng = random.Random(41)
        for _ in range(20):
            s = random_unit_series(rng, 7)
            assert s * s.inverse() == PowerSeries.one(7)

    def test_exp_log_roundtrip(self):
        # from_log_derivative is exp of the integrated log derivative
        rng = random.Random(43)
        for _ in range(20):
            s = random_unit_series(rng, 7)
            assert PowerSeries.from_log_derivative(s.log().coeffs, 7) == s

    def test_log_of_product_is_sum(self):
        rng = random.Random(47)
        for _ in range(20):
            a, b = random_unit_series(rng, 6), random_unit_series(rng, 6)
            assert (a * b).log() == a.log() + b.log()

    def test_cap_propagates_as_minimum(self):
        a = PowerSeries([1, 1, 1], 2)
        b = PowerSeries([1, 2, 3, 4, 5], 4)
        assert (a * b).cap == 2
        assert (a + b).cap == 2

    def test_preconditions(self):
        with pytest.raises(ValueError):
            PowerSeries([0, 1], 1).inverse()
        with pytest.raises(ValueError):
            PowerSeries([3, 1]).inverse()  # 1/3 is not an integer
        with pytest.raises(ValueError):
            PowerSeries([2, 1], 1).log()
        with pytest.raises(TypeError):
            PowerSeries([1, Fraction(1, 2)])
        with pytest.raises(ComputationFailure):
            PowerSeries.from_log_derivative([0, 1, 0], 2)  # 2 h_2 = 1

    def test_from_polynomial_refuses_negative_exponent(self):
        # an exponent above the cap is truncated away, a negative one refused
        assert PowerSeries.from_polynomial({0: 1, 9: 7}, 4) == PowerSeries.one(4)
        with pytest.raises(ValueError, match="exponent -1 is negative"):
            PowerSeries.from_polynomial({0: 1, -1: 7}, 4)

    def test_pow_int_against_repeated_mul(self):
        # Bott-Samelson oracle: a weak-product factor (w, c) is c copies of
        # Loop(S^(w+1)), whose series the loop rule builds on its own route;
        # a negative power is no weak-product factor, so -2 checks the
        # log-derivative rebuild alone
        cap = 12
        for w in (1, 2, 3, 5):
            s = rational_series(loop(Sphere(w + 1)), cap)
            for mult in (0, 1, 2, 5):
                assert rational_series(WeakProduct([(w, mult)]), cap) == power(s, mult), (w, mult)
                assert rational_series(WeakProduct([(w, mult)], [2, 3]), cap) == power(s, mult), (w, mult)
            minus_two = [-2 * c for c in s.log().coeffs]
            assert PowerSeries.from_log_derivative(minus_two, cap) == power(s, -2), w
            with pytest.raises(ValueError, match="multiplicity -2"):
                WeakProduct([(w, -2)])
        mixed = WeakProduct([(1, 0), (2, 1), (3, 5)])
        expected = rational_series(loop(Sphere(3)), cap) * power(rational_series(loop(Sphere(4)), cap), 5)
        assert rational_series(mixed, cap) == expected

    def test_euler_product_of_a_degree_past_the_cap_is_one(self):
        assert euler_product([(7, 3)], 6) == PowerSeries.one(6)
        assert euler_product([(2, 1), (2, 2)], 6) == euler_product([(2, 3)], 6)


class TestGeneratingSeries:
    def test_rank_one_factorizes(self):
        assert loop_generating_series(2, 1, 6) == (
            poly({0: 1, 1: -1}, 6) * poly({0: 1, 2: -1}, 6)
        )

    def test_rank_two_polynomial(self):
        assert loop_generating_series(2, 2, 5) == poly({0: 1, 1: -2, 2: -2, 3: 1}, 5)

    def test_n3_rank_one(self):
        assert loop_generating_series(3, 1, 6) == poly({0: 1, 2: -1, 3: -1, 5: 1}, 6)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            loop_generating_series(1, 1, 5)
        with pytest.raises(ValueError):
            loop_generating_series(2, 0, 5)

    @pytest.mark.parametrize("n,r", [(2, 1), (2, 2), (3, 2)])
    def test_inverse_matches_word_counts(self, n, r):
        pres = loop_presentation(ManifoldModel(n, r))
        series = loop_generating_series(n, r, 10).inverse()
        assert series.coefficients() == hilbert_dims(pres, 10)


class TestMobiusCounts:
    def test_mobius_table(self):
        assert mobius_sieve(4)[1:] == [1, -1, -1, 0]
        for cap in (0, 1, 2, 30, 500):
            assert mobius_sieve(cap) == [0] + [mobius(k) for k in range(1, cap + 1)]

    @pytest.mark.parametrize("n,cap", [(2, 0), (2, 3), (2, 4), (2, 12), (3, 5), (3, 6), (5, 30)])
    def test_rank_zero_counts_one_top_sphere(self, n, cap):
        # away from the torsion primes the manifold is S^(2n+1): one summand
        # of loop degree 2n, and no loop presentation behind it
        assert sphere_summand_counts(n, 0, cap) == {w: int(w == 2 * n) for w in range(1, cap + 1)}

    def test_rank_zero_counts_refuse_what_rank_one_refuses(self):
        for r in (0, 1):
            with pytest.raises(ValueError, match="cap must be >= 0"):
                sphere_summand_counts(2, r, -1)
            with pytest.raises(ValueError, match="n must be >= 2"):
                sphere_summand_counts(1, r, 5)

    def test_rank_one_counts(self):
        counts = sphere_summand_counts(2, 1, 8)
        assert counts[1] == 1 and counts[2] == 1
        assert all(counts[w] == 0 for w in range(3, 9))

    def test_rank_two_counts(self):
        counts = sphere_summand_counts(2, 2, 3)
        assert counts == {1: 2, 2: 3, 3: 5}

    @pytest.mark.parametrize("n,r", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 2)])
    def test_integrality_to_cap_twenty(self, n, r):
        counts = sphere_summand_counts(n, r, 20)
        assert all(isinstance(v, int) and v >= 0 for v in counts.values())

    def test_negative_count_is_hard_failure(self):
        message = "summand count l[1] = -1 is not a non-negative integer"
        with pytest.raises(ComputationFailure, match=re.escape(message)):
            mobius_counts(PowerSeries([1, 1], 4))
        assert failure_message(dense_mobius_counts, PowerSeries([1, 1], 4).coeffs) == message

    def test_fractional_count_is_hard_failure(self, monkeypatch):
        # log(1 - t + t^2) has eta_2 = 1/2; the degree-2 count comes out -1.
        series = PowerSeries([1, -1, 1], 4)
        message = "summand count l[2] = -1 is not a non-negative integer"
        with pytest.raises(ComputationFailure, match=re.escape(message)):
            mobius_counts(series)
        assert failure_message(dense_mobius_counts, series.coeffs) == message
        # An integral series is a product of (1 - t^w)^(-l_w) with integer l_w,
        # so its counts are integers.  P = (0, 0, -1) is the log derivative of
        # 1 - t^2/2, which is not integral, and gives l[2] = (P_1 - P_2)/2 = 1/2.
        monkeypatch.setattr(PowerSeries, "log", lambda self: PowerSeries([0, 0, -1]))
        message = "summand count l[2] = 1/2 is not a non-negative integer"
        with pytest.raises(ComputationFailure, match=re.escape(message)):
            mobius_counts(PowerSeries([1, 1, 0]))

    def test_free_case_matches_all_lyndon_words(self):
        # 1 - r t^(n-1) - r t^n drops the relation term: every Lyndon word counts
        for n, r in ((2, 1), (2, 2), (3, 2)):
            counts = mobius_counts(poly({0: 1, n - 1: -r, n: -r}, 8))
            by_degree = _lyndon_words(loop_alphabet(n, r).degrees, 8, None)
            for w in range(1, 9):
                assert counts[w] == len(by_degree[w])

    def test_hyperbolic_growth_rank_two(self):
        counts = sphere_summand_counts(2, 2, 20)
        total20 = sum(counts.values())
        total10 = sum(v for w, v in counts.items() if w <= 10)
        assert total20 > 2 * total10


def dense_log(coeffs):
    """The dense O(cap^2) log recurrence in Fractions over every coefficient: the oracle."""
    cap = len(coeffs) - 1
    out = [Fraction(0)] * (cap + 1)
    for n in range(1, cap + 1):
        s = Fraction(coeffs[n] * n)
        for k in range(1, n):
            s -= out[k] * k * coeffs[n - k]
        out[n] = s / n
    return out


def dense_exp(coeffs):
    """exp of a Fraction list with constant term 0, by n e_n = sum k c_k e_(n-k)."""
    cap = len(coeffs) - 1
    out = [Fraction(1)] + [Fraction(0)] * cap
    for n in range(1, cap + 1):
        out[n] = sum((k * coeffs[k] * out[n - k] for k in range(1, n + 1)), Fraction(0)) / n
    return out


def dense_inverse(coeffs):
    """The dense O(cap^2) inverse recurrence in Fractions over every coefficient: the oracle."""
    cap = len(coeffs) - 1
    inv = [Fraction(0)] * (cap + 1)
    inv[0] = Fraction(1) / coeffs[0]
    for n in range(1, cap + 1):
        s = sum((coeffs[k] * inv[n - k] for k in range(1, n + 1)), Fraction(0))
        inv[n] = -s / coeffs[0]
    return inv


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def mobius(n):
    """The Moebius function by trial division: the sieve's oracle."""
    mu, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return mu


def dense_mobius_counts(coeffs):
    """Moebius inversion of the dense log, in Fraction throughout: the oracle."""
    eta = dense_log(coeffs)
    counts = {}
    for w in range(1, len(coeffs)):
        total = sum((-Fraction(mobius(j), j) * eta[w // j] for j in divisors(w)), Fraction(0))
        if total.denominator != 1 or total < 0:
            raise ComputationFailure(f"summand count l[{w}] = {total} is not a non-negative integer")
        counts[w] = int(total)
    return counts


def failure_message(route, arg):
    with pytest.raises(ComputationFailure) as info:
        route(arg)
    return str(info.value)


def random_coeffs(rng, cap, density, integral, constant=1):
    def coeff():
        if rng.random() >= density:
            return 0
        return Fraction(rng.randint(-5, 5), 1 if integral else rng.randint(1, 6))

    return [Fraction(constant)] + [coeff() for _ in range(cap)]


def rescaled(coeffs):
    """(f(D t), D) for D the lcm of the denominators of f, so that f(D t) is integral.

    [t^n] of the log derivative and of the inverse of f(D t) is D^n times
    that of f, which is how the integer routes answer a rational series.
    """
    d = math.lcm(*(c.denominator for c in coeffs))
    return PowerSeries([c.numerator * (d**j // c.denominator) for j, c in enumerate(coeffs)]), d


SPARSE_CASES = [
    (cap, density, integral)
    for cap in (0, 1, 40)
    for density in (0.1, 1.0)
    for integral in (True, False)
]


class TestSparseRecurrences:
    """``log`` and ``inverse`` loop over nonzero terms; the dense Fraction loops are oracles."""

    @pytest.mark.parametrize("cap,density,integral", SPARSE_CASES)
    def test_log_matches_dense_oracle(self, cap, density, integral):
        rng = random.Random(f"log {cap} {density} {integral}")
        for _ in range(8):
            coeffs = random_coeffs(rng, cap, density, integral)
            series, d = rescaled(coeffs)
            expected = [n * e * d**n for n, e in enumerate(dense_log(coeffs))]
            assert series.log().coefficients() == expected, coeffs

    @pytest.mark.parametrize("cap,density,integral", SPARSE_CASES)
    def test_inverse_matches_dense_oracle(self, cap, density, integral):
        rng = random.Random(f"inverse {cap} {density} {integral}")
        for constant in (1, -1):
            coeffs = random_coeffs(rng, cap, density, integral, constant)
            series, d = rescaled(coeffs)
            expected = [c * d**n for n, c in enumerate(dense_inverse(coeffs))]
            assert series.inverse().coefficients() == expected, coeffs

    def test_log_of_integral_series_has_integral_p(self):
        # q = 1 - 2t - 2t^2 + t^3: P_1 = -2, P_2 = 2(-2) - (-2)(-2) = -8,
        # P_3 = 3(1) - (-2)(-8) - (-2)(-2) = -17, and every P_n = n eta_n is an integer
        q = loop_generating_series(2, 2, 60)
        p = q.log().coeffs
        assert p[:4] == (0, -2, -8, -17)
        assert all(type(c) is int for c in p)
        assert list(p) == [n * e for n, e in enumerate(dense_log(q.coeffs))]

    @pytest.mark.parametrize(
        "n,r,cap", [(2, 1, 30), (2, 2, 200), (3, 3, 200), (4, 2, 120), (2, 50, 200)]
    )
    def test_summand_counts_match_dense_log_route(self, n, r, cap):
        assert sphere_summand_counts(n, r, cap) == dense_mobius_counts(
            loop_generating_series(n, r, cap).coeffs
        )

    def test_counts_match_dense_route_on_random_denominators(self):
        # the same counts, or the same failure
        rng = random.Random(59)
        for _ in range(40):
            series, _ = rescaled(random_coeffs(rng, 12, 0.3, True))
            try:
                expected = dense_mobius_counts(series.coeffs)
            except ComputationFailure as e:
                assert failure_message(mobius_counts, series) == str(e)
            else:
                assert mobius_counts(series) == expected


def pbw_by_exp(lie_dims, hilbert, cap):
    """The product expanded as exp of its log in Fraction lists: the oracle."""
    log_sum = [Fraction(0)] * (cap + 1)
    for w in range(1, cap + 1):
        for k in range(1, cap // w + 1):
            log_sum[w * k] += Fraction(lie_dims.get(w, 0), k)
    target = list(hilbert[: cap + 1]) + [0] * (cap + 1 - len(hilbert))
    return dense_exp(log_sum) == target


class TestPbwCheck:
    def test_agrees_with_exp_oracle(self):
        for n, r in GRID:
            l = sphere_summand_counts(n, r, 12)
            h = hilbert_dims(loop_presentation(ManifoldModel(n, r)), 12)
            assert pbw_series_check(l, h, 12) and pbw_by_exp(l, h, 12), (n, r)
            broken = [
                ({**l, 12: l[12] + 1}, h),
                ({**l, 12: l[12] - 1}, h),
                (l, [2] + h[1:]),
                (l, h[:-1]),
                ({}, [2] + [0] * 12),
            ]
            for dims, hilbert in broken:
                assert not pbw_series_check(dims, hilbert, 12), (n, r)
                assert not pbw_by_exp(dims, hilbert, 12), (n, r)

    def test_rank_one(self):
        pres = loop_presentation(ManifoldModel(2, 1))
        assert pbw_series_check(lie_dims(pres, 6), hilbert_dims(pres, 6), 6)

    def test_rank_two_coefficient_fifteen(self):
        # (1-t)^-2 (1-t^2)^-3 (1-t^3)^-5 has t^3 coefficient 5 + 2*3 + C(4,3)
        dims = {1: 2, 2: 3, 3: 5}
        assert pbw_series_check(dims, [1, 2, 6, 15], 3)

    def test_perturbation_detected(self):
        dims = {1: 2, 2: 3, 3: 4}
        assert not pbw_series_check(dims, [1, 2, 6, 15], 3)
