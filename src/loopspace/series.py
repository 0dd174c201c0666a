"""Truncated formal power series with integer coefficients.

Supports the generating-series side of the engine: the loop-homology
denominator polynomial of an (n, r) manifold, its logarithmic derivative,
the Moebius counts of sphere summands, and the products of powers of series
that tie Lie-algebra dimensions to the word counts of the quotient algebra.

Coefficients are integers, and ``log`` and ``inverse`` take a constant term
of 1 (``inverse`` also -1), so no true rational ever appears.  Both loop
over nonzero terms only, O(cap) on the four-term denominator.  For
f = 1 + sum a_j t^j, t f' = f t (log f)' gives the integers
P_n = n [t^n] log f = n a_n - sum_(a_j != 0, j < n) a_j P_(n-j), and
``from_log_derivative`` solves the same identity for f given the P_n.

>>> geom = PowerSeries.from_polynomial({0: 1, 1: -1}, 5)
>>> geom.inverse().coefficients()
[1, 1, 1, 1, 1, 1]
>>> geom.log().coefficients()
[0, -1, -1, -1, -1, -1]
>>> PowerSeries.from_log_derivative(geom.log().coeffs, 5) == geom
True
"""

import operator

from .errors import ComputationFailure
from .numtheory import mobius_sieve


class PowerSeries:
    """Integer coefficients 0..cap; operations truncate to the smaller cap."""

    __slots__ = ("coeffs", "cap")

    def __init__(self, coeffs, cap: int | None = None):
        coeffs = [operator.index(c) for c in coeffs]
        if cap is None:
            cap = len(coeffs) - 1
        if cap < 0:
            raise ValueError("cap must be >= 0")
        if len(coeffs) < cap + 1:
            coeffs = coeffs + [0] * (cap + 1 - len(coeffs))
        object.__setattr__(self, "coeffs", tuple(coeffs[: cap + 1]))
        object.__setattr__(self, "cap", cap)

    def __setattr__(self, *a):
        raise AttributeError("PowerSeries is immutable")

    # ---- constructors ----------------------------------------------------
    @classmethod
    def one(cls, cap: int):
        return cls([1], cap)

    @classmethod
    def from_polynomial(cls, coeff_by_exponent: dict, cap: int):
        c = [0] * (cap + 1)
        for e, v in coeff_by_exponent.items():
            if e < 0:
                raise ValueError(f"exponent {e} is negative")
            if e <= cap:
                c[e] = v
        return cls(c, cap)

    @classmethod
    def from_log_derivative(cls, p, cap: int) -> "PowerSeries":
        """The series h with h_0 = 1 and t h'/h = sum_(k=1..cap) p[k] t^k.

        Solves k h_k = sum_(j=1..k) p_j h_(k-j) over the nonzero p_j.  Every
        p passed here is the log derivative of a product of integer powers
        of integral series with constant term 1, such as prod over w of
        (1 - t^w)^(-l_w) with integer l_w, and such a product is integral.
        So each division by k is exact, and an inexact one is a bug: a
        ComputationFailure.
        """
        terms = [(j, c) for j, c in enumerate(p[: cap + 1]) if j and c]
        h = [1] + [0] * cap
        for k in range(1, cap + 1):
            s = 0
            for j, c in terms:
                if j > k:
                    break
                s += c * h[k - j]
            h[k], rem = divmod(s, k)
            if rem:
                raise ComputationFailure(f"h_{k} = {s}/{k} is not an integer")
        return cls(h, cap)

    # ---- basics ----------------------------------------------------------
    def coefficients(self) -> list:
        return list(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, PowerSeries)
            and self.cap == other.cap
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.cap, self.coeffs))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*t^{i}" if i else f"{c}")
            if len(terms) == 8 and i < self.cap:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return f"PowerSeries({body}; cap={self.cap})"

    # ---- ring operations ---------------------------------------------------
    def _common_cap(self, other) -> int:
        return min(self.cap, other.cap)

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        cap = self._common_cap(other)
        return PowerSeries([a + b for a, b in zip(self.coeffs, other.coeffs)][: cap + 1], cap)

    def __neg__(self):
        return PowerSeries([-a for a in self.coeffs], self.cap)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        cap = self._common_cap(other)
        out = [0] * (cap + 1)
        for i, a in enumerate(self.coeffs[: cap + 1]):
            if not a:
                continue
            for j in range(cap + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return PowerSeries(out, cap)

    def _terms(self) -> list:
        """Nonzero (j, a_j) for j >= 1."""
        return [(j, a) for j, a in enumerate(self.coeffs) if j and a]

    def inverse(self) -> "PowerSeries":
        """1/f for a constant term of 1 or -1, the units of the integers."""
        a0 = self.coeffs[0]
        if a0 not in (1, -1):
            raise ValueError("inverse needs constant term 1 or -1")
        cap = self.cap
        terms = self._terms()
        inv = [0] * (cap + 1)
        inv[0] = a0
        for n in range(1, cap + 1):
            s = 0
            for k, a in terms:
                if k <= n:
                    s += a * inv[n - k]
            inv[n] = -a0 * s
        return PowerSeries(inv, cap)

    def log(self) -> "PowerSeries":
        """The logarithmic derivative t f'/f, whose t^n coefficient is P_n.

        P_n = n [t^n] log f is an integer (module docstring), where the log
        itself is not.  The method keeps the name ``log`` because the
        benchmark's per-layer span ``series.PowerSeries.log`` names it.
        """
        if self.coeffs[0] != 1:
            raise ValueError("log needs constant term 1")
        cap = self.cap
        terms = self._terms()
        p = [0] * (cap + 1)
        for j, a in terms:
            p[j] = j * a
        for n in range(2, cap + 1):
            for j, a in terms:
                if j < n:
                    p[n] -= a * p[n - j]
        return PowerSeries(p, cap)


# ---------------------------------------------------------------------------
# manifold generating series
# ---------------------------------------------------------------------------

def loop_generating_series(n: int, r: int, cap: int = 20) -> PowerSeries:
    """Denominator polynomial of the loop-homology Hilbert series.

    The loop algebra of an (n, r) manifold has r generators in degree n-1,
    r in degree n and one relation in degree 2n-1, so its graded dimensions
    are the coefficients of 1 / (1 - r t^(n-1) - r t^n + t^(2n-1)).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if r < 1:
        raise ValueError("r must be >= 1 for a loop presentation")
    return PowerSeries.from_polynomial({0: 1, n - 1: -r, n: -r, 2 * n - 1: 1}, cap)


def mobius_counts(denominator: PowerSeries) -> dict:
    """Moebius-inverted logarithmic derivative of a denominator polynomial.

    With P_m the t^m coefficient of ``denominator.log()``, returns
    l[w] = -(1/w) sum over j | w of mu(j) P_(w/j) for 1 <= w <= cap.  One
    sieve gives mu(1..cap), and each squarefree j adds -mu(j) P_(w/j) to the
    sums of its multiples w: O(cap log cap) steps, in integers, with one
    division by w per count.  Every l[w] must come out a non-negative
    integer; anything else means the series was not the denominator of a
    graded-algebra Hilbert series and is reported as a hard failure.
    """
    p = denominator.log().coeffs
    cap = denominator.cap
    totals = [0] * (cap + 1)
    for j, mu in enumerate(mobius_sieve(cap)):
        if mu:
            for w in range(j, cap + 1, j):
                totals[w] -= mu * p[w // j]
    counts = {}
    for w in range(1, cap + 1):
        count, rem = divmod(totals[w], w)
        if rem or count < 0:
            value = f"{totals[w]}/{w}" if rem else count
            raise ComputationFailure(f"summand count l[{w}] = {value} is not a non-negative integer")
        counts[w] = count
    return counts


def sphere_summand_counts(n: int, r: int, cap: int = 20) -> dict:
    """Multiplicity l[w] of the sphere S^(w+1) among the homotopy summands.

    Keys run over loop degrees 1..cap; l[w] copies of the homotopy of
    S^(w+1) appear in the homotopy of the manifold once the torsion primes
    are inverted.  For r = 0 the manifold is then the sphere S^(2n+1)
    itself: one summand, l[2n] = 1, and no loop presentation is needed.

    >>> sphere_summand_counts(2, 0, 5)
    {1: 0, 2: 0, 3: 0, 4: 1, 5: 0}
    """
    if r == 0:
        if n < 2:
            raise ValueError("n must be >= 2")
        if cap < 0:
            raise ValueError("cap must be >= 0")
        return {w: 1 if w == 2 * n else 0 for w in range(1, cap + 1)}
    return mobius_counts(loop_generating_series(n, r, cap))


def euler_product(counts, cap: int) -> PowerSeries:
    """prod over the (w, c) pairs of counts of (1 - t^w)^(-c), through t^cap.

    The product P has t P'/P = sum p_k t^k with p_k = sum over w | k of
    w * c_w, O(cap log cap) additions for w = 1..cap, and
    ``PowerSeries.from_log_derivative`` rebuilds P from the p_k in integers.
    """
    p = [0] * (cap + 1)
    for w, c in counts:
        for k in range(w, cap + 1, w):
            p[k] += w * c
    return PowerSeries.from_log_derivative(p, cap)


def pbw_series_check(lie_dims: dict, hilbert: list, cap: int) -> bool:
    """Does prod over w of (1 - t^w)^(-lie_dims[w]) match the word counts?

    ``hilbert`` lists dimensions by degree from 0, padded with zeros; the
    product is ``euler_product`` of the lie_dims items.
    """
    return PowerSeries(hilbert[: cap + 1], cap) == euler_product(lie_dims.items(), cap)
