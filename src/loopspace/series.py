"""Truncated formal power series with exact rational coefficients.

Supports the generating-series side of the engine: the loop-homology
denominator polynomial of an (n, r) manifold, its log-coefficients, the
Moebius counts of sphere summands, and the product identity tying Lie-algebra
dimensions to the word counts of the quotient algebra.

``log`` and ``inverse`` loop over nonzero terms only, O(cap) on the four-term
denominator.  For f = 1 + sum a_j t^j, t f' = f t (log f)' gives the integers
(if the a_j are) P_n = n [t^n] log f = n a_n - sum_(a_j != 0, j < n) a_j P_(n-j).

>>> geom = PowerSeries.one(5) - PowerSeries.monomial(1, 5)
>>> geom.inverse().coefficients()
[Fraction(1, 1), Fraction(1, 1), Fraction(1, 1), Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)]
"""

from fractions import Fraction

from .errors import ComputationFailure
from .numtheory import mobius_sieve


class PowerSeries:
    """Coefficients 0..cap; operations truncate to the smaller cap."""

    __slots__ = ("coeffs", "cap")

    def __init__(self, coeffs, cap: int | None = None):
        coeffs = [Fraction(c) for c in coeffs]
        if cap is None:
            cap = len(coeffs) - 1
        if cap < 0:
            raise ValueError("cap must be >= 0")
        if len(coeffs) < cap + 1:
            coeffs = coeffs + [Fraction(0)] * (cap + 1 - len(coeffs))
        object.__setattr__(self, "coeffs", tuple(coeffs[: cap + 1]))
        object.__setattr__(self, "cap", cap)

    def __setattr__(self, *a):
        raise AttributeError("PowerSeries is immutable")

    # ---- constructors ----------------------------------------------------
    @classmethod
    def one(cls, cap: int):
        return cls([1], cap)

    @classmethod
    def monomial(cls, exponent: int, cap: int, coeff=1):
        c = [0] * (cap + 1)
        if exponent <= cap:
            c[exponent] = coeff
        return cls(c, cap)

    @classmethod
    def from_polynomial(cls, coeff_by_exponent: dict, cap: int):
        c = [0] * (cap + 1)
        for e, v in coeff_by_exponent.items():
            if e <= cap:
                c[e] = v
        return cls(c, cap)

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

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PowerSeries([c * other for c in self.coeffs], self.cap)
        cap = self._common_cap(other)
        out = [Fraction(0)] * (cap + 1)
        for i, a in enumerate(self.coeffs[: cap + 1]):
            if not a:
                continue
            for j in range(cap + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return PowerSeries(out, cap)

    __rmul__ = __mul__

    def _terms(self) -> list:
        """Nonzero (j, a_j) for j >= 1, integral a_j as int."""
        ints = (a.numerator if a.denominator == 1 else a for a in self.coeffs)
        return [(j, a) for j, a in enumerate(ints) if j and a]

    def inverse(self) -> "PowerSeries":
        a0 = self.coeffs[0]
        if a0 == 0:
            raise ValueError("inverse needs a nonzero constant term")
        cap = self.cap
        terms = self._terms()
        inv = [Fraction(0)] * (cap + 1)
        inv[0] = Fraction(1) / a0
        for n in range(1, cap + 1):
            s = 0
            for k, a in terms:
                if k <= n:
                    s += a * inv[n - k]
            inv[n] = -s / a0
        return PowerSeries(inv, cap)

    def log(self) -> "PowerSeries":
        if self.coeffs[0] != 1:
            raise ValueError("log needs constant term 1")
        cap = self.cap
        terms = self._terms()
        p = [0] * (cap + 1)  # p[n] = n * log_n, the P_n of the module docstring
        for j, a in terms:
            p[j] = j * a
        for n in range(2, cap + 1):
            for j, a in terms:
                if j < n:
                    p[n] -= a * p[n - j]
        return PowerSeries([0] + [Fraction(p[n], n) for n in range(1, cap + 1)], cap)

    def exp(self) -> "PowerSeries":
        if self.coeffs[0] != 0:
            raise ValueError("exp needs constant term 0")
        cap = self.cap
        out = [Fraction(0)] * (cap + 1)
        out[0] = Fraction(1)
        for n in range(1, cap + 1):
            s = Fraction(0)
            for k in range(1, n + 1):
                if self.coeffs[k]:
                    s += k * self.coeffs[k] * out[n - k]
            out[n] = s / n
        return PowerSeries(out, cap)

    def pow_int(self, e: int) -> "PowerSeries":
        """Integer power of a series with constant term 1, as exp(e log)."""
        return (self.log() * e).exp()


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
    """Moebius-inverted log-coefficients of a denominator polynomial.

    With P_m = m * eta_m, where eta_m is the t^m coefficient of
    log(denominator), returns l[w] = -(1/w) sum over j | w of mu(j) P_(w/j)
    for 1 <= w <= cap.  One sieve gives mu(1..cap), and each squarefree j
    adds -mu(j) P_(w/j) to the sums of its multiples w: O(cap log cap) steps.
    P_m is an integer when the denominator's coefficients are (module
    docstring): log returns eta_m = a/b in lowest terms, so b | m gives
    P_m = a (m // b) without a Fraction product.  The sums are taken in
    integers and divided by w once; Fraction enters only for non-integral P_m.
    Every l[w] must come out a non-negative integer; anything else means the
    series was not the denominator of a graded-algebra Hilbert series and is
    reported as a hard failure.
    """
    eta = denominator.log().coeffs
    p = [e.numerator * (m // e.denominator) if m % e.denominator == 0 else m * e
         for m, e in enumerate(eta)]
    cap = denominator.cap
    totals = [0] * (cap + 1)
    for j, mu in enumerate(mobius_sieve(cap)):
        if mu:
            for w in range(j, cap + 1, j):
                totals[w] -= mu * p[w // j]
    counts = {}
    for w in range(1, cap + 1):
        total = totals[w]
        if total % w or total < 0:
            raise ComputationFailure(
                f"summand count l[{w}] = {Fraction(total) / w} is not a non-negative integer"
            )
        counts[w] = total // w
    return counts


def sphere_summand_counts(n: int, r: int, cap: int = 20) -> dict:
    """Multiplicity l[w] of the sphere S^(w+1) among the homotopy summands.

    Keys run over loop degrees 1..cap; l[w] copies of the homotopy of
    S^(w+1) appear in the homotopy of the manifold once the torsion primes
    are inverted.
    """
    return mobius_counts(loop_generating_series(n, r, cap))


def pbw_series_check(lie_dims: dict, hilbert: list, cap: int) -> bool:
    """Does prod over w of (1 - t^w)^(-lie_dims[w]) match the word counts?

    ``hilbert`` lists dimensions by degree from 0, padded with zeros.  The
    product P has t P'/P = sum p_k t^k with p_k = sum over w | k of
    w * lie_dims[w], so its coefficients are the unique h with h_0 = 1 and
    k h_k = sum_(j=1..k) p_j h_(k-j); that is checked in integers.
    """
    h = list(hilbert[: cap + 1]) + [0] * (cap + 1 - len(hilbert))
    p = [0] * (cap + 1)
    for w in range(1, cap + 1):
        d = lie_dims.get(w, 0)
        for k in range(w, cap + 1, w):
            p[k] += w * d
    return h[0] == 1 and all(
        k * h[k] == sum(p[j] * h[k - j] for j in range(1, k + 1)) for k in range(1, cap + 1)
    )
