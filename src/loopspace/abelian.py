"""Finitely generated abelian groups in invariant-factor form.

>>> G = FiniteAbelianGroup.from_cyclic_orders([2, 4, 3])
>>> G.invariant_factors
(2, 12)
>>> sorted(G.primes())
[2, 3]
>>> print(G.localize({3}))
Z/2 + Z/4
"""

import operator
from collections import Counter, defaultdict
from itertools import groupby

from .numtheory import factorint, prime_divisors


class FiniteAbelianGroup:
    """A finite abelian group as a divisibility chain d1 | d2 | ... | dk.

    The empty chain is the trivial group.  Arbitrary direct sums of cyclic
    groups normalize to this form via their elementary divisors.
    """

    __slots__ = ("invariant_factors",)

    def __init__(self, invariant_factors=()):
        factors = tuple(operator.index(d) for d in invariant_factors)
        for d in factors:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError(f"broken divisibility chain {factors}")
        object.__setattr__(self, "invariant_factors", factors)

    @classmethod
    def _unchecked(cls, factors: tuple) -> "FiniteAbelianGroup":
        """A group with these factors, unchecked: a tuple of ints >= 2, each dividing the next."""
        g = object.__new__(cls)
        _set_invariant_factors(g, factors)
        return g

    def __setattr__(self, *a):
        raise AttributeError("FiniteAbelianGroup is immutable")

    @classmethod
    def from_cyclic_orders(cls, orders) -> "FiniteAbelianGroup":
        """Normalize Z/o1 + Z/o2 + ... (orders 1 allowed and dropped).

        The i-th largest invariant factor is the product over the primes p of
        p to the i-th largest exponent of p among the orders.  Equal orders are
        factored once and equal factors built in runs: cost follows distinct orders.
        """
        copies_of = defaultdict(Counter)  # p -> {p^e: copies}
        for o, copies in Counter(map(operator.index, orders)).items():
            if o < 1:
                raise ValueError(f"cyclic order {o} must be >= 1")
            for p, e in factorint(o):
                copies_of[p][p**e] += copies
        runs = [sorted(c.items()) for c in copies_of.values()]  # largest power last
        factors = []
        while runs:
            count = min(run[-1][1] for run in runs)
            d = 1
            for run in runs:
                q, c = run.pop()
                d *= q
                if c > count:
                    run.append((q, c - count))
            factors += (d,) * count
            runs = [run for run in runs if run]
        factors.reverse()  # each factor divides the one before it, as each prime's powers fall
        return cls._unchecked(tuple(factors))

    @classmethod
    def trivial(cls):
        return cls(())

    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def primes(self) -> set:
        """Primes p with G tensor Z/p nonzero."""
        out = set()
        for d in self.invariant_factors:
            out |= prime_divisors(d)
        return out

    def tensor_dim_mod(self, p: int) -> int:
        """Dimension of G tensor Z/p over the field with p elements."""
        return sum(1 for d in self.invariant_factors if d % p == 0)

    def localize(self, invert) -> "FiniteAbelianGroup":
        """Kill all p-torsion for p in the inversion set."""
        invert = set(invert)
        orders = []
        for d in self.invariant_factors:
            for p, e in factorint(d):
                if p not in invert:
                    orders.append(p**e)
        return FiniteAbelianGroup.from_cyclic_orders(orders)

    def direct_sum(self, other: "FiniteAbelianGroup") -> "FiniteAbelianGroup":
        return FiniteAbelianGroup.from_cyclic_orders(
            self.invariant_factors + other.invariant_factors
        )

    def power(self, k: int) -> "FiniteAbelianGroup":
        """Direct sum of k copies of the group.

        Repeating each invariant factor k times keeps the divisibility chain,
        and invariant factors are unique, so nothing needs renormalising or
        re-checking: the repeated tuple goes to the group unchecked, one
        allocation per factor and no Python step per copy.
        """
        if k < 0:
            raise ValueError("power must be >= 0")
        factors = []
        for d in self.invariant_factors:
            factors += (d,) * k  # allocated at once: a k too large fails here
        return FiniteAbelianGroup._unchecked(tuple(factors))

    def __eq__(self, other):
        return (
            isinstance(other, FiniteAbelianGroup)
            and self.invariant_factors == other.invariant_factors
        )

    def __hash__(self):
        return hash(self.invariant_factors)

    def __str__(self):
        if not self.invariant_factors:
            return "0"
        parts = []
        for d, run in groupby(self.invariant_factors):  # each run of equal factors at once
            parts += [f"Z/{d}"] * len(tuple(run))
        return " + ".join(parts)

    def __repr__(self):
        return f"FiniteAbelianGroup({list(self.invariant_factors)})"


# ``_unchecked`` stores through the slot descriptor, bypassing __setattr__.
_set_invariant_factors = FiniteAbelianGroup.invariant_factors.__set__


class FgAbelianGroup:
    """Z^rank plus a finite torsion part; the value type for homotopy groups.

    >>> g = FgAbelianGroup(1, FiniteAbelianGroup((12,)))
    >>> print(g.localize({2, 3}))
    Z
    """

    __slots__ = ("rank", "torsion")

    def __init__(self, rank: int = 0, torsion: FiniteAbelianGroup | None = None):
        rank = operator.index(rank)
        if rank < 0:
            raise ValueError("rank must be >= 0")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "torsion", torsion or FiniteAbelianGroup.trivial())

    def __setattr__(self, *a):
        raise AttributeError("FgAbelianGroup is immutable")

    @classmethod
    def zero(cls):
        return cls(0)

    def is_zero(self) -> bool:
        return self.rank == 0 and self.torsion.is_trivial()

    def localize(self, invert) -> "FgAbelianGroup":
        return FgAbelianGroup(self.rank, self.torsion.localize(invert))

    def direct_sum(self, other: "FgAbelianGroup") -> "FgAbelianGroup":
        return FgAbelianGroup(self.rank + other.rank, self.torsion.direct_sum(other.torsion))

    def power(self, k: int) -> "FgAbelianGroup":
        return FgAbelianGroup(self.rank * k, self.torsion.power(k))

    def __eq__(self, other):
        return (
            isinstance(other, FgAbelianGroup)
            and (self.rank, self.torsion) == (other.rank, other.torsion)
        )

    def __hash__(self):
        return hash((self.rank, self.torsion))

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        if not self.torsion.is_trivial():
            parts.append(str(self.torsion))
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FgAbelianGroup({self.rank}, {self.torsion!r})"


class GradedAbelianGroup:
    """Finitely many degrees, each a finitely generated abelian group."""

    def __init__(self, parts=None):
        clean = {}
        for deg, g in (parts or {}).items():
            if not isinstance(g, FgAbelianGroup):
                raise TypeError("degrees must map to FgAbelianGroup")
            if not g.is_zero():
                clean[operator.index(deg)] = g
        self._parts = dict(sorted(clean.items()))

    def degrees(self):
        return list(self._parts)

    def part(self, degree: int) -> FgAbelianGroup:
        return self._parts.get(degree, FgAbelianGroup.zero())

    def __eq__(self, other):
        return isinstance(other, GradedAbelianGroup) and self._parts == other._parts

    def __str__(self):
        if not self._parts:
            return "0"
        return ", ".join(f"H_{d} = {g}" for d, g in self._parts.items())

    __repr__ = __str__

    def to_dict(self) -> dict:
        return {str(d): str(g) for d, g in self._parts.items()}
