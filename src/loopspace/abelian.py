"""Finite and finitely generated abelian groups.

A finite group is stored as its elementary divisors, the number of copies
of each Z/p^e, so k copies of a group cost what one does; its invariant
factors are derived only for output.  Likewise a graded group, whose every
degree is Z^a + G^b for one G, is stored as the pairs (a, b).

>>> G = FiniteAbelianGroup.from_cyclic_orders([2, 4, 3])
>>> G.invariant_factors
(2, 12)
>>> sorted(G.primes())
[2, 3]
>>> print(G.localize({3}))
Z/2 + Z/4
>>> FiniteAbelianGroup((2,)).power(10**15).tensor_dim_mod(2)  # far too many copies to list
1000000000000000
"""

import operator
from collections import Counter

from .numtheory import factorint


def _sum_text(rank: int, runs: list, copies: int = 1) -> str:
    """Printed Z^rank + copies of each (factor, repeat) run: "Z^2 + Z/2 + Z/2", "Z", "0"."""
    # each piece ends in " + ", cut once from the joined text
    head = "" if not rank else "Z + " if rank == 1 else f"Z^{rank} + "
    return "".join([head] + [f"Z/{d} + " * (repeat * copies) for d, repeat in runs])[:-3] or "0"


class FiniteAbelianGroup:
    """A finite abelian group as its elementary divisors.

    The one slot holds ((p, e), copies) pairs, sorted, each with copies >=
    1: copies of Z/p^e.  Two groups are isomorphic iff these are equal.
    The invariant factors d1 | d2 | ... | dk are derived from them.
    """

    __slots__ = ("_counts",)

    def __init__(self, invariant_factors=()):
        factors = tuple(operator.index(d) for d in invariant_factors)
        for d in factors:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError(f"broken divisibility chain {factors}")
        object.__setattr__(self, "_counts", FiniteAbelianGroup.from_cyclic_orders(factors)._counts)

    @classmethod
    def _of(cls, counts: tuple) -> "FiniteAbelianGroup":  # counts already in the slot's form
        g = object.__new__(cls)
        object.__setattr__(g, "_counts", counts)
        return g

    def __setattr__(self, *a):
        raise AttributeError("FiniteAbelianGroup is immutable")

    @classmethod
    def from_cyclic_orders(cls, orders) -> "FiniteAbelianGroup":
        """Normalize Z/o1 + Z/o2 + ... (orders 1 allowed and dropped).

        Each distinct order is factored once: the cost follows distinct orders.
        """
        counts = Counter()
        for o, copies in Counter(map(operator.index, orders)).items():
            if o < 1:
                raise ValueError(f"cyclic order {o} must be >= 1")
            for p, e in factorint(o):
                counts[p, e] += copies
        return cls._of(tuple(sorted(counts.items())))

    @classmethod
    def trivial(cls):
        return cls._of(())

    def is_trivial(self) -> bool:
        return not self._counts

    def _runs(self) -> list:
        """The invariant factors as (factor, repeat) runs, smallest first.

        p^e divides exactly the n largest factors, n the copies of Z/p^f with
        f >= e.  So the runs end at these n, and from the smallest factor up,
        passing the n of p^e multiplies the factor by p^(e - e'), e' the next
        lower exponent of p present (or 0).
        """
        left = {}  # p -> copies of the powers of p not yet passed
        for (p, e), copies in self._counts:
            left[p] = left.get(p, 0) + copies
        step, low = {}, {}  # n -> what the n largest factors have that the rest lack
        for (p, e), copies in self._counts:
            n = left[p]
            left[p] = n - copies
            step[n] = step.get(n, 1) * p ** (e - low.get(p, 0))
            low[p] = e
        runs, d = [], 1
        levels = sorted(step, reverse=True)
        for n, below in zip(levels, levels[1:] + [0]):
            d *= step[n]
            runs.append((d, n - below))
        return runs

    @property
    def invariant_factors(self) -> tuple:
        """The divisibility chain d1 | d2 | ... | dk, one entry per copy."""
        return tuple(d for d, repeat in self._runs() for _ in range(repeat))

    def primes(self) -> set:
        """Primes p with G tensor Z/p nonzero."""
        return {p for (p, _e), _copies in self._counts}

    # no answer reads it yet: the mod-p loop homology at the torsion primes will
    def tensor_dim_mod(self, p: int) -> int:
        """Dimension of G tensor Z/p over the field with p elements, p prime."""
        return sum(copies for (q, _e), copies in self._counts if q == p)

    def localize(self, invert) -> "FiniteAbelianGroup":
        """Kill all p-torsion for p in the inversion set."""
        invert = set(invert)
        return FiniteAbelianGroup._of(tuple(c for c in self._counts if c[0][0] not in invert))

    def direct_sum(self, other: "FiniteAbelianGroup") -> "FiniteAbelianGroup":
        counts = Counter(dict(self._counts)) + Counter(dict(other._counts))
        return FiniteAbelianGroup._of(tuple(sorted(counts.items())))

    def power(self, k: int) -> "FiniteAbelianGroup":
        """Direct sum of k copies of the group."""
        k = operator.index(k)
        if k < 0:
            raise ValueError("power must be >= 0")
        counts = tuple([(pe, copies * k) for pe, copies in self._counts]) if k else ()
        return FiniteAbelianGroup._of(counts)

    def __eq__(self, other):
        return isinstance(other, FiniteAbelianGroup) and self._counts == other._counts

    def __hash__(self):
        return hash(self._counts)

    def __str__(self):
        return _sum_text(0, self._runs())

    def __repr__(self):
        return f"FiniteAbelianGroup({list(self.invariant_factors)})"


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
        if torsion is None:
            torsion = FiniteAbelianGroup.trivial()
        elif not isinstance(torsion, FiniteAbelianGroup):
            raise TypeError("torsion must be a FiniteAbelianGroup")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "torsion", torsion)

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
        return _sum_text(self.rank, self.torsion._runs())

    def __repr__(self):
        return f"FgAbelianGroup({self.rank}, {self.torsion!r})"


class GradedAbelianGroup:
    """Finitely many degrees, degree d being Z^rank + G^copies for one finite
    group G, stored as the two counts: no degree holds a group of its own.

    G^copies repeats each of G's invariant-factor runs copies times, so the
    printed degrees follow from G's runs, found once per print.  Zero
    degrees are dropped.

    >>> h = GradedAbelianGroup(FiniteAbelianGroup((2, 6)), {3: (1, 2), 4: (0, 0), 5: (2, 0)})
    >>> print(h)
    H_3 = Z + Z/2 + Z/2 + Z/6 + Z/6, H_5 = Z^2
    >>> h.to_dict()
    {'3': 'Z + Z/2 + Z/2 + Z/6 + Z/6', '5': 'Z^2'}
    """

    def __init__(self, group: FiniteAbelianGroup, counts: dict):
        if any(rank < 0 or copies < 0 for rank, copies in counts.values()):
            raise ValueError("ranks and copies must be >= 0")
        self._group = group
        self._counts = {
            operator.index(d): (rank, copies)
            for d, (rank, copies) in sorted(counts.items())
            if rank or (copies and not group.is_trivial())
        }

    def _texts(self) -> list:
        """(degree, printed group) for each nonzero degree, in order."""
        runs = self._group._runs()
        return [(d, _sum_text(rank, runs, copies)) for d, (rank, copies) in self._counts.items()]

    def __str__(self):
        return ", ".join(f"H_{d} = {text}" for d, text in self._texts()) or "0"

    __repr__ = __str__

    def to_dict(self) -> dict:
        return {str(d): text for d, text in self._texts()}
