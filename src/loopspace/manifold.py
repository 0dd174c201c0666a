"""The (n, r, G) manifold model and its loop-homology presentation.

A closed (n-1)-connected manifold of dimension 2n+1 is determined, for
every computation done here, by n >= 2, the middle free rank r and the
finite torsion group G.  Homology follows the Poincare-duality pattern
(Z, Z^r + G, Z^r, Z in degrees 0, n, n+1, 2n+1).  Its cohomology form
algebras, Koszul dual to the loop homology, are built only by the test
suite's Koszul oracle, which checks that duality; no answer needs them.

The loop-space homology is the tensor algebra on generators u_1, u_1', ...,
u_r, u_r' (degrees n-1 and n) modulo the single commutator relation
sum_i (u_i u_i' - u_i' u_i); this module builds that presentation in the
canonical alphabet order u_1 < u_1' < ... < u_r < u_r'.
"""

import operator

from .abelian import FiniteAbelianGroup, GradedAbelianGroup
from .errors import SphereFallback
from .rewrite import QuadraticPresentation
from .words import Alphabet, NCPoly


MAX_TORSION_ORDER = 10**9  # checked before factoring, which is by trial division
MAX_TORSION_ORDERS = 16


def parse_torsion(spec: str) -> FiniteAbelianGroup:
    """Parse the CLI torsion grammar: "-" for trivial, else "2,4,3"."""
    spec = spec.strip()
    if spec in ("-", ""):
        return FiniteAbelianGroup.trivial()
    pieces = spec.split(",")
    if len(pieces) > MAX_TORSION_ORDERS:
        raise ValueError(f"{len(pieces)} cyclic orders, over the limit {MAX_TORSION_ORDERS}")
    orders = []
    for piece in pieces:
        try:
            d = int(piece)
        except ValueError:
            raise ValueError(f"torsion order {piece!r} is not an integer") from None
        if d < 2:
            raise ValueError(f"torsion order {d} must be >= 2")
        if d > MAX_TORSION_ORDER:
            raise ValueError(f"torsion order {d} is over the limit {MAX_TORSION_ORDER}")
        orders.append(d)
    return FiniteAbelianGroup.from_cyclic_orders(orders)


class ManifoldModel:
    """n >= 2, middle rank r >= 0, and the middle torsion group."""

    __slots__ = ("n", "r", "torsion")

    def __init__(self, n: int, r: int, torsion=None):
        n, r = operator.index(n), operator.index(r)
        if n < 2:
            raise ValueError("n must be >= 2")
        if r < 0:
            raise ValueError("r must be >= 0")
        if torsion is None:
            torsion = FiniteAbelianGroup.trivial()
        elif not isinstance(torsion, FiniteAbelianGroup):
            torsion = FiniteAbelianGroup.from_cyclic_orders(torsion)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "torsion", torsion)

    def __setattr__(self, *a):
        raise AttributeError("ManifoldModel is immutable")

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    def __repr__(self):
        return f"ManifoldModel(n={self.n}, r={self.r}, G={self.torsion})"


def homology(m: ManifoldModel) -> GradedAbelianGroup:
    """Z, Z^r + G, Z^r and Z in degrees 0, n, n+1 and 2n+1, as counts over G."""
    n, r = m.n, m.r
    return GradedAbelianGroup(m.torsion, {0: (1, 0), n: (r, 1), n + 1: (r, 0), 2 * n + 1: (1, 0)})


def sigma_primes(m: ManifoldModel) -> set:
    """Primes p with G tensor Z/p nonzero; these get inverted downstream."""
    return m.torsion.primes()


def coefficient_ring_label(m: ManifoldModel) -> str:
    primes = sorted(sigma_primes(m))
    if not primes:
        return "Z"
    return "Z[" + ",".join(f"1/{p}" for p in primes) + "]"


# ---------------------------------------------------------------------------
# loop-homology presentation
# ---------------------------------------------------------------------------

def loop_alphabet(n: int, r: int) -> Alphabet:
    """u_1 < u_1' < u_2 < u_2' < ... with degrees n-1 and n."""
    degrees, labels = [], []
    for i in range(1, r + 1):
        degrees += [n - 1, n]
        labels += [f"u{i}", f"u{i}'"]
    return Alphabet.from_degrees(degrees, labels)


def loop_relation(alphabet: Alphabet) -> NCPoly:
    """sum_i (u_i u_i' - u_i' u_i) over the canonical alphabet."""
    terms = {}
    for a in range(1, alphabet.size, 2):
        terms[a, a + 1] = 1
        terms[a + 1, a] = -1
    return NCPoly._unchecked(alphabet, terms)  # index-tuple terms, valid by construction


def loop_presentation(m: ManifoldModel) -> QuadraticPresentation:
    """The canonical single-relation presentation of the loop homology.

    Fails over to the sphere answer for r = 0: such a manifold is S^(2n+1)
    once the torsion primes are inverted, and has no loop presentation.
    """
    if m.r < 1:
        raise SphereFallback(m.n, sigma_primes(m))
    alphabet = loop_alphabet(m.n, m.r)
    return QuadraticPresentation(alphabet, loop_relation(alphabet))
