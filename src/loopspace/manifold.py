"""The (n, r, G) manifold model and its cohomology form algebras.

A closed (n-1)-connected manifold of dimension 2n+1 is determined, for
every computation done here, by n >= 2, the middle free rank r and the
finite torsion group G.  Homology follows the Poincare-duality pattern
(Z, Z^r + G, Z^r, Z in degrees 0, n, n+1, 2n+1); with field coefficients the
cohomology is a "form algebra": an identity, a vector space V, a top class z
and a bilinear pairing V x V -> k picking out the products that land on z.

The loop-space homology is the tensor algebra on generators u_1, u_1', ...,
u_r, u_r' (degrees n-1 and n) modulo the single commutator relation
sum_i (u_i u_i' - u_i' u_i); this module builds that presentation in the
canonical alphabet order u_1 < u_1' < ... < u_r < u_r'.
"""

import operator

from .abelian import FgAbelianGroup, FiniteAbelianGroup, GradedAbelianGroup
from .errors import SphereFallback
from .linalg import nullspace
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
    n, r = m.n, m.r
    return GradedAbelianGroup(
        {
            0: FgAbelianGroup(1),
            n: FgAbelianGroup(r, m.torsion),
            n + 1: FgAbelianGroup(r),
            2 * n + 1: FgAbelianGroup(1),
        }
    )


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


# ---------------------------------------------------------------------------
# form algebras
# ---------------------------------------------------------------------------

class FormAlgebra:
    """k + V + k z with products of V landing on z through a bilinear form.

    ``vdims`` lists (degree, dim) blocks of V in basis order; ``matrix`` is
    the full Gram matrix of the pairing on that basis; ``char`` is 0 for the
    rationals or a prime p.  The pairing must be graded-symmetric.
    """

    def __init__(self, vdims, matrix, char: int = 0):
        self.vdims = tuple((operator.index(d), operator.index(k)) for d, k in vdims)
        self.char = char
        dim = sum(k for _d, k in self.vdims)
        matrix = [list(row) for row in matrix]
        if len(matrix) != dim or any(len(row) != dim for row in matrix):
            raise ValueError(f"form matrix must be {dim}x{dim}")
        if char:
            matrix = [[x % char for x in row] for row in matrix]
        degrees = []
        for d, k in self.vdims:
            degrees.extend([d] * k)
        for i in range(dim):
            for j in range(dim):
                sign = -1 if (degrees[i] * degrees[j]) % 2 else 1
                diff = matrix[i][j] - sign * matrix[j][i]
                if diff % char if char else diff:
                    raise ValueError("pairing is not graded-symmetric")
        self.matrix = tuple(tuple(row) for row in matrix)
        self.degrees = tuple(degrees)

    @property
    def dim_v(self) -> int:
        return len(self.matrix)

    def pairing(self, v, w):
        """Evaluate the form on two {index: coefficient} vectors."""
        total = sum(a * self.matrix[i][j] * b for i, a in v.items() for j, b in w.items())
        return total % self.char if self.char else total

    def __repr__(self):
        return f"FormAlgebra(dim V = {self.dim_v}, char {self.char})"


def form_algebra_of(m: ManifoldModel, p: int = 0) -> FormAlgebra:
    """Cohomology form algebra of the manifold with Z/p (or Q) coefficients.

    V has dimension s in degrees n and n+1, where s = r + dim(G tensor Z/p);
    the pairing is the hyperbolic one between the two blocks.
    """
    s = m.r + (m.torsion.tensor_dim_mod(p) if p else 0)
    dim = 2 * s
    matrix = [[0] * dim for _ in range(dim)]
    for i in range(s):
        matrix[i][s + i] = 1
        matrix[s + i][i] = 1
    return FormAlgebra(((m.n, s), (m.n + 1, s)), matrix, char=p)


def _candidate_vectors(form: FormAlgebra):
    dim = form.dim_v
    for i in range(dim):
        yield {i: 1}
    for i in range(dim):
        for j in range(i + 1, dim):
            yield {i: 1, j: 1}
            yield {i: 1, j: -1}  # pairing reduces mod the characteristic


def is_quadratic(form: FormAlgebra) -> bool:
    """Search for a hyperbolic pair v1, v2 (isotropic with pairing 1).

    The search runs over the basis and two-term basis combinations; that is
    enough for every pairing coming from the manifolds handled here.  A form
    algebra that admits such a pair is the quadratic algebra on V with
    relations the kernel of the pairing; without one, products of length 3
    can survive and the algebra is not quadratic.  An empty V is vacuously
    quadratic.
    """
    if form.dim_v == 0:
        return True
    candidates = list(_candidate_vectors(form))
    isotropic = [v for v in candidates if form.pairing(v, v) == 0]
    for v in isotropic:
        for w in isotropic:
            if form.pairing(v, w) != 0:
                return True
    return False


def kernel_relations(form: FormAlgebra):
    """Exact basis of Ker(V tensor V -> k) as rows {i*dim(V) + j: coefficient}.

    They go unchanged into rewrite.koszul_dual and quadratic_weight_dims,
    whose weight 3 is 0 when nothing lives above the form-algebra range
    (the square form keeps its cube: >= 1)."""
    dim = form.dim_v
    row = {i * dim + j: x for i, line in enumerate(form.matrix) for j, x in enumerate(line) if x}
    return nullspace([row], dim * dim, form.char)
