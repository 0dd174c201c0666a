"""The Koszul layer, the test oracle for the paper's Koszul claims.

With field coefficients the cohomology of M is a "form algebra": an
identity, a vector space V, a top class z and a bilinear pairing
V x V -> k picking out the products that land on z.  The loop homology
H_*(Omega M) is the quadratic algebra T(V)/(R) on the single commutator
relation, Koszul dual to that form algebra.  This module checks the
duality by exact linear algebra: it builds the form algebras and their
kernel relations, decides the single-relation Koszulness criterion,
computes annihilator ("Koszul dual") relation spaces, and gives the weight
dimensions of an arbitrary quadratic algebra by exact rank.

No answer of the package needs any of it; acceptance criteria c05 and c06
and the Koszul tests run it.  Kernels go through the dense
``linalg_oracle.nullspace`` (at most dim(V)^2 = 256 columns here), and
weight dimensions through the sparse ``loopspace.linalg.rank``, which the
weight-3 matrices of the larger form algebras need (5,460 rows over 2,744
columns at s = 7).
"""

import graphlib
import operator

from loopspace import linalg
from loopspace.errors import ComputationFailure, PresentationError
from loopspace.manifold import ManifoldModel
from loopspace.rewrite import QuadraticPresentation
from loopspace.words import NCPoly

from linalg_oracle import dense, nullspace, sparse


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

    They go unchanged into koszul_dual and quadratic_weight_dims, whose
    weight 3 is 0 when nothing lives above the form-algebra range (the
    square form keeps its cube: >= 1)."""
    row = [x for line in form.matrix for x in line]
    return [sparse(v) for v in nullspace([row], form.dim_v**2, form.char)]


# ---------------------------------------------------------------------------
# weight grading of a rewriting presentation
# ---------------------------------------------------------------------------

def weight_dims(pres: QuadraticPresentation, cap: int) -> list:
    """Irreducible-word counts graded by word length instead of degree.

    Every letter has length 1, so the count recurrence of
    ``rewrite.hilbert_dims`` becomes S_0 = 1, S_1 = q and
    S_d = q S_(d-1) - S_(d-2), q the number of letters; a free presentation
    forbids no bigram and has S_d = q^d.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    q = pres.alphabet.size
    dims = [1]
    for d in range(1, cap + 1):
        dims.append(q * dims[-1] - (dims[-2] if d >= 2 and not pres.is_free else 0))
    return dims


# ---------------------------------------------------------------------------
# Koszulness of a single relation
# ---------------------------------------------------------------------------

def is_koszul_single_relation(relation) -> bool:
    """Decide the one-relation Koszulness criterion.

    True iff some total reordering of the alphabet makes one bigram x_a x_b
    with a != b the strict lex-maximum of the relation's support.  Accepts a
    QuadraticPresentation or a bare length-2 NCPoly (the latter also covers
    relations, like a lone square x_a x_a, that admit no rewriting
    presentation at all).  Free presentations are Koszul.
    """
    if isinstance(relation, QuadraticPresentation):
        if relation.is_free:
            return True
        relation = relation.relation
    if relation.is_zero():
        return True
    if any(len(w) != 2 for w in relation._terms):
        raise PresentationError("relation must be homogeneous of word-length 2")
    support = set(relation._terms)
    for lead in support:
        a, b = lead
        if a == b:
            continue
        # constraints "x > y" needed to make `lead` the lex-max of `support`
        edges = set()
        for c, d in support:
            if (c, d) == (a, b):
                continue
            if c == a:
                edges.add((b, d))
            else:
                edges.add((a, c))
        if not _has_cycle(edges):
            return True
    return False


def _has_cycle(edges) -> bool:
    graph = {}
    for x, y in edges:
        graph.setdefault(x, set()).add(y)
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError:
        return True
    return False


# ---------------------------------------------------------------------------
# annihilator relations and generic quadratic weight dimensions
# ---------------------------------------------------------------------------

def relation_vector(relation: NCPoly, dim_v: int) -> dict:
    """A length-2 relation as a row over the dim(V)^2 coordinates of V tensor V.

    The word x_i x_j is coordinate (i-1)*dim(V) + (j-1), row-major.  A
    letter outside 1..dim(V) raises ValueError: it would land on another
    word's coordinate.
    """
    row = {}
    for word, c in relation._terms.items():
        if len(word) != 2:
            raise ValueError("relation must be homogeneous of word-length 2")
        for letter in word:
            if not 1 <= letter <= dim_v:
                raise ValueError(f"letter x{letter} is outside x1..x{dim_v}")
        i, j = word
        row[(i - 1) * dim_v + j - 1] = c
    return row


def koszul_dual(dim_v: int, relations, char: int = 0) -> list:
    """Annihilator R-perp of a relation subspace under the evaluation pairing.

    ``relations`` are linearly independent {coordinate: coefficient} rows
    over the dim(V)^2 coordinates of V tensor V.  Returns an exact basis of
    the functionals vanishing on them, as rows with coordinate
    i*dim(V) + j for (dual i) tensor (dual j); its size, dim(V)^2 -
    #relations, is by rank-nullity the independence check.
    """
    n2 = dim_v * dim_v
    for rel in relations:
        if rel and (min(rel) < 0 or max(rel) >= n2):
            raise ValueError(f"a row has a column outside 0..{n2 - 1}")
    perp = [sparse(v) for v in nullspace([dense(rel, n2) for rel in relations], n2, char)]
    if len(perp) != n2 - len(relations):
        raise ValueError("relations are linearly dependent")
    return perp


# Largest number of entries that quadratic_weight_dims lets its elimination
# hold for one weight.  A weight-w matrix has nrows = (w-1) * dim V^(w-2) *
# #R rows of at most nnz entries each, nnz the most entries of a relation
# row, over ncols = dim V^w columns.  The elimination holds the input rows
# plus its stored pivot rows; those number at most the rank, so at most
# min(nrows, ncols), and each has at most ncols entries.  So it never holds
# more than nrows * nnz + min(nrows, ncols) * ncols entries, and that bound is
# checked before any row is built.  The form algebra with s = r + torsion
# rank has dim V = 2s and 4s^2 - 1 kernel relations of at most 2 entries, so
# its weight-3 bound is 2 * 2s * (4s^2 - 1) * 2 + (2s)^6; the Koszul dual of
# the rank-s loop algebra has the same size.  Over Q (Python 3.11, one Xeon
# core; time, process peak RSS) s = 6 takes 0.05 s and 15 MB, and s = 7
# (bound 7,540,456) 0.08 s and 16 MB; mod 3 and mod 7, s = 7 takes 0.03 s.
# The limit admits s <= 7 and refuses s = 8 (bound 16,793,536).
MAX_CELLS = 8_000_000


def quadratic_weight_dims(dim_v: int, relations, cap: int, char: int = 0) -> list:
    """Weight dimensions of T(V)/(R) for an arbitrary relation span R.

    dim A_w = dim V^(tensor w) minus the rank of the span of all
    V^i tensor R tensor V^j with i+j = w-2, computed by exact elimination on
    sparse rows, each a relation shifted into place.  Once some weight hits
    zero all later weights are zero (the algebra is generated in weight
    one).  ``relations`` are {coordinate: coefficient} rows over V tensor V,
    as for koszul_dual; a coordinate outside 0..dim(V)^2 - 1 raises
    ValueError at every cap.  Before building a weight's rows, the bound on
    the entries its elimination can hold (see MAX_CELLS) is checked, and a
    larger one raises ComputationFailure.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    rels = list(relations)
    for rel in rels:  # weights 0 and 1 eliminate nothing, and a shift can hide a bad one
        if rel and (min(rel) < 0 or max(rel) >= dim_v * dim_v):
            raise ValueError(f"a relation has a coordinate outside 0..{dim_v * dim_v - 1}")
    nnz = max((len(rel) for rel in rels), default=0)
    dims = [1]
    if cap >= 1:
        dims.append(dim_v)
    for w in range(2, cap + 1):
        ncols = dim_v**w
        if not rels:
            dims.append(ncols)
            continue
        nrows = (w - 1) * dim_v ** (w - 2) * len(rels)
        cells = nrows * nnz + min(nrows, ncols) * ncols
        if cells > MAX_CELLS:
            raise ComputationFailure(
                f"weight {w} needs {nrows} rows over {ncols} columns, up to {cells} "
                f"stored entries, over the limit of {MAX_CELLS}; refusing elimination"
            )
        rows = []
        for split in range(w - 1):
            right = dim_v ** (w - 2 - split)
            for rel in rels:
                for li in range(dim_v**split):
                    base = li * dim_v * dim_v * right
                    for ri in range(right):
                        rows.append({base + pos * right + ri: c for pos, c in rel.items()})
        dims.append(ncols - linalg.rank(rows, ncols, char))
        if dims[-1] == 0:
            dims.extend([0] * (cap - w))
            break
    return dims[: cap + 1]
