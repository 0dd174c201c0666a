"""Symbolic loop-space decompositions and their rational Poincare series.

The loop space of an (n, r, G) manifold with r >= 1 splits as

    Loop(S^n) x Loop(S^(n+1)) x Loop(Z v (Z ^ Loop(S^n x S^(n+1))))

with Z a wedge of r-1 copies of S^n, r-1 copies of S^(n+1) and a Moore
space for G; after inverting the torsion primes it also splits as a weak
product of looped spheres with multiplicities given by the Moebius counts.
This module builds those expressions as symbolic trees, computes rational
Poincare series by structural rules, homology of the splitting fibre, and
the elliptic/hyperbolic classification.  The weak product is stored as its
(loop degree, multiplicity) counts and the inverted primes, not as one node
per factor; its series is the Euler product of the counts.

Space expressions serialize to a stable text form ("L(S2) x L(S3) x ...")
and to a JSON tree; both are meant for golden tests and reports.  Nodes
compare by type and fields, and the loop rule takes only suspensions:

>>> print(loop_decomposition(ManifoldModel(2, 2)))
L(S2) x L(S3) x L(W(S2, S3, Sm(W(S2, S3), L(S2 x S3))))
>>> wp = weak_product_decomposition(ManifoldModel(2, 2, (2,)), 3)
>>> wp.counts, wp.primes
(((1, 2), (2, 3), (3, 5)), (2,))
>>> print(wp)
PI[L(S2)[1/2]^2, L(S3)[1/2]^3, L(S4)[1/2]^5]
>>> Sphere(3) == Sphere(3), Sphere(3) == Sphere(4), Wedge([Sphere(2)]) == Product([Sphere(2)])
(True, False, False)
>>> rational_series(loop(wedge([loop(Sphere(3)), Sphere(2)])), 6)
Traceback (most recent call last):
    ...
ValueError: unsupported loop argument W(L(S3), S2)
"""

import operator
from collections import namedtuple

from .abelian import FiniteAbelianGroup, GradedAbelianGroup
from .errors import SphereFallback
from .manifold import ManifoldModel, sigma_primes
from .series import PowerSeries, euler_product, sphere_summand_counts


class SpaceExpr:
    """Base of the symbolic homotopy-type expression tree.

    Each class names its attributes in ``_fields``: two nodes are equal when
    they have the same type and equal fields.
    """

    _fields = ()

    def __str__(self):
        return serialize(self)

    __repr__ = __str__

    # no answer compares trees: equality is for checks, as of a counted tree against its expansion
    def _key(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))


class Point(SpaceExpr):
    pass


class Sphere(SpaceExpr):
    _fields = ("m",)

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("sphere dimension must be >= 1")
        self.m = m


class Moore(SpaceExpr):
    """M(G, n): reduced homology G concentrated in degree n >= 2."""

    _fields = ("group", "degree")

    def __init__(self, group: FiniteAbelianGroup, degree: int):
        if degree < 2:
            raise ValueError("Moore space degree must be >= 2")
        if group.is_trivial():
            raise ValueError("Moore space needs a nontrivial group (use Point)")
        self.group = group
        self.degree = degree


class _Nary(SpaceExpr):
    """A node over a tuple of child spaces: Wedge, Product or Smash."""

    _fields = ("children",)

    def __init__(self, children):
        self.children = tuple(children)


class Wedge(_Nary):
    pass


class Product(_Nary):
    pass


class Smash(_Nary):
    pass


class Loop(SpaceExpr):
    _fields = ("child",)

    def __init__(self, child):
        self.child = child


class LocalizedAt(SpaceExpr):
    """Child with the listed primes inverted."""

    _fields = ("primes", "child")

    def __init__(self, primes, child):
        self.primes = tuple(sorted(primes))
        self.child = child


class WeakProduct(SpaceExpr):
    """Homotopy colimit of finite sub-products of localized looped spheres.

    ``counts`` holds (w, multiplicity) pairs: that many copies of
    Loop(S^(w+1)), loop degree w >= 1, each with ``primes`` inverted.  A
    multiplicity is a count of copies, so it must be >= 0.  No node is
    stored per factor.
    """

    _fields = ("counts", "primes")

    def __init__(self, counts, primes=()):
        self.counts = tuple((operator.index(w), operator.index(m)) for w, m in counts)
        self.primes = tuple(sorted(set(primes)))
        for w, m in self.counts:
            if w < 1:
                raise ValueError(f"loop degree {w} must be >= 1")
            if m < 0:
                raise ValueError(f"multiplicity {m} of L(S{w + 1}) is negative")


# ---- smart constructors (unit laws only) -----------------------------------

def _flatten(cls, children) -> SpaceExpr:
    """cls over the children, splicing nested cls nodes and dropping points."""
    flat = []
    for c in children:
        if isinstance(c, cls):
            flat.extend(c.children)
        elif not isinstance(c, Point):
            flat.append(c)
    if not flat:
        return Point()
    if len(flat) == 1:
        return flat[0]
    return cls(flat)


def wedge(children) -> SpaceExpr:
    return _flatten(Wedge, children)


def product(children) -> SpaceExpr:
    return _flatten(Product, children)


def smash(children) -> SpaceExpr:
    children = list(children)
    if any(isinstance(c, Point) for c in children):
        return Point()  # smashing with a point collapses everything
    return _flatten(Smash, children)


def loop(child) -> SpaceExpr:
    if isinstance(child, Point):
        return Point()
    return Loop(child)


def localized(primes, child) -> SpaceExpr:
    primes = sorted(set(primes))
    if not primes:
        return child
    return LocalizedAt(primes, child)


# ---- serialization ----------------------------------------------------------

def serialize(expr: SpaceExpr) -> str:
    """Deterministic text form: L(S2) x L(S3) x L(W(S2, Sm(S2, L(S2 x S3))))."""
    if isinstance(expr, Point):
        return "pt"
    if isinstance(expr, Sphere):
        return f"S{expr.m}"
    if isinstance(expr, Moore):
        return f"M({expr.group},{expr.degree})"
    if isinstance(expr, Wedge):
        return "W(" + ", ".join(serialize(c) for c in expr.children) + ")"
    if isinstance(expr, Product):
        return " x ".join(serialize(c) for c in expr.children)
    if isinstance(expr, Smash):
        return "Sm(" + ", ".join(serialize(c) for c in expr.children) + ")"
    if isinstance(expr, Loop):
        return f"L({serialize(expr.child)})"
    if isinstance(expr, LocalizedAt):
        inner = serialize(expr.child)
        if isinstance(expr.child, Product):
            inner = f"({inner})"
        return inner + "[" + ",".join(f"1/{p}" for p in expr.primes) + "]"
    if isinstance(expr, WeakProduct):
        tag = "[" + ",".join(f"1/{p}" for p in expr.primes) + "]" if expr.primes else ""
        return "PI[" + ", ".join(f"L(S{w + 1}){tag}^{m}" for w, m in expr.counts) + "]"
    raise TypeError(f"cannot serialize {expr!r}")


def to_dict(expr: SpaceExpr) -> dict:
    if isinstance(expr, Point):
        return {"kind": "point"}
    if isinstance(expr, Sphere):
        return {"kind": "sphere", "dim": expr.m}
    if isinstance(expr, Moore):
        return {
            "kind": "moore",
            "group": list(expr.group.invariant_factors),
            "degree": expr.degree,
        }
    if isinstance(expr, _Nary):
        return {"kind": type(expr).__name__.lower(), "children": [to_dict(c) for c in expr.children]}
    if isinstance(expr, Loop):
        return {"kind": "loop", "child": to_dict(expr.child)}
    if isinstance(expr, LocalizedAt):
        return {"kind": "localized", "invert": list(expr.primes), "child": to_dict(expr.child)}
    raise TypeError(f"cannot serialize {expr!r}")


# ---------------------------------------------------------------------------
# the decomposition of Loop(M)
# ---------------------------------------------------------------------------

def torsion_wedge(m: ManifoldModel) -> SpaceExpr:
    """Z: r-1 copies of S^n and S^(n+1) plus the Moore part of G."""
    parts = [Sphere(m.n)] * (m.r - 1) + [Sphere(m.n + 1)] * (m.r - 1)
    if not m.torsion.is_trivial():
        parts.append(Moore(m.torsion, m.n))
    return wedge(parts)


def loop_decomposition(m: ManifoldModel) -> SpaceExpr:
    """The integral splitting of Loop(M) for r >= 1.

    For r = 0 there is no splitting to do: the manifold is an odd sphere
    after inverting its torsion primes, and that localized sphere is
    returned instead.
    """
    if m.r < 1:
        return localized(sigma_primes(m), Sphere(m.dim))
    z = torsion_wedge(m)
    inner = loop(product([Sphere(m.n), Sphere(m.n + 1)]))
    return product(
        [
            loop(Sphere(m.n)),
            loop(Sphere(m.n + 1)),
            loop(wedge([z, smash([z, inner])])),
        ]
    )


def weak_product_decomposition(m: ManifoldModel, cap: int, *, counts=None) -> WeakProduct:
    """Looped spheres with Moebius multiplicities, localized off the torsion.

    Factor w is Loop(S^(w+1)) with multiplicity l[w], for loop degrees
    w <= cap; a zero count is left out.  For r = 0 the single factor is the
    looped top sphere, so it appears once cap >= 2n, like every other factor
    of its loop degree.  ``counts`` takes l[1..cap] when the caller already
    has them.
    """
    if counts is None:
        counts = sphere_summand_counts(m.n, m.r, cap)
    return WeakProduct([(w, counts[w]) for w in range(1, cap + 1) if counts[w]], sigma_primes(m))


def polynomial_ring_dims(n: int, cap: int) -> list:
    """Graded dimensions of Z[u, v] with |u| = n-1, |v| = n.

    The series is 1 / ((1 - t^(n-1)) (1 - t^n)): each factor is divided out
    by one running-sum pass, O(cap) in all.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if cap < 0:
        raise ValueError("cap must be >= 0")
    dims = [1] + [0] * cap
    for step in (n - 1, n):
        for d in range(step, cap + 1):
            dims[d] += dims[d - step]
    return dims


def fiber_homology(m: ManifoldModel, cap: int) -> GradedAbelianGroup:
    """Reduced homology of the splitting fibre through degree cap.

    The fibre is (a half-smash over) Z[u,v] tensor the reduced homology of
    Z, which is Z^(r-1) + G in degree n and Z^(r-1) in degree n+1.  With p
    the dimensions of Z[u,v], degree D is therefore, in closed form,

        H_D = Z^((r-1)(p[D-n] + p[D-n-1])) + G^(p[D-n]),

    kept as the two counts per degree beside the one group G: O(cap)
    integers and O(cap) Python steps.  No degree becomes a group: each prints
    from G's runs (see GradedAbelianGroup).
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if m.r < 1:
        raise SphereFallback(m.n, sigma_primes(m))
    poly = polynomial_ring_dims(m.n, cap)
    below = [0] + poly  # below[d] = p[d-1]
    return GradedAbelianGroup(
        m.torsion, {d + m.n: ((m.r - 1) * (poly[d] + below[d]), poly[d]) for d in range(cap - m.n + 1)}
    )


# ---------------------------------------------------------------------------
# rational Poincare series
# ---------------------------------------------------------------------------

def rational_series(expr: SpaceExpr, cap: int) -> PowerSeries:
    """Poincare series of the rational homology, exactly, through t^cap."""
    if isinstance(expr, (Point, Moore)):
        return PowerSeries.one(cap)  # a Moore space is rationally trivial
    if isinstance(expr, Sphere):
        return PowerSeries.from_polynomial({0: 1, expr.m: 1}, cap)
    if isinstance(expr, Wedge):
        out = PowerSeries.one(cap)
        for c in expr.children:
            out = out + (rational_series(c, cap) - PowerSeries.one(cap))
        return out
    if isinstance(expr, Product):
        out = PowerSeries.one(cap)
        for c in expr.children:
            out = out * rational_series(c, cap)
        return out
    if isinstance(expr, Smash):
        out = PowerSeries.one(cap)
        for c in expr.children:
            out = out * (rational_series(c, cap) - PowerSeries.one(cap))
        return out + PowerSeries.one(cap)
    if isinstance(expr, LocalizedAt):
        return rational_series(expr.child, cap)
    if isinstance(expr, WeakProduct):
        return euler_product(expr.counts, cap)  # Loop(S^(w+1)) has series 1/(1 - t^w)
    if isinstance(expr, Loop):
        return _loop_series(expr.child, cap)
    raise TypeError(f"no series rule for {expr!r}")


def _loop_series(space: SpaceExpr, cap: int) -> PowerSeries:
    if isinstance(space, Product):
        out = PowerSeries.one(cap)
        for c in space.children:
            out = out * _loop_series(c, cap)
        return out
    if isinstance(space, LocalizedAt):
        return _loop_series(space.child, cap)
    if not _is_suspension(space):
        raise ValueError(f"unsupported loop argument {space}")
    # Bott-Samelson: H_*(Loop X; Q) is the tensor algebra on the desuspended
    # reduced homology of a suspension X, and only of a suspension: a wedge
    # with a looped or product summand has cup products that the rule cannot
    # see.  So Loop(S^m), m >= 2, has series 1/(1 - t^(m-1)) for both
    # parities: for even m, (1 + t^(m-1)) / (1 - t^(2m-2)) is the same
    # series.  A point gives 1.
    reduced = rational_series(space, cap + 1) - PowerSeries.one(cap + 1)
    coeffs = reduced.coefficients()
    if coeffs[0] != 0 or coeffs[1] != 0:
        raise ValueError(f"loop of a non-simply-connected space {space}")
    shifted = PowerSeries(coeffs[1:], cap)
    return (PowerSeries.one(cap) - shifted).inverse()


def _is_suspension(space: SpaceExpr) -> bool:
    """Is the space (rationally) a suspension, so that Bott-Samelson applies?"""
    if isinstance(space, (Point, Sphere, Moore)):
        return True
    if isinstance(space, Wedge):
        return all(_is_suspension(c) for c in space.children)
    if isinstance(space, Smash):
        return any(_is_suspension(c) for c in space.children)  # X ^ SY = S(X ^ Y)
    if isinstance(space, LocalizedAt):
        return _is_suspension(space.child)
    return False


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

class ClassificationFlags(
    namedtuple("ClassificationFlags", "rational_type reason no_exponent no_exponent_note retract")
):
    """rational_type is "elliptic" or "hyperbolic"; retract is a serialized
    space, or None when no looped wedge retract is claimed."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return self._asdict()


def classify(m: ManifoldModel) -> ClassificationFlags:
    """Elliptic iff r <= 1; for r >= 2 no homotopy exponent at any prime."""
    n = m.n
    if m.r <= 1:
        cohomology = f"S^{m.dim}" if m.r == 0 else f"S^{n} x S^{n + 1}"
        note = "exponent question deferred to sphere literature" if m.r == 0 else "no non-exponent claim"
        return ClassificationFlags(
            rational_type="elliptic",
            reason=f"rational cohomology of {cohomology}",
            no_exponent=False,
            no_exponent_note=f"rationally elliptic; {note}",
            retract=None,
        )
    witness = serialize(loop(wedge([Sphere(n), Sphere(n + 1)])))
    primes = sorted(sigma_primes(m))
    note = (
        "no homotopy exponent at any prime: "
        f"{witness} is a retract of the loop space, and away from {primes or '{}'} "
        "sphere summands of unbounded dimension already appear"
    )
    return ClassificationFlags(
        rational_type="hyperbolic",
        reason="middle rank r >= 2 forces exponential homotopy growth",
        no_exponent=True,
        no_exponent_note=note,
        retract=witness,
    )

