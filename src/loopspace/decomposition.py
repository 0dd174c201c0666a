"""Symbolic loop-space decompositions and their rational Poincare series.

The loop space of an (n, r, G) manifold with r >= 1 splits as

    Loop(S^n) x Loop(S^(n+1)) x Loop(Z v (Z ^ Loop(S^n x S^(n+1))))

with Z a wedge of r-1 copies of S^n, r-1 copies of S^(n+1) and a Moore
space for G; after inverting the torsion primes it also splits as a weak
product of looped spheres with multiplicities given by the Moebius counts.
This module builds those expressions as symbolic trees, computes rational
Poincare series by structural rules, homology of the splitting fibre, and
the elliptic/hyperbolic classification.

Space expressions serialize to a stable text form ("L(S2) x L(S3) x ...")
and to a JSON tree; both are meant for golden tests and reports.
"""

from collections import namedtuple

from .abelian import FgAbelianGroup, FiniteAbelianGroup, GradedAbelianGroup
from .errors import SphereFallback
from .manifold import ManifoldModel, sigma_primes
from .series import PowerSeries, sphere_summand_counts


class SpaceExpr:
    """Base of the symbolic homotopy-type expression tree."""

    def __str__(self):
        return serialize(self)

    def __repr__(self):
        return serialize(self)

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))

    def _key(self):
        return ()


class Point(SpaceExpr):
    pass


class Sphere(SpaceExpr):
    def __init__(self, m: int):
        if m < 1:
            raise ValueError("sphere dimension must be >= 1")
        self.m = m

    def _key(self):
        return (self.m,)


class Moore(SpaceExpr):
    """M(G, n): reduced homology G concentrated in degree n >= 2."""

    def __init__(self, group: FiniteAbelianGroup, degree: int):
        if degree < 2:
            raise ValueError("Moore space degree must be >= 2")
        if group.is_trivial():
            raise ValueError("Moore space needs a nontrivial group (use Point)")
        self.group = group
        self.degree = degree

    def _key(self):
        return (self.group, self.degree)


class Wedge(SpaceExpr):
    def __init__(self, children):
        self.children = tuple(children)

    def _key(self):
        return self.children


class Product(SpaceExpr):
    def __init__(self, children):
        self.children = tuple(children)

    def _key(self):
        return self.children


class Smash(SpaceExpr):
    def __init__(self, children):
        self.children = tuple(children)

    def _key(self):
        return self.children


class Loop(SpaceExpr):
    def __init__(self, child):
        self.child = child

    def _key(self):
        return (self.child,)


class LocalizedAt(SpaceExpr):
    """Child with the listed primes inverted."""

    def __init__(self, primes, child):
        self.primes = tuple(sorted(primes))
        self.child = child

    def _key(self):
        return (self.primes, self.child)


class WeakProduct(SpaceExpr):
    """Homotopy colimit of finite sub-products of (expr, multiplicity) pairs."""

    def __init__(self, factors):
        self.factors = tuple((e, int(m)) for e, m in factors)

    def _key(self):
        return self.factors


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
        return "PI[" + ", ".join(f"{serialize(e)}^{m}" for e, m in expr.factors) + "]"
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
    if isinstance(expr, (Wedge, Product, Smash)):
        kind = {"Wedge": "wedge", "Product": "product", "Smash": "smash"}[type(expr).__name__]
        return {"kind": kind, "children": [to_dict(c) for c in expr.children]}
    if isinstance(expr, Loop):
        return {"kind": "loop", "child": to_dict(expr.child)}
    if isinstance(expr, LocalizedAt):
        return {"kind": "localized", "invert": list(expr.primes), "child": to_dict(expr.child)}
    if isinstance(expr, WeakProduct):
        return {
            "kind": "weak_product",
            "factors": [{"space": to_dict(e), "mult": m} for e, m in expr.factors],
        }
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
    w <= cap.  For r = 0 the single factor is the looped top sphere.
    ``counts`` takes l[1..cap] when the caller already has them.
    """
    primes = sigma_primes(m)
    if m.r < 1:
        return WeakProduct([(localized(primes, loop(Sphere(m.dim))), 1)])
    if counts is None:
        counts = sphere_summand_counts(m.n, m.r, cap)
    factors = []
    for w in range(1, cap + 1):
        if counts[w]:
            factors.append((localized(primes, loop(Sphere(w + 1))), counts[w]))
    return WeakProduct(factors)


def polynomial_ring_dims(n: int, cap: int) -> list:
    """Graded dimensions of Z[u, v] with |u| = n-1, |v| = n.

    The series is 1 / ((1 - t^(n-1)) (1 - t^n)): each factor is divided out
    by one running-sum pass, O(cap) in all.
    """
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

    built once per degree: O(cap) groups, plus the G^(p[D-n]) factors.
    """
    if m.r < 1:
        raise SphereFallback(m.n, sigma_primes(m))
    poly = polynomial_ring_dims(m.n, cap)
    parts = {}
    below = 0  # p[D-n-1]
    for d in range(cap - m.n + 1):  # d = D - n
        parts[d + m.n] = FgAbelianGroup((m.r - 1) * (poly[d] + below), m.torsion.power(poly[d]))
        below = poly[d]
    return GradedAbelianGroup(parts)


# ---------------------------------------------------------------------------
# rational Poincare series
# ---------------------------------------------------------------------------

def rational_series(expr: SpaceExpr, cap: int) -> PowerSeries:
    """Poincare series of the rational homology, exactly, through t^cap."""
    if isinstance(expr, Point):
        return PowerSeries.one(cap)
    if isinstance(expr, Sphere):
        return PowerSeries.from_polynomial({0: 1, expr.m: 1}, cap)
    if isinstance(expr, Moore):
        return PowerSeries.one(cap)  # rationally trivial
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
        logs = [(mult, rational_series(e, cap).log().coeffs) for e, mult in expr.factors]
        p = [sum(mult * c[k] for mult, c in logs) for k in range(cap + 1)]
        return PowerSeries.from_log_derivative(p, cap)
    if isinstance(expr, Loop):
        return _loop_series(expr.child, cap)
    raise TypeError(f"no series rule for {expr!r}")


def _loop_series(space: SpaceExpr, cap: int) -> PowerSeries:
    if isinstance(space, Point):
        return PowerSeries.one(cap)
    if isinstance(space, Sphere):
        m = space.m
        if m < 2:
            raise ValueError("loop space rules need a simply connected sphere (dim >= 2)")
        if m % 2:  # odd sphere: free graded-commutative on one even class
            return PowerSeries.from_polynomial({0: 1, m - 1: -1}, cap).inverse()
        numer = PowerSeries.from_polynomial({0: 1, m - 1: 1}, cap)
        denom = PowerSeries.from_polynomial({0: 1, 2 * m - 2: -1}, cap)
        return numer * denom.inverse()
    if isinstance(space, Product):
        out = PowerSeries.one(cap)
        for c in space.children:
            out = out * _loop_series(c, cap)
        return out
    if isinstance(space, LocalizedAt):
        return _loop_series(space.child, cap)
    if isinstance(space, (Wedge, Smash, Moore)):
        # suspension-like: tensor algebra on the desuspended reduced homology
        reduced = rational_series(space, cap + 1) - PowerSeries.one(cap + 1)
        coeffs = reduced.coefficients()
        if coeffs[0] != 0 or coeffs[1] != 0:
            raise ValueError(f"loop of a non-simply-connected space {space}")
        shifted = PowerSeries(coeffs[1:], cap)
        return (PowerSeries.one(cap) - shifted).inverse()
    raise ValueError(f"unsupported loop argument {space}")


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
        return {
            "rational_type": self.rational_type,
            "reason": self.reason,
            "no_exponent": self.no_exponent,
            "no_exponent_note": self.no_exponent_note,
            "retract": self.retract,
        }


def classify(m: ManifoldModel) -> ClassificationFlags:
    """Elliptic iff r <= 1; for r >= 2 no homotopy exponent at any prime."""
    n = m.n
    if m.r == 0:
        return ClassificationFlags(
            rational_type="elliptic",
            reason=f"rational cohomology of S^{m.dim}",
            no_exponent=False,
            no_exponent_note="rationally elliptic; exponent question deferred to sphere literature",
            retract=None,
        )
    if m.r == 1:
        return ClassificationFlags(
            rational_type="elliptic",
            reason=f"rational cohomology of S^{n} x S^{n + 1}",
            no_exponent=False,
            no_exponent_note="rationally elliptic; no non-exponent claim",
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


class DecompositionReport(namedtuple("DecompositionReport", "main weak_product fiber flags")):
    """The splitting, the weak product, the fibre homology (None for r = 0)
    and the classification flags of one manifold."""

    __slots__ = ()


def decomposition_report(m: ManifoldModel, cap: int) -> DecompositionReport:
    return DecompositionReport(
        main=loop_decomposition(m),
        weak_product=weak_product_decomposition(m, cap),
        fiber=fiber_homology(m, cap) if m.r >= 1 else None,
        flags=classify(m),
    )
