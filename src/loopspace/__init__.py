"""Exact computation of loop-space homology and homotopy groups of
(n-1)-connected (2n+1)-manifolds, specified by (n, r, G).

Everything is exact arithmetic in integers, with Fractions only in relation
normalisation by a leading coefficient other than +-1, elimination over Q in
``linalg`` (which no command runs) and the certificate's normal forms; every
headline number is cross-checkable by an independent combinatorial route,
and the ``selftest`` command runs those cross-checks.  Every module here
serves some command; the Koszul-duality checks of the paper's claims are a
test oracle beside the tests.

Each answer runs in a fresh interpreter, so every module the package imports
is compiled on every answer when no bytecode is cached.  ``linalg``,
``lyndon`` and ``selftest`` run only in ``selftest`` and the certificate, so
they are registered lazily (``importlib.util.LazyLoader``): each is in
``sys.modules`` and is an attribute of the package from the start, and its
body runs on the first attribute read.  The lyndon names in ``__all__`` are
served by the package's ``__getattr__``.  Every other module is imported
eagerly.  In Python 3.11 the lazy module takes no lock, so two threads
that read one of these modules first at the same time may run its body
twice, or one of them may see it half run; read it in one thread first.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from .abelian import FgAbelianGroup, FiniteAbelianGroup, GradedAbelianGroup
from .decomposition import classify, loop_decomposition, rational_series
from .manifold import ManifoldModel, homology, loop_presentation, sigma_primes
from .rewrite import QuadraticPresentation, hilbert_dims, normal_form
from .series import PowerSeries, loop_generating_series, sphere_summand_counts
from .spheres import homotopy_of_manifold, load_table_file

__version__ = "0.1.0"

for _name in ("linalg", "lyndon", "selftest"):
    _spec = find_spec(f"{__name__}.{_name}")
    _spec.loader = LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_name] = _module = module_from_spec(_spec)
    _spec.loader.exec_module(_module)
del _name, _spec, _module, LazyLoader, find_spec, module_from_spec, sys


def __getattr__(name):
    """The lyndon names of __all__, read from the lazily registered module."""
    if name in ("independence_certificate", "lie_dims", "standard_lyndon"):
        return getattr(lyndon, name)  # noqa: F821  (bound by the loop above)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | set(__all__))


__all__ = [
    "FgAbelianGroup",
    "FiniteAbelianGroup",
    "GradedAbelianGroup",
    "ManifoldModel",
    "PowerSeries",
    "QuadraticPresentation",
    "classify",
    "hilbert_dims",
    "homology",
    "homotopy_of_manifold",
    "independence_certificate",
    "lie_dims",
    "load_table_file",
    "loop_decomposition",
    "loop_generating_series",
    "loop_presentation",
    "normal_form",
    "rational_series",
    "sigma_primes",
    "sphere_summand_counts",
    "standard_lyndon",
    "__version__",
]
