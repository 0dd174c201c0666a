"""Exact computation of loop-space homology and homotopy groups of
(n-1)-connected (2n+1)-manifolds, specified by (n, r, G).

Everything is exact arithmetic in integers, with Fractions only in relation
normalisation by a leading coefficient other than +-1, elimination over Q in
``linalg`` (which no command runs) and the certificate's normal forms; every
headline number is cross-checkable by an independent combinatorial route,
and the ``selftest`` command runs those cross-checks.  Every module here
serves some command; the Koszul-duality checks of the paper's claims are a
test oracle beside the tests.
"""

from .abelian import FgAbelianGroup, FiniteAbelianGroup, GradedAbelianGroup
from .decomposition import classify, loop_decomposition, rational_series
from .lyndon import independence_certificate, lie_dims, standard_lyndon
from .manifold import ManifoldModel, homology, loop_presentation, sigma_primes
from .rewrite import QuadraticPresentation, hilbert_dims, normal_form
from .series import PowerSeries, loop_generating_series, sphere_summand_counts
from .spheres import homotopy_of_manifold, load_table_file

__version__ = "0.1.0"

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
