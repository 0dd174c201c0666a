"""Word predicates read straight off their definitions, as test oracles.

``loopspace`` never asks these questions of a single word: its walks build
Lyndon and irreducible words directly.  The tests use them to check those
walks and the rewriting against the definitions.
"""


def is_lyndon(indices) -> bool:
    """Strictly smaller than every proper cyclic rotation."""
    indices = tuple(indices)
    n = len(indices)
    if n == 0:
        return False
    doubled = indices + indices
    return all(indices < doubled[i : i + n] for i in range(1, n))


def is_irreducible(word, pres) -> bool:
    """True iff the presentation's leading bigram does not occur in the word."""
    if pres.is_free:
        return True
    indices = word.indices
    return pres.leading_pair() not in zip(indices, indices[1:])


def homogeneous_degree(poly):
    """The degree shared by every word of the polynomial, or None."""
    degrees = {word.degree for word in poly.words()}
    return degrees.pop() if len(degrees) == 1 else None
