"""Exact linear algebra over the rationals or a prime field.

Everything here takes plain lists of numbers: Fractions (or ints) when
``char == 0``, ints reduced mod p when ``char == p``.  ``rank`` is a sparse,
forward-only elimination that only counts pivots; ``nullspace`` needs the
reduced echelon form, which ``row_echelon`` builds by dense Gauss-Jordan
elimination, and which is also the test oracle for ``rank``.

The prime field serves the Lie-basis independence certificate: a rational
matrix with denominators prime to p and full rank mod p has full rank over
Q, and residues mod p stay bounded where Fraction entries grow.  The
rationals serve the Koszul dual and the weight dimensions of generic
quadratic algebras, and are the test oracle for the certificate.
"""

from fractions import Fraction
from itertools import compress


def _reduce_rows(rows, ncols, char):
    rows = [list(r) for r in rows]
    for r in rows:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
        if char:
            for j, x in enumerate(r):
                r[j] = x % char
    return rows


def row_echelon(rows, ncols, char=0):
    """Return (pivot_columns, reduced_rows) of the row-reduced echelon form."""
    m = _reduce_rows(rows, ncols, char)
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(m)):
            if m[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        inv = pow(m[rank][col], -1, char) if char else Fraction(1, 1) / m[rank][col]
        m[rank] = [(x * inv) % char if char else x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                if char:
                    m[i] = [(a - f * b) % char for a, b in zip(m[i], m[rank])]
                else:
                    m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
    return pivots, m[:rank]


def rank(rows, ncols, char=0) -> int:
    """Rank of the matrix, by sparse elimination that only counts pivots.

    Each row becomes a {column: value} map with zeros dropped (reduced mod
    ``char`` first) and is reduced by the stored pivot rows, keyed by their
    leading column, until it is zero or leads in a new column; then it is
    stored as the pivot of that column.  No row is rescaled and nothing
    above a pivot is cleared.  Over Q the factor is ``Fraction(a) / b``, so
    integer rows stay exact.

    Sound because the stored rows have pairwise distinct leading columns,
    so they are independent, and each one is an input row less a
    combination of earlier stored rows, so they span the same space as the
    rows read so far; a row that reduces to zero lies in that span.  The
    rank is the number of stored rows.
    """
    pivots = {}  # leading column -> (row, inverse of its leading value mod char)
    columns = range(ncols)
    for r in rows:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
        if char:
            row = {j: y for j in compress(columns, r) if (y := r[j] % char)}
        else:
            row = {j: r[j] for j in compress(columns, r)}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = (row, pow(row[lead], -1, char) if char else None)
                break
            prow, inv = pivot
            if char:
                f = row[lead] * inv % char
                for j, v in prow.items():
                    x = (row.get(j, 0) - f * v) % char
                    if x:
                        row[j] = x
                    else:
                        del row[j]
            else:
                f = Fraction(row[lead]) / prow[lead]
                for j, v in prow.items():
                    x = row.get(j, 0) - f * v
                    if x:
                        row[j] = x
                    else:
                        del row[j]
    return len(pivots)


def nullspace(rows, ncols, char=0):
    """Basis of the right kernel of the matrix, one vector per free column.

    The basis is the canonical one read off the reduced echelon form: the
    vector for free column j has a 1 in slot j and pivot entries solving the
    homogeneous system.
    """
    pivots, m = row_echelon(rows, ncols, char)
    pivot_set = set(pivots)
    one = 1 if char else Fraction(1)
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        v = [0] * ncols
        v[j] = one
        for i, pc in enumerate(pivots):
            x = -m[i][j]
            v[pc] = x % char if char else x
        basis.append(tuple(v))
    return basis
