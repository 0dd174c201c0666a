"""Dense Gauss-Jordan elimination, the test oracle for ``loopspace.linalg``.

``row_echelon`` reduces dense rows (lists of length ``ncols``) to the
reduced echelon form column by column, with no shared code with the sparse
elimination in ``loopspace.linalg``; ``rank`` and ``nullspace`` read the
rank and the canonical kernel basis off it.  ``sparse`` turns a dense row
into the ``{column: value}`` map that ``loopspace.linalg`` takes and
returns, and ``dense`` turns such a map back.
"""

from fractions import Fraction


def sparse(row):
    """A dense row as a {column: value} map with zeros dropped."""
    return {j: x for j, x in enumerate(row) if x}


def dense(row, ncols):
    """A {column: value} map as a tuple of length ncols, missing columns 0."""
    return tuple(row.get(j, 0) for j in range(ncols))


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


def rank(rows, ncols, char=0):
    """Rank of dense rows: the number of pivots of the reduced echelon form."""
    return len(row_echelon(rows, ncols, char)[0])


def nullspace(rows, ncols, char=0):
    """Canonical kernel basis of dense rows, read off the reduced echelon form.

    The vector for free column j has a 1 in slot j and, in each pivot
    column, minus that pivot row's entry in column j.
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
