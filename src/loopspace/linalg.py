"""Exact rank over the rationals or a prime field, on sparse rows.

A row is a ``{column: value}`` map with every column in ``0..ncols-1``; a
missing column is zero.  Values are Fractions or ints when ``char == 0``
and ints, reduced here, when ``char == p``.  A column outside the range
raises ValueError, and no input map is changed.

``rank`` runs one forward elimination.  It reduces each row by the stored
pivot rows, keyed by leading column, until the row is zero or leads in a
new column; it then scales the row to lead with 1 and stores it.  Over F_p
a row that already leads with 1 is stored as it is: it is a fresh map,
reduced mod p, so no input map is shared.  The two fields differ only in
``% char`` and that shortcut; over Q every stored row is rescaled, which
keeps its values Fractions.

The rank is the number of stored rows.  This is sound because the stored
rows have pairwise distinct leading columns, so they are independent, and
each one is an input row less a combination of earlier stored rows, scaled
by a unit, so they span the rows read so far: a row that reduces to zero
lies in that span.

>>> rank([{0: 1, 2: 2}, {1: 3}, {0: 2, 1: 3, 2: 4}], 3)
2
>>> rank([{0: 1, 2: 2}, {0: 2, 2: 4}], 3, char=5)
1

The prime field serves the Lie-basis independence certificate: a rational
matrix with denominators prime to p and full rank mod p has full rank over
Q, and residues mod p stay bounded where Fraction entries grow.  The test
suite's Koszul oracle runs the same elimination over both fields, for the
weight dimensions of generic quadratic algebras.
"""


def _subtract(row, f, prow, char):
    """row -= f * prow in place, dropping the entries that become zero."""
    for j, v in prow.items():
        x = row.get(j, 0) - f * v
        if char:
            x %= char
        if x:
            row[j] = x
        else:
            del row[j]


def rank(rows, ncols, char=0) -> int:
    """Rank of the matrix whose rows are the given {column: value} maps."""
    if not char:
        from fractions import Fraction  # loaded by the first elimination over Q
    pivots = {}  # leading column -> stored row, a fresh map leading with 1
    for r in rows:
        if r and (min(r) < 0 or max(r) >= ncols):
            raise ValueError(f"a row has a column outside 0..{ncols - 1}")
        row = {j: y for j, v in r.items() if (y := v % char if char else v)}
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                x = row[lead]
                if char and x == 1:
                    pivots[lead] = row  # already a fresh reduced map leading with 1
                else:
                    inv = pow(x, -1, char) if char else 1 / Fraction(x)
                    pivots[lead] = {j: v * inv % char if char else v * inv for j, v in row.items()}
                break
            _subtract(row, row[lead], prow, char)
    return len(pivots)
