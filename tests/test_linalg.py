"""linalg.rank, on sparse rows, against a dense oracle.

``linalg_oracle`` holds the dense Gauss-Jordan reduction; its rank is the
oracle here, on seeded matrices over Q (ints and Fractions), F_7 and F_P, on
deliberately dependent or degenerate inputs, and on every matrix the
independence certificate builds at (2, 2, 7).  The dense matrices are passed
to ``linalg`` through ``sparse``.
"""

import random
from fractions import Fraction

import pytest

from loopspace import linalg
from loopspace.lyndon import P, independence_certificate
from loopspace.manifold import ManifoldModel, loop_presentation

import linalg_oracle
from linalg_oracle import sparse

FIELDS = ("Q-int", "Q-fraction", 7, P)


oracle = linalg_oracle.rank


def rank(rows, ncols, char=0):
    """linalg.rank of dense rows."""
    return linalg.rank([sparse(r) for r in rows], ncols, char)


def char_of(field):
    return 0 if isinstance(field, str) else field


def random_entry(rng, field):
    if rng.random() < 0.55:
        return 0
    if field == "Q-int":
        return rng.randint(-4, 4)
    if field == "Q-fraction":
        return Fraction(rng.randint(-4, 4), rng.randint(1, 5))
    # any int: negatives and multiples of the prime must reduce too
    return rng.choice((rng.randint(-3 * field, 3 * field), field, -field, 2 * field + 1))


def random_matrix(rng, field):
    """A seeded matrix, often with rows that combine earlier ones."""
    nrows, ncols = rng.randint(0, 9), rng.randint(0, 9)
    rows = []
    for _ in range(nrows):
        if len(rows) >= 2 and rng.random() < 0.35:
            a, b = rng.sample(rows, 2)
            s, t = rng.randint(-2, 2), rng.randint(-2, 2)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([random_entry(rng, field) for _ in range(ncols)])
    return rows, ncols


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_rank_matches_echelon_oracle_on_seeded_matrices(field):
    rng = random.Random(f"rank/{field}")
    char = char_of(field)
    deficient = 0
    for _ in range(80):
        rows, ncols = random_matrix(rng, field)
        expected = oracle(rows, ncols, char)
        assert rank(rows, ncols, char) == expected, (rows, ncols, char)
        deficient += expected < min(len(rows), ncols)
    assert deficient >= 10  # the seeded set is not all full rank


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_row_summing_two_others_adds_nothing(field):
    char = char_of(field)
    one = Fraction(1, 3) if field == "Q-fraction" else 1
    a = [one, 0, 2, 0, 5]
    b = [0, one, 0, 3, 0]
    rows = [a, b, [x + y for x, y in zip(a, b)]]
    assert rank(rows, 5, char) == oracle(rows, 5, char) == 2


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_zero_and_duplicated_rows(field):
    char = char_of(field)
    row = [0, 1, 0, 4, 2]
    rows = [[0] * 5, row, [0] * 5, list(row), list(row)]
    assert rank(rows, 5, char) == oracle(rows, 5, char) == 1
    assert rank([[0] * 5] * 3, 5, char) == 0


@pytest.mark.parametrize("p", [7, P])
def test_entries_divisible_by_p_are_zero(p):
    rows = [[p, 2 * p, -p], [0, 3 * p, p * p]]
    assert rank(rows, 3, p) == oracle(rows, 3, p) == 0
    rows = [[p + 1, 2 * p, 1], [1, p, 1 - p]]  # both are (1, 0, 1) mod p
    assert rank(rows, 3, p) == oracle(rows, 3, p) == 1
    assert rank(rows, 3) == 2  # over Q they differ


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_empty_and_zero_column_matrices(field):
    char = char_of(field)
    assert rank([], 0, char) == oracle([], 0, char) == 0
    assert rank([], 4, char) == oracle([], 4, char) == 0
    assert rank([[], [], []], 0, char) == oracle([[], [], []], 0, char) == 0


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_column_out_of_range_raises(field):
    char = char_of(field)
    for rows in ([{0: 1}, {3: 1}], [{-1: 1}], [{2: 1, 5: 0}], [{0: 1}, {0: 2, 3: 2}]):
        with pytest.raises(ValueError, match=r"outside 0\.\.2"):
            linalg.rank(rows, 3, char)
    with pytest.raises(ValueError):
        linalg.rank([{0: 1}], 0, char)


def test_integer_rows_stay_exact_over_q():
    # a float pivot factor 3.0 would cancel the +1 against 3 * 10**20
    rows = [[1, 10**20], [3, 3 * 10**20 + 1]]
    assert rank(rows, 2) == oracle(rows, 2) == 2
    rows = [[3, 1], [1, Fraction(1, 3)]]
    assert rank(rows, 2) == oracle(rows, 2) == 1


def test_rank_does_not_change_its_input():
    rows = [{0: 7, 2: 14}, {0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6}]
    linalg.rank(rows, 3, 7)
    linalg.rank(rows, 3)
    assert rows == [{0: 7, 2: 14}, {0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6}]


def test_agrees_on_every_certificate_matrix(monkeypatch):
    seen = []
    real_rank = linalg.rank

    def spy(rows, ncols, char=0):
        seen.append((rows, ncols, char))
        return real_rank(rows, ncols, char)

    monkeypatch.setattr(linalg, "rank", spy)
    independence_certificate(loop_presentation(ManifoldModel(2, 2)), 7)
    assert len(seen) == 7  # one matrix per degree
    for rows, ncols, char in seen:
        assert char == P
        dense = [[row.get(j, 0) for j in range(ncols)] for row in rows]
        assert real_rank(rows, ncols, char) == oracle(dense, ncols, char) == len(rows)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_oracle_nullspace_is_a_kernel_basis_on_seeded_matrices(field):
    # the Koszul oracle takes its kernels from the dense nullspace; rank, a
    # separate elimination, checks that each basis spans the whole kernel
    rng = random.Random(f"nullspace/{field}")
    char = char_of(field)
    deficient = 0
    for _ in range(80):
        rows, ncols = random_matrix(rng, field)
        basis = linalg_oracle.nullspace(rows, ncols, char)
        for v in basis:
            for r in rows:
                dot = sum(x * y for x, y in zip(r, v))
                assert (dot % char if char else dot) == 0, (rows, v)
        assert rank(basis, ncols, char) == len(basis) == ncols - rank(rows, ncols, char)
        deficient += len(basis) > max(ncols - len(rows), 0)
    assert deficient >= 10


@pytest.mark.parametrize("p", [7, P])
def test_rows_leading_with_one_over_a_prime_field(p):
    # a reduced row that already leads with 1 is stored as it is: it must be
    # a fresh map, not the input one, so the elimination leaves the input be
    rng = random.Random(f"lead-one/{p}")
    deficient = 0
    for _ in range(80):
        rows, ncols = random_matrix(rng, p)
        for r in rows:
            lead = next((j for j, x in enumerate(r) if x % p), None)
            if lead is not None:
                r[lead] = rng.choice((1, p + 1, 1 - p))  # 1 mod p, reduced or not
        maps = [sparse(r) for r in rows]
        before = [dict(m) for m in maps]
        assert linalg.rank(maps, ncols, p) == oracle(rows, ncols, p), (rows, ncols)
        assert maps == before
        deficient += oracle(rows, ncols, p) < min(len(rows), ncols)
    assert deficient >= 10
