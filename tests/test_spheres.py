import hashlib

import pytest

from loopspace.abelian import FgAbelianGroup, FiniteAbelianGroup
from loopspace.decomposition import classify
from loopspace.errors import TableFormatError, TableRangeError
from loopspace.manifold import ManifoldModel
from loopspace.spheres import (
    bundled_table_text,
    homotopy_of_manifold,
    load_table,
    load_table_file,
)

TABLE = load_table_file()

# frozen digest of the shipped data file; update only with a re-audit
BUNDLED_SHA256 = "695c504685a64b608450fd21a94d8439be4487bb00e88947ffa363f71172f6a5"

STABLE_STEMS = {
    0: (1, ()),
    1: (0, (2,)),
    2: (0, (2,)),
    3: (0, (24,)),
    4: (0, ()),
    5: (0, ()),
    6: (0, (2,)),
    7: (0, (240,)),
    8: (0, (2, 2)),
    9: (0, (2, 2, 2)),
    10: (0, (6,)),
    11: (0, (504,)),
    12: (0, ()),
    13: (0, (3,)),
}


def group(rank, orders=()):
    return FgAbelianGroup(rank, FiniteAbelianGroup.from_cyclic_orders(orders))


class TestLoadTable:
    def test_accepts_basic_line(self):
        t = load_table("3 2 1 -")
        assert t.pi(3, 2) == group(1)

    def test_rejects_nonzero_below_diagonal(self):
        with pytest.raises(TableFormatError) as err:
            load_table("2 3 1 -")
        assert "line 1" in str(err.value)

    def test_accepts_diagonal_z(self):
        t = load_table("4 4 1 -")
        assert t.pi(4, 4) == group(1)

    def test_rejects_non_z_diagonal(self):
        with pytest.raises(TableFormatError):
            load_table("4 4 0 2")

    def test_rejects_malformed_line_with_number(self):
        with pytest.raises(TableFormatError) as err:
            load_table("3 2 1 - x y")
        assert "line 1" in str(err.value)
        with pytest.raises(TableFormatError) as err:
            load_table("# fine\n3 2 one -")
        assert "line 2" in str(err.value)

    def test_rejects_duplicates_and_gaps(self):
        with pytest.raises(TableFormatError):
            load_table("3 2 1 -\n3 2 1 -")
        with pytest.raises(TableFormatError) as err:
            load_table("2 2 1 -\n4 2 0 2")
        assert "gap" in str(err.value)

    def test_env_override(self, tmp_path, monkeypatch):
        path = tmp_path / "tiny.tsv"
        path.write_text("2 2 1 -\n3 2 1 -\n")
        monkeypatch.setenv("LOOPSPACE_SPHERE_TABLE", str(path))
        t = load_table_file()
        assert set(t.entries) == {(2, 2), (3, 2)}
        monkeypatch.delenv("LOOPSPACE_SPHERE_TABLE")
        assert load_table_file().entries == load_table(bundled_table_text()).entries


class TestBundledTable:
    def test_checksum(self):
        digest = hashlib.sha256(bundled_table_text().encode()).hexdigest()
        assert digest == BUNDLED_SHA256

    def test_diagonal_is_z_everywhere(self):
        for m in range(2, 9):
            assert TABLE.pi(m, m) == group(1)

    def test_below_diagonal_zero(self):
        assert TABLE.pi(3, 4).is_zero()
        assert TABLE.pi(0, 2).is_zero()

    def test_stable_range_matches_stable_stems(self):
        checked = 0
        for (k, m), g in TABLE.entries.items():
            stem = k - m
            if stem <= m - 2:
                rank, orders = STABLE_STEMS[stem]
                assert g == group(rank, orders), (k, m)
                checked += 1
        assert checked > 20

    def test_hopf_splitting_s4(self):
        # pi_k(S^4) = pi_(k-1)(S^3) + pi_k(S^7)
        def pi7(k):
            if TABLE.covers(k, 7):
                return TABLE.pi(k, 7)
            rank, orders = STABLE_STEMS[k - 7]
            return group(rank, orders)

        for k in range(5, 18):
            assert TABLE.pi(k, 4) == TABLE.pi(k - 1, 3).direct_sum(pi7(k)), k

    def test_hopf_splitting_s8(self):
        # pi_k(S^8) = pi_(k-1)(S^7) + pi_k(S^15); the S^15 part is stable here
        for k in range(9, 20):
            stem = k - 15
            if stem < 0:
                tail = group(0)
            else:
                rank, orders = STABLE_STEMS[stem]
                tail = group(rank, orders)
            assert TABLE.pi(k, 8) == TABLE.pi(k - 1, 7).direct_sum(tail), k

    def test_s2_shifts_s3(self):
        for k in range(3, 16):
            assert TABLE.pi(k, 2) == TABLE.pi(k, 3), k

    def test_low_values(self):
        assert TABLE.pi(3, 2) == group(1)
        assert TABLE.pi(4, 2) == group(0, (2,))
        assert TABLE.pi(4, 3) == group(0, (2,))
        assert TABLE.pi(7, 4) == group(1, (12,))
        assert TABLE.pi(11, 6) == group(1)


class TestLocalize:
    def test_kills_all_torsion(self):
        # pi_7(S^4) = Z + Z/12; inverting 2 and 3 leaves the Hopf-invariant Z
        assert TABLE.pi(7, 4).localize({2, 3}) == group(1)


class TestAssembly:
    def test_hurewicz_degree(self):
        a = homotopy_of_manifold(ManifoldModel(2, 1), 2, TABLE)
        assert a.total == group(1)
        assert a.summand_text() == "Z"

    def test_two_summands_text(self):
        a = homotopy_of_manifold(ManifoldModel(2, 1), 3, TABLE)
        assert a.total == group(2)
        assert a.summand_text() == "Z + Z"

    def test_pi4_of_rank_one(self):
        a = homotopy_of_manifold(ManifoldModel(2, 1), 4, TABLE)
        assert a.total == group(0, (2, 2))

    def test_torsion_killed_after_inverting_two(self):
        a = homotopy_of_manifold(ManifoldModel(2, 1, (2,)), 4, TABLE)
        assert a.total.is_zero()
        assert a.inverted_primes == (2,)

    def test_rank_two_pi2(self):
        a = homotopy_of_manifold(ManifoldModel(2, 2), 2, TABLE)
        assert a.total == group(2)
        assert a.summands == ((2, 2, group(1)),)

    def test_below_connectivity_is_zero(self):
        a = homotopy_of_manifold(ManifoldModel(3, 2), 2, TABLE)
        assert a.total.is_zero()
        assert a.summand_text() == "0"

    def test_rank_zero_uses_top_sphere(self):
        a = homotopy_of_manifold(ManifoldModel(2, 0, (2,)), 5, TABLE)
        assert a.total == group(1)
        a2 = homotopy_of_manifold(ManifoldModel(2, 0, (2,)), 6, TABLE)
        assert a2.total.is_zero()  # pi_6(S^5) = Z/2 dies after inverting 2

    def test_table_gap_lists_missing_pairs(self):
        with pytest.raises(TableRangeError) as err:
            homotopy_of_manifold(ManifoldModel(2, 2), 17, TABLE)
        missing = err.value.missing
        assert (17, 2) in missing and (17, 3) in missing
        assert all(k == 17 for k, _m in missing)

    def test_finiteness_only_spheres_up_to_k(self):
        a = homotopy_of_manifold(ManifoldModel(2, 2), 5, TABLE)
        assert all(m <= 5 for m, _mult, _g in a.summands)

    def test_answer_depends_only_on_rank_away_from_torsion(self):
        # localizing the G = 0 answer at 2 gives the G = Z/2 answer
        for k in (3, 4, 5, 6):
            plain = homotopy_of_manifold(ManifoldModel(2, 2), k, TABLE)
            torsioned = homotopy_of_manifold(ManifoldModel(2, 2, (2,)), k, TABLE)
            assert plain.total.localize({2}) == torsioned.total, k

    def test_json_schema(self):
        doc = homotopy_of_manifold(ManifoldModel(2, 1, (2,)), 4, TABLE).to_dict()
        assert doc == {
            "k": 4,
            "inverted_primes": [2],
            "summands": [
                {"m": 2, "mult": 1, "group": "0"},
                {"m": 3, "mult": 1, "group": "0"},
            ],
            "total": "0",
        }


class TestHomotopyAnswer:
    def test_fields_cannot_be_assigned(self):
        a = homotopy_of_manifold(ManifoldModel(2, 1), 3, TABLE)
        for field in ("k", "inverted_primes", "summands", "total"):
            with pytest.raises(AttributeError):
                setattr(a, field, None)
        with pytest.raises(AttributeError):
            a.extra = 1

    def test_same_query_answers_compare_equal(self):
        a = homotopy_of_manifold(ManifoldModel(3, 2, (2,)), 7, TABLE)
        b = homotopy_of_manifold(ManifoldModel(3, 2, (2,)), 7, load_table_file())
        assert a == b and hash(a) == hash(b)
        assert a != homotopy_of_manifold(ManifoldModel(3, 2, (2,)), 6, TABLE)

    def test_to_dict_and_text_unchanged(self):
        a = homotopy_of_manifold(ManifoldModel(2, 2, (3,)), 5, TABLE)
        assert a.to_dict() == {
            "k": 5,
            "inverted_primes": [3],
            "summands": [
                {"m": 2, "mult": 2, "group": "Z/2"},
                {"m": 3, "mult": 3, "group": "Z/2"},
                {"m": 4, "mult": 5, "group": "Z/2"},
                {"m": 5, "mult": 10, "group": "Z"},
            ],
            "total": "Z^10" + " + Z/2" * 10,
        }
        assert a.summand_text() == " + ".join(["Z/2"] * 10 + ["Z^10"])
        b = homotopy_of_manifold(ManifoldModel(3, 2), 7, TABLE)
        assert b.summand_text() == "Z/2 + Z/2 + Z^2 + Z/12 + Z/12 + Z/2 + Z/2 + Z/2 + Z/2 + Z^3"
        assert repr(b).startswith("HomotopyAnswer(k=7, inverted_primes=(), summands=((3, 2, ")


class TestExponentReport:
    """The homotopy-exponent verdict, as classify reports it."""

    def test_hyperbolic(self):
        flags = classify(ManifoldModel(2, 3))
        assert "no homotopy exponent at any prime" in flags.no_exponent_note
        assert flags.retract == "L(W(S2, S3))"

    def test_rank_one(self):
        flags = classify(ManifoldModel(2, 1))
        assert flags.rational_type == "elliptic"
        assert not flags.no_exponent
        assert "no non-exponent claim" in flags.no_exponent_note

    def test_rank_zero(self):
        flags = classify(ManifoldModel(2, 0))
        assert "sphere literature" in flags.no_exponent_note
