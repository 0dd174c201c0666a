"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line; every comparison is exact (integer
equality), and the timed criteria assert their wall-clock budgets.
Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import contextlib
import io
import json
import pathlib
import time

from loopspace.abelian import FgAbelianGroup, FiniteAbelianGroup
from loopspace.cli import main
from loopspace.decomposition import (
    classify,
    fiber_homology,
    loop_decomposition,
    polynomial_ring_dims,
    rational_series,
)
from loopspace.errors import ComputationFailure
from loopspace.manifold import ManifoldModel, loop_presentation
from loopspace.rewrite import hilbert_dims
from loopspace.selftest import (
    GRID,
    check_dp_vs_enumeration,
    check_independence,
    check_mobius_vs_lyndon,
    check_pbw_identity,
    suite_confluence_fuzz,
)
from loopspace.series import (
    PowerSeries,
    loop_generating_series,
    sphere_summand_counts,
)
from loopspace.spheres import homotopy_of_manifold, load_table_file

from koszul_oracle import (
    FormAlgebra,
    form_algebra_of,
    kernel_relations,
    koszul_dual,
    quadratic_weight_dims,
    relation_vector,
    weight_dims,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def report(number, description, check, budget=None):
    start = time.monotonic()
    try:
        check()
        elapsed = time.monotonic() - start
        ok = budget is None or elapsed <= budget
        verdict = "PASS" if ok else f"FAIL (over budget: {elapsed:.1f}s > {budget}s)"
    except AssertionError:
        print(f"criterion {number:2d} FAIL  {description}")
        raise
    print(f"criterion {number:2d} {verdict}  {description}  [{elapsed:.2f}s]")
    assert ok, f"criterion {number} exceeded runtime budget"


def test_c01_hilbert_series_reproduction():
    def check():
        for n, r in GRID:
            dims = hilbert_dims(loop_presentation(ManifoldModel(n, r)), 12)
            assert dims == loop_generating_series(n, r, 12).inverse().coefficients(), (n, r)
            assert check_dp_vs_enumeration(ManifoldModel(n, r), 8) is None, (n, r)

    report(1, "Hilbert dims = 1/(1 - r t^(n-1) - r t^n + t^(2n-1)) to degree 12", check, budget=5.0)


def test_c02_mobius_formula():
    def check():
        for n, r in GRID:
            assert check_mobius_vs_lyndon(ManifoldModel(n, r), 12) is None, (n, r)
        l21 = sphere_summand_counts(2, 1, 12)
        assert l21[1] == 1 and l21[2] == 1 and all(l21[w] == 0 for w in range(3, 13))
        l22 = sphere_summand_counts(2, 2, 12)
        assert (l22[1], l22[2], l22[3]) == (2, 3, 5)

    report(2, "Moebius counts = standard Lyndon counts to degree 12", check, budget=10.0)


def test_c03_pbw_identity():
    def check():
        for n, r in GRID:
            assert check_pbw_identity(ManifoldModel(n, r), 12) is None, (n, r)

    report(3, "prod (1 - t^w)^(-l[w]) reproduces the Hilbert series to degree 12", check)


def test_c04_lie_basis_independence():
    def check():
        for n, r in ((2, 2), (3, 2)):
            assert check_independence(ManifoldModel(n, r), 10) is None, (n, r)

    report(
        4,
        "standard bracketings are unitriangular with full rank mod 2^31-1 to degree 10",
        check,
        budget=30.0,
    )


def test_c05_quadraticity():
    def check():
        for n, r, orders, p in (
            (2, 1, (), 0),
            (2, 2, (), 0),
            (3, 2, (3,), 3),
            (2, 1, (2, 4), 2),
            (2, 7, (), 0),  # s = 7, the largest that MAX_CELLS admits
            (2, 5, (3, 3), 3),  # s = 5 + 2
        ):
            form = form_algebra_of(ManifoldModel(n, r, orders), p)
            assert form.dim_v >= 2  # s >= 1
            assert quadratic_weight_dims(form.dim_v, kernel_relations(form), 3, p)[3] == 0, (n, r, p)
        counterexample = FormAlgebra(((2, 2),), [[1, 0], [0, 0]])
        assert quadratic_weight_dims(2, kernel_relations(counterexample), 3)[3] >= 1
        s8 = form_algebra_of(ManifoldModel(2, 8), 0)
        try:
            quadratic_weight_dims(s8.dim_v, kernel_relations(s8), 3)
        except ComputationFailure as err:
            assert str(err).startswith("weight 3 needs 8160 rows over 4096 columns")
        else:
            raise AssertionError("the s = 8 form was not refused")

    report(5, "weight-3 dimension: 0 for manifold forms to s = 7, >= 1 for the square form", check)


def test_c06_koszul_duality():
    def check():
        for r in (1, 2, 3):
            pres = loop_presentation(ManifoldModel(2, r))
            m = 2 * r
            h_a = weight_dims(pres, 9)
            dual = koszul_dual(m, [relation_vector(pres.relation, m)])
            h_dual = quadratic_weight_dims(m, dual, 9)
            signed = PowerSeries([c * (-1) ** i for i, c in enumerate(h_dual)], 9)
            assert PowerSeries(h_a, 9) * signed == PowerSeries.one(9), r

    report(6, "weight series satisfy h_A(z) * h_dual(-z) = 1 mod z^10 for r in {1,2,3}", check)


def test_c07_decomposition_consistency():
    def check():
        for n in (2, 3, 4):
            for r in (1, 2, 3):
                target = loop_generating_series(n, r, 15).inverse()
                for orders in ((), (2,), (2, 3)):
                    m = ManifoldModel(n, r, orders)
                    got = rational_series(loop_decomposition(m), 15)
                    assert got == target, (n, r, orders)

    report(7, "rational series of the decomposition = 1/q to degree 15, torsion-independent", check)


def test_c08_fiber_homology():
    def check():
        h = fiber_homology(ManifoldModel(2, 2), 4)
        assert h.to_dict() == {str(d): str(FgAbelianGroup(d - 1)) for d in (2, 3, 4)}

        z3 = FiniteAbelianGroup((3,))
        h2 = fiber_homology(ManifoldModel(2, 1, (3,)), 9)
        poly = polynomial_ring_dims(2, 7)  # 1 1 2 2 3 3 ...
        degrees = h2.to_dict()
        for d, mult in enumerate(poly):
            assert degrees[str(2 + d)] == str(FgAbelianGroup(0, z3.power(mult))), d

        # independent graded-convolution oracle on a bigger example
        m = ManifoldModel(3, 2, (2,))
        cap = 10
        got = fiber_homology(m, cap)
        poly = polynomial_ring_dims(3, cap)
        for degree in range(cap + 1):
            rank = 0
            copies = 0
            for d in range(degree + 1):
                if degree - d == m.n:
                    rank += poly[d] * (m.r - 1)
                    copies += poly[d]
                if degree - d == m.n + 1:
                    rank += poly[d] * (m.r - 1)
            expected = FgAbelianGroup(rank, m.torsion.power(copies))
            assert got.to_dict().get(str(degree), "0") == str(expected), degree

    report(8, "fibre homology matches the graded convolution oracle", check)


def test_c09_homotopy_assembly():
    def check():
        table = load_table_file()
        m = ManifoldModel(2, 1)
        assert homotopy_of_manifold(m, 2, table).total == FgAbelianGroup(1)
        assert homotopy_of_manifold(m, 3, table).total == FgAbelianGroup(2)
        assert homotopy_of_manifold(m, 4, table).total == FgAbelianGroup(
            0, FiniteAbelianGroup((2, 2))
        )
        assert homotopy_of_manifold(ManifoldModel(2, 1, (2,)), 4, table).total.is_zero()
        assert homotopy_of_manifold(ManifoldModel(2, 2), 2, table).total == FgAbelianGroup(2)

        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["homotopy", "--n", "2", "--r", "2", "--torsion", "-", "--k", "17"])
        assert code == 3
        assert "pi_17" in err.getvalue()

    report(9, "assembled homotopy groups match; table gaps exit 3", check)


def test_c10_classification_flags():
    def check():
        for n, r in GRID:
            flags = classify(ManifoldModel(n, r))
            assert (flags.rational_type == "elliptic") == (r <= 1), (n, r)
            if r >= 2:
                assert flags.no_exponent
                assert flags.retract == f"L(W(S{n}, S{n + 1}))"
        counts = sphere_summand_counts(2, 2, 20)
        total20 = sum(counts.values())
        total10 = sum(v for w, v in counts.items() if w <= 10)
        assert total20 > 2 * total10

    report(10, "elliptic iff r <= 1; no-exponent verdict with retract witness; growth proxy", check)


def test_c11_confluence_fuzz():
    def check():
        result = suite_confluence_fuzz(count=10_000, seed=20240901)
        assert result.passed, result.detail

    report(11, "10000 fuzzed polynomials: strategies agree and reduction is idempotent", check, budget=60.0)


def test_c12_cli_golden_files():
    def check():
        cases = {
            "report_n2_r2_t0.txt": ["report", "--n", "2", "--r", "2", "--torsion", "-", "--cap", "10"],
            "report_n2_r2_t0.json": ["report", "--n", "2", "--r", "2", "--torsion", "-", "--cap", "10", "--json"],
            "report_n3_r1_t2.txt": ["report", "--n", "3", "--r", "1", "--torsion", "2", "--cap", "8"],
            "report_n3_r1_t2.json": ["report", "--n", "3", "--r", "1", "--torsion", "2", "--cap", "8", "--json"],
            "homotopy_n2_r1_k4.txt": ["homotopy", "--n", "2", "--r", "1", "--torsion", "-", "--k", "4"],
            "homotopy_n2_r1_k4.json": ["homotopy", "--n", "2", "--r", "1", "--torsion", "-", "--k", "4", "--json"],
        }
        for name, argv in cases.items():
            outputs = []
            for _ in range(2):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    assert main(argv) == 0
                outputs.append(buf.getvalue())
            assert outputs[0] == outputs[1], name
            assert outputs[0].encode() == (GOLDEN / name).read_bytes(), name
            if name.endswith(".json"):
                doc = json.loads(outputs[0])
                assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == outputs[0], name

    report(12, "CLI text/JSON outputs byte-identical to goldens; JSON round-trips", check)
