"""The selftest point checks, at models and caps off the grid, and the
failure lines the grid runner writes."""

import contextlib
import io

import pytest

from loopspace import selftest
from loopspace.cli import main
from loopspace.errors import SphereFallback
from loopspace.manifold import ManifoldModel

from route_breakers import (
    add_one_at_the_top_degree,
    add_t_to_the_cap,
    count_one_more_at_the_top_degree,
    drop_a_top_degree_word,
    refuse_every_certificate,
)

CHECKS = [
    selftest.check_dp_vs_enumeration,
    selftest.check_mobius_vs_lyndon,
    selftest.check_pbw_identity,
    selftest.check_master_series,
    selftest.check_independence,
]

# models off selftest.GRID, at caps other than its 7, 12 and 6
OFF_GRID = [(ManifoldModel(5, 1), 13), (ManifoldModel(2, 4), 5), (ManifoldModel(3, 1, (3,)), 9)]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("m, cap", OFF_GRID, ids=repr)
@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
def test_routes_agree_off_the_grid(check, m, cap):
    assert check(m, cap) is None


@pytest.mark.parametrize("m, cap", OFF_GRID, ids=repr)
@pytest.mark.parametrize(
    "check, route, break_route",
    [
        (selftest.check_dp_vs_enumeration, "enumerate_irreducible_words", drop_a_top_degree_word),
        (selftest.check_mobius_vs_lyndon, "lie_dims", count_one_more_at_the_top_degree),
        (selftest.check_pbw_identity, "hilbert_dims", add_one_at_the_top_degree),
        (selftest.check_master_series, "rational_series", add_t_to_the_cap),
    ],
    ids=["dp-vs-enumeration", "mobius-vs-lyndon", "pbw-identity", "master-series"],
)
def test_a_route_broken_at_the_cap_fails_there(monkeypatch, check, route, break_route, m, cap):
    monkeypatch.setattr(selftest, route, break_route(getattr(selftest, route)))
    assert check(m, cap) == f"degree={cap}"


@pytest.mark.parametrize("m", [ManifoldModel(2, 0), ManifoldModel(3, 0, (2,))], ids=repr)
@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
def test_rank_zero_falls_back_to_the_sphere(check, m):
    with pytest.raises(SphereFallback):
        check(m, 8)


def test_failure_line_names_suite_model_and_degree(monkeypatch):
    broken = drop_a_top_degree_word(selftest.enumerate_irreducible_words)
    monkeypatch.setattr(selftest, "enumerate_irreducible_words", broken)
    code, out, _ = run_cli(["selftest", "--fuzz", "10"])
    assert code == 1
    line = "dp-vs-enumeration  FAIL (dp-vs-enumeration, ManifoldModel(n=2, r=1, G=0)) degree=7"
    assert out.splitlines()[0] == line


def test_a_route_failure_is_the_detail(monkeypatch):
    broken = refuse_every_certificate(selftest.independence_certificate)
    monkeypatch.setattr(selftest, "independence_certificate", broken)
    code, out, _ = run_cli(["selftest", "--fuzz", "10"])
    assert code == 1
    line = "independence       FAIL (independence, ManifoldModel(n=2, r=2, G=0)) injected"
    assert out.splitlines()[5] == line
