"""Every public function of the package is one that some answer runs, or
is allowed for a stated reason.

The function-level twin of
`test_cold_start.test_cli_runs_load_every_package_module`.  The CLI calls
that `corpus` lists run in-process under `sys.setprofile`, which sees every
Python function call.  A public function, method or property of
`src/loopspace/*.py` (no leading underscore, so no dunder either) that none
of them calls stays only if ALLOWED names it with its reason:

* (a) an open ROADMAP item needs it;
* (b) it sits on a validation or failure path of code that answers run;
* (c) something outside `src/` and `tests/` that the repo runs calls it.

The operators in OPERATORS count as public names too, since `p * q` is as
much API as a named method.  The unreached set must equal ALLOWED, so an
allowance that goes stale fails as well as a new unreached name.
"""

import contextlib
import importlib
import inspect
import io
import pkgutil
import sys

import loopspace
from loopspace import cli

OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__", "__eq__")

ALLOWED = {
    "abelian.FiniteAbelianGroup.tensor_dim_mod": "(a) ROADMAP item 5, loop homology mod a torsion prime",
    "cli.run": "(c) the console script and `python -m loopspace.cli` call it; it ends the process",
    "decomposition.SpaceExpr.__eq__": "(a) ROADMAP item 14, a counted tree against its expansion",
    "words.Alphabet.spell": "(b) the certificate's ComputationFailure messages",
    "words.NCPoly.zero": "(b) the value of scale(0)",
    "words.NCPoly.term_count": "(c) bench/tracing.py counts normal-form terms with it",
}

MANIFOLDS = (("2", "0", "-"), ("2", "1", "2"), ("3", "2", "2,3"))
TRIPLES_AT_K = (("2", "1", "-", "4"), ("3", "2", "2", "6"), ("2", "0", "3", "7"))


def corpus(table_path):
    """(argv, exit code) pairs: the answers, the argparse route and two refusals."""
    calls = []
    for n, r, torsion in MANIFOLDS:
        argv = ["report", "--n", n, "--r", r, "--torsion", torsion, "--cap", "8"]
        calls += [(argv, 0), (argv + ["--json"], 0)]
    for n, r, torsion, k in TRIPLES_AT_K:
        argv = ["homotopy", "--n", n, "--r", r, "--torsion", torsion, "--k", k]
        calls += [(argv, 0), (argv + ["--json"], 0)]
    return calls + [
        (["selftest", "--fuzz", "20"], 0),
        (["report", "--n", "2", "--r", "1", "--cap=3"], 0),
        (["report", "--n", "2", "--r", "1", "--cap", "0"], 2),
        (["homotopy", "--n", "2", "--r", "1", "--k", "4", "--table", str(table_path)], 3),
    ]


def public_functions():
    """{module.Class.name or module.name: code object} over the package's own definitions."""
    found = {}
    for info in pkgutil.iter_modules(loopspace.__path__):
        module = importlib.import_module(f"loopspace.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{info.name}.{name}"] = obj.__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and attr not in OPERATORS:
                        continue
                    if isinstance(member, property):
                        member = member.fget
                    elif isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        found[f"{info.name}.{name}.{attr}"] = member.__code__
    return found


def reached_code(calls):
    """The code objects that the calls run, and each call's exit code."""
    reached, codes = set(), []

    def hook(frame, event, _arg):
        if event == "call":
            reached.add(frame.f_code)

    before = sys.getprofile()
    sys.setprofile(hook)
    try:
        for argv, _code in calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                codes.append(cli.main(argv))
    finally:
        sys.setprofile(before)
    return reached, codes


def test_every_public_function_is_reached_or_allowed(tmp_path):
    table = tmp_path / "table.tsv"
    table.write_text("2 3 0 2\n", encoding="utf-8")  # pi_2(S^3) = Z/2, nonzero below the diagonal
    calls = corpus(table)
    reached, codes = reached_code(calls)
    assert codes == [code for _argv, code in calls]
    functions = public_functions()
    assert len(functions) > 80  # the listing found the package
    assert {name for name, code in functions.items() if code not in reached} == set(ALLOWED)
