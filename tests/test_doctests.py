import doctest
import importlib
import pathlib
import pkgutil

import loopspace

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_module_doctests_pass():
    attempted = {}
    for info in pkgutil.iter_modules(loopspace.__path__):
        module = importlib.import_module(f"loopspace.{info.name}")
        result = doctest.testmod(module)
        assert result.failed == 0, info.name
        attempted[info.name] = result.attempted
    assert sum(attempted.values()) >= 8  # 0 would mean none ran
    # linalg's documents the row format that rank takes over Q and F_p, words' that
    # a word is a plain letter-index tuple, and abelian's that a power far
    # too large to list still answers tensor_dim_mod; decomposition's shows a
    # splitting, node equality by fields, and a loop argument it refuses;
    # lyndon's that the exclusion bigram is the presentation's leading word
    # and that a relation of mixed degrees is refused
    for name in ("linalg", "series", "abelian", "words", "decomposition", "lyndon"):
        assert attempted[name] >= 1, name


def test_readme_library_example_runs():
    # a renamed or deleted public name fails here instead of going stale in the docs
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    assert namespace["hilbert_dims"](namespace["pres"], 12)[:5] == [1, 2, 6, 15, 40]
