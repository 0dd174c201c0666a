import doctest
import importlib
import pkgutil

import loopspace


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
