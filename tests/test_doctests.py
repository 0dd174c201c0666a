import doctest
import importlib
import pkgutil

import loopspace


def test_module_doctests_pass():
    attempted = 0
    for info in pkgutil.iter_modules(loopspace.__path__):
        module = importlib.import_module(f"loopspace.{info.name}")
        result = doctest.testmod(module)
        assert result.failed == 0, info.name
        attempted += result.attempted
    assert attempted >= 8  # series.py and abelian.py; 0 would mean none ran
