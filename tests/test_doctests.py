import doctest
import importlib
import pkgutil

import pytest

import higherop

MODULES = sorted(info.name for info in pkgutil.iter_modules(higherop.__path__))
# examples that each module must keep
MIN_EXAMPLES = {"ordinals": 4, "topology": 3, "operads": 5, "symmetrize": 10, "freeop": 2}


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(f"higherop.{name}"))
    assert result.failed == 0
    assert result.attempted >= MIN_EXAMPLES.get(name, 0)
