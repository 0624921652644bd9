import importlib
import pkgutil

import pytest

import hadshock

MODULES = sorted(m.name for m in pkgutil.iter_modules(hadshock.__path__))


@pytest.mark.parametrize("name", ["hadshock"] + [f"hadshock.{m}" for m in MODULES])
def test_every_exported_name_exists(name):
    # a stale name in __all__ breaks `from hadshock import *`
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
