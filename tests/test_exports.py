"""Every name a wbext module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import wbext

_MODULES = ["wbext"] + [f"wbext.{m.name}" for m in pkgutil.iter_modules(wbext.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []
