"""Every name a wbext module lists in ``__all__`` exists, and every module
imports only the standard library and wbext itself."""

import ast
import importlib
import pkgutil
import sys

import pytest

import wbext

_MODULES = ["wbext"] + [f"wbext.{m.name}" for m in pkgutil.iter_modules(wbext.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", _MODULES)
def test_every_module_imports_only_the_stdlib_and_wbext(name):
    """The package has no runtime dependencies, so an import of anything
    else (numpy, sympy, ...) is a bug even where it happens to be installed."""
    module = importlib.import_module(name)
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    outside = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue  # relative imports stay inside the package
        outside += [
            n for n in names
            if n.split(".")[0] != "wbext" and n.split(".")[0] not in sys.stdlib_module_names
        ]
    assert outside == []
