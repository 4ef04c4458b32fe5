"""Every name a wbext module lists in ``__all__`` exists, every module
imports only the standard library and wbext itself, no module leaves a
name dangling: an import it never uses, or a definition nothing reaches,
and :func:`wbext.clear_caches` empties every module-level cache."""

import ast
import importlib
import pkgutil
import sys

import pytest

import wbext
from wbext import Caps, ExtProblem, classify, engine, quad, scan_dbar, solve_ext, special_values

_MODULES = ["wbext"] + [f"wbext.{m.name}" for m in pkgutil.iter_modules(wbext.__path__)]


def _tree(name):
    with open(importlib.import_module(name).__file__, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _loaded(tree) -> set:
    """The bare names ``tree`` reads."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _read(tree) -> set:
    """Every name ``tree`` reads: a bare name, an attribute or a name it
    imports from another module."""
    names = _loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


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


@pytest.mark.parametrize("name", _MODULES)
def test_every_module_uses_every_name_it_imports(name):
    """An import a module never reads is dead, unless ``__all__`` re-exports it."""
    tree = _tree(name)
    read = _loaded(tree) | set(importlib.import_module(name).__all__)
    unused = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            unused += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            unused += [a.asname or a.name for a in node.names]
    assert [n for n in unused if n not in read] == []


@pytest.mark.parametrize("name", _MODULES)
def test_every_module_level_definition_is_reached(name):
    """A module-level function, class or private constant is listed in
    ``__all__`` or read somewhere in the package, so deleting its last
    caller deletes it too.  Dunder names (``__getattr__``, ``__all__``)
    are read by Python itself."""
    read = set().union(*(_read(_tree(m)) for m in _MODULES))
    read |= set(importlib.import_module(name).__all__)
    defined = []
    for node in _tree(name).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, ast.Assign):
            defined += [t.id for t in node.targets if isinstance(t, ast.Name) and t.id[0] == "_"]
    assert [n for n in defined if n not in read and not n.startswith("__")] == []


def test_clear_caches_empties_every_module_level_cache():
    """Every ``functools.lru_cache`` at module level in the package, and the
    engine's transcriptions, are filled by one small solve, scan and classify
    and are empty after :func:`wbext.clear_caches`, so a cache that does not
    join it fails here."""
    caches = {
        value: f"{value.__module__}.{value.__qualname__}"
        for name in _MODULES
        for value in vars(importlib.import_module(name)).values()
        if hasattr(value, "cache_info")
    }
    caps = Caps(3, 2, 3, 3)
    solve_ext(ExtProblem(shape=3, b=2, alpha=0, abar=0, delta=quad(1, 1, 5), dbar=1, caps=caps))
    special_values(scan_dbar(2, 3, caps=caps))
    classify(2, caps=caps)
    assert engine._transcriptions
    # a cache this fill does not reach would pass below whether or not
    # clear_caches empties it
    assert [n for cache, n in caches.items() if not cache.cache_info().currsize] == []
    wbext.clear_caches()
    assert not engine._transcriptions
    assert [n for cache, n in caches.items() if cache.cache_info().currsize] == []
