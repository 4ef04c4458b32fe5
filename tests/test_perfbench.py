"""The traced benchmark run wraps package bindings by name: every binding a
workload must call (``perfbench/layers.py``'s ``COVERAGE``) is still there
to wrap, so a refactor that drops one fails here, not only in a traced run."""

import importlib.util
from pathlib import Path

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """``perfbench/<name>.py`` as a module, loaded as it is."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_covered_binding_is_wrapped():
    layers, spans = _load("layers"), _load("spans")
    rec = spans.Recorder()
    try:
        layers.install(rec)
        wrapped = {f"{owner.__name__.rpartition('.')[2]}.{attr}" for owner, attr, _fn in rec._restore}
        for workload, names in layers.COVERAGE.items():
            assert set(names) <= wrapped, (workload, sorted(set(names) - wrapped))
    finally:
        assert rec.restore()
