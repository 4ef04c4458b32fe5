"""Exact classification of extensions between conformal modules over W(b).

The package computes, with exact rational (and real-quadratic) arithmetic,
the space of equivalence classes of short exact sequences between finite
irreducible conformal modules over the rank-two Lie conformal algebras W(b)
and over the Virasoro algebra.  The main entry points:

* :func:`solve_ext` — solve one extension problem and return a basis.
* :func:`brute_dims` — independent brute-force dimension oracle.
* :func:`classify` / :func:`special_values` — weight-line scans.
* :func:`run_table` — replay the published classification tables.
* :func:`parse_record` / :class:`OutputRecord` — result documents.
* :func:`clear_caches` — empty every module-level cache.
"""

from .algebra import (
    check_algebra_axioms,
    check_module_axioms,
    free_module,
    make_virasoro,
    make_wb,
    trivial_module,
)
from .engine import solve_ext
from .oracle import brute_dims, verify_witness
from .poly import MultiPoly, UniPoly
from .problems import Caps, CocycleWitness, ExtProblem, ExtSolution
from .qext import QuadExt, parse_rational, quad
from .records import OutputRecord, RecordError, parse_record
from .scanner import (
    ClassifyReport,
    ScanReport,
    classify,
    g_family_witness,
    scan_dbar,
    scan_delta,
    special_values,
)
from . import engine, equations, qext, scanner

__version__ = "0.1.0"

__all__ = [
    "Caps",
    "ClassifyReport",
    "CocycleWitness",
    "ExtProblem",
    "ExtSolution",
    "MultiPoly",
    "OutputRecord",
    "QuadExt",
    "RecordError",
    "ScanReport",
    "UniPoly",
    "brute_dims",
    "check_algebra_axioms",
    "check_module_axioms",
    "classify",
    "clear_caches",
    "free_module",
    "g_family_witness",
    "make_virasoro",
    "make_wb",
    "parse_rational",
    "parse_record",
    "quad",
    "run_table",
    "scan_dbar",
    "scan_delta",
    "solve_ext",
    "special_values",
    "table_names",
    "trivial_module",
    "verify_witness",
    "__version__",
]


def clear_caches() -> None:
    """Empty every module-level cache of the package, the one place that
    names them all: to time a cold call, or to free their memory.  No cache
    changes an answer."""
    engine._transcriptions.clear()
    for cache in (
        engine._template,
        engine.solve_ext,
        scanner._line_template,
        scanner._f_part,
        scanner._line_data,
        scanner._virasoro_layer,
        equations._powers,
        equations._shared,
        qext.split_square,
    ):
        cache.cache_clear()


def __getattr__(name):
    # ``tables`` parses its replay cases when imported, which only the
    # table functions need, so it is imported on their first use
    if name in ("run_table", "table_names"):
        from . import tables

        return getattr(tables, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
