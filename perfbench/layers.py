"""Which package functions the traced run wraps, and the per-layer metrics.

Layers are the package's modules.  ``qext`` and ``poly`` calls are too fine
to wrap without distorting them, so their cost shows as their callers' self
time (``poly.uni_factor_special`` is the one exception); ``algebra`` runs in
no workload and ``cli`` only adds its import cost, which ``setup_s`` covers.
"""

from __future__ import annotations

from collections import defaultdict

from wbext import engine, oracle, records, scanner, tables
from wbext.equations import LinearSystem
from wbext.linalg import RowSpace
from wbext.qext import QuadExt
from wbext.records import OutputRecord


def _assembly(args, system):
    return {"rows": len(system.rows), "nnz": sum(1 for row in system.rows for e in row if e)}


def _matrix(args, result):
    rows, ncols = args[0], args[1]
    return {"rows": len(rows), "cols": ncols, "nnz": sum(1 for r in rows for c in r if c != 0)}


def _pivots(args, result):
    pivots = result[1]
    return {"pivots": len(pivots), "max_pivot_degree": max((p.degree() for p in pivots), default=0)}


def install(rec) -> None:
    """Wrap every traced binding, each at the name its caller looks up."""
    w = rec.wrap
    w(tables, "run_case", "tables.run_case")
    w(tables, "verify_witness", "tables.verify_witness")
    w(tables, "matrix_rank", "tables.matrix_rank")
    # tables and scanner reach the solver through the engine module; the
    # scanner's calls get their own span name
    w(engine, "solve_ext", "engine.solve_ext", by_caller={"wbext.scanner": "scanner.engine_solve"})
    w(engine, "solve_core", "engine.solve_core")
    w(engine, "build_equations", "equations.build_equations")
    w(engine, "assemble_linear_system", "equations.assemble_linear_system", count=_assembly)
    w(LinearSystem, "concrete_rows", "equations.concrete_rows")
    w(engine, "nullspace", "linalg.nullspace", count=_matrix)
    w(engine, "rref", "linalg.rref")
    w(RowSpace, "add", "linalg.rowspace")
    w(RowSpace, "reduce", "linalg.rowspace")
    # the engine looks the witness check up as ``oracle.verify_witness``
    w(oracle, "verify_witness", "engine.oracle_check")
    w(oracle, "brute_dims", "oracle.brute_dims")
    w(scanner, "special_values", "scanner.special_values",
      count=lambda args, rep: {"specials": len(rep.special_values)})
    w(scanner, "build_equations_env", "scanner.build")
    w(scanner, "assemble_linear_system", "equations.assemble_linear_system", count=_assembly)
    w(scanner, "fraction_free_rank", "scanner.fraction_free_rank", count=_pivots)
    w(scanner, "uni_factor_special", "scanner.uni_factor_special")
    w(scanner, "ext_dim_at", "scanner.ext_dim_at",
      count=lambda args, dim: {"quadratic_calls": int(isinstance(args[1], QuadExt))})
    w(scanner, "matrix_rank", "scanner.matrix_rank")
    w(scanner, "verify_witness_env", "oracle.verify_witness_env")
    w(OutputRecord, "to_json", "records.to_json")
    w(records, "parse_record", "records.parse_record")


# Bindings each workload must call at least once; a traced run that misses
# one has lost a wrapper (or the package stopped calling that name).
_ENGINE_PATH = (
    "engine.solve_ext", "engine.solve_core", "engine.build_equations",
    "engine.assemble_linear_system", "LinearSystem.concrete_rows",
    "engine.nullspace", "engine.rref", "RowSpace.add", "RowSpace.reduce",
)
COVERAGE = {
    "replay": _ENGINE_PATH + (
        "tables.run_case", "tables.verify_witness", "tables.matrix_rank", "oracle.verify_witness",
    ),
    "classify": _ENGINE_PATH + (
        "scanner.special_values", "scanner.build_equations_env", "scanner.assemble_linear_system",
        "scanner.fraction_free_rank", "scanner.uni_factor_special", "scanner.ext_dim_at",
        "scanner.matrix_rank", "scanner.verify_witness_env",
    ),
    "solve_sweep": _ENGINE_PATH + (
        "oracle.verify_witness", "oracle.brute_dims", "OutputRecord.to_json", "records.parse_record",
    ),
}

# (metric, unit, better); "s" metrics are span seconds, the rest are counts
# that must repeat exactly across traced runs with one seed.
PER_LAYER = (
    ("engine.solve_ext.s", "s", "lower"),
    ("engine.solve_core.self_s", "s", "lower"),
    ("engine.solve_core.base_s", "s", "lower"),
    ("engine.solve_core.bumped_s", "s", "lower"),
    ("engine.solve_core.calls", "count", "lower"),
    ("engine.solve_core.cache_hits", "count", "higher"),
    ("engine.oracle_check.s", "s", "lower"),
    ("equations.build_equations.s", "s", "lower"),
    ("equations.assemble_linear_system.s", "s", "lower"),
    ("equations.assemble.rows", "count", "lower"),
    ("equations.assemble.nnz", "count", "lower"),
    ("equations.concrete_rows.s", "s", "lower"),
    ("linalg.nullspace.s", "s", "lower"),
    ("linalg.nullspace.calls", "count", "lower"),
    ("linalg.nullspace.rows", "count", "lower"),
    ("linalg.nullspace.cols", "count", "lower"),
    ("linalg.nullspace.nnz", "count", "lower"),
    ("linalg.rref.s", "s", "lower"),
    ("linalg.rowspace.s", "s", "lower"),
    ("linalg.rowspace.calls", "count", "lower"),
    ("linalg.rank.s", "s", "lower"),
    ("tables.matrix_rank.s", "s", "lower"),
    ("scanner.matrix_rank.s", "s", "lower"),
    ("oracle.brute_dims.s", "s", "lower"),
    ("oracle.verify_witness.s", "s", "lower"),
    ("oracle.verify_witness.calls", "count", "lower"),
    ("oracle.verify_witness_env.s", "s", "lower"),
    ("scanner.special_values.s", "s", "lower"),
    ("scanner.special_values.calls", "count", "lower"),
    ("scanner.build.s", "s", "lower"),
    ("scanner.build.calls", "count", "lower"),
    ("scanner.fraction_free_rank.s", "s", "lower"),
    ("scanner.fraction_free_rank.calls", "count", "lower"),
    ("scanner.fraction_free_rank.pivots", "count", "lower"),
    ("scanner.fraction_free_rank.max_pivot_degree", "count", "lower"),
    ("scanner.uni_factor_special.s", "s", "lower"),
    ("scanner.ext_dim_at.s", "s", "lower"),
    ("scanner.ext_dim_at.calls", "count", "lower"),
    ("scanner.ext_dim_at.quadratic_calls", "count", "lower"),
    ("scanner.ext_dim_at.special_ratio", "ratio", "higher"),
    ("scanner.engine_solve.s", "s", "lower"),
    ("scanner.engine_solve.calls", "count", "lower"),
    ("tables.run_case.s", "s", "lower"),
    ("tables.verify_witness.s", "s", "lower"),
    ("records.to_json.s", "s", "lower"),
    ("records.parse_record.s", "s", "lower"),
)


def _solve_core_split(rec):
    """(base seconds, bumped seconds, cache hits) for solve_core spans.

    Under one solve, the first solve_core is the base solve and the second
    the caps+2 re-run; a solve_core that built no equations was a cache hit.
    """
    spans = rec.spans
    kids = defaultdict(list)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            kids[s[1]].append(i)
    base = bumped = 0.0
    hits = 0
    for i, s in enumerate(spans):
        if s[0] in ("engine.solve_ext", "scanner.engine_solve"):
            cores = [j for j in kids[i] if spans[j][0] == "engine.solve_core"]
            for k, j in enumerate(cores):
                d = (spans[j][3] - spans[j][2]) - (spans[j][5] - spans[j][4])
                if k == 0:
                    base += d
                else:
                    bumped += d
        elif s[0] == "engine.solve_core":
            if not any(spans[j][0] == "equations.build_equations" for j in kids[i]):
                hits += 1
    return base, bumped, hits


def metrics(rec) -> dict:
    """Every PER_LAYER metric from one traced run's spans."""
    seconds, calls, self_s, counters = rec.totals()
    base, bumped, hits = _solve_core_split(rec)
    ext_calls = calls["scanner.ext_dim_at"]
    out = {
        "engine.solve_core.self_s": self_s["engine.solve_core"],
        "engine.solve_core.base_s": base,
        "engine.solve_core.bumped_s": bumped,
        "engine.solve_core.cache_hits": hits,
        "equations.assemble.rows": counters["equations.assemble_linear_system"]["rows"],
        "equations.assemble.nnz": counters["equations.assemble_linear_system"]["nnz"],
        "linalg.rank.s": seconds["tables.matrix_rank"] + seconds["scanner.matrix_rank"],
        "oracle.verify_witness.s": seconds["engine.oracle_check"] + seconds["tables.verify_witness"],
        "oracle.verify_witness.calls": calls["engine.oracle_check"] + calls["tables.verify_witness"],
        "scanner.ext_dim_at.special_ratio": (
            counters["scanner.special_values"]["specials"] / ext_calls if ext_calls else 0.0
        ),
    }
    for name, _unit, _better in PER_LAYER:
        if name in out:
            continue
        span, _, field = name.rpartition(".")
        if field == "s":
            out[name] = seconds[span]
        elif field == "calls":
            out[name] = calls[span]
        else:
            out[name] = counters[span][field]
    return out
