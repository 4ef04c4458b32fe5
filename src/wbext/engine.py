"""Cocycle solver: linear systems, coboundary reduction, canonical classes.

The pipeline is: build the functional-equation system for the problem, take
its kernel (cocycles inside the degree caps), intersect the change-of-basis
deviations with the caps (coboundaries), and reduce kernel vectors modulo
that intersection to get representatives.  Every result is cross-checked
against :mod:`wbext.oracle`, which recomputes residuals by a route that
shares no equation code with this module.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from . import oracle
from .equations import assemble_linear_system, build_equations, key_rank, unknown_basis
from .linalg import RowSpace, nullspace, rref
from .poly import D, L, MultiPoly
from .problems import CocycleWitness, ExtProblem, ExtSolution

__all__ = [
    "coboundary_basis",
    "solve_core",
    "solve_ext",
    "verify_witness",
    "witness_coeff_map",
    "witness_from_vector",
]

verify_witness = oracle.verify_witness


def witness_coeff_map(w: CocycleWitness) -> dict:
    """Flatten a witness into {(part, d-degree, l-degree): coefficient}."""
    coeffs = {}
    for name, poly in w.parts().items():
        if poly is None:
            continue
        for exps, c in poly.coeffs_by(("d", "l")):
            coeffs[(name, exps[0], exps[1])] = c.constant_value()
    return coeffs


def witness_from_vector(vec, keys, shape: int) -> CocycleWitness:
    """Rebuild a witness from coordinates against an unknown-key list."""
    parts = {"f": MultiPoly.zero(), "g": MultiPoly.zero(), "h": MultiPoly.zero()}
    for c, key in zip(vec, keys):
        if not c:
            continue
        name, j, k = key
        parts[name] = parts[name] + MultiPoly.monomial((j, k, 0, 0), c)
    return CocycleWitness(
        f=parts["f"], g=parts["g"], h=parts["h"] if shape == 2 else None
    )


def coboundary_span(p: ExtProblem) -> list[CocycleWitness]:
    """Unreduced change-of-basis images, one per monomial move.

    Shape 1 admits a single move (the one-dimensional summand has no free
    parameter beyond scale); shapes 2 and 3 get one image per monomial
    ``d**j`` up to the move cap.
    """
    env = p.env()
    alpha, delta = env["alpha"], env["delta"]
    zero = MultiPoly.zero()
    out = []
    if p.shape == 1:
        out.append(CocycleWitness(f=alpha + env["gamma"] + delta * L, g=zero))
    elif p.shape == 2:
        act = D + alpha + delta * L
        for j in range(p.caps.phi + 1):
            phi = MultiPoly.monomial((j, 0, 0, 0), Fraction(1))
            out.append(
                CocycleWitness(
                    f=act * phi.shift("d", L), g=zero, h=(D - env["gamma"]) * phi
                )
            )
    else:
        quot = D + alpha + delta * L
        sub = D + env["abar"] + env["dbar"] * L
        for j in range(p.caps.phi + 1):
            phi = MultiPoly.monomial((j, 0, 0, 0), Fraction(1))
            out.append(CocycleWitness(f=quot * phi - sub * phi.shift("d", L), g=zero))
    return [w for w in out if not w.is_zero()]


def coboundary_basis(p: ExtProblem) -> list[CocycleWitness]:
    """Linearly independent subset of the change-of-basis images.

    Kept in move order, so low-degree moves appear verbatim (for shape 2,
    the first basis member is ``f = d + alpha + delta*l``, ``h = d - gamma``
    whenever that image is nonzero).
    """
    span = coboundary_span(p)
    maps = [witness_coeff_map(w) for w in span]
    allkeys = sorted({k for m in maps for k in m}, key=key_rank)
    index = {k: i for i, k in enumerate(allkeys)}
    rs = RowSpace(len(allkeys))
    out = []
    for w, m in zip(span, maps):
        vec = [Fraction(0)] * len(allkeys)
        for key, c in m.items():
            vec[index[key]] = c
        if rs.add(vec):
            out.append(w)
    return out


def _cob_vectors_in_caps(p: ExtProblem, keys) -> list[list]:
    """Coboundary vectors that fit entirely inside the unknown basis.

    Columns are ordered overflow-first, so after row reduction a row whose
    pivot sits past the overflow block has no out-of-cap coefficients at
    all: exactly the part of the coboundary space visible to the truncated
    system.
    """
    span = coboundary_span(p)
    if not span:
        return []
    index = {k: i for i, k in enumerate(keys)}
    maps = [witness_coeff_map(w) for w in span]
    over = sorted({k for m in maps for k in m if k not in index}, key=key_rank)
    oindex = {k: i for i, k in enumerate(over)}
    width = len(over) + len(keys)
    rows = []
    for m in maps:
        row = [Fraction(0)] * width
        for key, c in m.items():
            if key in oindex:
                row[oindex[key]] = c
            else:
                row[len(over) + index[key]] = c
        rows.append(row)
    reduced, pivots = rref(rows, width)
    return [row[len(over):] for row, piv in zip(reduced, pivots) if piv >= len(over)]


def _normalize(vec):
    for c in vec:
        if c:
            if c == 1:
                return list(vec)
            return [x / c for x in vec]
    return list(vec)


_CORE_CACHE: dict = {}


def solve_core(p: ExtProblem, redundant: bool = True) -> ExtSolution:
    """One truncated solve: kernel, capped coboundaries, representatives.

    Raises :class:`ArithmeticError` if internal cross-checks fail (a capped
    coboundary that is not a cocycle, or a representative count that
    disagrees with the dimension arithmetic) -- both would mean the
    equations and the basis-change images were transcribed inconsistently.
    """
    cached = _CORE_CACHE.get((p, redundant))
    if cached is not None:
        return cached
    keys = unknown_basis(p.shape, p.caps, p.sector)
    system = assemble_linear_system(build_equations(p, redundant=redundant), keys)
    rows = system.concrete_rows()
    cocycles = nullspace(rows, len(keys))
    cob = _cob_vectors_in_caps(p, keys)
    # every capped coboundary against every assembled row, independently of
    # the nullspace just computed; zero entries, in a row or in the vector,
    # cannot change a row's sum
    supports = [[(i, c) for i, c in enumerate(row) if c] for row in rows]
    for vec in cob:
        nz = {i: x for i, x in enumerate(vec) if x}
        for row in supports:
            if sum(c * nz[i] for i, c in row if i in nz) != 0:
                raise ArithmeticError(
                    "capped coboundary fails the cocycle equations; "
                    "basis-change images and identities disagree"
                )
    rs = RowSpace(len(keys))
    for vec in cob:
        rs.add(vec)
    reps = []
    for vec in cocycles:
        residue = rs.reduce(vec)
        if any(residue):
            residue = _normalize(residue)
            reps.append(residue)
            rs.add(residue)
    ext_dim = len(cocycles) - len(cob)
    if len(reps) != ext_dim:
        raise ArithmeticError("representative count disagrees with dimension arithmetic")
    sol = ExtSolution(
        problem=p,
        cocycle_dim=len(cocycles),
        coboundary_dim=len(cob),
        ext_dim=ext_dim,
        basis=[witness_from_vector(v, keys, p.shape) for v in reps],
        diagnostics={},
    )
    _CORE_CACHE[(p, redundant)] = sol
    return sol


_CACHE: dict = {}


def solve_ext(
    p: ExtProblem,
    redundant: bool = True,
    stabilize: bool = True,
    check: bool = True,
) -> ExtSolution:
    """Full solve with cap-stability re-run and independent verification.

    ``stabilize`` repeats the solve with all caps raised by 2 and records
    whether the dimension moved (``diagnostics["stable"]``); ``check``
    pushes every basis witness through the naive-composition checker.
    Results are cached per problem; treat them as read-only.
    """
    cache_key = (p, redundant, stabilize, check)
    hit = _CACHE.get(cache_key)
    if hit is not None:
        return hit
    core = solve_core(p, redundant=redundant)
    sol = replace(core, diagnostics=dict(core.diagnostics))
    diag = sol.diagnostics
    diag["caps"] = (p.caps.f, p.caps.g, p.caps.h, p.caps.phi)
    notes = p.degenerate_weights()
    if notes:
        diag["degenerate"] = notes
    if stabilize:
        bumped = solve_core(p.with_caps(p.caps.bumped(2)), redundant=redundant)
        diag["stable"] = bumped.ext_dim == sol.ext_dim
        if not diag["stable"]:
            diag["cap_too_small"] = (
                f"dimension moved from {sol.ext_dim} to {bumped.ext_dim} "
                "when caps were raised by 2"
            )
    if check:
        for w in sol.basis:
            report = oracle.verify_witness(p, w)
            if not report.passed:
                raise ArithmeticError(
                    f"solver produced a witness the checker rejects:\n{report}"
                )
    _CACHE[cache_key] = sol
    return sol
