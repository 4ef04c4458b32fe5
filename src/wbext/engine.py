"""Cocycle solver: linear systems, coboundary reduction, canonical classes.

The pipeline is: evaluate the functional-equation system (defining
identities plus the implied swapped ones, as a cross-check) at the problem's
weights, take its kernel (cocycles inside the degree caps), intersect the
change-of-basis images with the caps (coboundaries), and reduce kernel
vectors modulo that intersection to get representatives.

The system is an integer affine template in the weights (see
:mod:`wbext.equations`).  It is transcribed once per shape, in the full
sector, at the largest caps met so far (:func:`_transcription`), and the
template of each (shape, caps, sector) is restricted from that build
(:func:`_restrict`): the equations are linear in the unknowns, the caps only
bound them, and each identity reads a single part (f with h, or g alone;
checked at each build), so smaller caps or one sector only delete columns.
Every template reads the weights in one order, b first, and an f-sector
problem, whose equations never involve b, reads it as 0
(:func:`template_point`).  A stabilised solve
transcribes at caps+2 first, so it and its re-run restrict one build.  Each
template, with its change-of-basis images (the g sector has none), sits in
one entry of a 32-entry LRU cache; both caches fill on first use, never at
import.  Each solve, and the replay tables' class check, evaluates them at
its weights.  That is exact, not an approximation: the weight symbols
refuse any non-affine product, so a template is affine by construction and
its rows are a direct build's at that point, value for value and in order,
as numerators in Z (or Z[sqrt D] at a Q(sqrt D) point) over the point's
common denominator, less each row whose template is a constant multiple of
an earlier one's (:func:`_distinct`): about half of them, as the build
writes each identity with its swapped twin.  A multiple as a template is one
at every point, so the row space, the kernel and its RREF basis are the
direct build's; a swapped identity that does not mirror its twin is kept.
(The images' template may hold more out-of-cap columns than the images at
one point reach; those are zero there.)  Those rows go straight into the
integer elimination kernel of :mod:`wbext.linalg`, which builds no
``Fraction`` until it hands back a basis.  The self-check, which tests every
capped coboundary against the equations, runs in the same numerators: each
coboundary is scaled once to its own.

:func:`image_rows` is the one construction of the change-of-basis images
as rows, for the solver's templates and the scanner's alike, and the one
place that knows the g sector has none: it builds them by
:func:`coboundary_span_env`, which reads ``d**j`` and ``(d+l)**j`` from the
slot powers the equation builds share (``equations._powers``), and lays them
out by :func:`coeff_rows`, the one layout of ``{unknown key: coefficient}``
maps as rows.  Every basis :func:`solve_ext`
returns, the scanner's special points included, has passed
:mod:`wbext.oracle`, which recomputes residuals by a route that shares no
equation code with this module.
Results are immutable, and :func:`solve_ext` keeps them in a bounded cache.

The cap-stability re-run of :func:`solve_ext` solves at caps+2 at the
problem's alpha = 0 point (:func:`_at_alpha_zero`): d -> d + c moves
(alpha, abar, gamma) to (alpha + c, abar + c, gamma - c) and keeps every
total-degree cap, so both points have the same dimensions, and at alpha = 0
the rows are sparser.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import oracle
from .equations import (
    LinearSystem,
    _powers,
    assemble_linear_system,
    build_equations,
    key_rank,
    template_env,
    template_point,
    unknown_basis,
)
from .linalg import RowSpace, nullspace, numerators, rref
from .poly import D, L, MultiPoly
from .problems import Caps, CocycleWitness, ExtProblem, ExtSolution

__all__ = [
    "coboundary_span_env",
    "coeff_rows",
    "image_rows",
    "solve_core",
    "solve_ext",
    "witness_coeff_map",
    "witness_from_vector",
]


def witness_coeff_map(w: CocycleWitness) -> dict:
    """Flatten a witness into {(part, d-degree, l-degree): coefficient}.

    Coefficients are constants for a concrete problem, and integer tuples
    over the symbols for a template: the images' (see :func:`_template`) and
    a scan line's (see :mod:`wbext.scanner`).
    """
    coeffs = {}
    for name, poly in w.parts().items():
        for exps, c in poly.coeffs_by(("d", "l")):
            coeffs[(name, exps[0], exps[1])] = c
    return coeffs


def witness_from_vector(vec, keys, shape: int) -> CocycleWitness:
    """Rebuild a witness from a sparse vector against an unknown-key list."""
    terms = {"f": {}, "g": {}, "h": {}}
    for i, c in vec:
        name, j, k = keys[i]
        terms[name][(j, k, 0, 0)] = c
    parts = {name: MultiPoly(part) for name, part in terms.items()}
    return CocycleWitness(
        f=parts["f"], g=parts["g"], h=parts["h"] if shape == 2 else None
    )


def coeff_rows(maps, keys) -> tuple[list, int]:
    """Lay out ``{unknown key: coefficient}`` maps as rows, overflow-first.

    Keys outside ``keys`` come first, in :func:`key_rank` order, then
    ``keys`` in their given order, as sparse rows (see :mod:`wbext.linalg`).
    Returns the rows and the width of the overflow block.
    """
    inside = set(keys)
    over = sorted({k for m in maps for k in m if k not in inside}, key=key_rank)
    index = {k: i for i, k in enumerate(over + list(keys))}
    rows = [tuple(sorted((index[key], c) for key, c in m.items())) for m in maps]
    return rows, len(over)


def coboundary_span_env(shape: int, env: dict, phi_cap: int) -> list[CocycleWitness]:
    """Unreduced change-of-basis images, one per monomial move.

    Shape 1 admits a single move (the one-dimensional summand has no free
    parameter beyond scale); shapes 2 and 3 get one image per monomial
    ``d**j`` up to ``phi_cap``.  Parameters come from a polynomial
    environment, so affine weight symbols, the scan variable t among them,
    flow through.
    Zero images are dropped.
    """
    alpha, delta = env["alpha"], env["delta"]
    zero = MultiPoly.zero()
    pw = _powers(phi_cap)
    out = []
    if shape == 1:
        out.append(CocycleWitness(f=alpha + env["gamma"] + delta * L, g=zero))
    elif shape == 2:
        act = D + alpha + delta * L
        for j in range(phi_cap + 1):
            out.append(
                CocycleWitness(f=act * pw.dl[j], g=zero, h=(D - env["gamma"]) * pw.d[j])
            )
    else:
        quot = D + alpha + delta * L
        sub = D + env["abar"] + env["dbar"] * L
        for j in range(phi_cap + 1):
            out.append(CocycleWitness(f=quot * pw.d[j] - sub * pw.dl[j], g=zero))
    return [w for w in out if not w.is_zero()]


def image_rows(shape: int, env: dict, caps: Caps, sector: str, keys) -> tuple[tuple, int]:
    """The change-of-basis images over ``env`` as rows against ``keys``,
    laid out by :func:`coeff_rows`, and the width of their overflow block.

    In the g sector there are none, ``((), 0)``: a basis move shifts the
    lifted quotient generator by phi times the submodule generator, which
    has no component along the second generator, so no image has a g part
    and none reaches the caps, whose unknowns there are all g.
    """
    if sector == "g":
        return (), 0
    span = coboundary_span_env(shape, env, caps.phi)
    rows, over = coeff_rows([witness_coeff_map(w) for w in span], keys)
    return tuple(rows), over


# shape -> (caps, keys, equations): the largest full-sector transcription
# built so far, filled on first use, never at import.
_transcriptions: dict[int, tuple] = {}


def _transcription(shape: int, caps: Caps) -> tuple:
    """``(caps, keys, equations)`` of a full-sector template of ``shape`` whose
    f and g caps, and for shape 2 (the only one with h unknowns) h cap, cover
    ``caps``: the one this module holds for ``shape``, or, where that falls
    short, a new build at the larger of the two caps in each part, which
    replaces it.  The only place the engine transcribes.  A row that reads g
    and also f or h, which :func:`_restrict` could not cut by deleting
    columns, or that reads f or h and involves b, as an f-sector problem
    reads b as 0 (:func:`template_point`), raises ``ArithmeticError``."""
    held = _transcriptions.get(shape)
    if held is not None:
        have = held[0]
        if caps.f <= have.f and caps.g <= have.g and (shape != 2 or caps.h <= have.h):
            return held
        caps = Caps(*(max(getattr(caps, n), getattr(have, n)) for n in ("f", "g", "h", "phi")))
    keys = tuple(unknown_basis(shape, caps, "full"))
    system = assemble_linear_system(build_equations(shape, caps, "full"), keys)
    for row in system.rows:
        reads_g = {keys[j][0] == "g" for j, _vec in row}
        if len(reads_g) > 1:
            raise ArithmeticError("a transcription row reads g and also f or h")
        if False in reads_g and any(vec[1] for _j, vec in row):
            raise ArithmeticError("an f/h entry of the transcription involves b")
    held = caps, keys, LinearSystem(rows=_distinct(system.rows))
    _transcriptions[shape] = held
    return held


def _restrict(transcription: tuple, keys: tuple) -> LinearSystem:
    """The template over ``keys`` cut from a full-sector ``transcription``.

    The equations are linear in the unknowns, the caps only bound them, and
    each identity reads one part (f with h, or g alone), so a smaller caps or
    a single sector only deletes columns: keep those of ``keys``, re-indexed,
    and drop the rows that empties.  Both key lists are in :func:`key_rank`
    order, so the entries and the rows stay in the direct build's order, and
    the values are the transcription's own tuples.  The cut can make rows
    proportional, so each row is kept once up to a constant factor
    (:func:`_distinct`).  Equal keys give the transcription's own system.
    """
    _caps, full_keys, system = transcription
    if keys == full_keys:
        return system
    index = {k: i for i, k in enumerate(keys)}
    cols = [index.get(k) for k in full_keys]
    rows = [
        row
        for full_row in system.rows
        if (row := tuple([(cols[j], vec) for j, vec in full_row if cols[j] is not None]))
    ]
    return LinearSystem(rows=_distinct(rows))


def _distinct(rows) -> tuple:
    """Template ``rows`` less each that is a non-zero constant multiple of
    an earlier one, in order: a row's class is its entries over the gcd of
    their integer components, signed so the first non-zero one is positive.
    A row with no non-zero component, which moves no rank, is dropped."""
    first = {}
    for row in rows:
        flat = [x for _j, vec in row for x in vec]
        lead = next(filter(None, flat), 0)
        if not lead:
            continue
        g = gcd(*flat) if lead > 0 else -gcd(*flat)
        first.setdefault(tuple([(j, tuple([x // g for x in vec])) for j, vec in row]), row)
    return tuple(first.values())


# A replay of every table meets 14 (shape, caps, sector) keys and the
# seeded solve_sweep 18, all cut from 3 transcriptions; its 18 entries hold
# 0.79 MB of shared tuples: 0.06 MB of keys, 0.65 MB of equations (2,602
# rows, of a direct build's 4,908, every value one of the transcription's)
# and 0.08 MB more of images, none of them in the 6 g-sector entries.  The
# transcriptions add 0.02 MB, their key lists: each one's system is a caps+2
# full-sector entry's own.
@lru_cache(maxsize=32)
def _template(shape: int, caps: Caps, sector: str) -> tuple:
    """``(keys, equations, images, overflow width)`` of every problem with
    this key: the unknown keys, and the equations and the basis-change
    images as integer affine templates.  The equations are restricted from
    the shape's transcription (:func:`_restrict`), each row once up to a
    factor; the images are laid out overflow-first by :func:`image_rows`,
    and one that involves b raises ``ArithmeticError``, as f-sector
    problems read b as 0."""
    keys = tuple(unknown_basis(shape, caps, sector))
    equations = _restrict(_transcription(shape, caps), keys)
    images, over = image_rows(shape, template_env(shape), caps, sector, keys)
    if any(vec[1] for row in images for _j, vec in row):
        raise ArithmeticError("a basis-change image involves b")
    return keys, equations, LinearSystem(rows=images), over


def solve_core(p: ExtProblem) -> ExtSolution:
    """One truncated solve: kernel, capped coboundaries, representatives.

    Raises :class:`ArithmeticError` if internal cross-checks fail (a capped
    coboundary that is not a cocycle, or a representative count that
    disagrees with the dimension arithmetic) -- both would mean the
    equations and the basis-change images were transcribed inconsistently.
    """
    keys, equations, images, over = _template(p.shape, p.caps, p.sector)
    point = template_point(p)
    rows = equations.concrete_rows(point)
    cocycles = nullspace(rows, len(keys))
    # the capped coboundaries: images laid out overflow-first, so a reduced
    # row whose pivot is past the overflow block has no out-of-cap term, and
    # its columns, shifted by that width, index the keys.  The template's
    # overflow block may hold keys no image reaches at this point; those are
    # zero columns here, which change no RREF row.
    reduced, pivots = rref(images.concrete_rows(point))
    cob = [tuple([(c - over, v) for c, v in row]) for row, piv in zip(reduced, pivots) if piv >= over]
    # every capped coboundary against every row, which span the direct
    # build's at the point, independently of the nullspace just computed; a
    # row that shares no column with the vector sums to zero, so only the
    # rows meeting its support are summed.
    # Both sides are numerators, in Z or Z[sqrt D]: the rows over the point's
    # denominator, each vector over its own, so the test stays exact.  A sum
    # with an irrational part is a ``_Root``, never equal to 0.
    rows_at = defaultdict(list)
    for r, row in enumerate(rows):
        for i, _c in row:
            rows_at[i].append(r)
    for vec in cob:
        nz, _den = numerators(vec)
        for r in {r for i in nz for r in rows_at.get(i, ())}:
            if sum(c * nz[i] for i, c in rows[r] if i in nz) != 0:
                raise ArithmeticError(
                    "capped coboundary fails the cocycle equations; "
                    "basis-change images and identities disagree"
                )
    rs = RowSpace()
    for vec in cob:
        rs.add(vec)
    reps = []
    for vec in cocycles:
        residue = rs.reduce(vec)
        if residue:
            lead = residue[0][1]
            residue = tuple([(c, x / lead) for c, x in residue])
            reps.append(residue)
            rs.add(residue)
    ext_dim = len(cocycles) - len(cob)
    if len(reps) != ext_dim:
        raise ArithmeticError("representative count disagrees with dimension arithmetic")
    return ExtSolution(
        problem=p,
        cocycle_dim=len(cocycles),
        coboundary_dim=len(cob),
        ext_dim=ext_dim,
        basis=[witness_from_vector(v, keys, p.shape) for v in reps],
    )


def _at_alpha_zero(p: ExtProblem) -> ExtProblem:
    """``p`` moved along its shift class to alpha = 0, with every dimension
    kept.

    The substitution d -> d + c turns a cocycle of the problem at (alpha,
    abar, gamma) into one at (alpha + c, abar + c, gamma - c), and a
    basis-change image into the image of phi(d + c).  It maps the
    polynomials of total degree at most a cap onto themselves, so it maps
    the capped cocycles, the images and the capped coboundaries of one
    problem isomorphically onto the other's.  c = -alpha gives shape 3
    ``(0, abar - alpha)`` and shapes 1 and 2 ``(alpha, gamma) = (0, alpha +
    gamma)``; there every template entry loses its alpha term.
    """
    if p.alpha == 0:
        return p
    if p.shape == 3:
        return replace(p, alpha=Fraction(0), abar=p.abar - p.alpha)
    return replace(p, alpha=Fraction(0), gamma=p.gamma + p.alpha)


# No workload re-reads a solution: replay, classify and solve_sweep make
# 70, 69 and 200 calls at seed 101 with no hit, and classify and solve_sweep
# none at seeds 404 and 505.  Its one re-reader is the test suite.  Older
# entries are evicted, so a long sweep stays bounded in memory.
@lru_cache(maxsize=128)
def solve_ext(p: ExtProblem, stabilize: bool = True) -> ExtSolution:
    """Full solve with cap-stability re-run and independent verification.

    ``stabilize`` repeats the solve with all caps raised by 2 and records
    whether the dimension moved (``diagnostics["stable"]``).  It compares
    only that dimension, so the re-run solves the problem's alpha = 0 point
    (:func:`_at_alpha_zero`), whose every dimension is the caller's and
    whose rows are sparser; it is still :func:`solve_core`, with both of its
    cross-checks.  Every basis witness, from the solve at the caller's own
    point, is pushed through the naive-composition checker.  Results are
    cached per call and immutable.
    """
    c = p.caps
    bumped_caps = Caps(c.f + 2, c.g + 2, c.h + 2, c.phi + 2)
    if stabilize:
        # transcribed once, at caps+2: both solves restrict that build
        _transcription(p.shape, bumped_caps)
    core = solve_core(p)
    diag = {"caps": (p.caps.f, p.caps.g, p.caps.h, p.caps.phi)}
    notes = p.degenerate_weights()
    if notes:
        diag["degenerate"] = tuple(notes)
    if stabilize:
        bumped = solve_core(replace(_at_alpha_zero(p), caps=bumped_caps))
        diag["stable"] = bumped.ext_dim == core.ext_dim
        if not diag["stable"]:
            diag["cap_too_small"] = (
                f"dimension moved from {core.ext_dim} to {bumped.ext_dim} "
                "when caps were raised by 2"
            )
    for w in core.basis:
        report = oracle.verify_witness(p, w)
        if not report.passed:
            raise ArithmeticError(f"solver produced a witness the checker rejects:\n{report}")
    return replace(core, diagnostics=diag)
