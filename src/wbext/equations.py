"""Functional-equation construction for the three extension shapes.

Each commutator identity, applied to the top generator of the extension,
yields a polynomial identity in ``(d, l, u)`` that is linear in the unknown
cocycle coefficients.  We represent an identity as a map

    unknown key  ->  polynomial multiplying that unknown

so the identity reads ``sum_k  c_k * cols[k] == 0`` over the unknown
coefficients ``c_k``.  Keys are ``("f", j, k)`` for the coefficient of
``d^j l^k`` in f, likewise ``("g", j, k)`` and ``("h", j, 0)``.

:func:`build_equations_env` is the one transcription.  It works over a
parameter environment whose values are polynomials, so constant weights and
affine parameter symbols (:func:`affine_symbols`) flow through alike.
:func:`build_equations` runs it with every weight a symbol, and
:func:`assemble_linear_system` lays the result out as a template: the sparse
rows of a direct build, in the same order, each value a tuple of ints
``(c0, c_1, ..., c_k)`` standing for ``c0 + sum c_i w_i`` over the weights
``w_i`` of :func:`template_point`.  :meth:`LinearSystem.concrete_rows`
evaluates a template at a problem's weights, to numerators in Z, or in
Z[sqrt D] at a Q(sqrt D) point.  The solver's templates, with their
basis-change images over the same symbols (:func:`template_env`), and the
scanner's scan-line templates, over ``b``, ``delta`` and ``dbar``, are
built and cached by :mod:`wbext.engine` and :mod:`wbext.scanner`; each
module's docstring says how.

The template is exact, not interpolated: the symbol type supports only
``+``, ``-`` and ``*`` by a parameter-free polynomial and raises on a product
of two parameter-dependent factors, so a build that goes through is affine in
the weights by construction; assembly checks that every coefficient is an
integer.  Evaluated at a point it equals the direct build there, entry for
entry, times the point's common denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul

from .poly import D, L, U, MultiPoly
from .problems import SHAPE_WEIGHTS, Caps, ExtProblem
from .linalg import _root
from .qext import QuadExt, scalar

__all__ = [
    "Identity",
    "unknown_basis",
    "key_rank",
    "build_equations",
    "build_equations_env",
    "LinearSystem",
    "affine_symbols",
    "assemble_linear_system",
    "template_env",
    "template_point",
]


@dataclass
class Identity:
    name: str
    cols: dict  # unknown key -> MultiPoly in (d, l, u[, t])


_PART_ORDER = {"f": 0, "g": 1, "h": 2}


def key_rank(key):
    """Canonical unknown order: part (f, g, h), then graded-lex descending."""
    name, j, k = key
    return (_PART_ORDER[name], -(j + k), -j, -k)


def unknown_basis(shape: int, caps: Caps, sector: str) -> list:
    """The unknown keys in :func:`key_rank` order: the monomials of f and g up
    to their caps (in l alone for shape 1), and of h in d for shape 2."""
    parts = ("f", "g") if sector == "full" else (sector,)
    keys = [
        (name, j, k)
        for name in parts
        for j in range(1 if shape == 1 else getattr(caps, name) + 1)
        for k in range(getattr(caps, name) + 1 - j)
    ]
    if shape == 2 and sector != "g":
        keys.extend(("h", j, 0) for j in range(caps.h + 1))
    return sorted(keys, key=key_rank)


class _Powers:
    """The powers ``0 .. cap + 1`` of d, l, u, d + l, d + u and l + u, each
    entry the one before times its base.  An identity multiplies two of them
    in parentheses, so each affine weight factor is multiplied once, by that
    product."""

    def __init__(self, cap: int):
        self.d, self.l, self.u, self.dl, self.du, self.lu = (
            list(accumulate(repeat(base, cap + 1), mul, initial=MultiPoly.const(1)))
            for base in (D, L, U, D + L, D + U, L + U)
        )


# The powers depend only on the cap and MultiPoly is immutable, so every
# build at one cap shares them, the engine's templates and the scanner's line
# templates alike; a solve and its caps+2 re-run use two.  The engine's
# basis-change images read ``d**j`` and ``(d+l)**j`` here too, at the phi cap.
@lru_cache(maxsize=16)
def _powers(cap: int) -> _Powers:
    return _Powers(cap)


class _Affine:
    """An affine form ``c0 + sum c_i w_i`` in the template weights ``w_i``, each
    ``c_i`` a ``MultiPoly`` in (d, l, u): what a weight symbol becomes on its
    way through :func:`build_equations_env`.

    Only ``+``, ``-`` and ``*`` by a parameter-free polynomial or scalar are
    defined; a product of two forms raises ``TypeError``, so whatever the
    transcription builds from the symbols is affine in them.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        self.parts = parts

    @classmethod
    def symbol(cls, i: int, n: int) -> "_Affine":
        """The ``i``-th of ``n`` weights."""
        zero, one = MultiPoly.zero(), MultiPoly.const(1)
        return cls(tuple(one if j == i + 1 else zero for j in range(n + 1)))

    def __add__(self, other):
        if isinstance(other, _Affine):
            return _Affine(tuple([a + b for a, b in zip(self.parts, other.parts)]))
        return _Affine((self.parts[0] + other,) + self.parts[1:])

    __radd__ = __add__

    def __neg__(self):
        return _Affine(tuple([-a for a in self.parts]))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _Affine):
            raise TypeError("a product of two parameter-dependent factors is not affine")
        return _Affine(tuple([a * other for a in self.parts]))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.parts)

    def coeffs_by(self, names):
        """``[(exps in names, (c0, c_1, ..., c_k))]``: the template entries of
        this form, one per monomial, with integer components.  ``names`` is
        (d, l, u), or (d, l) for a form free of u (a witness part)."""
        if names not in (("d", "l", "u"), ("d", "l")):
            raise ValueError(f"a template groups by (d, l, u) or (d, l), not {names}")
        n = len(names)
        groups: dict[tuple, list] = {}
        for i, part in enumerate(self.parts):
            for exps, coeff in part.terms.items():
                if any(exps[n:]) or type(coeff) is not Fraction or coeff.denominator != 1:
                    raise ValueError(f"template coefficients must be integers in {names}: {part}")
                groups.setdefault(exps[:n], [0] * len(self.parts))[i] = coeff.numerator
        return [(mono, _shared(tuple(vec))) for mono, vec in groups.items()]


# A few hundred distinct template values make up thousands of entries, so
# equal ones are stored once; the bound keeps a long sweep's memory flat.
@lru_cache(maxsize=4096)
def _shared(vec: tuple) -> tuple:
    return vec


def template_point(p: ExtProblem) -> tuple:
    """``p``'s weights in the order of a template value's components, ``(b,
    *SHAPE_WEIGHTS[shape])``, with b = 0 where the problem has none (an
    f-sector problem, whose equations never read b)."""
    b = Fraction(0) if p.b is None else scalar(p.b, "b")
    return (b, *(scalar(getattr(p, name), name) for name in SHAPE_WEIGHTS[p.shape]))


def affine_symbols(names) -> dict:
    """Each of ``names`` as an affine symbol; a template value built from
    them is ``(c0, c_1, ..., c_k)`` with ``c_i`` the coefficient of
    ``names[i - 1]``."""
    return {name: _Affine.symbol(i, len(names)) for i, name in enumerate(names)}


def template_env(shape: int) -> dict:
    """Every weight of a shape's systems, b first, as an affine symbol, in
    the order of :func:`template_point`."""
    return affine_symbols(("b", *SHAPE_WEIGHTS[shape]))


def build_equations(shape: int, caps: Caps, sector: str) -> list:
    """Identities of one (shape, caps, sector) with every weight an affine
    symbol; assembled, they are the template of every problem with that key.
    See :func:`build_equations_env`."""
    return build_equations_env(shape, template_env(shape), caps, sector)


def build_equations_env(shape: int, env: dict, caps: Caps, sector: str) -> list:
    """Build the identity list for one extension shape.

    Besides the defining identities (one per commutator used in the
    derivation), the list imposes the swapped L-H commutator forms: ``"HL"``
    for shapes 1 and 3, ``"LH"`` and ``"HL"`` for shape 2.  They are implied
    by the defining ones, so they leave the kernel unchanged and act as a
    cross-check on the transcription.
    """
    alpha = env["alpha"]
    b = env.get("b")
    delta = env.get("delta")
    keys = unknown_basis(shape, caps, sector)
    f_keys = [k for k in keys if k[0] == "f"]
    g_keys = [k for k in keys if k[0] == "g"]
    h_keys = [k for k in keys if k[0] == "h"]
    if g_keys and b is None:
        raise ValueError("the g sector needs the parameter b")
    identities: list[Identity] = []

    if shape == 1:
        gamma = env["gamma"]
        A = alpha + gamma
        pw = _powers(max(caps.f, caps.g))
        if f_keys:
            cols = {}
            for _, _, k in f_keys:
                cols[("f", 0, k)] = (
                    (A + L + delta * U) * pw.l[k]
                    - (A + U + delta * L) * pw.u[k]
                    - (L - U) * pw.lu[k]
                )
            identities.append(Identity("LL", cols))
        if g_keys:
            cols = {}
            for _, _, k in g_keys:
                cols[("g", 0, k)] = (b * L + U) * pw.lu[k] - (A + U + delta * L) * pw.u[k]
            identities.append(Identity("LH", cols))
            cols = {}
            for _, _, k in g_keys:
                cols[("g", 0, k)] = (L + b * U) * pw.lu[k] - (A + L + delta * U) * pw.l[k]
            identities.append(Identity("HL", cols))
        return identities

    if shape == 2:
        gamma = env["gamma"]
        pw = _powers(max(caps.f, caps.g, caps.h))
        act = D + alpha + delta * L  # L-action coefficient on the submodule generator
        act_u = D + alpha + delta * U
        if f_keys:
            cols = {}
            for _, j, k in f_keys:
                cols[("f", j, k)] = (
                    act * (pw.dl[j] * pw.u[k])
                    - act_u * (pw.du[j] * pw.l[k])
                    - (L - U) * (pw.d[j] * pw.lu[k])
                )
            identities.append(Identity("LL", cols))
            cols = {}
            for _, j, k in f_keys:
                cols[("f", j, k)] = (D + L - gamma) * (pw.d[j] * pw.l[k])
            for _, j, _ in h_keys:
                cols[("h", j, 0)] = -act * pw.dl[j]
            identities.append(Identity("dL", cols))
        if g_keys:
            cols = {}
            for _, j, k in g_keys:
                cols[("g", j, k)] = (D + L - gamma) * (pw.d[j] * pw.l[k])
            identities.append(Identity("dH", cols))
            cols = {}
            for _, j, k in g_keys:
                cols[("g", j, k)] = (
                    act * (pw.dl[j] * pw.u[k]) + (b * L + U) * (pw.d[j] * pw.lu[k])
                )
            identities.append(Identity("LH", cols))
            cols = {}
            for _, j, k in g_keys:
                cols[("g", j, k)] = (
                    act_u * (pw.du[j] * pw.l[k]) + (L + b * U) * (pw.d[j] * pw.lu[k])
                )
            identities.append(Identity("HL", cols))
        return identities

    # shape 3
    abar = env["abar"]
    dbar = env["dbar"]
    pw = _powers(max(caps.f, caps.g))
    top_l = D + L + delta * U + alpha  # quotient action pieces
    top_u = D + U + delta * L + alpha
    sub_l = D + dbar * L + abar  # submodule action pieces
    sub_u = D + dbar * U + abar
    if f_keys:
        cols = {}
        for _, j, k in f_keys:
            cols[("f", j, k)] = (
                top_l * (pw.d[j] * pw.l[k])
                + sub_l * (pw.dl[j] * pw.u[k])
                - top_u * (pw.d[j] * pw.u[k])
                - sub_u * (pw.du[j] * pw.l[k])
                - (L - U) * (pw.d[j] * pw.lu[k])
            )
        identities.append(Identity("LL", cols))
    if g_keys:
        cols = {}
        for _, j, k in g_keys:
            cols[("g", j, k)] = (
                sub_l * (pw.dl[j] * pw.u[k])
                - top_u * (pw.d[j] * pw.u[k])
                + (b * L + U) * (pw.d[j] * pw.lu[k])
            )
        identities.append(Identity("LH", cols))
        cols = {}
        for _, j, k in g_keys:
            cols[("g", j, k)] = (
                top_l * (pw.d[j] * pw.l[k])
                - sub_u * (pw.du[j] * pw.l[k])
                - (L + b * U) * (pw.d[j] * pw.lu[k])
            )
        identities.append(Identity("HL", cols))
    return identities


@dataclass(frozen=True)
class LinearSystem:
    """Exact linear system: one row per (identity, monomial in d,l,u).

    ``rows`` are sparse rows (see :mod:`wbext.linalg`), held as tuples so a
    cached system cannot be changed through them.  Their values are
    ``MultiPoly`` in a direct build (constants at a concrete problem), or,
    in a template built from affine symbols, integer tuples over them: over
    the weights of :func:`template_point` for those of :func:`template_env`.
    """

    rows: tuple

    def concrete_rows(self, point: tuple) -> list[tuple]:
        """A template's rows at the weights ``point`` (see
        :func:`template_point`), as a fresh list of scalar rows.

        Each entry is the entry's numerator over the point's common
        denominator, which is left out, so no ``Fraction`` is built: one
        integer dot product at a rational point, and at a point in Q(sqrt D)
        two, for the rational and the irrational part, making an ``a +
        b*sqrt(D)`` numerator (``linalg._Root``, an ``int`` where ``b`` is
        0).  A row scaled by that positive constant has the same kernel,
        RREF and zero test (see :mod:`wbext.linalg`).  Zero entries and
        then empty rows are dropped, so the result is the direct build's
        rows at that point, each constant ``MultiPoly`` taken as its value,
        value for value and in order, times the common denominator.  Raises
        ``ValueError`` for weights in two quadratic fields.
        """
        discs = list(dict.fromkeys(w.disc for w in point if isinstance(w, QuadExt)))
        if len(discs) > 1:
            raise ValueError(f"mixed quadratic fields: sqrt({discs[0]}) vs sqrt({discs[1]})")
        rat = [w.p if isinstance(w, QuadExt) else w for w in point]
        irr = [w.q if isinstance(w, QuadExt) else Fraction(0) for w in point]
        den = math.lcm(*(w.denominator for w in rat + irr))
        rat = (den, *[w.numerator * (den // w.denominator) for w in rat])
        irr = (0, *[w.numerator * (den // w.denominator) for w in irr])
        disc = discs[0] if discs else None
        out = []
        for row in self.rows:
            if disc is None:
                entries = [(col, num) for col, vec in row if (num := sum(map(mul, vec, rat)))]
            else:
                entries = [
                    (col, num)
                    for col, vec in row
                    if (num := _root(sum(map(mul, vec, rat)), sum(map(mul, vec, irr)), disc))
                ]
            if entries:
                out.append(tuple(entries))
        return out


def assemble_linear_system(identities, unknowns) -> LinearSystem:
    """Expand identities into sparse coefficient rows, one per monomial in (d, l, u).

    Row order is deterministic: identities in build order, monomials graded-lex
    descending.  Raises if an identity references an undeclared unknown.
    Identities from :func:`build_equations` give a template (see
    :class:`LinearSystem`).
    """
    index = {k: i for i, k in enumerate(unknowns)}
    rows = []
    for ident in identities:
        per_mono: dict[tuple, dict] = {}
        for key, poly in ident.cols.items():
            if key not in index:
                raise ValueError(f"identity {ident.name} uses undeclared unknown {key}")
            for mono, coeff in poly.coeffs_by(("d", "l", "u")):
                per_mono.setdefault(mono, {})[index[key]] = coeff
        for mono in sorted(per_mono, key=lambda m: (sum(m), m), reverse=True):
            rows.append(tuple(sorted(per_mono[mono].items())))
    return LinearSystem(rows=tuple(rows))
