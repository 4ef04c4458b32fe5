"""Independent checker: naive operator composition on extension elements.

This module re-derives everything the solver needs from the module axioms
alone, with no code shared with the equation builder beyond raw polynomial
arithmetic.  An element of the extension is a pair ``(top, sub)`` of
coefficients against the two generators; the generator actions are applied
literally and the six commutator identities are expanded on both generators.
Dimensions come from a plain forward elimination written here (see
``_rank``), so the solver and this oracle can only agree when both
transcriptions are right; it shares no code with the solver's sparse kernel
in ``linalg``.

Memoisation.  ``brute_dims`` builds one model per unit witness, and the split
extension's action is the same in all of them.  So one memo dict, created by
each ``brute_dims`` call and dropped when it returns, is shared by its models.
It holds only pieces that no witness enters:

* the top (quotient) half of every pair.  The identities act on the constant
  elements ``(1, 0)`` and ``(0, 1)``, and the top of a generator's action, of
  ``apply_d``, of a difference and of a multiple is computed from tops and
  parameters alone, so every model meets the same top objects;
* ``D + alpha + delta*slot`` per (slot, weight pair), the right-hand-side
  factors ``l - u``, ``-(b*l + u)``, ``l + b*u`` and ``-l``, and the powers of
  ``d + slot`` that every shift in d is expanded against.

A model keeps its own record of the actions it applied, per (generator,
slot, element): the identities apply one generator at one slot to the same
element several times, and the two starting elements are module constants,
so those repeats are found.  It also substitutes its f and g at each of the
three slots L, U and L+U once.  Nothing read from a witness is shared between
models.  ``verify_witness_env`` and ``verify_witness`` give each call a fresh
memo, and nothing is cached at module level, so memory is bounded by one
call.  The checker stays independent: every identity is still composed
literally from ``apply_gen`` and ``apply_d``, every sub half is computed by
its own model, and only public polynomial arithmetic is used.  Keys
are object identities (hashing a ``MultiPoly`` costs more than the work
saved), each kind of entry has its own key space, and every entry holds its
key objects, so no id is reused while the memo lives.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from .poly import D, L, MultiPoly, U
from .problems import Caps, CocycleWitness, ExtProblem

__all__ = [
    "VerifyReport",
    "verify_witness",
    "verify_witness_env",
    "brute_dims",
    "independent_mod_coboundaries",
]

_LU = L + U
# the generators' unit coefficients and the two elements all_residuals acts
# on, one object each, so that every model of a brute_dims call meets the
# same keys in the shared memo and in its own record of applied actions
_ONE = MultiPoly.const(Fraction(1))
_ZERO = MultiPoly.zero()
_TOP = (_ONE, _ZERO)
_SUB = (_ZERO, _ONE)


@dataclass
class VerifyReport:
    passed: bool
    residuals: dict = field(default_factory=dict)  # label -> (top, sub) residual pair
    violations: list = field(default_factory=list)

    def __str__(self):
        if self.passed:
            return "witness verifies: all residuals are exactly zero"
        lines = [f"witness FAILS {len(self.violations)} identities:"]
        for label in self.violations:
            top, sub = self.residuals[label]
            lines.append(f"  {label}: top residual {top}, sub residual {sub}")
        return "\n".join(lines)


class _Model:
    """One extension shape with explicit generator actions on (top, sub) pairs.

    Pairs are coefficients against the distinguished generators: shape 1 is
    (free quotient, one-dim sub), shape 2 is (one-dim quotient, free sub) with
    a deformed translation action, shape 3 is (free, free).  Parameters come
    from an environment of constant (or scan-variable) polynomials.

    ``memo`` is shared by the models of one call with one environment; it
    keeps only witness-free pieces, keyed by a tag and the ids of their
    arguments and holding those arguments: the quotient (top) half of every
    pair, the actions' coefficients, the identities' right-hand-side factors
    and the powers of ``d + slot``.  ``_at_slot`` and ``_applied`` are the
    model's own: its f and g at each slot, and each generator action it
    applied.
    """

    def __init__(self, shape: int, env: dict, w: CocycleWitness, memo: dict):
        self.shape = shape
        self.alpha = env["alpha"]
        self.b = env.get("b")
        self.gamma = env.get("gamma")
        self.abar = env.get("abar")
        self.delta = env["delta"]
        self.dbar = env.get("dbar")
        self.f = w.f
        self.g = w.g
        self.h = w.h if w.h is not None else MultiPoly.zero()
        _reject_var(w, "u")
        if shape == 1 and self.f.uses_var("d"):
            raise ValueError("shape-1 witnesses depend on the bracket variable only")
        if w.h is not None and shape != 2:
            raise ValueError("only shape 2 carries the translation deformation h")
        if w.h is not None and w.h.uses_var("l"):
            raise ValueError("h must be a polynomial in d alone")
        self._memo = memo
        self._at_slot = {}  # id(slot) -> (slot, f at slot, g at slot)
        self._applied = {}  # (gen, id(slot), id(elem)) -> (slot, elem, action)

    def _once(self, tag: str, fn, *args):
        """``fn(*args)``, computed once per memo; ``args`` are witness-free."""
        # the tag keeps each kind of entry in its own key space
        key = (tag, *map(id, args))
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = (args, fn(*args))
        return hit[1]

    def _times(self, c, top):
        return self._once("mul", operator.mul, c, top)

    # an action of L with bracket variable `slot` on the free generator
    def _l_coeff(self, slot, alpha, delta):
        return self._once("coeff", _l_action, slot, alpha, delta)

    def _shift_d(self, poly, slot):
        """``poly`` with d -> d + slot, expanded against the memo's powers of
        ``d + slot`` (``slot`` is free of d)."""
        key = ("pow", id(slot))
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = (slot, [_ONE, D + slot])
        powers = hit[1]
        out = {}
        get = out.get
        for (k, e1, e2, e3), c in poly.terms.items():
            while len(powers) <= k:
                powers.append(powers[-1] * powers[1])
            for (b0, b1, b2, b3), c2 in powers[k].terms.items():
                e = (b0, e1 + b1, e2 + b2, e3 + b3)
                acc = get(e)
                out[e] = c * c2 if acc is None else acc + c * c2
        return MultiPoly(out)

    def _witness_at(self, slot):
        hit = self._at_slot.get(id(slot))
        if hit is None:
            fs, gs = self.f.subst("l", slot), self.g.subst("l", slot)
            hit = self._at_slot[id(slot)] = (slot, fs, gs)
        return hit[1], hit[2]

    def _top_action(self, gen: str, slot, top):
        """(top shifted by slot, gen's action on the top): the quotient's own action."""
        key = ("top", gen, id(slot), id(top))
        hit = self._memo.get(key)
        if hit is None:
            shifted = self._shift_d(top, slot)
            if gen == "L":
                new_top = shifted * self._l_coeff(slot, self.alpha, self.delta)
            else:
                new_top = _ZERO
            hit = self._memo[key] = (slot, top, shifted, new_top)
        return hit[2], hit[3]

    def apply_d(self, elem):
        top, sub = elem
        if self.shape == 1:
            return (self._times(D, top), self.gamma * sub)
        if self.shape == 2:
            return (self._times(self.gamma, top), top * self.h + D * sub)
        return (self._times(D, top), D * sub)

    def apply_gen(self, gen: str, slot: MultiPoly, elem):
        key = (gen, id(slot), id(elem))
        hit = self._applied.get(key)
        if hit is None:
            hit = self._applied[key] = (slot, elem, self._act(gen, slot, elem))
        return hit[2]

    def _act(self, gen: str, slot: MultiPoly, elem):
        top, sub = elem
        fs, gs = self._witness_at(slot)
        if self.shape == 1:
            shifted, new_top = self._top_action(gen, slot, top)
            if gen == "L":
                new_sub = (shifted * fs).subst("d", self.gamma)
            else:
                new_sub = (shifted * gs).subst("d", self.gamma)
            return (new_top, new_sub)
        if self.shape == 2:
            if gen == "L":
                new_sub = top * fs + self._shift_d(sub, slot) * self._l_coeff(
                    slot, self.alpha, self.delta
                )
            else:
                new_sub = top * gs
            return (_ZERO, new_sub)
        shifted, new_top = self._top_action(gen, slot, top)
        if gen == "L":
            new_sub = shifted * fs + self._shift_d(sub, slot) * self._l_coeff(
                slot, self.abar, self.dbar
            )
        else:
            new_sub = shifted * gs
        return (new_top, new_sub)

    def _sub(self, e1, e2):
        return (self._once("sub", operator.sub, e1[0], e2[0]), e1[1] - e2[1])

    def _scale(self, c: MultiPoly, e):
        return (self._times(c, e[0]), c * e[1])

    def commutator_residual(self, a: str, bgen: str, elem):
        """[a_l, b_u] applied to elem, minus the bracket's right-hand side."""
        e1 = self.apply_gen(a, L, self.apply_gen(bgen, U, elem))
        e2 = self.apply_gen(bgen, U, self.apply_gen(a, L, elem))
        comm = self._sub(e1, e2)
        factors = self._once("rhs", _rhs_factors, self.b)
        if a == "L" and bgen == "L":
            rhs = self._scale(factors["LL"], self.apply_gen("L", _LU, elem))
        elif a == "L" and bgen == "H":
            rhs = self._scale(factors["LH"], self.apply_gen("H", _LU, elem))
        elif a == "H" and bgen == "L":
            rhs = self._scale(factors["HL"], self.apply_gen("H", _LU, elem))
        else:
            rhs = (_ZERO, _ZERO)
        return self._sub(comm, rhs)

    def translation_residual(self, a: str, elem):
        """[d, a_l] + l*a_l applied to elem (must vanish)."""
        a_elem = self.apply_gen(a, L, elem)
        e1 = self.apply_d(a_elem)
        e2 = self.apply_gen(a, L, self.apply_d(elem))
        comm = self._sub(e1, e2)
        minus_l = self._once("rhs", _rhs_factors, self.b)["d"]
        return self._sub(comm, self._scale(minus_l, a_elem))

    def all_residuals(self) -> dict:
        gens = ("L",) if self.b is None else ("L", "H")
        if self.b is None and not self.g.is_zero():
            raise ValueError("a nonzero g needs the second generator; supply b")
        out = {}
        for tag, elem in (("top", _TOP), ("sub", _SUB)):
            for a in gens:
                for bgen in gens:
                    out[f"[{a},{bgen}] on {tag}"] = self.commutator_residual(a, bgen, elem)
            for a in gens:
                out[f"[d,{a}] on {tag}"] = self.translation_residual(a, elem)
        return out


def _l_action(slot, alpha, delta):
    return D + alpha + delta * slot


def _rhs_factors(b):
    """The scalars on the identities' right-hand sides: [L_l, L_u] =
    (l - u) L_{l+u}, [L_l, H_u] = -(b l + u) H_{l+u}, [H_l, L_u] =
    (l + b u) H_{l+u}, and [d, a_l] = -l a_l.  Without b only L acts."""
    out = {"LL": L - U, "d": -L}
    if b is not None:
        out["LH"] = -(b * L + U)
        out["HL"] = L + b * U
    return out


def _reject_var(w: CocycleWitness, var: str) -> None:
    for name, part in w.parts().items():
        if part.uses_var(var):
            raise ValueError(f"{name} uses {var}; a witness is a polynomial in d and l")


def verify_witness_env(shape: int, env: dict, w: CocycleWitness) -> VerifyReport:
    """Check a witness against an explicit parameter environment.

    Environment values are polynomials, so a weight left as the scan variable
    ``t`` verifies the whole one-parameter family at once.
    """
    model = _Model(shape, env, w, {})
    residuals = model.all_residuals()
    violations = [k for k, (rt, rs) in residuals.items() if rt or rs]
    return VerifyReport(passed=not violations, residuals=residuals, violations=violations)


def verify_witness(p: ExtProblem, w: CocycleWitness) -> VerifyReport:
    """Check a solver witness by direct substitution into the module identities.

    A witness is a polynomial in d and l; one that uses t or u raises
    ``ValueError``.
    """
    _reject_var(w, "t")
    return verify_witness_env(p.shape, p.env(), w)


# ---------------------------------------------------------------------------
# brute-force dimension oracle
# ---------------------------------------------------------------------------


def _monomials(shape: int, part: str, caps: Caps):
    """Unknown monomials for one witness part, ascending total degree."""
    cap = {"f": caps.f, "g": caps.g, "h": caps.h}[part]
    if part == "h":
        return [(j, 0) for j in range(cap + 1)]
    if shape == 1:
        return [(0, k) for k in range(cap + 1)]
    return [
        (j, k)
        for total in range(cap + 1)
        for j in range(total, -1, -1)
        for k in (total - j,)
    ]


def _unit_witness(shape: int, part: str, j: int, k: int) -> CocycleWitness:
    mono = MultiPoly.monomial((j, k, 0, 0), Fraction(1))
    zero = MultiPoly.zero()
    f = mono if part == "f" else zero
    g = mono if part == "g" else zero
    h = (mono if part == "h" else zero) if shape == 2 else None
    return CocycleWitness(f=f, g=g, h=h)


def _rank(rows) -> int:
    """Forward elimination, with no pivoting refinements; ``rows`` are unchanged.

    Dense rows, first non-zero entry of each column as the pivot, in exact
    integers.  Each row is multiplied by the lcm of its denominators: a
    rational row becomes ``int``s, and a row with a ``QuadExt`` entry becomes
    ``(p, q)`` pairs standing for ``p + q*sqrt(disc)`` in Z[sqrt(disc)], with
    ``0`` for a zero entry.  An update replaces a row by ``a*row - c*pivot
    row``, with ``a`` the pivot and ``c`` the row's entry in the pivot column
    (over Q both are first divided by their gcd), and then divides it by its
    content.  That is the field update ``row - (c/a)*pivot row`` times a
    non-zero constant.  Scaling a row by a non-zero
    constant changes neither which entries are zero nor the span of the rows,
    so every pivot and the rank are those of the elimination over the field.
    An update subtracts only at the columns where the pivot row is non-zero:
    at the others it subtracts zero.
    """
    discs = {x.disc for row in rows for x in row if not isinstance(x, (int, Fraction))}
    if not discs:
        return _eliminate([_integral(row) for row in rows], _int_update)
    if len(discs) > 1:
        raise ValueError(f"entries from two quadratic fields: {sorted(discs)}")
    (disc,) = discs
    return _eliminate([_integral_pairs(row) for row in rows], partial(_pair_update, disc))


def _integral(row):
    """``row`` times the lcm of its denominators, as ``int``s."""
    m = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (m // x.denominator) for x in row]


def _integral_pairs(row):
    """``row`` times the lcm of its denominators, as ``int`` pairs or ``0``."""
    parts = [(x, 0) if isinstance(x, (int, Fraction)) else (x.p, x.q) for x in row]
    m = math.lcm(*(v.denominator for pq in parts for v in pq))
    return [(int(p * m), int(q * m)) if p or q else 0 for p, q in parts]


def _int_update(row, prow, col, support):
    g = math.gcd(prow[col], row[col])
    a, c = prow[col] // g, row[col] // g
    if a != 1:
        row = [a * x for x in row]
    for j, p in support:
        row[j] -= c * p
    content = math.gcd(*row)
    return [x // content for x in row] if content > 1 else row


def _pair_update(disc, row, prow, col, support):
    (a0, a1), (c0, c1) = prow[col], row[col]
    out = [[a0 * x[0] + disc * a1 * x[1], a0 * x[1] + a1 * x[0]] if x else [0, 0] for x in row]
    for j, (p0, p1) in support:
        out[j][0] -= c0 * p0 + disc * c1 * p1
        out[j][1] -= c0 * p1 + c1 * p0
    content = math.gcd(*(v for e in out for v in e)) or 1
    return [(e[0] // content, e[1] // content) if e[0] or e[1] else 0 for e in out]


def _eliminate(work, update) -> int:
    """The rank of ``work``; ``update(row, pivot row, col, support)`` returns
    the row with its entry at ``col`` eliminated."""
    if not work:
        return 0
    ncols = len(work[0])
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(work)):
            if work[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        # columns left of col are zero in every row from r on
        support = [(j, prow[j]) for j in range(col, ncols) if prow[j] != 0]
        for i in range(r + 1, len(work)):
            if work[i][col]:
                work[i] = update(work[i], prow, col, support)
        r += 1
        if r == len(work):
            break
    return r


def _columns_to_rows(columns):
    """Transpose a list of {position: value} columns into dense rows."""
    positions = sorted({pos for col in columns for pos in col})
    index = {pos: i for i, pos in enumerate(positions)}
    # most entries are zero, and _rank reads an int zero faster
    rows = [[0] * len(columns) for _ in positions]
    for c, col in enumerate(columns):
        for pos, val in col.items():
            rows[index[pos]][c] = val
    return rows


def _residual_column(shape: int, env: dict, w: CocycleWitness, memo: dict) -> dict:
    col = {}
    for label, (top, sub) in _Model(shape, env, w, memo).all_residuals().items():
        for part_tag, poly in (("t", top), ("s", sub)):
            for exps, c in poly.terms.items():
                col[(label, part_tag, exps)] = c
    return col


def _sector_parts(shape: int, sector: str):
    if sector == "g":
        return ("g",)
    parts = ("f", "h") if shape == 2 else ("f",)
    if sector == "f":
        return parts
    return parts + ("g",)


def brute_dims(p: ExtProblem) -> tuple[int, int, int]:
    """(cocycle dim, coboundary dim, ext dim) by naive enumeration.

    Each candidate monomial becomes a unit witness whose six-identity
    residuals give one matrix column; the kernel count is the cocycle
    dimension.  Coboundaries come from literally re-expanding the split
    action in a moved basis, and their dimension inside the degree caps is
    rank(all coefficients) - rank(out-of-cap coefficients).
    """
    env = p.env()
    unknowns = [
        (part, j, k)
        for part in _sector_parts(p.shape, p.sector)
        for j, k in _monomials(p.shape, part, p.caps)
    ]
    memo = {}
    columns = [
        _residual_column(p.shape, env, _unit_witness(p.shape, part, j, k), memo)
        for part, j, k in unknowns
    ]
    nullity = len(unknowns) - _rank(_columns_to_rows(columns))

    cob_maps = _split_basis_change_maps(p, env)
    if not cob_maps:
        return (nullity, 0, nullity)
    in_caps = {(part, j, k) for part, j, k in unknowns}
    full_rows, over_rows = [], []
    keys = sorted({key for m in cob_maps for key in m})
    over_keys = [key for key in keys if key not in in_caps]
    for m in cob_maps:
        full_rows.append([m.get(key, Fraction(0)) for key in keys])
        over_rows.append([m.get(key, Fraction(0)) for key in over_keys])
    cob_dim = _rank(full_rows) - (_rank(over_rows) if over_keys else 0)
    return (nullity, cob_dim, nullity - cob_dim)


def independent_mod_coboundaries(p: ExtProblem, basis) -> bool:
    """Whether the witnesses in ``basis`` are linearly independent modulo the
    coboundaries inside the caps.

    The witnesses lie inside the caps, so a combination of them is a
    coboundary exactly when it is one inside the caps: they are independent
    there when they raise the rank of the full basis-change rows by
    ``len(basis)``.
    """
    cob_maps = _split_basis_change_maps(p, p.env())
    maps = cob_maps + [
        _poly_map({name: poly for name, poly in w.parts().items() if poly is not None})
        for w in basis
    ]
    keys = sorted({key for m in maps for key in m})
    rows = [[m.get(key, Fraction(0)) for key in keys] for m in maps]
    return _rank(rows) == _rank(rows[: len(cob_maps)]) + len(basis)


def _split_basis_change_maps(p: ExtProblem, env: dict):
    """Witness coefficients obtained by moving the lifted generator.

    The split extension (zero witness) is rewritten in the basis where the
    lifted generator is shifted by phi times the submodule generator; the
    deviation from the split action is a coboundary witness, recorded as a
    {(part, j, k): coefficient} map.
    """
    alpha, delta = env["alpha"], env["delta"]
    maps = []
    if p.shape == 1:
        parts = {"f": -(alpha + env["gamma"] + delta * L)}
        maps.append(_poly_map(parts))
    elif p.shape == 2:
        act = D + alpha + delta * L
        for j in range(p.caps.phi + 1):
            phi = MultiPoly.monomial((j, 0, 0, 0), Fraction(1))
            parts = {"f": phi.shift("d", L) * act, "h": (D - env["gamma"]) * phi}
            maps.append(_poly_map(parts))
    else:
        quot = D + alpha + delta * L
        sub = D + env["abar"] + env["dbar"] * L
        for j in range(p.caps.phi + 1):
            phi = MultiPoly.monomial((j, 0, 0, 0), Fraction(1))
            parts = {"f": phi.shift("d", L) * sub - quot * phi}
            maps.append(_poly_map(parts))
    if p.sector == "g":
        # basis moves never touch the H-side data
        return []
    if p.sector == "f" or p.shape != 2:
        wanted = {"f", "h"} if p.shape == 2 else {"f"}
        maps = [{k: v for k, v in m.items() if k[0] in wanted} for m in maps]
    return [m for m in maps if m]


def _poly_map(parts: dict) -> dict:
    out = {}
    for name, poly in parts.items():
        for exps, c in poly.terms.items():
            if exps[2] or exps[3]:
                raise ValueError("coboundary data must live in (d, l) only")
            out[(name, exps[0], exps[1])] = c
    return out
