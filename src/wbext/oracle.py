"""Independent checker: naive operator composition on extension elements.

This module re-derives everything the solver needs from the module axioms
alone, with no code shared with the equation builder beyond raw polynomial
arithmetic.  An element of the extension is a pair ``(top, sub)`` of
coefficients against the two generators; the generator actions are applied
literally and the six commutator identities are expanded on both generators.
Dimensions come from a plain sparse forward elimination written here (see
``_rank``), so the solver and this oracle can only agree when both
transcriptions are right; it shares no code with the solver's sparse kernel
in ``linalg``.

Memoisation.  ``brute_dims`` runs one model, on one tagged witness that
carries every unknown monomial at once (see ``_residual_rows``), and each
call of ``verify_witness_env`` or ``verify_witness`` runs one model on its
witness.  A model is the module actions composed literally, and it keeps
three memos of its own, dropped with it, so nothing is cached at module
level and memory is bounded by one call: each generator action applied,
per (generator, slot, element), which the six identities ask for again and
again; the witness's f and g at each of the three slots L, U and L+U; and
the powers of ``d + slot`` that every shift in d is expanded against.  They
are safe because an entry depends only on its key objects and the model's
fixed witness and parameters, and it holds those key objects, so no id is
reused while the model lives.  The right-hand-side factors and the L-action
coefficients at the three slots are computed once per model.  Only public
polynomial arithmetic is used.
"""

from __future__ import annotations

import math
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
_DL = D + L
# the bracket slots the identities act at, the generators' unit coefficients
# and the two elements all_residuals acts on: one object each, so that
# repeated pieces meet the same memo keys
_SLOTS = (L, U, _LU)
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

    The right-hand-side factors and the L-action coefficients at the three
    slots L, U and L+U are computed once, in ``__init__``.  Three memos,
    dropped with the model, keep what the identities ask for more than once:
    ``_applied`` each generator action applied, ``_at_slot`` the witness's f
    and g at each slot, and ``_powers`` the powers of ``d + slot`` that every
    shift in d is expanded against.  They are keyed by object identities
    (hashing a ``MultiPoly`` costs more than the work saved), and every entry
    holds its key objects, so no id is reused while the model lives.
    """

    def __init__(self, shape: int, env: dict, w: CocycleWitness):
        self.shape = shape
        self.b = env.get("b")
        self.gamma = env.get("gamma")
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
        self._factors = _rhs_factors(self.b)
        # the quotient's L action D + alpha + delta*slot and, in shape 3, the
        # sub's D + abar + dbar*slot, at each slot the identities use
        self._quot = {id(s): D + env["alpha"] + env["delta"] * s for s in _SLOTS}
        if shape == 3:
            self._sub_act = {id(s): D + env["abar"] + env["dbar"] * s for s in _SLOTS}
        self._applied = {}  # (gen, id(slot), id(elem)) -> (slot, elem, action)
        self._at_slot = {}  # id(slot) -> (slot, f at slot, g at slot)
        self._powers = {}  # id(slot) -> (slot, [1, d + slot, (d + slot)^2, ...])

    def _shift_d(self, poly, slot):
        """``poly`` with d -> d + slot, expanded against the memo's powers of
        ``d + slot`` (``slot`` is free of d)."""
        hit = self._powers.get(id(slot))
        if hit is None:
            hit = self._powers[id(slot)] = (slot, [_ONE, D + slot])
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

    def apply_d(self, elem):
        top, sub = elem
        if self.shape == 1:
            return (D * top, self.gamma * sub)
        if self.shape == 2:
            return (self.gamma * top, top * self.h + D * sub)
        return (D * top, D * sub)

    def apply_gen(self, gen: str, slot: MultiPoly, elem):
        key = (gen, id(slot), id(elem))
        hit = self._applied.get(key)
        if hit is None:
            hit = self._applied[key] = (slot, elem, self._act(gen, slot, elem))
        return hit[2]

    def _act(self, gen: str, slot: MultiPoly, elem):
        top, sub = elem
        fs, gs = self._witness_at(slot)
        quot = self._quot[id(slot)]
        if self.shape == 1:
            shifted = self._shift_d(top, slot)
            new_top = shifted * quot if gen == "L" else _ZERO
            new_sub = (shifted * (fs if gen == "L" else gs)).subst("d", self.gamma)
            return (new_top, new_sub)
        if self.shape == 2:
            if gen == "L":
                new_sub = top * fs + self._shift_d(sub, slot) * quot
            else:
                new_sub = top * gs
            return (_ZERO, new_sub)
        shifted = self._shift_d(top, slot)
        if gen == "L":
            sub_act = self._sub_act[id(slot)]
            return (shifted * quot, shifted * fs + self._shift_d(sub, slot) * sub_act)
        return (_ZERO, shifted * gs)

    @staticmethod
    def _sub(e1, e2):
        return (e1[0] - e2[0], e1[1] - e2[1])

    @staticmethod
    def _scale(c, e):
        return (c * e[0], c * e[1])

    def commutator_residual(self, a: str, bgen: str, elem):
        """[a_l, b_u] applied to elem, minus the bracket's right-hand side."""
        e1 = self.apply_gen(a, L, self.apply_gen(bgen, U, elem))
        e2 = self.apply_gen(bgen, U, self.apply_gen(a, L, elem))
        comm = self._sub(e1, e2)
        if a == "L" and bgen == "L":
            rhs = self._scale(self._factors["LL"], self.apply_gen("L", _LU, elem))
        elif a == "L" and bgen == "H":
            rhs = self._scale(self._factors["LH"], self.apply_gen("H", _LU, elem))
        elif a == "H" and bgen == "L":
            rhs = self._scale(self._factors["HL"], self.apply_gen("H", _LU, elem))
        else:
            rhs = (_ZERO, _ZERO)
        return self._sub(comm, rhs)

    def translation_residual(self, a: str, elem):
        """[d, a_l] + l*a_l applied to elem (must vanish)."""
        a_elem = self.apply_gen(a, L, elem)
        e1 = self.apply_d(a_elem)
        e2 = self.apply_gen(a, L, self.apply_d(elem))
        comm = self._sub(e1, e2)
        return self._sub(comm, self._scale(self._factors["d"], a_elem))

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
    model = _Model(shape, env, w)
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


def _rank(rows) -> int:
    """Forward elimination, with no pivoting refinements; ``rows`` are unchanged.

    Rows are ``{column: value}`` dicts holding only non-zero entries, with
    columns of one sortable kind (ints, or ``(part, j, k)`` keys), and the
    first non-zero entry of each column is its pivot, in exact integers.  Each
    row is multiplied by the lcm of its denominators: a rational row becomes
    ``int``s, and a row with a ``QuadExt`` entry becomes ``(p, q)`` pairs
    standing for ``p + q*sqrt(disc)`` in Z[sqrt(disc)].  An update replaces a
    row by ``a*row - c*pivot row``, with ``a`` the pivot and ``c`` the row's
    entry in the pivot column (over Q both are first divided by their gcd),
    and then divides it by its content.  That is the field update ``row -
    (c/a)*pivot row`` times a non-zero constant.  Scaling a row by a non-zero
    constant changes neither which entries are zero nor the span of the rows,
    so every pivot and the rank are those of the elimination over the field.
    An update visits only the entries of the row and the pivot row, and drops
    every entry it cancels.
    """
    discs = {x.disc for row in rows for x in row.values() if not isinstance(x, (int, Fraction))}
    if not discs:
        return _eliminate([_integral(row) for row in rows], _int_update)
    if len(discs) > 1:
        raise ValueError(f"entries from two quadratic fields: {sorted(discs)}")
    (disc,) = discs
    return _eliminate([_integral_pairs(row) for row in rows], partial(_pair_update, disc))


def _integral(row):
    """``row`` times the lcm of its denominators, as ``int``s."""
    m = math.lcm(*(x.denominator for x in row.values()))
    return {j: x.numerator * (m // x.denominator) for j, x in row.items()}


def _integral_pairs(row):
    """``row`` times the lcm of its denominators, as ``int`` pairs."""
    parts = {j: (x, 0) if isinstance(x, (int, Fraction)) else (x.p, x.q) for j, x in row.items()}
    m = math.lcm(*(v.denominator for pq in parts.values() for v in pq))
    return {j: (int(p * m), int(q * m)) for j, (p, q) in parts.items()}


def _int_update(row, prow, col):
    g = math.gcd(prow[col], row[col])
    a, c = prow[col] // g, row[col] // g
    out = {j: a * x for j, x in row.items()} if a != 1 else dict(row)
    for j, p in prow.items():
        x = out.get(j, 0) - c * p
        if x:
            out[j] = x
        else:
            del out[j]
    content = math.gcd(*out.values())
    return {j: x // content for j, x in out.items()} if content > 1 else out


def _pair_update(disc, row, prow, col):
    (a0, a1), (c0, c1) = prow[col], row[col]
    out = {j: (a0 * x0 + disc * a1 * x1, a0 * x1 + a1 * x0) for j, (x0, x1) in row.items()}
    for j, (p0, p1) in prow.items():
        x0, x1 = out.get(j, (0, 0))
        x0, x1 = x0 - c0 * p0 - disc * c1 * p1, x1 - c0 * p1 - c1 * p0
        if x0 or x1:
            out[j] = (x0, x1)
        else:
            del out[j]
    content = math.gcd(*(v for x in out.values() for v in x))
    if content > 1:
        return {j: (x0 // content, x1 // content) for j, (x0, x1) in out.items()}
    return out


def _eliminate(work, update) -> int:
    """The rank of the sparse rows ``work``; ``update(row, pivot row, col)``
    returns the row with its entry at ``col`` eliminated."""
    r = 0
    for col in sorted({j for row in work for j in row}):
        piv = next((i for i in range(r, len(work)) if col in work[i]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        # columns left of col are absent from every row from r on
        for i in range(r + 1, len(work)):
            if col in work[i]:
                work[i] = update(work[i], prow, col)
        r += 1
        if r == len(work):
            break
    return r


def _sector_parts(shape: int, sector: str):
    if sector == "g":
        return ("g",)
    parts = ("f", "h") if shape == 2 else ("f",)
    if sector == "f":
        return parts
    return parts + ("g",)


def _unknowns(p: ExtProblem):
    """The (part, j, k) unknown monomials, in column order."""
    return [
        (part, j, k)
        for part in _sector_parts(p.shape, p.sector)
        for j, k in _monomials(p.shape, part, p.caps)
    ]


def _residual_rows(shape: int, env: dict, unknowns) -> list[dict]:
    """The residual matrix: one sparse ``{column: value}`` row per residual
    coefficient, column c for the unit witness of ``unknowns[c]``.

    One model runs on the tagged witness ``sum_c t^(c+1) * unit_c``, with
    ``unit_c`` the monomial ``d^j l^k`` in its part.  The residuals are
    linear in (f, g, h) (the reading of the kernel as the cocycles rests on
    that too), and ``t`` is free in ``env``, since a problem's parameters
    are all scalars and ``verify_witness`` refuses a witness in ``t``.  So
    the coefficient of ``t^(c+1)`` in a residual is unit_c's own term, and
    the untagged ``t^0`` part is the witness-free one, which is zero when
    the quotient's own action is right; it is added to every column, as the
    residuals of each unit witness would hold it.  Rows are keyed (label,
    top/sub, (d, l, u) exponents) and sorted; a row with no non-zero entry
    is left out.
    """
    tagged = {"f": {}, "g": {}, "h": {}}
    for c, (part, j, k) in enumerate(unknowns):
        tagged[part][(j, k, 0, c + 1)] = Fraction(1)
    f, g, h = (MultiPoly(tagged[part]) for part in "fgh")
    w = CocycleWitness(f=f, g=g, h=h if shape == 2 else None)
    entries = {}
    for label, pair in _Model(shape, env, w).all_residuals().items():
        for part_tag, poly in zip("ts", pair):
            for (e0, e1, e2, e3), c in poly.terms.items():
                entries.setdefault((label, part_tag, (e0, e1, e2)), {})[e3] = c
    rows = []
    for key in sorted(entries):
        tags = entries[key]
        rest = tags.pop(0, 0)
        if rest:
            row = {c: tags.get(c + 1, 0) + rest for c in range(len(unknowns))}
            row = {c: x for c, x in row.items() if x}
        else:
            row = {e - 1: x for e, x in tags.items()}
        if row:
            rows.append(row)
    return rows


def brute_dims(p: ExtProblem) -> tuple[int, int, int]:
    """(cocycle dim, coboundary dim, ext dim) by naive enumeration.

    Each candidate monomial is a unit witness whose six-identity residuals
    give one matrix column, all read from one run on a tagged witness (see
    ``_residual_rows``); the kernel count is the cocycle dimension.
    Coboundaries come from literally re-expanding the split action in a
    moved basis, and their dimension inside the degree caps is rank(all
    coefficients) - rank(out-of-cap coefficients).
    """
    env = p.env()
    unknowns = _unknowns(p)
    nullity = len(unknowns) - _rank(_residual_rows(p.shape, env, unknowns))

    cob_maps = _split_basis_change_maps(p, env)
    if not cob_maps:
        return (nullity, 0, nullity)
    in_caps = set(unknowns)
    over_rows = [{key: x for key, x in m.items() if key not in in_caps} for m in cob_maps]
    cob_dim = _rank(cob_maps) - _rank(over_rows)
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
    return _rank(maps) == _rank(cob_maps) + len(basis)


def _split_basis_change_maps(p: ExtProblem, env: dict):
    """Witness coefficients obtained by moving the lifted generator.

    The split extension (zero witness) is rewritten in the basis where the
    lifted generator is shifted by phi times the submodule generator; the
    deviation from the split action is a coboundary witness, recorded as a
    {(part, j, k): coefficient} map.
    """
    if p.sector == "g":
        # basis moves never touch the H-side data
        return []
    alpha, delta = env["alpha"], env["delta"]
    maps = []
    if p.shape == 1:
        parts = {"f": -(alpha + env["gamma"] + delta * L)}
        maps.append(_poly_map(parts))
    elif p.shape == 2:
        act = D + alpha + delta * L
        for phi, phi_l in _moves(p.caps.phi):
            parts = {"f": phi_l * act, "h": (D - env["gamma"]) * phi}
            maps.append(_poly_map(parts))
    else:
        quot = D + alpha + delta * L
        sub = D + env["abar"] + env["dbar"] * L
        for phi, phi_l in _moves(p.caps.phi):
            parts = {"f": phi_l * sub - quot * phi}
            maps.append(_poly_map(parts))
    return [m for m in maps if m]


def _moves(cap: int):
    """The basis moves phi = d^j for j = 0..cap, each with phi(d + l) = (d + l)^j."""
    phi = phi_l = _ONE
    for j in range(cap + 1):
        if j:
            phi, phi_l = phi * D, phi_l * _DL
        yield phi, phi_l


def _poly_map(parts: dict) -> dict:
    out = {}
    for name, poly in parts.items():
        for exps, c in poly.terms.items():
            if exps[2] or exps[3]:
                raise ValueError("coboundary data must live in (d, l) only")
            out[(name, exps[0], exps[1])] = c
    return out
