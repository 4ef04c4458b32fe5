"""Parametric weight scans: generic dimensions over Q(t) and special values.

A scan line fixes ``delta - dbar`` and promotes one weight to a polynomial
variable ``t``, in one of two charts: ``t = dbar`` (:func:`scan_dbar`) or
``t = delta`` (:func:`scan_delta`).  Lines are homogeneous: both shift
parameters vanish, which loses nothing, since an equal shift of alpha and
abar moves no dimension.  The cocycle system then has entries in Q[t] and
splits into independent blocks by part and degree.

Each line is lowered once, straight from its ``MultiPoly`` entries, to the
package's one sparse row format (see :mod:`wbext.linalg`) over Z[t]: every
row is scaled by a positive constant to integer coefficients, so a value is
a tuple of ``int`` coefficients of a non-zero polynomial in Z[t].  Scaling
a row moves no rank, at t or at any point.  A line keeps one list of
matrices (the equation blocks, then the full and the overflow coboundary
matrices) and one formula that turns their ranks into an ext dimension.
That list feeds two consumers:

* Bareiss fraction-free elimination over Z[t] (:func:`fraction_free_rank`),
  in pure ``int`` arithmetic with exact divisions.  The recorded pivot
  polynomials certify the result: at any rational or quadratic-irrational
  point where no pivot vanishes, the elimination replays verbatim and the
  dimension equals the generic one, so every jump hides among the
  certificate's roots.  The pivots are integer-scaled (non-zero constants
  times those of the unscaled rational rows); the certificate, the product
  of their square-free primitive parts, is the same.  It is built in Z[t]
  with gcds by the primitive remainder sequence, and its new factors go to
  :func:`~wbext.poly.uni_factor_special` as ``UniPoly`` values; the pivots
  and the certificate in :class:`ScanReport` are ``UniPoly`` values too.
* The exact point check :func:`ext_dim_at` at each candidate root t0.  By
  Sylvester's identity every Bareiss pivot is a minor of the input, and
  the last one of a matrix of generic rank r is a non-zero r x r minor.
  Where it does not vanish at t0 that minor survives, so the rank at t0
  is r: specialising t can only lower a rank.  Only the matrices whose
  last pivot vanishes at t0 are evaluated in Q or Q(sqrt(d)) and ranked,
  so each reported value and dimension is exact.

:func:`line_family` is the one derivation of a line's second-generator
family; it verifies the family before returning it, and both
:func:`classify` and the command line use it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import comb, gcd, lcm

from . import engine
from .equations import assemble_linear_system, build_equations_env, unknown_basis
from .linalg import rank as matrix_rank
from .oracle import verify_witness_env
from .poly import MultiPoly, T, UniPoly, uni_factor_special
from .problems import Caps, CocycleWitness, ExtProblem
from .qext import QuadExt, quad, split_square

__all__ = [
    "ClassifyReport",
    "LineEntry",
    "ScanProblem",
    "ScanReport",
    "SpecialPoint",
    "candidate_diffs",
    "classify",
    "ext_dim_at",
    "fraction_free_rank",
    "g_family_witness",
    "line_family",
    "scan_dbar",
    "scan_delta",
    "special_values",
]

_PROMOTE = ("delta", "dbar")
_ZERO_Q = Fraction(0)


@dataclass(frozen=True)
class ScanProblem:
    """A two-free-generator extension problem with one weight made variable.

    ``promote`` picks one of two charts of the line ``delta - dbar = diff``:
    ``"dbar"`` sets the sub-module weight to t and the quotient weight
    follows at the fixed difference; ``"delta"`` sets the quotient weight to
    t and the sub-module weight follows.  Both shifts ``alpha`` and ``abar``
    are zero.
    """

    base: ExtProblem
    promote: str = "dbar"

    def __post_init__(self):
        if self.base.shape != 3:
            raise ValueError("weight scans need shape 3 (two free generators)")
        if self.promote not in _PROMOTE:
            raise ValueError(f"promote must be one of {_PROMOTE}, not {self.promote!r}")
        if self.base.alpha != 0 or self.base.abar != 0:
            raise ValueError(
                "scan lines have zero shifts alpha = abar = 0; an equal shift "
                "of both moves no dimension, so scan the unshifted line"
            )
        for name in ("delta", "dbar"):
            if isinstance(getattr(self.base, name), QuadExt):
                raise ValueError("scan lines must have rational parameters")

    @property
    def diff(self) -> Fraction:
        return Fraction(self.base.delta) - Fraction(self.base.dbar)

    def env_t(self) -> dict:
        """Parameter environment with the scan variable t substituted."""
        env = self.base.env()
        env["delta"], env["dbar"] = self.weights_at(T)
        return env

    def weights_at(self, t0):
        """(delta, dbar) at t = t0: a concrete point, or the scan variable T."""
        if self.promote == "dbar":
            return (t0 + self.diff, t0)
        return (t0, t0 - self.diff)

    def specialize(self, t0) -> ExtProblem:
        delta, dbar = self.weights_at(t0)
        return replace(self.base, delta=delta, dbar=dbar)


def scan_dbar(b, diff, sector="full", caps=None) -> ScanProblem:
    """Scan along the line delta - dbar = diff with t = dbar."""
    caps = caps if caps is not None else Caps()
    base = ExtProblem(
        shape=3, b=b, alpha=0, abar=0, delta=diff, dbar=0, caps=caps, sector=sector
    )
    return ScanProblem(base=base, promote="dbar")


def scan_delta(b, diff, sector="full", caps=None) -> ScanProblem:
    """Scan along the line delta - dbar = diff with t = delta."""
    sp = scan_dbar(b, diff, sector=sector, caps=caps)
    return ScanProblem(base=sp.base, promote="delta")


def _freeze(obj, *names) -> None:
    """Store the named fields of a frozen dataclass as tuples."""
    for name in names:
        object.__setattr__(obj, name, tuple(getattr(obj, name)))


@dataclass(frozen=True)
class ScanReport:
    """Generic dimension on a scan line plus all confirmed jump points.

    ``certificate`` is a square-free primitive ``UniPoly`` in t whose roots
    contain every parameter value where any elimination pivot vanishes; all
    its rational and quadratic-irrational roots were specialized and tested.
    ``special_values`` holds ``(value, ext dimension at value)`` pairs with
    the dimension strictly above ``generic_dim``.  Reports are shared
    through the classification cache, so they are immutable, with tuple
    fields.
    """

    problem: ScanProblem
    generic_dim: int
    special_values: tuple
    certificate: UniPoly
    notes: tuple = ()

    def __post_init__(self):
        _freeze(self, "special_values", "notes")


# ---------------------------------------------------------------------------
# integer row form over Z[t]
# ---------------------------------------------------------------------------

def _int_rows(rows) -> list:
    """Lower sparse rows (see :mod:`wbext.linalg`) of ``MultiPoly`` values in t
    to sparse rows of integer coefficient tuples.

    The value ``(c0, c1, ..., ck)`` stands for ``c0 + c1*t + ... + ck*t^k``
    with ``ck != 0``.  Each row is multiplied by the positive constant that
    clears its denominators and divides out the gcd of its coefficients,
    which moves no rank, at t or at any point.
    """
    out = []
    for row in rows:
        den = 1
        for _j, e in row:
            for exps, c in e.terms.items():
                if exps[0] or exps[1] or exps[2] or isinstance(c, QuadExt):
                    raise ValueError(f"scan entries must be rational polynomials in t: {e}")
                den = lcm(den, c.denominator)
        content = 0
        lowered = []
        for j, e in row:
            cs = [0] * (max(exps[3] for exps in e.terms) + 1)
            for exps, c in e.terms.items():
                cs[exps[3]] = c.numerator * (den // c.denominator)
                content = gcd(content, cs[exps[3]])
            lowered.append((j, cs))
        out.append(tuple((j, tuple(c // content for c in cs)) for j, cs in lowered))
    return out


def _mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _sub(a, b):
    out = [x - y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _exact_quotient(num, den):
    """``num / den`` in Z[t]; raises ``ArithmeticError`` unless it is exact."""
    if not num:
        return ()
    lead = den[-1]
    rem = list(num)
    quo = [0] * max(len(num) - len(den) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        q, r = divmod(rem[k + len(den) - 1], lead)
        if r:
            break
        quo[k] = q
        for j, c in enumerate(den):
            rem[k + j] -= q * c
    if any(rem):
        raise ArithmeticError(f"inexact division in Z[t]: {num} by {den}")
    return tuple(quo)


def _primitive(p):
    """A non-zero ``p`` in Z[t] divided by its content, with a positive lead."""
    c = gcd(*p) if p[-1] > 0 else -gcd(*p)
    return tuple(x // c for x in p)


def _gcd(a, b):
    """The primitive gcd of non-zero ``a`` and ``b`` in Z[t], by the
    primitive remainder sequence (Collins 1967; Brown 1971): each
    pseudo-remainder is divided by its content."""
    b = _primitive(b)
    while True:
        while len(a) >= len(b):  # a's pseudo-remainder by b
            a = _sub(_mul(a, (b[-1],)), (0,) * (len(a) - len(b)) + _mul(b, (a[-1],)))
        if not a:
            return b
        a, b = b, _primitive(a)


def fraction_free_rank(rows) -> tuple[int, list]:
    """Bareiss elimination over Z[t]; returns (rank, pivot polynomials).

    ``rows`` are sparse rows over Z[t] (see :func:`_int_rows`), worked as
    ``{column: coefficient tuple}`` dicts over the occupied columns in
    ascending order.  Each new entry is ``(pivot*a - c*b) / previous
    pivot``, a minor of the input and hence in Z[t], so every division is
    exact in pure ``int`` arithmetic; an inexact one raises
    ``ArithmeticError``.  At any point t0 where no returned pivot vanishes
    the same row operations replay over Q, so the specialized rank can
    differ from the generic one only at pivot roots.  The pivots are those
    of the same elimination over the unscaled rational rows times non-zero
    constants (the row scales), so their square-free primitive parts, and
    with them the certificate, do not depend on the scaling.  Rows that
    cancel to zero are dropped as they appear.
    """
    work = [dict(row) for row in rows if row]
    pivots = []
    r = 0
    prev = (1,)
    for col in sorted({j for row in work for j in row}):
        if r == len(work):
            break
        piv_i = None
        for i in range(r, len(work)):
            e = work[i].get(col)
            # the lowest-degree entry; len(e) is its degree plus one
            if e and (piv_i is None or len(e) < len(work[piv_i][col])):
                piv_i = i
        if piv_i is None:
            continue
        work[r], work[piv_i] = work[piv_i], work[r]
        prow = work[r]
        piv = prow[col]
        pivots.append(UniPoly(piv))
        kept = work[: r + 1]
        for row in work[r + 1 :]:
            ci = row.pop(col, ())
            new = {}
            for j in (row.keys() | prow.keys()) if ci else row:
                if j != col:
                    e = _sub(_mul(piv, row.get(j, ())), _mul(ci, prow.get(j, ())))
                    if e:
                        new[j] = _exact_quotient(e, prev)
            if new:
                kept.append(new)
        work = kept
        prev = piv
        r += 1
    return r, pivots


@dataclass(frozen=True)
class _LineData:
    """Everything reusable about one scan line's systems over Q[t].

    ``matrices`` holds ``(rows, generic rank, last pivot)`` for the equation
    blocks, then the full and the overflow coboundary matrices, every one in
    the sparse Z[t] rows of :func:`_int_rows` (:func:`_rows_at` evaluates
    them at a point).  The last pivot, None for a matrix of rank 0, is the
    minor that keeps the generic rank wherever it does not vanish.
    ``pivots`` are the pivot polynomials of all of them, in that order: the
    certificate input.
    """

    nunk: int
    matrices: tuple
    pivots: tuple
    g_generic: int  # basis moves never produce g-parts: no coboundary term

    def ext_dim(self, ranks) -> int:
        """Ext dimension from the ranks of ``matrices``, in their order."""
        *blocks, full, over = ranks
        return (self.nunk - sum(blocks)) - (full - over)

    @property
    def generic_ext(self) -> int:
        return self.ext_dim([rank for _rows, rank, _last in self.matrices])


def _symbolic_system(sp: ScanProblem):
    keys = unknown_basis(3, sp.base.caps, sp.base.sector)
    idents = build_equations_env(3, sp.env_t(), sp.base.caps, sp.base.sector)
    system = assemble_linear_system(idents, keys)
    return keys, _int_rows(system.rows)


def _block_split(keys, rows):
    """Split into independent blocks keyed by (part, homogeneous degree).

    Sound because scan lines are homogeneous (both shift parameters vanish):
    every identity then maps a homogeneous witness monomial to equations of
    a single adjacent degree, so distinct degrees never mix and each small
    block can be eliminated on its own.  Returns ``(part, rows)`` per block;
    the blocks lead the line's one matrix list.  A mixed row would break
    that argument, so it raises ``ArithmeticError``.
    """
    group_of = [(key[0], key[1] + key[2]) for key in keys]
    buckets: dict = {}
    for row in rows:
        support = {group_of[j] for j, _e in row}
        if not support:
            continue
        if len(support) > 1:
            raise ArithmeticError("homogeneous block split saw a mixed row")
        buckets.setdefault(support.pop(), []).append(row)
    blocks = []
    for group in sorted(buckets):
        # block-local columns, in key order
        local = {j: k for k, j in enumerate(j for j, g in enumerate(group_of) if g == group)}
        blocks.append((group[0], [tuple((local[j], e) for j, e in row) for row in buckets[group]]))
    return blocks


def _cob_rows_t(sp: ScanProblem, keys):
    """Basis-change image matrix over Z[t], columns ordered overflow-first."""
    if sp.base.sector == "g":
        return [], []
    span = engine.coboundary_span_env(3, sp.env_t(), sp.base.caps.phi)
    rows, over = engine.coeff_rows([engine.witness_coeff_map(w) for w in span], keys)
    full_rows = _int_rows(rows)
    return full_rows, [tuple((j, e) for j, e in row if j < over) for row in full_rows]


# One classify call reuses 7 Virasoro-layer lines and 4 per-b lines; older
# lines are evicted so a long sweep over b stays bounded in memory.
@lru_cache(maxsize=16)
def _line_data(sp: ScanProblem) -> _LineData:
    keys, rows = _symbolic_system(sp)
    blocks = _block_split(keys, rows)
    matrices = []
    pivots = []
    g_rank = 0
    for part, mat in blocks + [(None, cob) for cob in _cob_rows_t(sp, keys)]:
        rank, piv = fraction_free_rank(mat)
        matrices.append((mat, rank, piv[-1] if piv else None))
        pivots.extend(piv)
        if part == "g":
            g_rank += rank
    return _LineData(
        nunk=len(keys),
        matrices=tuple(matrices),
        pivots=tuple(pivots),
        g_generic=sum(1 for k in keys if k[0] == "g") - g_rank,
    )


# ---------------------------------------------------------------------------
# the point check: generic ranks where the last pivot survives, else exact
# ---------------------------------------------------------------------------


def _rows_at(rows, t0) -> list:
    """The Z[t] rows evaluated at t = t0 as sparse rows (see :mod:`wbext.linalg`)."""
    out = []
    for row in rows:
        vals = []
        for j, e in row:
            v = _ZERO_Q
            for c in reversed(e):
                v = v * t0 + c
            if v:
                vals.append((j, v))
        out.append(tuple(vals))
    return out


def ext_dim_at(sp: ScanProblem, t0) -> int:
    """Exact ext dimension at t = t0, from the specialized line systems.

    A matrix whose last pivot does not vanish at t0 (or that has none, at
    rank 0) keeps its generic rank there: that pivot is a non-zero minor of
    the generic rank's size, and specialising t raises no rank.  Only the
    other matrices are evaluated at t0 and ranked exactly.  The result
    equals solve_ext on the specialized problem (the same integer rows;
    each row differs from the engine's by a positive constant), at a
    fraction of the cost; works for Fraction and QuadExt points.
    """
    data = _line_data(sp)
    return data.ext_dim(
        [
            rank if last is None or last.eval(t0) else matrix_rank(_rows_at(rows, t0))
            for rows, rank, last in data.matrices
        ]
    )


def _factor_pivots(pivots):
    """Factor the pivot product incrementally; (roots, quadratics, cert, notes).

    The certificate is built in Z[t] by the primitive remainder sequence of
    :func:`_gcd`.  Each pivot's square-free part ``p / gcd(p, p')`` is
    reduced by what previous pivots already contributed, so only small new
    factors ever reach the factorizer; the accumulated product is exactly
    the square-free pivot certificate.  Every factor is primitive with a
    positive lead, and so, by Gauss's lemma, is the product.
    """
    cert = (1,)
    roots: list = []
    quadratics: list = []
    notes: list = []
    for piv in pivots:
        p = tuple(c.numerator for c in piv.coeffs)
        if len(p) < 2:
            continue
        dp = tuple(k * c for k, c in enumerate(p))[1:]
        sf = _primitive(_exact_quotient(p, _gcd(p, dp)))
        extra = _exact_quotient(sf, _gcd(cert, sf))
        if len(extra) < 2:
            continue
        cert = _mul(cert, extra)
        fac = uni_factor_special(UniPoly(extra))
        for r, _mult in fac.roots:
            if r not in roots:
                roots.append(r)
        for q in fac.quadratics:
            if q not in quadratics:
                quadratics.append(q)
        notes.extend(fac.notes)
    return roots, quadratics, UniPoly(cert), notes


def _quad_roots(q: UniPoly):
    """Both roots of a monic irreducible quadratic in t, as QuadExt values."""
    c, b, _ = q.coeffs
    disc = b * b - 4 * c
    s, r = split_square(disc.numerator * disc.denominator)
    half = Fraction(s, 2 * disc.denominator)
    return [quad(-b / 2, half, r), quad(-b / 2, -half, r)]


def _value_sort_key(v):
    if isinstance(v, QuadExt):
        return (1, v.p, v.q)
    return (0, Fraction(v), Fraction(0))


def special_values(sp: ScanProblem) -> ScanReport:
    """Scan one line: generic dimension, certificate, and confirmed jumps.

    Every rational root of the certificate, and both conjugates of every
    irreducible quadratic factor, goes through the exact point check
    :func:`ext_dim_at`; only values whose ext dimension exceeds the generic
    one are reported.  A residual certificate factor of degree >= 3 is
    surfaced as a note rather than silently dropped.
    """
    data = _line_data(sp)
    generic = data.generic_ext
    roots, quadratics, cert, notes = _factor_pivots(data.pivots)
    candidates = list(roots)
    for q in quadratics:
        candidates.extend(_quad_roots(q))
    specials = []
    for value in sorted(candidates, key=_value_sort_key):
        dim = ext_dim_at(sp, value)
        delta, dbar = sp.weights_at(value)
        if dim > generic:
            specials.append((value, dim))
            if delta == 0 or dbar == 0:
                notes.append(
                    f"special value t={value} makes a weight vanish; the module "
                    "there is outside the irreducible classification"
                )
        elif dim < generic:
            notes.append(
                f"certificate root t={value} lowers the dimension to {dim}; "
                "no extra extensions there"
            )
    return ScanReport(
        problem=sp,
        generic_dim=generic,
        special_values=specials,
        certificate=cert,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# per-b classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpecialPoint:
    delta: object
    dbar: object
    t_value: object
    dim: int
    degenerate: bool
    witnesses: tuple = ()  # engine class representatives

    def __post_init__(self):
        _freeze(self, "witnesses")


@dataclass(frozen=True)
class LineEntry:
    """One candidate line delta - dbar = diff in a classification.

    Layer entries are cached and shared by every later classify at the same
    caps, so entries are immutable, with tuple fields.
    """

    diff: Fraction
    sector: str
    generic_dim: int
    g_generic: int
    f_generic: int
    report: ScanReport
    m: int | None = None  # homogeneous g-degree when the line is m + b
    families: tuple = ()  # (CocycleWitness, note)
    specials: tuple = ()  # SpecialPoint

    def __post_init__(self):
        _freeze(self, "families", "specials")


@dataclass(frozen=True)
class ClassifyReport:
    """Everything classify(b) found: the b-independent layer (witnesses with
    no second-generator deformation, identical for every b) and the per-b
    lines tied to the g-sector degree law."""

    b: Fraction
    layer: tuple
    per_b: tuple

    def __post_init__(self):
        _freeze(self, "layer", "per_b")

    def family_diffs(self) -> list[Fraction]:
        """Per-b lines carrying a one-parameter family with g-content."""
        return [e.diff for e in self.per_b if e.g_generic > 0]

    def isolated_points(self) -> list[tuple]:
        """Non-degenerate isolated (delta, dbar) jumps on the per-b lines."""
        return [
            (s.delta, s.dbar)
            for e in self.per_b
            for s in e.specials
            if not s.degenerate
        ]


def g_family_witness(m: int, b, dbar=None) -> CocycleWitness:
    """The homogeneous degree-m g-sector family on the line diff = m + b.

    Coefficients follow the recursion b*a_i = -a_0*C(m, i+1) - a_0*dbar*C(m, i)
    with a_0 = 1.  ``dbar`` is a concrete weight or a polynomial in t; the
    default is the scan variable t itself (the ``t = dbar`` chart).
    """
    b = Fraction(b)
    if dbar is None:
        dbar = T
    elif not isinstance(dbar, MultiPoly):
        dbar = MultiPoly.const(dbar)
    g = MultiPoly.monomial((m, 0, 0, 0), Fraction(1))
    for i in range(1, m + 1):
        coeff = (MultiPoly.const(Fraction(comb(m, i + 1))) + dbar * comb(m, i)) * (
            Fraction(-1) / b
        )
        g = g + coeff * MultiPoly.monomial((m - i, i, 0, 0), Fraction(1))
    return CocycleWitness(f=MultiPoly.zero(), g=g)


def line_family(sp: ScanProblem) -> CocycleWitness | None:
    """The verified g family on a line diff = m + b, or None if it has none.

    A line carries a family when it has generic g-sector solutions; the
    degree law puts those only on lines where m = diff - b is an integer in
    0..3.  The family is built at the line's own ``dbar`` (t in one chart,
    t - diff in the other) and checked by substitution with t left free.  A
    line off the degree law, or a failed check, raises ``ArithmeticError``.
    """
    if _line_data(sp).g_generic <= 0:
        return None
    m = sp.diff - Fraction(sp.base.b)
    if m.denominator != 1 or not 0 <= m <= 3:
        raise ArithmeticError(f"generic g-sector solutions at m = {m}, off the degree law")
    env = sp.env_t()
    fam = g_family_witness(int(m), sp.base.b, dbar=env["dbar"])
    if not verify_witness_env(3, env, fam).passed:
        raise ArithmeticError(f"derived degree-{m} family fails verification over Q[t]")
    return fam


def _line_specials(sp: ScanProblem, rep: ScanReport) -> list:
    out = []
    for value, dim in rep.special_values:
        delta, dbar = sp.weights_at(value)
        degenerate = delta == 0 or dbar == 0
        witnesses = ()
        if not degenerate:
            sol = engine.solve_ext(sp.specialize(value), stabilize=False, check=False)
            if sol.ext_dim != dim:
                raise ArithmeticError(
                    "scan specialization and direct solve disagree "
                    f"at t={value}: {dim} vs {sol.ext_dim}"
                )
            witnesses = sol.basis
        out.append(
            SpecialPoint(
                delta=delta,
                dbar=dbar,
                t_value=value,
                dim=dim,
                degenerate=degenerate,
                witnesses=witnesses,
            )
        )
    return out


def _sample_t(sp: ScanProblem, rep: ScanReport) -> Fraction:
    """First small integer t that avoids certificate roots and zero weights."""
    t0 = Fraction(1)
    while True:
        delta, dbar = sp.weights_at(t0)
        if delta != 0 and dbar != 0 and rep.certificate.eval(t0) != 0:
            return t0
        t0 += 1


def _line_entry(b, diff, sector, caps, m=None) -> LineEntry:
    sp = scan_dbar(b, diff, sector=sector, caps=caps)
    rep = special_values(sp)
    g_generic = _line_data(sp).g_generic
    f_generic = rep.generic_dim - g_generic
    families = []
    fam = line_family(sp)
    if fam is not None:
        families.append((fam, "g family, valid for every t on the line"))
    if f_generic > 0:
        t0 = _sample_t(sp, rep)
        sol = engine.solve_ext(sp.specialize(t0), stabilize=False, check=False)
        for w in sol.basis:
            if w.g.is_zero():
                families.append((w, f"f family member at sample t={t0}"))
    return LineEntry(
        diff=Fraction(diff),
        sector=sector,
        generic_dim=rep.generic_dim,
        g_generic=g_generic,
        f_generic=f_generic,
        report=rep,
        m=m,
        families=families,
        specials=_line_specials(sp, rep),
    )


# The b-independent layer is the same for every b at one caps setting;
# classify pays for it once per caps and reuses it for every later b.
@lru_cache(maxsize=4)
def _virasoro_layer(caps) -> tuple:
    return tuple(_line_entry(None, Fraction(s), "f", caps) for s in range(7))


def candidate_diffs(b, sector: str) -> list[Fraction]:
    """Candidate weight-difference lines for a sector.

    The g-sector law confines deformations of the second generator to
    diff = m + b with m <= 3; the first-generator sector is blind to b and
    lives on integer differences 0..6.  Both bounds are theorems re-checked
    by the test suite's off-line probes, not heuristics.
    """
    g_lines = [Fraction(m) + Fraction(b) for m in range(4)] if b is not None else []
    f_lines = [Fraction(s) for s in range(7)]
    if sector == "g":
        return g_lines
    if sector == "f":
        return f_lines
    return sorted(set(g_lines) | set(f_lines))


def classify(b, caps=None) -> ClassifyReport:
    """Classify all extension lines and isolated points for one rational b.

    Runs scans over every candidate line: the b-independent layer (f-only
    witnesses) once, and the four g-sector lines diff = m + b with their
    f-companions.  Entries record generic dimensions, one-parameter family
    witnesses, and confirmed isolated jumps with engine witnesses.
    """
    b = Fraction(b)
    if b == 0:
        raise ValueError("b = 0 is outside this family of algebras")
    caps = caps if caps is not None else Caps()
    per_b = [_line_entry(b, Fraction(m) + b, "full", caps, m=m) for m in range(4)]
    return ClassifyReport(b=b, layer=_virasoro_layer(caps), per_b=per_b)
